//! `essent-cli` — command-line front door to the simulator generator.
//!
//! ```text
//! essent-cli stats <design.fir>                     design + partition statistics
//! essent-cli partition <design.fir> [--cp N]        C_p sweep table
//! essent-cli sim <design.fir> [options]             run the simulation
//!     --cycles N          cycles to run (default 1000, stops early on `stop`)
//!     --engine E          native | essent | full | event | parallel (default
//!                         native where the host supports it, else essent;
//!                         native = essent with the hot partitions compiled
//!                         to machine code, x86-64 Linux only; essent = the
//!                         tier-1 interpreter; parallel = CCSS over the
//!                         static dataflow schedule, one worker per
//!                         available core)
//!     --cp N              partitioning threshold (default 8)
//!     --poke NAME=VALUE   hold an input at a value (repeatable; default all 0,
//!                         reset pulsed for 2 cycles when present)
//!     --vcd FILE          dump a waveform
//!     --peek NAME         print a signal at the end (repeatable)
//! ```

use essent::netlist::SignalDef;
use essent::prelude::*;
use essent::sim::vcd::VcdWriter;
use essent::sim::ParEssentSim;
use std::error::Error;
use std::fs;
use std::io::BufWriter;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("essent-cli: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Some(command) = args.first() else {
        return Err("usage: essent-cli <stats|partition|sim> <design.fir> [options]".into());
    };
    type Command = fn(&str, &[String]) -> Result<(), Box<dyn Error>>;
    let command: Command = match command.as_str() {
        "stats" => stats,
        "partition" => partition_sweep,
        "sim" => sim,
        other => return Err(format!("unknown command `{other}`").into()),
    };
    let file = args
        .get(1)
        .ok_or("missing FIRRTL input file (second argument)")?;
    let source = fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    command(&source, &args[2..])
}

/// The `--name value` pairs after the input file. Every option takes
/// exactly one value; a name outside `known`, a trailing name with no
/// value or a second occurrence of an option other than `--poke` and
/// `--peek` is an error, never silently the default or the first value.
struct Opts<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Opts<'a> {
    fn parse(rest: &'a [String], known: &[&str]) -> Result<Opts<'a>, String> {
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        let mut it = rest.iter();
        while let Some(name) = it.next() {
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown option `{name}`"));
            }
            let repeatable = ["--poke", "--peek"].contains(&name.as_str());
            if !repeatable && pairs.iter().any(|&(n, _)| n == name) {
                return Err(format!("option `{name}` given more than once"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("option `{name}` needs a value"))?;
            pairs.push((name.as_str(), value.as_str()));
        }
        Ok(Opts(pairs))
    }

    /// Every value given for `name`, in order.
    fn all(&self, name: &'a str) -> impl Iterator<Item = &'a str> + '_ {
        self.0
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn get(&self, name: &'a str) -> Option<&'a str> {
        self.all(name).next()
    }

    /// The numeric value of `name`, when given.
    fn number<T: std::str::FromStr>(&self, name: &'a str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("`{name}` expects a number, got `{v}`"))
            })
            .transpose()
    }
}

fn stats(source: &str, rest: &[String]) -> Result<(), Box<dyn Error>> {
    Opts::parse(rest, &[])?;
    let unopt = essent::compile_unoptimized(source)?;
    let opt = essent::compile(source)?;
    println!("raw netlist      : {}", unopt.stats());
    println!("optimized netlist: {}", opt.stats());
    let sim = EssentSim::new(&opt, &EngineConfig::default());
    println!(
        "CCSS plan (C_p=8): {} partitions, {} trigger pairs, {}/{} registers elided",
        sim.partition_count(),
        sim.plan().trigger_count(),
        sim.plan().reg_plans.iter().filter(|r| r.elided).count(),
        sim.plan().reg_plans.len()
    );
    Ok(())
}

fn partition_sweep(source: &str, rest: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(rest, &["--cp"])?;
    let netlist = essent::compile(source)?;
    let cps: Vec<usize> = match opts.number("--cp")? {
        Some(cp) => vec![cp],
        None => vec![1, 2, 4, 8, 16, 32, 64, 128],
    };
    println!(
        "{:>5} {:>11} {:>10} {:>9} {:>10}",
        "C_p", "partitions", "mean size", "largest", "cut edges"
    );
    let (dag, _writes) = essent::core::plan::extended_dag(&netlist);
    for cp in cps {
        let parts = essent::core::partition::partition(&dag, cp);
        let s = parts.stats();
        println!(
            "{:>5} {:>11} {:>10.1} {:>9} {:>10}",
            cp, s.partitions, s.mean_size, s.largest, s.cut_edges
        );
    }
    Ok(())
}

/// Applies the default stimulus — reset pulsed for two cycles when the
/// design has one — and then the user's pokes.
fn apply_stimulus(sim: &mut dyn Simulator, has_reset: bool, pokes: &[(&str, Bits)]) {
    if has_reset {
        sim.poke("reset", Bits::from_u64(1, 1));
        sim.step(2);
        sim.poke("reset", Bits::from_u64(0, 1));
    }
    for (name, bits) in pokes {
        sim.poke(name, bits.clone());
    }
}

fn sim(source: &str, rest: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(
        rest,
        &["--cycles", "--engine", "--cp", "--poke", "--vcd", "--peek"],
    )?;
    let cycles: u64 = opts.number("--cycles")?.unwrap_or(1000);
    let config = EngineConfig {
        c_p: opts.number("--cp")?.unwrap_or(8),
        ..EngineConfig::default()
    };
    // Each engine with the line it adds to the summary, if any. Without
    // `--engine` the native engine runs where it can, and the tier-1
    // interpreter says that it stood in.
    type Build = fn(&Netlist, &EngineConfig) -> (Box<dyn Simulator>, Option<String>);
    let native = essent::sim::jit::supported();
    let build: Build = match opts.get("--engine") {
        None if !native => |n, c| {
            let line = "native: unavailable on this host; ran tier-1".to_string();
            (Box::new(EssentSim::new(n, c)), Some(line))
        },
        Some("essent") => |n, c| (Box::new(EssentSim::new(n, c)), None),
        None | Some("native") => {
            if !native {
                return Err("engine `native` needs x86-64 Linux".into());
            }
            |n, c| {
                let config = EngineConfig {
                    jit: true,
                    ..c.clone()
                };
                let sim = EssentSim::new(n, &config);
                let parts = sim.jit_parts();
                let line = format!(
                    "native: {} of {} partitions in {} bodies, {} code bytes, {} plain slots",
                    sim.jit_compiled_count(),
                    sim.partition_count(),
                    parts.map_or(0, |j| j.body_count()),
                    parts.map_or(0, |j| j.code_bytes()),
                    sim.plain_slot_count()
                );
                (Box::new(sim), Some(line))
            }
        }
        Some("full") => |n, c| (Box::new(FullCycleSim::new(n, c)), None),
        Some("event") => |n, c| (Box::new(EventDrivenSim::new(n, c)), None),
        Some("parallel") => |n, c| (Box::new(ParEssentSim::new(n, c, 0)), None),
        Some(other) => return Err(format!("unknown engine `{other}`").into()),
    };
    let netlist = essent::compile(source)?;

    // Every name is resolved, and the waveform file created, before any
    // engine is built or cycle run: a typo costs a message, not a
    // finished simulation and a panic.
    let is_input = |id| matches!(netlist.signal(id).def, SignalDef::Input);
    let mut pokes = Vec::new();
    for poke in opts.all("--poke") {
        let (name, value) = poke
            .split_once('=')
            .ok_or_else(|| format!("--poke expects NAME=VALUE, got `{poke}`"))?;
        let id = netlist.lookup(name)?;
        if !is_input(id) {
            return Err(format!("`{name}` is not an input").into());
        }
        let width = netlist.signal(id).width;
        let bits = match value.strip_prefix("0x") {
            Some(hex) => Bits::parse(&format!("h{hex}"), width)?,
            None => Bits::parse(value, width)?,
        };
        pokes.push((name, bits));
    }
    let peeks = opts
        .all("--peek")
        .map(|name| Ok((name, netlist.lookup(name)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let has_reset = netlist.find("reset").is_some_and(is_input);
    let vcd_file = opts
        .get("--vcd")
        .map(|path| fs::File::create(path).map_err(|e| format!("writing {path}: {e}")))
        .transpose()?;

    let (mut sim, engine_line) = build(&netlist, &config);
    apply_stimulus(sim.as_mut(), has_reset, &pokes);

    let ran = if let Some(file) = vcd_file {
        // The chosen engine, one cycle per step, sampled after each.
        let mut vcd = VcdWriter::new(BufWriter::new(file), &netlist, &netlist.name)?;
        let mut t = 0;
        while t < cycles && sim.step(1) == 1 {
            vcd.sample(sim.as_ref(), t)?;
            t += 1;
        }
        t
    } else {
        sim.step(cycles)
    };

    println!("ran {ran} cycles on `{}` engine", sim.engine_name());
    if let Some(line) = engine_line {
        println!("{line}");
    }
    if let Some(code) = sim.halted() {
        println!("design stopped with code {code}");
    }
    for line in sim.printf_log() {
        print!("{line}");
    }
    for (name, id) in &peeks {
        println!("{name} = {}", sim.peek_id(*id));
    }
    if peeks.is_empty() {
        for &out in netlist.outputs() {
            let s = netlist.signal(out);
            println!("{} = {}", s.name, sim.peek_id(out));
        }
    }
    let c = sim.counters();
    println!(
        "work: {} ops, {} static checks, {} dynamic checks",
        c.ops_evaluated, c.static_checks, c.dynamic_checks
    );
    Ok(())
}
