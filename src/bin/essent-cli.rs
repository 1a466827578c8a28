//! `essent-cli` — command-line front door to the simulator generator.
//!
//! ```text
//! essent-cli stats <design.fir>                     design + partition statistics
//! essent-cli partition <design.fir> [--cp N]        C_p sweep table
//! essent-cli sim <design.fir> [options]             run the simulation
//!     --cycles N          cycles to run (default 1000, stops early on `stop`)
//!     --engine E          essent | full | event | parallel (default essent;
//!                         parallel = CCSS over the static dataflow
//!                         schedule, one worker per available core)
//!     --cp N              partitioning threshold (default 8)
//!     --poke NAME=VALUE   hold an input at a value (repeatable; default all 0,
//!                         reset pulsed for 2 cycles when present)
//!     --vcd FILE          dump a waveform
//!     --peek NAME         print a signal at the end (repeatable)
//! essent-cli codegen <design.fir> [-o out.h]        emit the C++ simulator
//! ```

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
        return Err(
            "usage: essent-cli <stats|partition|sim|codegen> <design.fir> [options]".into(),
        );
    };
    let file = args
        .get(1)
        .ok_or("missing FIRRTL input file (second argument)")?;
    let source = fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let rest = &args[2..];
    match command.as_str() {
        "stats" => stats(&source),
        "partition" => partition_sweep(&source, rest),
        "sim" => sim(&source, rest),
        "codegen" => codegen(&source, rest),
        other => Err(format!("unknown command `{other}`").into()),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

fn stats(source: &str) -> Result<(), Box<dyn Error>> {
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
    let netlist = essent::compile(source)?;
    let cps: Vec<usize> = match flag_value(rest, "--cp") {
        Some(v) => vec![v.parse()?],
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

fn sim(source: &str, rest: &[String]) -> Result<(), Box<dyn Error>> {
    let netlist = essent::compile(source)?;
    let cycles: u64 = flag_value(rest, "--cycles").unwrap_or("1000").parse()?;
    let c_p: usize = flag_value(rest, "--cp").unwrap_or("8").parse()?;
    let config = EngineConfig {
        c_p,
        ..EngineConfig::default()
    };
    let engine = flag_value(rest, "--engine").unwrap_or("essent");
    let mut sim: Box<dyn Simulator> = match engine {
        "essent" => Box::new(EssentSim::new(&netlist, &config)),
        "full" => Box::new(FullCycleSim::new(&netlist, &config)),
        "event" => Box::new(EventDrivenSim::new(&netlist, &config)),
        "parallel" => Box::new(ParEssentSim::new(&netlist, &config, 0)),
        other => return Err(format!("unknown engine `{other}`").into()),
    };

    // Default stimulus: everything 0; pulse reset if the design has one.
    let has_reset = netlist.find("reset").is_some();
    if has_reset {
        sim.poke("reset", Bits::from_u64(1, 1));
        sim.step(2);
        sim.poke("reset", Bits::from_u64(0, 1));
    }
    for poke in flag_values(rest, "--poke") {
        let (name, value) = poke
            .split_once('=')
            .ok_or_else(|| format!("--poke expects NAME=VALUE, got `{poke}`"))?;
        let id = sim
            .find(name)
            .ok_or_else(|| format!("no signal named `{name}`"))?;
        let width = netlist.signal(id).width;
        let bits = if let Some(hex) = value.strip_prefix("0x") {
            Bits::parse(&format!("h{hex}"), width)?
        } else {
            Bits::parse(value, width)?
        };
        sim.poke(name, bits);
    }

    let mut vcd = match flag_value(rest, "--vcd") {
        Some(path) => {
            let file = BufWriter::new(fs::File::create(path)?);
            Some(VcdWriter::new(file, &netlist, &netlist.name)?)
        }
        None => None,
    };

    let ran = if let Some(v) = vcd.as_mut() {
        // VCD sampling requires per-cycle stepping and machine access:
        // use a dedicated full-cycle engine mirror for dumping.
        let mut mirror = FullCycleSim::new(&netlist, &config);
        if has_reset {
            mirror.poke("reset", Bits::from_u64(1, 1));
            mirror.step(2);
            mirror.poke("reset", Bits::from_u64(0, 1));
        }
        for poke in flag_values(rest, "--poke") {
            if let Some((name, _)) = poke.split_once('=') {
                let id = mirror.find(name).expect("validated above");
                let width = netlist.signal(id).width;
                let value = poke.split_once('=').expect("validated").1;
                let bits = if let Some(hex) = value.strip_prefix("0x") {
                    Bits::parse(&format!("h{hex}"), width)?
                } else {
                    Bits::parse(value, width)?
                };
                mirror.poke(name, bits);
            }
        }
        let mut t = 0;
        while t < cycles && mirror.halted().is_none() {
            mirror.step(1);
            v.sample(mirror.machine(), t)?;
            t += 1;
        }
        sim.step(t)
    } else {
        sim.step(cycles)
    };

    println!("ran {ran} cycles on `{}` engine", sim.engine_name());
    if let Some(code) = sim.halted() {
        println!("design stopped with code {code}");
    }
    for line in sim.printf_log() {
        print!("{line}");
    }
    for name in flag_values(rest, "--peek") {
        println!("{name} = {}", sim.peek(name));
    }
    if flag_values(rest, "--peek").is_empty() {
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

fn codegen(source: &str, rest: &[String]) -> Result<(), Box<dyn Error>> {
    let netlist = essent::compile(source)?;
    let cpp = essent::sim::codegen::emit_cpp(&netlist, &EngineConfig::default())?;
    match flag_value(rest, "-o") {
        Some(path) => {
            fs::write(path, cpp)?;
            println!("wrote {path}");
        }
        None => print!("{cpp}"),
    }
    Ok(())
}
