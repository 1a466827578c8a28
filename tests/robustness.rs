//! Robustness and determinism tests across the pipeline.

use essent::core::plan::{extended_dag, CcssPlan};
use essent::prelude::*;
use essent::sim::testgen::gen_circuit;

/// Partitioning and planning are fully deterministic: building twice from
/// the same netlist yields identical schedules, members, and triggers.
#[test]
fn plans_are_deterministic() {
    for seed in [3u64, 77, 1234] {
        let circuit = gen_circuit(seed);
        let netlist = essent::compile(&circuit.source).unwrap();
        let a = CcssPlan::build(&netlist, 8);
        let b = CcssPlan::build(&netlist, 8);
        assert_eq!(a.sched_of_signal, b.sched_of_signal, "seed {seed}");
        assert_eq!(a.partitions.len(), b.partitions.len());
        for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
            assert_eq!(pa.members, pb.members);
            assert_eq!(
                pa.outputs
                    .iter()
                    .map(|o| (o.signal, o.consumers.clone()))
                    .collect::<Vec<_>>(),
                pb.outputs
                    .iter()
                    .map(|o| (o.signal, o.consumers.clone()))
                    .collect::<Vec<_>>(),
            );
        }
    }
}

/// Zero-width signals flow through the whole pipeline.
#[test]
fn zero_width_signals_supported() {
    let src = "circuit Z :\n  module Z :\n    input a : UInt<0>\n    input b : UInt<4>\n    output o : UInt<5>\n    output z : UInt<1>\n    o <= add(pad(a, 1), b)\n    z <= orr(a)\n";
    let netlist = essent::compile(src).unwrap();
    let mut sim = EssentSim::new(&netlist, &EngineConfig::default());
    sim.poke("b", Bits::from_u64(7, 4));
    sim.step(1);
    assert_eq!(sim.peek("o").to_u64(), Some(7));
    assert_eq!(sim.peek("z").to_u64(), Some(0));
}

/// Step after halt is a no-op returning 0 for every engine.
#[test]
fn step_after_halt_is_noop() {
    let src = "circuit H :\n  module H :\n    input clock : Clock\n    input reset : UInt<1>\n    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))\n    r <= tail(add(r, UInt<4>(1)), 1)\n    stop(clock, eq(r, UInt<4>(2)), 5)\n";
    let netlist = essent::compile(src).unwrap();
    let engines: Vec<Box<dyn Simulator>> = vec![
        Box::new(FullCycleSim::new(&netlist, &EngineConfig::default())),
        Box::new(EssentSim::new(&netlist, &EngineConfig::default())),
        Box::new(EventDrivenSim::new(&netlist, &EngineConfig::default())),
        Box::new(essent::sim::ParEssentSim::new(
            &netlist,
            &EngineConfig::default(),
            2,
        )),
    ];
    for mut sim in engines {
        sim.poke("reset", Bits::from_u64(0, 1));
        sim.step(50);
        assert_eq!(sim.halted(), Some(5), "{}", sim.engine_name());
        let at = sim.cycle();
        assert_eq!(sim.step(10), 0, "{}", sim.engine_name());
        assert_eq!(sim.cycle(), at);
    }
}

/// Poking a non-input panics with a clear message.
#[test]
#[should_panic(expected = "is not an input")]
fn poking_non_input_panics() {
    let src =
        "circuit P :\n  module P :\n    input a : UInt<4>\n    output o : UInt<4>\n    o <= a\n";
    let netlist = essent::compile(src).unwrap();
    let mut sim = EssentSim::new(&netlist, &EngineConfig::default());
    sim.poke("o", Bits::from_u64(1, 4));
}

/// Frontend errors carry actionable messages.
#[test]
fn frontend_error_messages() {
    let cases: Vec<(&str, &str)> = vec![
        ("circuit A :\n  module A :\n    input a : UInt<4>\n    output o : UInt<4>\n    o <= unknown_signal\n", "undeclared"),
        ("circuit B :\n  module C :\n    skip\n", "no module"),
        ("circuit D :\n  module D :\n    wire w : UInt<4>\n    w <= bogus_op(w)\n", "unknown operation"),
        ("circuit E :\n  module E :\n    output o : UInt<1>\n    wire x : UInt<1>\n    wire y : UInt<1>\n    x <= not(y)\n    y <= not(x)\n    o <= x\n", "cycle"),
    ];
    for (src, needle) in cases {
        let err = essent::compile(src).expect_err(src).to_string();
        assert!(err.contains(needle), "expected `{needle}` in error `{err}`");
    }
}

/// The optimized netlist is never larger than the raw netlist, and both
/// simulate identically on random circuits (spot check beyond the
/// property suite).
#[test]
fn optimizer_shrinks_and_preserves() {
    for seed in [11u64, 99, 4242] {
        let circuit = gen_circuit(seed);
        let raw = essent::compile_unoptimized(&circuit.source).unwrap();
        let opt = essent::compile(&circuit.source).unwrap();
        assert!(
            opt.signal_count() <= raw.signal_count(),
            "seed {seed}: optimizer grew the netlist"
        );
        let (dag, _) = extended_dag(&opt);
        assert!(essent::core::partition::partition(&dag, 8)
            .check(&dag)
            .is_clean());
    }
}

/// Runs the built `essent-cli`; returns (exit ok?, stdout, stderr).
fn cli(args: &[&str]) -> (bool, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_essent-cli"))
        .args(args)
        .output()
        .expect("essent-cli runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Hostile command lines get a one-line diagnosis on stderr and a
/// non-zero exit — no panic, no silently-defaulted option, and no
/// simulation run before a bad name is noticed.
#[test]
fn cli_rejects_hostile_input_without_panicking() {
    let design = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("robustness_cli.fir");
    std::fs::write(
        &design,
        "circuit P :\n  module P :\n    input a : UInt<4>\n    output o : UInt<4>\n    o <= a\n",
    )
    .unwrap();
    let fir = design.to_str().unwrap();

    let (ok, stdout, _) = cli(&[
        "sim", fir, "--cycles", "3", "--poke", "a=0x5", "--peek", "o",
    ]);
    assert!(
        ok && stdout.contains("ran 3 cycles") && stdout.contains("o = "),
        "{stdout}"
    );

    let cases: [(&[&str], &str); 13] = [
        (&["sim", fir, "--peek", "nope"], "no signal named `nope`"),
        (&["sim", fir, "--poke", "nope=1"], "no signal named `nope`"),
        (&["sim", fir, "--poke", "o=1"], "`o` is not an input"),
        (&["sim", fir, "--poke", "a"], "NAME=VALUE"),
        (&["sim", fir, "--poke", "a=zz"], ""),
        (&["sim", fir, "--cycle", "5"], "unknown option `--cycle`"),
        (&["sim", fir, "--cycles"], "`--cycles` needs a value"),
        (&["sim", fir, "--cycles", "many"], "expects a number"),
        (&["sim", fir, "--engine", "warp"], "unknown engine `warp`"),
        (&["stats", fir, "--verbose", "1"], "unknown option"),
        (&["simulate", fir], "unknown command"),
        (&["sim", "/nonexistent/design.fir"], "reading"),
        (
            &["sim", fir, "--vcd", "/nonexistent/dir/w.vcd"],
            "writing /nonexistent/dir/w.vcd",
        ),
    ];
    for (args, needle) in cases {
        let (ok, stdout, stderr) = cli(args);
        assert!(!ok, "{args:?} should fail");
        assert!(stderr.starts_with("essent-cli: "), "{args:?}: {stderr}");
        assert!(
            stderr.contains(needle),
            "{args:?}: expected `{needle}` in `{stderr}`"
        );
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            !stdout.contains("ran "),
            "{args:?} simulated before failing: {stdout}"
        );
    }
}

/// `--engine native` is the essent engine with `jit: true`: same results
/// and work as `--engine essent`, plus one line saying what was
/// compiled. It is also what `sim` runs without `--engine`. On a host
/// that cannot execute emitted code an explicit `--engine native` is
/// refused with the usual one-line diagnosis before anything is
/// simulated, and the default runs the tier-1 interpreter and says so.
#[test]
fn cli_native_engine_runs_or_is_refused() {
    let design = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("robustness_native.fir");
    std::fs::write(
        &design,
        "circuit N :\n  module N :\n    input clock : Clock\n    input reset : UInt<1>\n    input a : UInt<8>\n    output o : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(xor(r, a), UInt<8>(3)), 1)\n    o <= and(r, not(a))\n",
    )
    .unwrap();
    let fir = design.to_str().unwrap();
    let run = |engine: &str| {
        cli(&[
            "sim", fir, "--cycles", "20", "--poke", "a=0x5", "--engine", engine,
        ])
    };
    let (default_ok, default_out, _) = cli(&["sim", fir, "--cycles", "20", "--poke", "a=0x5"]);
    assert!(default_ok, "{default_out}");

    let (ok, stdout, stderr) = run("native");
    if essent::sim::jit::supported() {
        assert!(ok, "{stderr}");
        let line = stdout
            .lines()
            .find(|l| l.starts_with("native: "))
            .unwrap_or_else(|| panic!("no native line in:\n{stdout}"));
        let numbers: Vec<usize> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().unwrap())
            .collect();
        let &[compiled, partitions, bodies, bytes, plain] = numbers.as_slice() else {
            panic!("expected five counts in `{line}`");
        };
        assert!(line.ends_with("plain slots") && line.contains(" code bytes, "));
        assert!(line.contains(" partitions in ") && line.contains(" bodies, "));
        assert!(compiled >= 1 && compiled <= partitions, "{line}");
        assert!(bodies >= 1 && bodies <= compiled, "{line}");
        assert!(bytes > 0 && plain <= partitions, "{line}");
        // Everything else the run prints is the essent engine's.
        let (ok, essent_out, _) = run("essent");
        assert!(ok);
        let rest: String = stdout.lines().filter(|&l| l != line).collect();
        assert_eq!(rest, essent_out.lines().collect::<String>());
        // x86-64 Linux: the default engine is native.
        assert_eq!(default_out, stdout);
    } else {
        // The default stands in with tier-1 and says so.
        let (_, essent_out, _) = run("essent");
        let unavailable = "native: unavailable on this host; ran tier-1";
        let rest: String = default_out.lines().filter(|&l| l != unavailable).collect();
        assert!(
            default_out.lines().any(|l| l == unavailable),
            "{default_out}"
        );
        assert_eq!(rest, essent_out.lines().collect::<String>());
        assert!(!ok);
        assert!(
            stderr.starts_with("essent-cli: ") && stderr.contains("native"),
            "{stderr}"
        );
        assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
        assert!(!stdout.contains("ran "), "{stdout}");
    }
}

/// `sim --vcd` samples the engine it runs: the CCSS engine (native where
/// the host runs it) and the full-cycle engine write the same waveform,
/// byte for byte, over 200 cycles of the `tiny` SoC.
#[test]
fn cli_vcd_is_the_chosen_engines_waveform() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let design = dir.join("robustness_vcd.fir");
    let soc = essent::designs::soc::generate_soc(&essent::designs::soc::SocConfig::tiny());
    std::fs::write(&design, soc).unwrap();
    let fir = design.to_str().unwrap();
    let ccss = if essent::sim::jit::supported() {
        "native"
    } else {
        "essent"
    };
    let dump = |engine: &str| {
        let vcd = dir.join(format!("robustness_{engine}.vcd"));
        let (ok, stdout, stderr) = cli(&[
            "sim",
            fir,
            "--cycles",
            "200",
            "--engine",
            engine,
            "--vcd",
            vcd.to_str().unwrap(),
        ]);
        assert!(
            ok && stdout.contains("ran 200 cycles"),
            "{engine}: {stderr}"
        );
        std::fs::read(vcd).unwrap()
    };
    let (ccss_vcd, full_vcd) = (dump(ccss), dump("full"));
    assert!(ccss_vcd.len() > 1000, "{} bytes", ccss_vcd.len());
    if ccss_vcd != full_vcd {
        let (a, b) = (
            String::from_utf8_lossy(&ccss_vcd),
            String::from_utf8_lossy(&full_vcd),
        );
        let first = a.lines().zip(b.lines()).position(|(x, y)| x != y);
        panic!("{ccss} and full VCDs differ first at line {first:?}");
    }
}
