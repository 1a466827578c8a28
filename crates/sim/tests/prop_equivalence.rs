//! Cross-engine equivalence: on randomly generated synchronous circuits
//! driven by random stimulus, every engine (full-cycle, ESSENT at several
//! `C_p` values, event-driven) must agree with the reference interpreter
//! on every output, every cycle — with and without netlist optimizations.
//!
//! This is the central correctness argument of the repository: the CCSS
//! machinery (partitioning, activity flags, push triggers, state update
//! elision, conditional mux ways) is pure optimization and can never
//! change observable behavior.

use essent_bits::Bits;
use essent_netlist::{interp::Interpreter, opt, Netlist};
use essent_sim::testgen::{gen_circuit, switch_matrix};
use essent_sim::{EngineConfig, EssentSim, EventDrivenSim, FullCycleSim, ParEssentSim, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build(source: &str) -> Netlist {
    let parsed = essent_firrtl::parse(source)
        .unwrap_or_else(|e| panic!("generated FIRRTL must parse: {e}\n{source}"));
    let lowered = essent_firrtl::passes::lower(parsed)
        .unwrap_or_else(|e| panic!("generated FIRRTL must lower: {e}\n{source}"));
    Netlist::from_circuit(&lowered)
        .unwrap_or_else(|e| panic!("generated FIRRTL must build: {e}\n{source}"))
}

/// Drives all engines with identical stimulus and compares every output
/// every cycle against the interpreter.
fn check_equivalence(seed: u64, optimize: bool) {
    let circuit = gen_circuit(seed);
    let mut netlist = build(&circuit.source);
    if optimize {
        opt::optimize(&mut netlist, &opt::OptConfig::default());
    }
    let config = EngineConfig::default();
    let mut golden = Interpreter::new(&netlist);
    let mut engines: Vec<Box<dyn Simulator>> = vec![
        Box::new(FullCycleSim::new(&netlist, &config)),
        Box::new(FullCycleSim::new(&netlist, &EngineConfig::baseline())),
        Box::new(EventDrivenSim::new(&netlist, &config)),
        Box::new(EssentSim::new(
            &netlist,
            &EngineConfig {
                c_p: 1,
                ..config.clone()
            },
        )),
        Box::new(EssentSim::new(
            &netlist,
            &EngineConfig {
                c_p: 4,
                ..config.clone()
            },
        )),
        Box::new(EssentSim::new(
            &netlist,
            &EngineConfig {
                c_p: 8,
                ..config.clone()
            },
        )),
        Box::new(EssentSim::new(
            &netlist,
            &EngineConfig {
                c_p: 64,
                ..config.clone()
            },
        )),
        Box::new(EssentSim::new(
            &netlist,
            &EngineConfig {
                elide_state: false,
                mux_conditional: false,
                ..config.clone()
            },
        )),
        Box::new(EssentSim::new(
            &netlist,
            &EngineConfig {
                trigger_push: false,
                ..config.clone()
            },
        )),
        Box::new(EventDrivenSim::new(
            &netlist,
            &EngineConfig {
                event_levelized: false,
                ..config.clone()
            },
        )),
        Box::new(ParEssentSim::new(&netlist, &config, 3)),
    ];

    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    for cycle in 0..40u64 {
        for (name, width) in &circuit.inputs {
            // Hold reset high for the first two cycles, then random.
            let value = if name == "reset" {
                Bits::from_u64((cycle < 2 || rng.gen_bool(0.05)) as u64, 1)
            } else {
                let lo = rng.gen::<u64>();
                let hi = rng.gen::<u64>();
                Bits::from_limbs(vec![lo, hi], *width)
            };
            golden.poke(name, value.clone());
            for e in engines.iter_mut() {
                e.poke(name, value.clone());
            }
        }
        golden.step(1);
        for e in engines.iter_mut() {
            e.step(1);
        }
        for out in &circuit.outputs {
            let expect = golden.peek(out);
            for e in engines.iter() {
                let got = e.peek(out);
                assert_eq!(
                    got,
                    expect,
                    "seed {seed} opt={optimize} cycle {cycle}: engine {} disagrees on {out}\n{}",
                    e.engine_name(),
                    circuit.source
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_match_interpreter_unoptimized(seed in any::<u64>()) {
        check_equivalence(seed, false);
    }

    #[test]
    fn engines_match_interpreter_optimized(seed in any::<u64>()) {
        check_equivalence(seed, true);
    }
}

/// A couple of fixed seeds as plain tests so failures are easy to rerun.
#[test]
fn equivalence_fixed_seeds() {
    for seed in [0u64, 1, 2, 42, 0xE55E] {
        check_equivalence(seed, false);
        check_equivalence(seed, true);
    }
}

// --- Config-matrix sweep: profiling must be a pure observer -------------
//
// For every point of the optimization switch matrix, run two twin
// engines — identical except `profile` — against the golden interpreter.
// Profiling is only telemetry: the twins must agree with the golden on
// every output every cycle, AND their deterministic work counters must
// be bit-identical (a profiler that perturbs evaluation order, trigger
// decisions, or elision shows up here even when outputs happen to
// match).

/// Drives a profiled/unprofiled engine pair plus the interpreter over
/// shared stimulus; returns nothing, panics with full context on any
/// divergence.
fn check_observer_twins(
    seed: u64,
    label: &str,
    golden: &mut Interpreter,
    off: &mut dyn Simulator,
    on: &mut dyn Simulator,
    circuit: &essent_sim::testgen::GenCircuit,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    for cycle in 0..30u64 {
        for (name, width) in &circuit.inputs {
            let value = if name == "reset" {
                Bits::from_u64((cycle < 2 || rng.gen_bool(0.05)) as u64, 1)
            } else {
                Bits::from_limbs(vec![rng.gen(), rng.gen()], *width)
            };
            golden.poke(name, value.clone());
            off.poke(name, value.clone());
            on.poke(name, value);
        }
        golden.step(1);
        off.step(1);
        on.step(1);
        for out in &circuit.outputs {
            let expect = golden.peek(out);
            for (which, e) in [("profile-off", &*off), ("profile-on", &*on)] {
                assert_eq!(
                    e.peek(out),
                    expect,
                    "seed {seed} [{label}] cycle {cycle}: {which} {} disagrees on {out}\n{}",
                    e.engine_name(),
                    circuit.source
                );
            }
        }
        assert_eq!(
            off.counters(),
            on.counters(),
            "seed {seed} [{label}] cycle {cycle}: profiling perturbed {}'s work counters\n{}",
            off.engine_name(),
            circuit.source
        );
    }
    let report = on
        .profile_report()
        .expect("profiled engine must produce a report");
    assert_eq!(report.cycles, on.cycle(), "[{label}] report cycle count");
    assert!(
        report.total_evals() + report.total_skips() > 0,
        "[{label}] report saw no activity at all"
    );
}

/// The switch matrix for the CCSS engine, each point run as
/// profiled/unprofiled twins.
fn check_config_matrix(seed: u64) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source);
    for (label, config) in switch_matrix() {
        let mut golden = Interpreter::new(&netlist);
        let mut off = EssentSim::new(&netlist, &config);
        let mut on = EssentSim::new(
            &netlist,
            &EngineConfig {
                profile: true,
                ..config.clone()
            },
        );
        check_observer_twins(
            seed,
            &format!("essent [{label}]"),
            &mut golden,
            &mut off,
            &mut on,
            &circuit,
        );
    }
}

/// Only the CCSS engine profiles: the others ignore `profile` — built
/// with it on, they are the unprofiled engine and report nothing. Their
/// golden equivalence is [`check_equivalence`]'s.
#[test]
fn profile_is_pure_observer_other_engines() {
    let netlist = build(&gen_circuit(0).source);
    let on = EngineConfig {
        profile: true,
        ..EngineConfig::default()
    };
    let engines: [Box<dyn Simulator>; 3] = [
        Box::new(FullCycleSim::new(&netlist, &on)),
        Box::new(EventDrivenSim::new(&netlist, &on)),
        Box::new(ParEssentSim::new(&netlist, &on, 3)),
    ];
    for e in engines {
        assert!(e.profile_report().is_none(), "{} profiled", e.engine_name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn profile_is_pure_observer_across_config_matrix(seed in any::<u64>()) {
        check_config_matrix(seed);
    }
}

/// Fixed seeds for the matrix, trivially re-runnable on failure.
#[test]
fn config_matrix_fixed_seeds() {
    for seed in [0u64, 42] {
        check_config_matrix(seed);
    }
}
