//! Cross-engine equivalence: on randomly generated synchronous circuits
//! driven by random stimulus, every engine (full-cycle, ESSENT at several
//! `C_p` values, event-driven, dataflow) must agree with the reference
//! interpreter on every output, every cycle — with and without netlist
//! optimizations.
//!
//! This is the central correctness argument of the repository: the CCSS
//! machinery (partitioning, activity flags, push triggers, state update
//! elision, conditional mux ways) is pure optimization and can never
//! change observable behavior.

use essent_sim::testgen::{build, gen_circuit, switch_matrix, Lockstep, Match, Reset};
use essent_sim::{EngineConfig, EssentSim, EventDrivenSim, FullCycleSim, ParEssentSim, Simulator};
use proptest::prelude::*;

/// Drives all engines with identical stimulus and compares every output
/// every cycle against the interpreter.
fn check_equivalence(seed: u64, optimize: bool) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source, optimize);
    let config = EngineConfig::default();
    let with = |tweak: fn(&mut EngineConfig)| {
        let mut config = config.clone();
        tweak(&mut config);
        config
    };
    let essent = |tweak| EssentSim::new(&netlist, &with(tweak));
    let mut run = Lockstep::new(format!("seed {seed} opt={optimize}"), &circuit, &netlist);
    let full = FullCycleSim::new(&netlist, &config);
    let baseline = FullCycleSim::new(&netlist, &EngineConfig::baseline());
    // One definition of a cycle's full work: the bench's full-cycle facts
    // read the first count, Figure 7's activity factor the third.
    let steps = [
        full.steps_per_cycle(),
        baseline.steps_per_cycle(),
        EssentSim::new(&netlist, &config).full_steps_per_cycle(),
    ];
    assert_eq!(steps, [steps[0]; 3], "seed {seed}: steps per cycle");
    run.row("full-cycle", full);
    run.row("baseline", baseline);
    run.row("event-driven", EventDrivenSim::new(&netlist, &config));
    let fifo = with(|c| c.event_levelized = false);
    run.row("event-driven fifo", EventDrivenSim::new(&netlist, &fifo));
    run.row("essent c_p=1", essent(|c| c.c_p = 1));
    run.row("essent c_p=4", essent(|c| c.c_p = 4));
    run.row("essent c_p=8", essent(|c| c.c_p = 8));
    run.row("essent c_p=64", essent(|c| c.c_p = 64));
    let no_mux = |c: &mut EngineConfig| (c.elide_state, c.mux_conditional) = (false, false);
    run.row("essent no elision, no mux ways", essent(no_mux));
    run.row("essent pull", essent(|c| c.trigger_push = false));
    run.row("dataflow", ParEssentSim::new(&netlist, &config, 3));
    run.run(seed ^ 0xD1CE, Reset::Random, &[1; 40]);
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

/// The switch matrix for the CCSS engine, each point run as
/// profiled/unprofiled twins.
fn check_config_matrix(seed: u64) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source, false);
    for (label, config) in switch_matrix() {
        let mut run = Lockstep::new(format!("seed {seed} [{label}]"), &circuit, &netlist);
        let off = run.row("profile-off", EssentSim::new(&netlist, &config));
        let profiled = EngineConfig {
            profile: true,
            ..config.clone()
        };
        let on = run.row("profile-on", EssentSim::new(&netlist, &profiled));
        run.twin(off, on, Match::Counters);
        run.run(seed ^ 0xBEEF, Reset::Random, &[1; 30]);
        let report = run
            .sim(on)
            .profile_report()
            .expect("profiled engine must produce a report");
        assert_eq!(
            report.cycles,
            run.sim(on).cycle(),
            "[{label}] report cycle count"
        );
        assert!(
            report.total_evals() + report.total_skips() > 0,
            "[{label}] report saw no activity at all"
        );
    }
}

/// Only the CCSS engine profiles: the others ignore `profile` — built
/// with it on, they are the unprofiled engine and report nothing. Their
/// golden equivalence is [`check_equivalence`]'s.
#[test]
fn profile_is_pure_observer_other_engines() {
    let netlist = build(&gen_circuit(0).source, false);
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
