//! Differential oracle for the race sanitizer: with the
//! `race-sanitizer` feature enabled, a [`ParEssentSim`] built with
//! `race_sanitizer: true` must (a) never panic — the static footprint
//! and dependence proofs (`essent-verify` `R0501`–`R0504`,
//! `S0601`–`S0605`) claim the dataflow schedule is race-free, and the
//! sanitizer panics exactly on races — and
//! (b) behave identically to the sanitizer-off twin: same outputs and
//! `WorkCounters` every step, same state at the end, across the engine
//! switch matrix — stepping cycle by cycle at 1, 2, and 3 workers, and in
//! batched steps (where cycles overlap) at 1, 2, and 4.
//!
//! Without the feature the test still runs (both twins are plain
//! parallel engines), keeping the harness itself under test.

use essent_sim::testgen::{build, gen_circuit, switch_matrix, Lockstep, Match, Reset};
use essent_sim::{EngineConfig, ParEssentSim};
use proptest::prelude::*;

/// Sanitizer-on vs sanitizer-off parallel twins over the switch matrix
/// (`testgen::switch_matrix`), each checked against the reference
/// interpreter — cycle by cycle, or (`batched`) in the steps that
/// actually overlap cycles: a `step(1)` drains the pipeline every call,
/// and over a `step(16)` the sanitizer's epoch windows must still see
/// every access as ordered.
fn check_sanitizer_twins(seed: u64, threads: usize, batched: bool) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source, false);
    let (drawn, reset, steps): (u64, Reset, &[u64]) = if batched {
        (seed ^ 0xDF5A, Reset::At(&[0, 1]), &[2, 16, 16])
    } else {
        (seed ^ 0x5A17, Reset::Random, &[1; 25])
    };
    for (label, config) in switch_matrix() {
        let ctx = format!("seed={seed} [{label}] threads={threads} batched={batched}");
        let mut run = Lockstep::new(ctx, &circuit, &netlist);
        let par = |config: &EngineConfig| ParEssentSim::new(&netlist, config, threads);
        let off = run.row("sanitizer-off", par(&config));
        let sanitized = EngineConfig {
            race_sanitizer: true,
            ..config.clone()
        };
        let on = run.row("sanitizer-on", par(&sanitized));
        run.twin(off, on, Match::Counters);
        run.run(drawn, reset, steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sanitizer_is_pure_observer(seed in any::<u64>()) {
        for threads in [1usize, 2, 3] {
            check_sanitizer_twins(seed, threads, false);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn batched_sanitizer_is_pure_observer(seed in any::<u64>()) {
        for threads in [1usize, 2, 4] {
            check_sanitizer_twins(seed, threads, true);
        }
    }
}

/// Fixed seeds, trivially re-runnable on failure.
#[test]
fn sanitizer_twins_fixed_seeds() {
    for seed in [0u64, 42] {
        for threads in [1usize, 2, 3] {
            check_sanitizer_twins(seed, threads, false);
        }
    }
}

#[test]
fn batched_sanitizer_fixed_seeds() {
    for seed in [0u64, 42] {
        for threads in [1usize, 2, 4] {
            check_sanitizer_twins(seed, threads, true);
        }
    }
}
