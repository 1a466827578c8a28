//! Differential oracle for the race sanitizer: with the
//! `race-sanitizer` feature enabled, a [`ParEssentSim`] built with
//! `race_sanitizer: true` must (a) never panic — the static footprint
//! and dependence proofs (`essent-verify` `R0501`–`R0504`,
//! `S0601`–`S0605`) claim the dataflow schedule is race-free, and the
//! sanitizer panics exactly on races — and
//! (b) behave identically to the sanitizer-off twin: same outputs every
//! cycle, same [`WorkCounters`] at the end, across the engine switch
//! matrix — stepping cycle by cycle at 1, 2, and 3 workers, and in
//! batched steps (where cycles overlap) at 1, 2, and 4.
//!
//! Without the feature the test still runs (both twins are plain
//! parallel engines), keeping the harness itself under test.

use essent_bits::Bits;
use essent_netlist::{interp::Interpreter, Netlist};
use essent_sim::testgen::{gen_circuit, switch_matrix};
use essent_sim::{EngineConfig, ParEssentSim, Simulator};
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

/// Sanitizer-on vs sanitizer-off parallel twins over the switch matrix
/// (`testgen::switch_matrix`), each checked against the reference
/// interpreter.
fn check_sanitizer_twins(seed: u64, threads: usize) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source);
    for (label, config) in switch_matrix() {
        let mut golden = Interpreter::new(&netlist);
        let mut off = ParEssentSim::new(&netlist, &config, threads);
        let mut on = ParEssentSim::new(
            &netlist,
            &EngineConfig {
                race_sanitizer: true,
                ..config.clone()
            },
            threads,
        );

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A17);
        for cycle in 0..25u64 {
            for (name, width) in &circuit.inputs {
                let value = if name == "reset" {
                    Bits::from_u64((cycle < 2 || rng.gen_bool(0.05)) as u64, 1)
                } else {
                    let lo = rng.gen::<u64>();
                    let hi = rng.gen::<u64>();
                    Bits::from_limbs(vec![lo, hi], *width)
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
                assert_eq!(
                    off.peek(out),
                    expect,
                    "sanitizer-off `{out}` diverged (seed={seed} [{label}] \
                     threads={threads} cycle={cycle})"
                );
                assert_eq!(
                    on.peek(out),
                    expect,
                    "sanitizer-on `{out}` diverged (seed={seed} [{label}] \
                     threads={threads} cycle={cycle})"
                );
            }
        }
        assert_eq!(
            on.counters(),
            off.counters(),
            "sanitizer changed work counters (seed={seed} [{label}] threads={threads})"
        );
    }
}

/// The same twin discipline over batched steps: the `step(16)` legs are
/// the ones that actually overlap cycles — a `step(1)` drains the
/// pipeline every call — and the sanitizer's epoch windows must still
/// see every access as ordered.
fn check_batched_sanitizer_twins(seed: u64, threads: usize) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source);
    for (label, config) in switch_matrix() {
        let mut golden = Interpreter::new(&netlist);
        let mut off = ParEssentSim::new(&netlist, &config, threads);
        let mut on = ParEssentSim::new(
            &netlist,
            &EngineConfig {
                race_sanitizer: true,
                ..config.clone()
            },
            threads,
        );

        let mut rng = StdRng::seed_from_u64(seed ^ 0xDF5A);
        for (phase, n) in [(0u32, 2u64), (1, 16), (2, 16)] {
            for (name, width) in &circuit.inputs {
                let value = if name == "reset" {
                    Bits::from_u64((phase == 0) as u64, 1)
                } else {
                    let lo = rng.gen::<u64>();
                    let hi = rng.gen::<u64>();
                    Bits::from_limbs(vec![lo, hi], *width)
                };
                golden.poke(name, value.clone());
                off.poke(name, value.clone());
                on.poke(name, value);
            }
            golden.step(n);
            off.step(n);
            on.step(n);
            for out in &circuit.outputs {
                let expect = golden.peek(out);
                assert_eq!(
                    off.peek(out),
                    expect,
                    "batched sanitizer-off `{out}` diverged (seed={seed} [{label}] \
                     threads={threads} phase={phase})"
                );
                assert_eq!(
                    on.peek(out),
                    expect,
                    "batched sanitizer-on `{out}` diverged (seed={seed} [{label}] \
                     threads={threads} phase={phase})"
                );
            }
        }
        assert_eq!(
            on.counters(),
            off.counters(),
            "batched sanitizer changed work counters (seed={seed} [{label}] \
             threads={threads})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sanitizer_is_pure_observer(seed in any::<u64>()) {
        for threads in [1usize, 2, 3] {
            check_sanitizer_twins(seed, threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn batched_sanitizer_is_pure_observer(seed in any::<u64>()) {
        for threads in [1usize, 2, 4] {
            check_batched_sanitizer_twins(seed, threads);
        }
    }
}

/// Fixed seeds, trivially re-runnable on failure.
#[test]
fn sanitizer_twins_fixed_seeds() {
    for seed in [0u64, 42] {
        for threads in [1usize, 2, 3] {
            check_sanitizer_twins(seed, threads);
        }
    }
}

#[test]
fn batched_sanitizer_fixed_seeds() {
    for seed in [0u64, 42] {
        for threads in [1usize, 2, 4] {
            check_batched_sanitizer_twins(seed, threads);
        }
    }
}
