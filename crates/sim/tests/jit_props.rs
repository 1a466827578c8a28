//! Native-tier (JIT) equivalence.
//!
//! The compiled bodies must be drop-in replacements for the tier-1
//! interpreter: on randomly generated circuits, with the partitions the
//! cost model selects running native code, the ESSENT engine must agree
//! with the golden interpreter on every output every cycle, and its
//! deterministic work counters must match a JIT-free twin bit-for-bit.
//! The dataflow engine ignores `jit` (its workers share flag bytes a
//! native bit `or` would race on) and must stay golden-exact with it on.
//! The emitter's own tests (`jit::x64`) run every eligible program of
//! these circuits natively, whatever its cost.
//!
//! Partitions whose programs differ only in arena offsets and wake
//! targets share one native body, each through its own operand record;
//! a replicated design must compile into fewer bodies than partitions
//! and stay exact.
//!
//! On targets where the JIT is unsupported these tests degrade to plain
//! tier-1 equivalence runs (nothing compiles) and still pass — the
//! gating itself is part of what is under test.

use essent_bits::Bits;
use essent_netlist::{interp::Interpreter, Netlist};
use essent_sim::testgen::{gen_circuit, gen_replicated, switch_matrix};
use essent_sim::{EngineConfig, EssentSim, ParEssentSim, Simulator};
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

/// One random stimulus vector per input, shared across all engines.
fn poke_all(
    rng: &mut StdRng,
    cycle: u64,
    inputs: &[(String, u32)],
    golden: &mut Interpreter,
    engines: &mut [&mut dyn Simulator],
) {
    for (name, width) in inputs {
        let value = if name == "reset" {
            Bits::from_u64((cycle < 2 || rng.gen_bool(0.05)) as u64, 1)
        } else {
            Bits::from_limbs(vec![rng.gen(), rng.gen()], *width)
        };
        golden.poke(name, value.clone());
        for e in engines.iter_mut() {
            e.poke(name, value.clone());
        }
    }
}

/// Sequential engine under `config` (`jit: true`) vs golden and a
/// JIT-free twin, checking outputs + counters every cycle; returns how
/// many partitions ran native code.
fn check_jit_essent(seed: u64, config: &EngineConfig) -> usize {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source);
    let mut golden = Interpreter::new(&netlist);
    let off = EngineConfig {
        jit: false,
        ..config.clone()
    };
    let mut plain = EssentSim::new(&netlist, &off);
    let mut jitted = EssentSim::new(&netlist, config);
    let compiled = jitted.jit_compiled_count();
    let parts = jitted.partition_count();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x717);
    for cycle in 0..40u64 {
        poke_all(
            &mut rng,
            cycle,
            &circuit.inputs,
            &mut golden,
            &mut [&mut plain, &mut jitted],
        );
        golden.step(1);
        plain.step(1);
        jitted.step(1);
        for out in &circuit.outputs {
            let expect = golden.peek(out);
            assert_eq!(
                jitted.peek(out),
                expect,
                "seed {seed} cycle {cycle} ({compiled}/{parts} compiled): \
                 jitted essent disagrees with golden on {out}\n{}",
                circuit.source
            );
        }
        assert_eq!(
            jitted.counters(),
            plain.counters(),
            "seed {seed} cycle {cycle}: JIT perturbed work counters\n{}",
            circuit.source
        );
    }
    compiled
}

/// The switch matrix for the JIT path — everything that changes what
/// the compiled body must replicate (mux lowering, state elision,
/// trigger direction, fusion) — at two partition sizes. Returns how many
/// partitions ran native code over the matrix.
fn check_jit_config_matrix(seed: u64) -> usize {
    let mut compiled = 0;
    for (_, config) in switch_matrix() {
        for c_p in [4, 64] {
            let config = EngineConfig {
                c_p,
                jit: true,
                ..config.clone()
            };
            compiled += check_jit_essent(seed, &config);
        }
    }
    compiled
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn jit_matches_golden_across_config_matrix(seed in any::<u64>()) {
        check_jit_config_matrix(seed);
    }

}

/// Fixed seeds, trivially re-runnable on failure; native code must
/// actually run where the host supports it.
#[test]
fn jit_fixed_seeds() {
    let compiled: usize = [0u64, 1, 42, 0xE55E]
        .into_iter()
        .map(check_jit_config_matrix)
        .sum();
    let gated = !essent_sim::jit::supported() || cfg!(feature = "race-sanitizer");
    assert!(compiled > 0 || gated, "nothing compiled");
}

/// The dataflow engine with `jit: true` runs the tier-1 interpreter: it
/// matches the golden interpreter every cycle and its `jit: false` twin's
/// work counters throughout.
#[test]
fn jit_par_matches_golden() {
    let off = EngineConfig::default();
    let on = EngineConfig {
        jit: true,
        ..off.clone()
    };
    for seed in [0u64, 1, 42, 0xE55E] {
        let circuit = gen_circuit(seed);
        let netlist = build(&circuit.source);
        let mut golden = Interpreter::new(&netlist);
        let mut plain = ParEssentSim::new(&netlist, &off, 3);
        let mut par = ParEssentSim::new(&netlist, &on, 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x939);
        for cycle in 0..40u64 {
            poke_all(
                &mut rng,
                cycle,
                &circuit.inputs,
                &mut golden,
                &mut [&mut plain, &mut par],
            );
            golden.step(1);
            plain.step(1);
            par.step(1);
            for out in &circuit.outputs {
                assert_eq!(
                    par.peek(out),
                    golden.peek(out),
                    "seed {seed} cycle {cycle}: par with jit disagrees with golden on {out}\n{}",
                    circuit.source
                );
            }
            assert_eq!(
                par.counters(),
                plain.counters(),
                "seed {seed} cycle {cycle}"
            );
        }
    }
}

/// Under the race sanitizer the dynamic oracle instruments the tier-1
/// interpreter loop, so `jit: true` must be silently ignored while
/// equivalence with the golden interpreter still holds.
#[cfg(feature = "race-sanitizer")]
#[test]
fn jit_stays_disabled_under_sanitizer() {
    for seed in [0u64, 42, 0xE55E] {
        let circuit = gen_circuit(seed);
        let netlist = build(&circuit.source);
        let config = EngineConfig {
            jit: true,
            ..EngineConfig::default()
        };
        let mut golden = Interpreter::new(&netlist);
        let mut sim = EssentSim::new(&netlist, &config);
        assert_eq!(
            sim.jit_compiled_count(),
            0,
            "seed {seed}: sanitizer must gate JIT"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        for cycle in 0..20u64 {
            poke_all(
                &mut rng,
                cycle,
                &circuit.inputs,
                &mut golden,
                &mut [&mut sim],
            );
            golden.step(1);
            sim.step(1);
            for out in &circuit.outputs {
                assert_eq!(
                    sim.peek(out),
                    golden.peek(out),
                    "seed {seed} cycle {cycle} {out}"
                );
            }
        }
    }
}

/// The default config (`C_p` 8, which the matrix skips) with
/// `jit: true` must behave identically to `jit: false`.
#[test]
fn jit_threshold_selection_is_transparent() {
    for seed in [7u64, 0xBEE] {
        let circuit = gen_circuit(seed);
        let netlist = build(&circuit.source);
        let mut golden = Interpreter::new(&netlist);
        let off = EngineConfig::default();
        let on = EngineConfig {
            jit: true,
            ..off.clone()
        };
        let mut plain = EssentSim::new(&netlist, &off);
        let mut jitted = EssentSim::new(&netlist, &on);
        let mut rng = StdRng::seed_from_u64(seed);
        for cycle in 0..30u64 {
            poke_all(
                &mut rng,
                cycle,
                &circuit.inputs,
                &mut golden,
                &mut [&mut plain, &mut jitted],
            );
            golden.step(1);
            plain.step(1);
            jitted.step(1);
            for out in &circuit.outputs {
                assert_eq!(jitted.peek(out), golden.peek(out), "seed {seed} {out}");
            }
            assert_eq!(jitted.counters(), plain.counters(), "seed {seed} counters");
        }
    }
}

/// Four copies of one generated module: the engine runs fewer bodies
/// than native partitions, and stays golden-exact and counter-exact
/// against a JIT-free twin every cycle.
#[test]
fn replicated_partitions_share_bodies() {
    for seed in [3u64, 11, 0xE55E] {
        let circuit = gen_replicated(seed, 4);
        let netlist = build(&circuit.source);
        let config = EngineConfig {
            jit: true,
            ..EngineConfig::default()
        };
        let mut golden = Interpreter::new(&netlist);
        let mut plain = EssentSim::new(&netlist, &EngineConfig::default());
        let mut sim = EssentSim::new(&netlist, &config);
        let compiled = sim.jit_compiled_count();
        let Some(parts) = sim.jit_parts().filter(|_| compiled > 0) else {
            let gated = !essent_sim::jit::supported() || cfg!(feature = "race-sanitizer");
            assert!(gated, "seed {seed}: nothing compiled");
            continue;
        };
        let bodies = parts.body_count();
        assert!(
            bodies < compiled,
            "seed {seed}: {bodies} bodies for {compiled} partitions"
        );

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for cycle in 0..48u64 {
            poke_all(
                &mut rng,
                cycle,
                &circuit.inputs,
                &mut golden,
                &mut [&mut plain, &mut sim],
            );
            golden.step(1);
            plain.step(1);
            sim.step(1);
            for out in &circuit.outputs {
                assert_eq!(
                    sim.peek(out),
                    golden.peek(out),
                    "seed {seed} cycle {cycle} {out}\n{}",
                    circuit.source
                );
            }
            assert_eq!(
                sim.counters(),
                plain.counters(),
                "seed {seed} cycle {cycle}: counters"
            );
        }
    }
}
