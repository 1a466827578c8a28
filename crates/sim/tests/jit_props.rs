//! Native-tier (JIT) equivalence and deopt coverage.
//!
//! The compiled bodies must be drop-in replacements for the tier-1
//! interpreter: on randomly generated circuits with every partition
//! force-compiled, the ESSENT engine must agree with the golden
//! interpreter on every output every cycle, its deterministic work
//! counters must match a JIT-free twin bit-for-bit, and forcibly
//! deoptimizing any subset of partitions *mid-run* must change nothing.
//! The dataflow engine ignores `jit` (its workers share flag bytes a
//! native bit `or` would race on) and must stay golden-exact with it on.
//!
//! Partitions whose programs differ only in arena offsets and wake
//! targets share one native body, each through its own operand record;
//! a replicated design must compile into fewer bodies than partitions
//! and stay exact while the members of a shared body deopt one by one.
//!
//! On targets where the JIT is unsupported these tests degrade to plain
//! tier-1 equivalence runs (compile-all returns 0 bodies) and still
//! pass — the gating itself is part of what is under test.

use essent_bits::Bits;
use essent_netlist::{interp::Interpreter, Netlist};
use essent_sim::testgen::{gen_circuit, gen_replicated};
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

/// Sequential engine, every partition force-compiled, vs golden and a
/// JIT-free twin; deopts a pseudo-random subset mid-run (including a
/// full deopt near the end) and checks outputs + counters every cycle.
fn check_jit_essent(seed: u64, config: &EngineConfig) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source);
    let mut golden = Interpreter::new(&netlist);
    let mut plain = EssentSim::new(&netlist, config);
    let mut jitted = EssentSim::new(&netlist, config);
    let compiled = jitted.jit_compile_all();
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
        // Mid-run deopt: drop one pseudo-random partition every few
        // cycles, and everything at cycle 30.
        if parts > 0 && cycle % 5 == 4 {
            jitted.force_deopt(rng.gen_range(0..parts));
        }
        if cycle == 30 {
            jitted.force_deopt_all();
            assert_eq!(jitted.jit_compiled_count(), 0);
        }
    }
}

/// The tier-relevant switch matrix for the JIT path: everything that
/// changes what the compiled body must replicate (mux lowering, state
/// elision, trigger direction, fusion) at two partition sizes.
fn check_jit_config_matrix(seed: u64) {
    for bits in 0..32u32 {
        let config = EngineConfig {
            trigger_push: bits & 1 != 0,
            mux_conditional: bits & 2 != 0,
            elide_state: bits & 4 != 0,
            fuse_triggers: bits & 8 != 0,
            c_p: if bits & 16 != 0 { 64 } else { 4 },
            tier1: true,
            jit: true,
            ..EngineConfig::default()
        };
        check_jit_essent(seed, &config);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn jit_matches_golden_across_config_matrix(seed in any::<u64>()) {
        check_jit_config_matrix(seed);
    }

}

/// Fixed seeds, trivially re-runnable on failure.
#[test]
fn jit_fixed_seeds() {
    for seed in [0u64, 1, 42, 0xE55E] {
        check_jit_config_matrix(seed);
    }
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
/// interpreter loop, so `jit: true` must be silently ignored — even the
/// force-compile testing hook must refuse — while equivalence with the
/// golden interpreter still holds.
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
        assert_eq!(
            sim.jit_compile_all(),
            0,
            "seed {seed}: force-compile must refuse"
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
        assert_eq!(
            sim.jit_compiled_count(),
            0,
            "seed {seed}: JIT appeared mid-run"
        );
    }
}

/// The cost-threshold path itself (no force-compile): default configs
/// with `jit: true` must behave identically to `jit: false`.
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

/// The engine caches native entry pointers in its wake-slot table.
/// Every operation that changes the native parts must refresh them:
/// `jit_compile_all` unmaps the executable arena the cost-selected
/// entries pointed into, `force_deopt` nulls one part and
/// `force_deopt_all` the rest. Partitions keep waking (random stimulus
/// every cycle) across that sequence, and the run stays bit-exact
/// against the golden interpreter and counter-exact against a JIT-free
/// twin.
#[test]
fn wake_slots_follow_every_change_of_the_native_parts() {
    let config = EngineConfig {
        jit: true,
        ..EngineConfig::default()
    };
    for seed in [5u64, 0xA11, 0xE55E] {
        let circuit = gen_circuit(seed);
        let netlist = build(&circuit.source);
        let mut golden = Interpreter::new(&netlist);
        let mut plain = EssentSim::new(&netlist, &EngineConfig::default());
        let mut seq = EssentSim::new(&netlist, &config);
        let parts = seq.partition_count();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51075);
        for cycle in 0..48u64 {
            match cycle {
                8 => {
                    seq.jit_compile_all();
                }
                // One at a time, a cycle apart: each slot goes from
                // native to interpreted while its neighbours stay.
                16..=31 if parts > 0 => {
                    let sched = (cycle as usize - 16) * parts / 16;
                    seq.force_deopt(sched);
                }
                32 => {
                    seq.force_deopt_all();
                    assert_eq!(seq.jit_compiled_count(), 0);
                }
                // And back: a second arena, a second set of entries.
                40 => {
                    seq.jit_compile_all();
                }
                _ => {}
            }
            poke_all(
                &mut rng,
                cycle,
                &circuit.inputs,
                &mut golden,
                &mut [&mut plain, &mut seq],
            );
            golden.step(1);
            plain.step(1);
            seq.step(1);
            for out in &circuit.outputs {
                let expect = golden.peek(out);
                assert_eq!(seq.peek(out), expect, "seed {seed} cycle {cycle} {out}");
            }
            assert_eq!(
                seq.counters(),
                plain.counters(),
                "seed {seed} cycle {cycle}: counters"
            );
        }
    }
}

/// Four copies of one generated module: the force-compiled engine runs
/// fewer bodies than native partitions, and stays golden-exact and
/// counter-exact against a JIT-free twin every cycle while one member of
/// a shared body deopts (the others keep running it) and then the rest.
#[test]
fn replicated_partitions_share_bodies_through_deopt() {
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
        let compiled = sim.jit_compile_all();
        let Some(parts) = sim.jit_parts().filter(|_| compiled > 0) else {
            let gated = !essent_sim::jit::supported() || cfg!(feature = "race-sanitizer");
            assert!(gated, "seed {seed}: nothing compiled");
            continue;
        };
        let bodies = parts.body_count();
        assert!(
            bodies < sim.jit_compiled_count(),
            "seed {seed}: {bodies} bodies for {compiled} partitions"
        );
        let body_of: Vec<Option<usize>> = (0..sim.partition_count())
            .map(|p| parts.part(p).map(|c| c.body()))
            .collect();
        let class: Vec<usize> = body_of
            .iter()
            .flatten()
            .map(|&b| {
                let members = (0..body_of.len()).filter(|&p| body_of[p] == Some(b));
                members.collect::<Vec<_>>()
            })
            .find(|class| class.len() > 1)
            .unwrap_or_else(|| panic!("seed {seed}: no shared body"));

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for cycle in 0..48u64 {
            match cycle {
                12 => {
                    assert!(sim.force_deopt(class[0]));
                    let parts = sim.jit_parts().unwrap();
                    assert_eq!(parts.body_count(), bodies, "the others still run it");
                }
                24 => {
                    for &p in &class[1..] {
                        assert!(sim.force_deopt(p));
                    }
                    assert_eq!(sim.jit_parts().unwrap().body_count(), bodies - 1);
                }
                _ => {}
            }
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
