//! Differential testing of trigger fusion: on randomly generated
//! circuits under random stimulus, the CCSS engines with fused trigger
//! writes must be *bit- and work-identical* to the same engine with
//! fusion off — same outputs every cycle, same arena contents, and the
//! same `ops_evaluated`, `dynamic_checks` and `static_checks` after the
//! run: a fused compare-and-wake tail is a pure re-encoding of the
//! engine's snapshot compare, so it must evaluate exactly the operations
//! and checks the unfused path does, never more (no speculation) and
//! never fewer (no lost wake-ups). Both, and the dataflow engine, agree
//! with the golden interpreter every cycle.
//!
//! That the tier-1 program of each partition computes what its bytecode
//! does is held one level down, partition by partition, by
//! `step1::tests::every_partition_program_matches_its_block`.

use essent_bits::Bits;
use essent_netlist::interp::Interpreter;
use essent_netlist::Netlist;
use essent_sim::testgen::gen_circuit;
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

fn check_tier_differential(seed: u64) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source);
    let fused = EngineConfig::default();
    assert!(fused.fuses_triggers(), "default config fuses triggers");
    let unfused = EngineConfig {
        fuse_triggers: false,
        ..fused.clone()
    };

    let mut golden = Interpreter::new(&netlist);
    let mut seq_fused = EssentSim::new(&netlist, &fused);
    let mut seq_unfused = EssentSim::new(&netlist, &unfused);
    let mut par_fused = ParEssentSim::new(&netlist, &fused, 3);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x71E2);
    for cycle in 0..40u64 {
        for (name, width) in &circuit.inputs {
            let value = if name == "reset" {
                Bits::from_u64((cycle < 2 || rng.gen_bool(0.05)) as u64, 1)
            } else {
                let lo = rng.gen::<u64>();
                let hi = rng.gen::<u64>();
                Bits::from_limbs(vec![lo, hi], *width)
            };
            golden.poke(name, value.clone());
            seq_fused.poke(name, value.clone());
            seq_unfused.poke(name, value.clone());
            par_fused.poke(name, value);
        }
        golden.step(1);
        seq_fused.step(1);
        seq_unfused.step(1);
        par_fused.step(1);
        for out in &circuit.outputs {
            let expect = golden.peek(out);
            for (label, got) in [
                ("tier+fuse", seq_fused.peek(out)),
                ("tier", seq_unfused.peek(out)),
                ("par tier+fuse", par_fused.peek(out)),
            ] {
                assert_eq!(
                    got, expect,
                    "seed {seed} cycle {cycle}: {label} disagrees with golden on {out}\n{}",
                    circuit.source
                );
            }
        }
    }

    // Arena identity: the fused tails write exactly the slots the
    // unfused program and the engine's compare leave behind.
    assert_eq!(
        seq_fused.machine().arena,
        seq_unfused.machine().arena,
        "seed {seed}: fused arena"
    );

    // Work identity: the fused compare-and-wake tail accounts for
    // exactly the dynamic checks the engine loop performs unfused.
    let (f, u) = (seq_fused.counters(), seq_unfused.counters());
    assert_eq!(
        f.ops_evaluated, u.ops_evaluated,
        "seed {seed}: ops_evaluated"
    );
    assert_eq!(
        f.dynamic_checks, u.dynamic_checks,
        "seed {seed}: dynamic_checks"
    );
    assert_eq!(
        f.static_checks, u.static_checks,
        "seed {seed}: static_checks"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_engines_match_unfused(seed in any::<u64>()) {
        check_tier_differential(seed);
    }
}

/// Fixed seeds as plain tests so failures are easy to rerun.
#[test]
fn tier_differential_fixed_seeds() {
    for seed in [0u64, 1, 2, 42, 0xE55E] {
        check_tier_differential(seed);
    }
}
