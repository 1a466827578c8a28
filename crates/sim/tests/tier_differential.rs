//! Differential testing of trigger fusion: on randomly generated
//! circuits under random stimulus, the CCSS engines with fused trigger
//! writes must be *bit- and work-identical* to the same engine with
//! fusion off — same outputs and the same five work counters every
//! cycle, the same value in every signal at the end: a fused
//! compare-and-wake tail is a pure re-encoding of the engine's snapshot
//! compare, so it must evaluate exactly the operations and checks the
//! unfused path does, never more (no speculation) and
//! never fewer (no lost wake-ups). Both, and the dataflow engine, agree
//! with the golden interpreter every cycle.
//!
//! That the tier-1 program of each partition computes what its bytecode
//! does is held one level down, partition by partition, by
//! `step1::tests::every_partition_program_matches_its_block`.

use essent_sim::testgen::{build, gen_circuit, Lockstep, Match, Reset};
use essent_sim::{EngineConfig, EssentSim, ParEssentSim};
use proptest::prelude::*;

/// Fused and unfused twins — counter-exact every cycle, and at the end
/// identical in every signal (the fused tails write exactly the slots
/// the unfused program and the engine's compare leave behind) — and the
/// dataflow engine, all against the golden interpreter.
fn check_tier_differential(seed: u64) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source, false);
    let fused = EngineConfig::default();
    assert!(fused.fuses_triggers(), "default config fuses triggers");
    let unfused = EngineConfig {
        fuse_triggers: false,
        ..fused.clone()
    };
    let mut run = Lockstep::new(format!("seed {seed}"), &circuit, &netlist);
    let a = run.row("tier+fuse", EssentSim::new(&netlist, &fused));
    let b = run.row("tier", EssentSim::new(&netlist, &unfused));
    run.row("par tier+fuse", ParEssentSim::new(&netlist, &fused, 3));
    run.twin(a, b, Match::Counters);
    run.run(seed ^ 0x71E2, Reset::Random, &[1; 40]);
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
