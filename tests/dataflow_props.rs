//! Differential equivalence for the analysis-driven optimizations:
//! on randomly generated circuits, the netlist rewritten by the
//! known-bits/range passes (analysis folding + width narrowing) must
//! simulate identically to the unoptimized netlist under random
//! stimulus — every output, every cycle. The full default pipeline is
//! checked alongside, so interactions between the semantic passes and
//! the structural ones (forwarding, CSE, DCE) are covered too.

use essent::netlist::analysis;
use essent::netlist::opt::{const_prop, narrow, optimize, OptConfig};
use essent::prelude::*;
use essent::sim::testgen::gen_circuit;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Only the passes driven by the dataflow analysis, for the rounds
/// `optimize` would give them, so a failure implicates them directly
/// rather than the whole pipeline.
fn analysis_only(netlist: &mut Netlist) {
    for _ in 0..3 {
        let facts = analysis::analyze(netlist).expect("acyclic");
        let folded = const_prop::run_analysis(netlist, &facts);
        if folded + narrow::run(netlist, &facts) == 0 {
            break;
        }
    }
}

fn check_equivalence(seed: u64, cycles: u64) {
    let circuit = gen_circuit(seed);
    let reference = essent::compile_unoptimized(&circuit.source).expect("compiles");
    let mut semantic = reference.clone();
    analysis_only(&mut semantic);
    let mut full = reference.clone();
    optimize(&mut full, &OptConfig::default());

    let config = EngineConfig::default();
    let mut sims = [
        FullCycleSim::new(&reference, &config),
        FullCycleSim::new(&semantic, &config),
        FullCycleSim::new(&full, &config),
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xda7af10f);
    for cycle in 0..cycles {
        for (name, width) in &circuit.inputs {
            let v = Bits::from_limbs(vec![rng.gen(), rng.gen()], *width);
            for sim in &mut sims {
                sim.poke(name, v.clone());
            }
        }
        for sim in &mut sims {
            sim.step(1);
        }
        for out in &circuit.outputs {
            let want = sims[0].peek(out);
            prop_assert_eq!(
                &sims[1].peek(out),
                &want,
                "analysis-only diverges on `{}` at cycle {} (seed {})",
                out,
                cycle,
                seed
            );
            prop_assert_eq!(
                &sims[2].peek(out),
                &want,
                "full pipeline diverges on `{}` at cycle {} (seed {})",
                out,
                cycle,
                seed
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits, random stimulus: the analysis passes are
    /// behavior-preserving.
    #[test]
    fn analysis_passes_preserve_behavior(seed in any::<u64>()) {
        check_equivalence(seed, 30);
    }
}

/// A fixed deterministic sweep on top of the random one, so CI failures
/// reproduce without a proptest regression file.
#[test]
fn analysis_passes_preserve_behavior_fixed_seeds() {
    for seed in 0..40u64 {
        check_equivalence(seed, 30);
    }
}
