//! The parallel engine's dataflow schedule is execution-equivalent to
//! the sequential engine at every worker count, cycle for cycle, op for
//! op, and both agree with the golden interpreter.

use essent_sim::testgen::{build, gen_circuit, switch_matrix, Lockstep, Match, Reset};
use essent_sim::{EssentSim, ParEssentSim};
use proptest::prelude::*;

/// The static dataflow schedule vs. the sequential engine vs. the golden
/// interpreter across the optimization matrix, at 1, 2 and 4 workers:
/// the schedule may only change *who* runs a partition and *when*
/// relative to others (ready-flag waits, cycle-boundary overlap for
/// exempt partitions), never whether it runs or what it computes. So
/// outputs agree with the golden every call, the three worker counts
/// agree on exact [`WorkCounters`](essent_sim::WorkCounters), and they
/// evaluate exactly the ops the sequential engine evaluates and end in
/// its state — per cycle, and again over a batched `step(16)`, the only
/// place cross-cycle overlap actually engages (a `step(1)` drains the
/// pipeline every call).
fn check_dataflow_differential(seed: u64) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source, false);
    for (label, config) in switch_matrix() {
        // Per-cycle phase, then a batched phase on fresh engines: one
        // poke, sixteen cycles in a single engine call.
        for steps in [&[1u64; 20][..], &[2, 16][..]] {
            let mut run = Lockstep::new(format!("seed {seed} [{label}]"), &circuit, &netlist);
            let seq = run.row("sequential", EssentSim::new(&netlist, &config));
            let dfs = [1, 2, 4].map(|w| {
                let df = ParEssentSim::new(&netlist, &config, w);
                run.row(&format!("dataflow at {w} worker(s)"), df)
            });
            run.twin(dfs[0], seq, Match::Ops);
            run.twin(dfs[0], dfs[1], Match::Counters);
            run.twin(dfs[0], dfs[2], Match::Counters);
            run.run(seed ^ 0xDA7A, Reset::Random, steps);
        }
    }
}

proptest! {
    // The matrix is 16 configs deep per case; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dataflow_matches_sequential_and_golden(seed in any::<u64>()) {
        check_dataflow_differential(seed);
    }
}

/// Fixed seeds as plain tests so failures are easy to rerun.
#[test]
fn dataflow_fixed_seeds() {
    for seed in [0u64, 7, 0xC0FFEE, 0xDF10] {
        check_dataflow_differential(seed);
    }
}
