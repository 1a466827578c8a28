//! Properties of the profile-feedback loop: the activity-guided merge
//! phase is pure scheduling — it may regroup partitions but can never
//! break the exact-cover/acyclicity invariants or change observable
//! behavior — and the parallel engine's dataflow schedule is
//! execution-equivalent to the sequential engine at every worker count,
//! cycle for cycle, op for op.

use essent_bits::Bits;
use essent_core::partition::{partition, partition_with_prior, ActivityMergeParams, ActivityPrior};
use essent_core::plan::{extended_dag, CcssPlan};
use essent_netlist::{interp::Interpreter, Netlist};
use essent_sim::testgen::gen_circuit;
use essent_sim::{activity_prior, EngineConfig, EssentSim, ParEssentSim, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn build(source: &str) -> Netlist {
    let parsed = essent_firrtl::parse(source)
        .unwrap_or_else(|e| panic!("generated FIRRTL must parse: {e}\n{source}"));
    let lowered = essent_firrtl::passes::lower(parsed)
        .unwrap_or_else(|e| panic!("generated FIRRTL must lower: {e}\n{source}"));
    Netlist::from_circuit(&lowered)
        .unwrap_or_else(|e| panic!("generated FIRRTL must build: {e}\n{source}"))
}

/// A prior with arbitrary known/unknown rates and costs, seeded.
fn random_prior(nodes: usize, seed: u64) -> ActivityPrior {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A17);
    let mut prior = ActivityPrior::neutral(nodes);
    for node in 0..nodes {
        if rng.gen_bool(0.7) {
            let rate = rng.gen_range(0u32..=100) as f64 / 100.0;
            let cost = rng.gen_range(0u32..50) as f64;
            prior.set_node(node, rate, cost);
        }
    }
    prior
}

/// The merge phase must preserve exact cover and partition-graph
/// acyclicity for any prior — neutral, all-cold, all-hot, or arbitrary —
/// at every `C_p`; and the neutral prior must be a strict no-op.
fn check_merge_invariants(seed: u64) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source);
    let (dag, _) = extended_dag(&netlist);
    let n = dag.node_count();
    for c_p in [1usize, 4, 8] {
        let params = ActivityMergeParams::for_cp(c_p);
        let baseline = partition(&dag, c_p);
        for (label, prior) in [
            ("neutral", ActivityPrior::neutral(n)),
            ("all-cold", ActivityPrior::uniform(n, 0.0)),
            ("all-hot", ActivityPrior::uniform(n, 1.0)),
            ("random", random_prior(n, seed)),
        ] {
            let (merged, log) = partition_with_prior(&dag, c_p, &prior, &params);
            let report = merged.check(&dag);
            assert!(
                report.is_clean(),
                "seed {seed} c_p={c_p} [{label}]: merged partitioning invalid:\n{report}"
            );
            match label {
                // Unknown (or cold) rates never clear the hot threshold:
                // the structural partitioning must come through unchanged.
                "neutral" | "all-cold" => {
                    assert!(
                        log.is_empty(),
                        "seed {seed} c_p={c_p} [{label}]: merged anyway"
                    );
                    assert_eq!(
                        merged.assignment(),
                        baseline.assignment(),
                        "seed {seed} c_p={c_p} [{label}]: assignment drifted"
                    );
                }
                _ => {
                    let before = baseline.live_partitions().count();
                    let after = merged.live_partitions().count();
                    assert_eq!(
                        before - after,
                        log.len(),
                        "seed {seed} c_p={c_p} [{label}]: log disagrees with partition count"
                    );
                }
            }
        }
    }
}

/// Closes the loop end-to-end on a random circuit: profile a run,
/// convert the report to a prior, rebuild with `new_shared_with_prior`, and
/// require golden-equivalence of the repartitioned engine.
fn check_feedback_loop(seed: u64) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source);
    let config = EngineConfig {
        c_p: 4,
        ..EngineConfig::default()
    };

    // Seeding run.
    let mut profiled = EssentSim::new(
        &netlist,
        &EngineConfig {
            profile: true,
            ..config.clone()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
    for cycle in 0..30u64 {
        for (name, width) in &circuit.inputs {
            let value = if name == "reset" {
                Bits::from_u64((cycle < 2 || rng.gen_bool(0.05)) as u64, 1)
            } else {
                Bits::from_limbs(vec![rng.gen(), rng.gen()], *width)
            };
            profiled.poke(name, value);
        }
        profiled.step(1);
    }
    let report = profiled.profile_report().expect("profile config is on");
    let plan = CcssPlan::build(&netlist, config.c_p);
    let prior = activity_prior(&netlist, &plan, &report);

    // The feedback-guided engine must still match the interpreter.
    let mut golden = Interpreter::new(&netlist);
    let mut fb = EssentSim::new_shared_with_prior(Arc::new(netlist.clone()), &config, Some(&prior));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    for cycle in 0..40u64 {
        for (name, width) in &circuit.inputs {
            let value = if name == "reset" {
                Bits::from_u64((cycle < 2 || rng.gen_bool(0.05)) as u64, 1)
            } else {
                Bits::from_limbs(vec![rng.gen(), rng.gen()], *width)
            };
            golden.poke(name, value.clone());
            fb.poke(name, value);
        }
        golden.step(1);
        fb.step(1);
        for out in &circuit.outputs {
            assert_eq!(
                fb.peek(out),
                golden.peek(out),
                "seed {seed} cycle {cycle}: feedback engine disagrees on {out}\n{}",
                circuit.source
            );
        }
    }
}

/// The static dataflow schedule vs. the sequential engine vs. the golden
/// interpreter across the optimization matrix, at 1, 2 and 4 workers:
/// the schedule may only change *who* runs a partition and *when*
/// relative to others (ready-flag waits, cycle-boundary overlap for
/// exempt partitions), never whether it runs or what it computes. So
/// outputs agree with both references every cycle, the three worker
/// counts agree on exact [`WorkCounters`](essent_sim::WorkCounters), and
/// they evaluate exactly the ops the sequential engine evaluates —
/// per cycle, and again over a batched `step(16)`, the only place
/// cross-cycle overlap actually engages (a `step(1)` drains the pipeline
/// every call).
fn check_dataflow_differential(seed: u64) {
    const WORKERS: [usize; 3] = [1, 2, 4];
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source);
    for bits in 0..32u32 {
        let config = EngineConfig {
            trigger_push: bits & 1 != 0,
            mux_conditional: bits & 2 != 0,
            elide_state: bits & 4 != 0,
            tier1: bits & 8 != 0,
            fuse_triggers: bits & 16 != 0,
            c_p: 4,
            ..EngineConfig::default()
        };
        // Per-cycle phase, then a batched phase on fresh engines: one
        // poke, sixteen cycles in a single engine call.
        for steps in [&[1u64; 20][..], &[2, 16][..]] {
            let mut golden = Interpreter::new(&netlist);
            let mut seq = EssentSim::new(&netlist, &config);
            let mut dfs = WORKERS.map(|w| ParEssentSim::new(&netlist, &config, w));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
            let mut cycle = 0u64;
            for &n in steps {
                let tag = format!("seed {seed} bits={bits:05b} cycle {cycle}+{n}");
                for (name, width) in &circuit.inputs {
                    let value = if name == "reset" {
                        Bits::from_u64((cycle < 2 || rng.gen_bool(0.05)) as u64, 1)
                    } else {
                        Bits::from_limbs(vec![rng.gen(), rng.gen()], *width)
                    };
                    golden.poke(name, value.clone());
                    seq.poke(name, value.clone());
                    for df in &mut dfs {
                        df.poke(name, value.clone());
                    }
                }
                golden.step(n);
                seq.step(n);
                for df in &mut dfs {
                    df.step(n);
                }
                cycle += n;
                for out in &circuit.outputs {
                    let expect = golden.peek(out);
                    assert_eq!(seq.peek(out), expect, "{tag}: sequential on {out}");
                    for (df, w) in dfs.iter().zip(WORKERS) {
                        assert_eq!(
                            df.peek(out),
                            expect,
                            "{tag}: dataflow at {w} worker(s) disagrees on {out}\n{}",
                            circuit.source
                        );
                    }
                }
                for (df, w) in dfs.iter().zip(WORKERS).skip(1) {
                    assert_eq!(
                        df.counters(),
                        dfs[0].counters(),
                        "{tag}: {w} workers changed the work done\n{}",
                        circuit.source
                    );
                }
                assert_eq!(
                    (dfs[0].counters().cycles, dfs[0].counters().ops_evaluated),
                    (seq.counters().cycles, seq.counters().ops_evaluated),
                    "{tag}: dataflow evaluated different ops than sequential\n{}",
                    circuit.source
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn merge_preserves_cover_and_acyclicity(seed in any::<u64>()) {
        check_merge_invariants(seed);
    }

    #[test]
    fn feedback_loop_stays_golden(seed in any::<u64>()) {
        check_feedback_loop(seed);
    }
}

proptest! {
    // The matrix is 32 configs deep per case; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dataflow_matches_sequential_and_golden(seed in any::<u64>()) {
        check_dataflow_differential(seed);
    }
}

/// Fixed seeds as plain tests so failures are easy to rerun.
#[test]
fn feedback_fixed_seeds() {
    for seed in [0u64, 1, 42, 0xE55E] {
        check_merge_invariants(seed);
        check_feedback_loop(seed);
    }
}

#[test]
fn dataflow_fixed_seeds() {
    for seed in [0u64, 7, 0xC0FFEE, 0xDF10] {
        check_dataflow_differential(seed);
    }
}
