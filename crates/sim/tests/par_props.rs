//! The parallel engine's dataflow schedule is execution-equivalent to
//! the sequential engine at every worker count, cycle for cycle, op for
//! op, and both agree with the golden interpreter.

use essent_bits::Bits;
use essent_netlist::{interp::Interpreter, Netlist};
use essent_sim::testgen::{gen_circuit, switch_matrix};
use essent_sim::{EssentSim, ParEssentSim, Simulator};
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
    for (label, config) in switch_matrix() {
        // Per-cycle phase, then a batched phase on fresh engines: one
        // poke, sixteen cycles in a single engine call.
        for steps in [&[1u64; 20][..], &[2, 16][..]] {
            let mut golden = Interpreter::new(&netlist);
            let mut seq = EssentSim::new(&netlist, &config);
            let mut dfs = WORKERS.map(|w| ParEssentSim::new(&netlist, &config, w));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
            let mut cycle = 0u64;
            for &n in steps {
                let tag = format!("seed {seed} [{label}] cycle {cycle}+{n}");
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
