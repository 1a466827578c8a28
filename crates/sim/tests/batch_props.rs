//! Lane-equivalence differential suite: lane `i` of an N-lane batched
//! run must be indistinguishable — arena words, outputs, work counters,
//! cycle counts, halt codes — from an independent single-instance
//! [`EssentSim`] run over the same per-lane stimulus, across the full
//! engine config matrix, under divergent per-lane halts, and across
//! forced lane compactions.
//!
//! This is the batch engine's central correctness argument: lane
//! batching (strided arena, wake masks, SIMD lane loops, compaction
//! remaps) is pure throughput mechanics and can never change what any
//! single lane computes or how much work it is accounted.

use essent_bits::Bits;
use essent_netlist::Netlist;
use essent_sim::batch::BatchSim;
use essent_sim::testgen::{gen_circuit, switch_matrix};
use essent_sim::{EngineConfig, EssentSim, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Five lanes: enough for the AVX2 fast path (4-wide) plus a scalar
// tail lane, so the differential proof covers both evaluation routes.
const LANES: usize = 5;

fn build(source: &str) -> Netlist {
    let parsed = essent_firrtl::parse(source)
        .unwrap_or_else(|e| panic!("generated FIRRTL must parse: {e}\n{source}"));
    let lowered = essent_firrtl::passes::lower(parsed)
        .unwrap_or_else(|e| panic!("generated FIRRTL must lower: {e}\n{source}"));
    Netlist::from_circuit(&lowered)
        .unwrap_or_else(|e| panic!("generated FIRRTL must build: {e}\n{source}"))
}

/// One per-lane stimulus stream, reproducible from `(seed, lane)` — the
/// same derivation the batch bench's `--seed-stride` flag uses.
fn lane_rng(seed: u64, lane: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0xD1CE ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Drives an N-lane batch engine and N independent single-instance
/// engines with identical per-lane stimulus and requires bit- and
/// counter-exact agreement every cycle; optionally forces a lane
/// compaction mid-run (which must be invisible to every lane).
fn check_lanes(
    seed: u64,
    label: &str,
    netlist: &Netlist,
    config: &EngineConfig,
    circuit: &essent_sim::testgen::GenCircuit,
    compact_at: Option<u64>,
) {
    let batch_config = EngineConfig {
        lanes: LANES,
        ..config.clone()
    };
    let mut batch = BatchSim::new(netlist, &batch_config);
    let mut singles: Vec<EssentSim> = (0..LANES)
        .map(|_| EssentSim::new(netlist, config))
        .collect();
    let mut rngs: Vec<StdRng> = (0..LANES).map(|l| lane_rng(seed, l)).collect();

    for cycle in 0..30u64 {
        if compact_at == Some(cycle) {
            batch.force_compact();
        }
        for (lane, rng) in rngs.iter_mut().enumerate() {
            for (name, width) in &circuit.inputs {
                let value = if name == "reset" {
                    Bits::from_u64((cycle < 2 || rng.gen_bool(0.05)) as u64, 1)
                } else {
                    Bits::from_limbs(vec![rng.gen(), rng.gen()], *width)
                };
                batch.poke_lane(lane, name, value.clone());
                singles[lane].poke(name, value);
            }
        }
        batch.step(1);
        for s in singles.iter_mut() {
            s.step(1);
        }
        for (lane, single) in singles.iter().enumerate() {
            for out in &circuit.outputs {
                assert_eq!(
                    batch.peek_lane(lane, out),
                    single.peek(out),
                    "seed {seed} [{label}] cycle {cycle} lane {lane}: \
                     batch disagrees on {out}\n{}",
                    circuit.source
                );
            }
            assert_eq!(
                batch.counters_of(lane),
                single.counters(),
                "seed {seed} [{label}] cycle {cycle} lane {lane}: work counters diverged\n{}",
                circuit.source
            );
        }
    }
    for (lane, single) in singles.iter().enumerate() {
        assert_eq!(
            batch.cycle_of(lane),
            single.cycle(),
            "[{label}] lane {lane}"
        );
        assert_eq!(
            batch.halted_of(lane),
            single.halted(),
            "[{label}] lane {lane}"
        );
        assert_eq!(
            batch.lane_arena(lane),
            single.machine().arena,
            "seed {seed} [{label}] lane {lane}: final arena images diverged\n{}",
            circuit.source
        );
        for (bank, sbank) in batch.lane_banks(lane).iter().zip(&single.machine().mems) {
            assert_eq!(
                bank.data, sbank.data,
                "seed {seed} [{label}] lane {lane}: memory banks diverged\n{}",
                circuit.source
            );
        }
    }
}

/// The engine switch matrix, batched vs single per lane. The compaction
/// is forced on half the points (it must be a no-op for observable
/// behavior everywhere).
fn check_lane_matrix(seed: u64) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source);
    for (i, (label, config)) in switch_matrix().iter().enumerate() {
        let compact_at = (i % 2 == 0).then_some(11u64);
        check_lanes(seed, label, &netlist, config, &circuit, compact_at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn lanes_match_singles_across_config_matrix(seed in any::<u64>()) {
        check_lane_matrix(seed);
    }
}

/// Fixed seeds for the matrix, trivially re-runnable on failure.
#[test]
fn lane_matrix_fixed_seeds() {
    for seed in [0u64, 42] {
        check_lane_matrix(seed);
    }
}

// --- Divergent activity: lanes halt at different cycles ------------------

/// A counter that `stop`s when it reaches a per-lane threshold input:
/// lane `l` halts at a different cycle than lane `l+1`, so the batch
/// run exercises partial run masks, frozen-lane state, and the
/// halt-triggered compaction path.
const HALTER: &str = "circuit H :\n  module H :\n    input clock : Clock\n    input reset : UInt<1>\n    input t : UInt<8>\n    output q : UInt<8>\n    reg c : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    c <= tail(add(c, UInt<8>(1)), 1)\n    q <= c\n    stop(clock, eq(c, t), 7)\n";

#[test]
fn divergent_halts_match_singles() {
    let netlist = build(HALTER);
    for (label, config) in switch_matrix() {
        let lanes = 4usize;
        let batch_config = EngineConfig {
            lanes,
            ..config.clone()
        };
        let mut batch = BatchSim::new(&netlist, &batch_config);
        let mut singles: Vec<EssentSim> = (0..lanes)
            .map(|_| EssentSim::new(&netlist, &config))
            .collect();
        // Lane l halts once the counter reaches 3 + 4*l; lane 3 never
        // halts inside the run.
        for (lane, single) in singles.iter_mut().enumerate() {
            let t = 3 + 4 * lane as u64;
            batch.poke_lane(lane, "t", Bits::from_u64(t, 8));
            single.poke("t", Bits::from_u64(t, 8));
            batch.poke_lane(lane, "reset", Bits::from_u64(0, 1));
            single.poke("reset", Bits::from_u64(0, 1));
        }
        batch.step(14);
        for s in singles.iter_mut() {
            s.step(14);
        }
        for (lane, single) in singles.iter().enumerate() {
            assert_eq!(
                batch.cycle_of(lane),
                single.cycle(),
                "[{label}] lane {lane} cycle count"
            );
            assert_eq!(
                batch.halted_of(lane),
                single.halted(),
                "[{label}] lane {lane} halt code"
            );
            assert_eq!(
                batch.peek_lane(lane, "q"),
                single.peek("q"),
                "[{label}] lane {lane} frozen output"
            );
            assert_eq!(
                batch.counters_of(lane),
                single.counters(),
                "[{label}] lane {lane} work counters"
            );
            assert_eq!(
                batch.lane_arena(lane),
                single.machine().arena,
                "[{label}] lane {lane} arena"
            );
        }
        // Lanes 0..3 halted at distinct cycles; the halt compactions
        // re-packed the stride at least once.
        assert!(
            batch.halted_of(0).is_some()
                && batch.halted_of(2).is_some()
                && batch.halted_of(3).is_none(),
            "[{label}]: expected divergent halts"
        );
        assert!(
            batch.compactions() > 0,
            "[{label}]: halts must trigger lane compaction"
        );
    }
}
