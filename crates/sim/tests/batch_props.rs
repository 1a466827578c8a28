//! The fleet law: lane `i` of a [`BatchSim`] is an [`EssentSim`] — on
//! every cycle it agrees with an independently built `EssentSim` driven
//! by the same stimulus in every output, its cycle count and halt code,
//! and all five work counters, and at the end in its printf log, arena
//! and memory banks. Checked at 1, 3 and 8 lanes (3 is odd and more than a 2-core
//! host's workers), across the engine switch matrix, on the tier-1
//! interpreter and — where the host can run it — on native bodies.
//!
//! The fleet shares one compilation between its lanes and steps them on
//! several threads; neither may change what any lane computes or how
//! much work it is accounted.

use essent_bits::Bits;
use essent_netlist::Netlist;
use essent_sim::batch::BatchSim;
use essent_sim::testgen::{gen_circuit, switch_matrix, GenCircuit};
use essent_sim::{jit, EngineConfig, EssentSim, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The fleet hands lanes to worker threads.
const _: fn() = assert_send::<EssentSim>;
fn assert_send<T: Send>() {}

const LANE_COUNTS: [usize; 3] = [1, 3, 8];

fn build(source: &str) -> Netlist {
    let parsed = essent_firrtl::parse(source)
        .unwrap_or_else(|e| panic!("generated FIRRTL must parse: {e}\n{source}"));
    let lowered = essent_firrtl::passes::lower(parsed)
        .unwrap_or_else(|e| panic!("generated FIRRTL must lower: {e}\n{source}"));
    Netlist::from_circuit(&lowered)
        .unwrap_or_else(|e| panic!("generated FIRRTL must build: {e}\n{source}"))
}

/// `config` on each tier this host runs: tier-1, and native where the
/// emitter's code can execute.
fn tiers(label: &str, config: &EngineConfig) -> Vec<(String, EngineConfig)> {
    let mut out = vec![(format!("{label} tier-1"), config.clone())];
    if jit::supported() {
        let native = EngineConfig {
            jit: true,
            ..config.clone()
        };
        out.push((format!("{label} native"), native));
    }
    out
}

/// A fleet of `lanes` lanes and as many independently built engines.
fn fleet_and_singles(
    netlist: &Netlist,
    config: &EngineConfig,
    lanes: usize,
) -> (BatchSim, Vec<EssentSim>) {
    let fleet = BatchSim::new(
        netlist,
        &EngineConfig {
            lanes,
            ..config.clone()
        },
    );
    let singles = (0..lanes)
        .map(|_| EssentSim::new(netlist, config))
        .collect();
    (fleet, singles)
}

/// Each lane against its single: outputs, cycle, halt code, counters
/// (all five fields) and the native partition count.
fn check_lanes(fleet: &BatchSim, singles: &[EssentSim], outputs: &[String], ctx: &str) {
    for (l, single) in singles.iter().enumerate() {
        let lane = fleet.lane(l);
        for out in outputs {
            assert_eq!(lane.peek(out), single.peek(out), "{ctx} lane {l}: `{out}`");
        }
        assert_eq!(lane.cycle(), single.cycle(), "{ctx} lane {l}: cycles");
        assert_eq!(lane.halted(), single.halted(), "{ctx} lane {l}: halt");
        assert_eq!(
            lane.counters(),
            single.counters(),
            "{ctx} lane {l}: counters"
        );
        assert_eq!(
            lane.jit_compiled_count(),
            single.jit_compiled_count(),
            "{ctx} lane {l}: native partitions"
        );
    }
}

/// At the end of a run: each lane's printf log, arena and memory banks
/// (bank contents are not in the arena, so a bank write that went wrong
/// shows only here unless its address is read back).
fn check_final(fleet: &BatchSim, singles: &[EssentSim], ctx: &str) {
    for (l, single) in singles.iter().enumerate() {
        let lane = fleet.lane(l);
        assert_eq!(
            lane.printf_log(),
            single.printf_log(),
            "{ctx} lane {l}: printf"
        );
        assert_eq!(
            lane.machine().arena,
            single.machine().arena,
            "{ctx} lane {l}: arena"
        );
        let (banks, single_banks) = (&lane.machine().mems, &single.machine().mems);
        assert_eq!(banks.len(), single_banks.len(), "{ctx} lane {l}: banks");
        for (b, (bank, single_bank)) in banks.iter().zip(single_banks).enumerate() {
            assert_eq!(
                bank.data, single_bank.data,
                "{ctx} lane {l}: memory bank {b} diverged"
            );
        }
    }
}

/// One per-lane stimulus stream, reproducible from `(seed, lane)`.
fn lane_rng(seed: u64, lane: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0xD1CE ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `circuit` plus a free-running cycle counter that `printf`s while
/// `reset` is high and `stop`s on a `reset` pulse after cycle 6: random
/// per-lane resets make the lanes log and halt at different cycles.
fn with_log_and_halt(circuit: &GenCircuit) -> String {
    format!(
        "{}    reg fleet_t : UInt<8>, clock\n    fleet_t <= tail(add(fleet_t, UInt<8>(1)), 1)\n    printf(clock, reset, \"t=%d\\n\", fleet_t)\n    stop(clock, and(reset, gt(fleet_t, UInt<8>(6))), 3)\n",
        circuit.source
    )
}

/// The law on random circuit `seed`, one cycle per `step`, at every
/// lane count, switch-matrix point and tier.
fn check_fleet_matrix(seed: u64) {
    let circuit = gen_circuit(seed);
    let source = with_log_and_halt(&circuit);
    let netlist = build(&source);
    for (label, config) in switch_matrix().iter().flat_map(|(l, c)| tiers(l, c)) {
        for lanes in LANE_COUNTS {
            let (mut fleet, mut singles) = fleet_and_singles(&netlist, &config, lanes);
            let mut rngs: Vec<StdRng> = (0..lanes).map(|l| lane_rng(seed, l)).collect();
            for cycle in 0..40u64 {
                for (l, rng) in rngs.iter_mut().enumerate() {
                    for (name, width) in &circuit.inputs {
                        let value = if name == "reset" {
                            Bits::from_u64((cycle < 2 || rng.gen_bool(0.05)) as u64, 1)
                        } else {
                            Bits::from_limbs(vec![rng.gen(), rng.gen()], *width)
                        };
                        fleet.lane_mut(l).poke(name, value.clone());
                        singles[l].poke(name, value);
                    }
                }
                let ran = fleet.step(1);
                let most = singles.iter_mut().map(|s| s.step(1)).max();
                let ctx = format!("seed {seed} [{label}] {lanes} lanes, cycle {cycle}");
                assert_eq!(Some(ran), most, "{ctx}: cycles stepped\n{source}");
                check_lanes(&fleet, &singles, &circuit.outputs, &ctx);
            }
            let ctx = format!("seed {seed} [{label}] {lanes} lanes");
            check_final(&fleet, &singles, &ctx);
            if lanes == 8 {
                // Not vacuous: the lanes halt, and not all at once.
                let ends: BTreeSet<(u64, Option<u64>)> = (0..lanes)
                    .map(|l| (fleet.cycle_of(l), fleet.halted_of(l)))
                    .collect();
                assert!(
                    ends.len() > 1 && ends.iter().any(|e| e.1.is_some()),
                    "{ctx}: {ends:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn lanes_match_singles_across_config_matrix(seed in any::<u64>()) {
        check_fleet_matrix(seed);
    }
}

/// Fixed seeds for the matrix, trivially re-runnable on failure.
#[test]
fn lane_matrix_fixed_seeds() {
    // Not vacuous: seed 0 instantiates a memory, so the bank check runs.
    assert!(gen_circuit(0).source.contains("mem m :"));
    for seed in [0u64, 42] {
        check_fleet_matrix(seed);
    }
}

// --- Divergent halts inside one `step` --------------------------------

/// A counter that logs every cycle and `stop`s when it reaches a
/// per-lane threshold input `t`.
const HALTER: &str = "circuit H :\n  module H :\n    input clock : Clock\n    input reset : UInt<1>\n    input t : UInt<8>\n    output q : UInt<8>\n    reg c : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    c <= tail(add(c, UInt<8>(1)), 1)\n    q <= c\n    printf(clock, UInt<1>(1), \"c=%d\\n\", c)\n    stop(clock, eq(c, t), 7)\n";

/// One `step(40)` in which lane `l` halts when its counter reaches
/// `3 + 2l`: every lane stops partway through, at a different cycle,
/// and `step` returns the longest lane's count.
#[test]
fn divergent_halts_match_singles() {
    let netlist = build(HALTER);
    let outputs = ["q".to_string()];
    for (label, config) in switch_matrix().iter().flat_map(|(l, c)| tiers(l, c)) {
        for lanes in LANE_COUNTS {
            let (mut fleet, mut singles) = fleet_and_singles(&netlist, &config, lanes);
            for (l, single) in singles.iter_mut().enumerate() {
                let t = Bits::from_u64(3 + 2 * l as u64, 8);
                fleet.lane_mut(l).poke("t", t.clone());
                single.poke("t", t);
            }
            fleet.poke("reset", Bits::from_u64(0, 1));
            for single in &mut singles {
                single.poke("reset", Bits::from_u64(0, 1));
            }
            let ran = fleet.step(40);
            let each: Vec<u64> = singles.iter_mut().map(|s| s.step(40)).collect();
            let ctx = format!("[{label}] {lanes} lanes");
            assert!(
                each.iter().all(|&n| n < 40) && each.windows(2).all(|w| w[0] < w[1]),
                "{ctx}: every lane halts partway, each later than the last: {each:?}"
            );
            assert_eq!(
                Some(&ran),
                each.iter().max(),
                "{ctx}: step returns the longest lane"
            );
            check_lanes(&fleet, &singles, &outputs, &ctx);
            check_final(&fleet, &singles, &ctx);
            // A fleet whose lanes have all halted runs nothing more.
            assert_eq!(fleet.step(5), 0, "{ctx}: halted fleet");
        }
    }
}
