//! The fleet law: lane `i` of a [`BatchSim`] is an [`EssentSim`] — on
//! every cycle it agrees with an independently built `EssentSim` driven
//! by the same stimulus, and both with the golden interpreter, in every
//! output, its cycle count and halt code, and all five work counters,
//! and at the end in every signal, memory word, printf line and (when
//! profiled) profile. Checked at 1, 3 and 8 lanes (3 is odd and more
//! than a 2-core host's workers), across the engine switch matrix, on
//! the tier-1 interpreter and — where the host can run it — on native
//! bodies; each lane is a twin row of the `testgen::Lockstep` driver.
//!
//! The fleet shares one compilation between its lanes and steps them on
//! several threads; neither may change what any lane computes or how
//! much work it is accounted.

use essent_bits::Bits;
use essent_netlist::Netlist;
use essent_sim::batch::BatchSim;
use essent_sim::testgen::{build, gen_circuit, switch_matrix, GenCircuit, Lockstep, Match, Reset};
use essent_sim::{jit, EngineConfig, EssentSim};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The fleet hands lanes to worker threads.
const _: fn() = assert_send::<EssentSim>;
fn assert_send<T: Send>() {}

const LANE_COUNTS: [usize; 3] = [1, 3, 8];

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

/// A fleet of `lanes` lanes, lane `l` on stimulus stream `l`, each the
/// counter-exact twin of an independently built engine on the same
/// stream with as many native partitions; returns the lanes' rows.
fn fleet_and_singles(
    run: &mut Lockstep,
    netlist: &Netlist,
    config: &EngineConfig,
    lanes: usize,
) -> Vec<usize> {
    let fleet = BatchSim::new(
        netlist,
        &EngineConfig {
            lanes,
            ..config.clone()
        },
    );
    let singles: Vec<EssentSim> = (0..lanes)
        .map(|_| EssentSim::new(netlist, config))
        .collect();
    for (l, single) in singles.iter().enumerate() {
        let native = single.jit_compiled_count();
        assert_eq!(
            fleet.lane(l).jit_compiled_count(),
            native,
            "lane {l}: native partitions"
        );
    }
    let rows = run.fleet("fleet", fleet, &Vec::from_iter(0..lanes));
    for (l, single) in singles.into_iter().enumerate() {
        let single = run.row_in(l, &format!("single {l}"), single);
        run.twin(rows[l], single, Match::Counters);
    }
    rows
}

/// `circuit` plus a free-running cycle counter that `printf`s while
/// `reset` is high and `stop`s on a `reset` pulse after cycle 6: random
/// per-lane resets make the lanes log and halt at different cycles.
fn with_log_and_halt(circuit: GenCircuit) -> GenCircuit {
    GenCircuit {
        source: format!(
            "{}    reg fleet_t : UInt<8>, clock\n    fleet_t <= tail(add(fleet_t, UInt<8>(1)), 1)\n    printf(clock, reset, \"t=%d\\n\", fleet_t)\n    stop(clock, and(reset, gt(fleet_t, UInt<8>(6))), 3)\n",
            circuit.source
        ),
        ..circuit
    }
}

/// The law on random circuit `seed`, one cycle per `step`, at every
/// lane count, switch-matrix point and tier.
fn check_fleet_matrix(seed: u64) {
    let circuit = with_log_and_halt(gen_circuit(seed));
    let netlist = build(&circuit.source, false);
    for (label, config) in switch_matrix().iter().flat_map(|(l, c)| tiers(l, c)) {
        for lanes in LANE_COUNTS {
            let ctx = format!("seed {seed} [{label}] {lanes} lanes");
            let mut run = Lockstep::new(&ctx, &circuit, &netlist);
            let rows = fleet_and_singles(&mut run, &netlist, &config, lanes);
            run.run(seed ^ 0xD1CE, Reset::Random, &[1; 40]);
            if lanes == 8 {
                // Not vacuous: the lanes halt, and not all at once.
                let ends: BTreeSet<(u64, Option<u64>)> = rows
                    .iter()
                    .map(|&r| (run.sim(r).cycle(), run.sim(r).halted()))
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
/// and `step` returns the longest lane's count; a following `step(5)`
/// of the all-halted fleet runs nothing.
#[test]
fn divergent_halts_match_singles() {
    let circuit = GenCircuit {
        source: HALTER.to_string(),
        inputs: vec![("reset".to_string(), 1)],
        outputs: vec!["q".to_string()],
    };
    let netlist = build(HALTER, false);
    for (label, config) in switch_matrix().iter().flat_map(|(l, c)| tiers(l, c)) {
        for lanes in LANE_COUNTS {
            let ctx = format!("[{label}] {lanes} lanes");
            let mut run = Lockstep::new(&ctx, &circuit, &netlist);
            let rows = fleet_and_singles(&mut run, &netlist, &config, lanes);
            for l in 0..lanes {
                run.poke(l, "t", Bits::from_u64(3 + 2 * l as u64, 8));
            }
            run.run(0, Reset::At(&[]), &[40, 5]);
            let each: Vec<u64> = rows.iter().map(|&r| run.sim(r).cycle()).collect();
            assert!(
                each.iter().all(|&n| n < 40) && each.windows(2).all(|w| w[0] < w[1]),
                "{ctx}: every lane halts partway, each later than the last: {each:?}"
            );
        }
    }
}

/// `profile` applies to each lane as to a single engine: every lane's
/// profile report equals that of an independently built profiled
/// `EssentSim` under the same stimulus, across the switch matrix.
#[test]
fn profiled_lanes_match_profiled_singles() {
    for seed in [0u64, 42] {
        let circuit = with_log_and_halt(gen_circuit(seed));
        let netlist = build(&circuit.source, false);
        for (label, config) in switch_matrix() {
            let config = EngineConfig {
                profile: true,
                ..config
            };
            let mut run = Lockstep::new(
                format!("seed {seed} [{label}] profiled"),
                &circuit,
                &netlist,
            );
            let rows = fleet_and_singles(&mut run, &netlist, &config, 3);
            run.run(seed ^ 0x9F0F, Reset::Random, &[1; 40]);
            for r in rows {
                let report = run.sim(r).profile_report().expect("every lane profiles");
                assert!(
                    report.total_evals() > 0,
                    "seed {seed} [{label}]: no activity"
                );
            }
        }
    }
}
