//! Native-tier (JIT) equivalence.
//!
//! The compiled bodies must be drop-in replacements for the tier-1
//! interpreter: on randomly generated circuits, with the partitions the
//! cost model selects running native code, the ESSENT engine must agree
//! with the golden interpreter on every output every cycle, and its
//! deterministic work counters must match a JIT-free twin bit-for-bit.
//! The dataflow engine ignores `jit` (its workers share flag bytes a
//! native bit `or` would race on) and must stay golden-exact with it on.
//! The emitter's own tests (`jit::x64`) run every eligible program of
//! these circuits natively, whatever its cost.
//!
//! Partitions whose programs differ only in arena offsets and wake
//! targets share one native body, each through its own operand record;
//! a replicated design must compile into fewer bodies than partitions
//! and stay exact.
//!
//! On targets where the JIT is unsupported these tests degrade to plain
//! tier-1 equivalence runs (nothing compiles) and still pass — the
//! gating itself is part of what is under test.

use essent_netlist::Netlist;
use essent_sim::testgen::{
    build, gen_circuit, gen_replicated, switch_matrix, GenCircuit, Lockstep, Match, Reset,
};
use essent_sim::{EngineConfig, EssentSim, ParEssentSim, Simulator};
use proptest::prelude::*;

/// `on` (built with `jit: true`) and its `jit: false` twin `off`, both
/// against the golden interpreter, counter-exact every cycle, under a
/// per-cycle stimulus drawn from `seed` with random resets.
fn check_native_twins(
    ctx: String,
    circuit: &GenCircuit,
    netlist: &Netlist,
    off: impl Simulator + 'static,
    on: impl Simulator + 'static,
    seed: u64,
    steps: &[u64],
) {
    let mut run = Lockstep::new(ctx, circuit, netlist);
    let off = run.row("jit off", off);
    let on = run.row("jit on", on);
    run.twin(off, on, Match::Counters);
    run.run(seed, Reset::Random, steps);
}

/// The default config with `jit: true`.
fn native() -> EngineConfig {
    EngineConfig {
        jit: true,
        ..EngineConfig::default()
    }
}

/// The switch matrix for the JIT path — everything that changes what
/// the compiled body must replicate (mux lowering, state elision,
/// trigger direction, fusion) — at two partition sizes: each point's
/// sequential engine with `jit: true` against golden and a JIT-free
/// twin, outputs and counters every cycle. Returns how many partitions
/// ran native code over the matrix.
fn check_jit_config_matrix(seed: u64) -> usize {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source, false);
    let mut compiled = 0;
    for (label, config) in switch_matrix() {
        for c_p in [4, 64] {
            let off = EngineConfig {
                c_p,
                ..config.clone()
            };
            let on = EngineConfig {
                jit: true,
                ..off.clone()
            };
            let jitted = EssentSim::new(&netlist, &on);
            let native = jitted.jit_compiled_count();
            let parts = jitted.partition_count();
            check_native_twins(
                format!("seed {seed} [{label}] c_p={c_p} ({native}/{parts} compiled)"),
                &circuit,
                &netlist,
                EssentSim::new(&netlist, &off),
                jitted,
                seed ^ 0x717,
                &[1; 40],
            );
            compiled += native;
        }
    }
    compiled
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn jit_matches_golden_across_config_matrix(seed in any::<u64>()) {
        check_jit_config_matrix(seed);
    }

}

/// Fixed seeds, trivially re-runnable on failure; native code must
/// actually run where the host supports it.
#[test]
fn jit_fixed_seeds() {
    let compiled: usize = [0u64, 1, 42, 0xE55E]
        .into_iter()
        .map(check_jit_config_matrix)
        .sum();
    let gated = !essent_sim::jit::supported() || cfg!(feature = "race-sanitizer");
    assert!(compiled > 0 || gated, "nothing compiled");
}

/// The dataflow engine with `jit: true` runs the tier-1 interpreter: it
/// matches the golden interpreter every cycle and its `jit: false` twin's
/// work counters throughout.
#[test]
fn jit_par_matches_golden() {
    for seed in [0u64, 1, 42, 0xE55E] {
        let circuit = gen_circuit(seed);
        let netlist = build(&circuit.source, false);
        check_native_twins(
            format!("seed {seed} dataflow"),
            &circuit,
            &netlist,
            ParEssentSim::new(&netlist, &EngineConfig::default(), 3),
            ParEssentSim::new(&netlist, &native(), 3),
            seed ^ 0x939,
            &[1; 40],
        );
    }
}

/// Under the race sanitizer the dynamic oracle instruments the tier-1
/// interpreter loop, so `jit: true` must be silently ignored while
/// equivalence with the golden interpreter still holds.
#[cfg(feature = "race-sanitizer")]
#[test]
fn jit_stays_disabled_under_sanitizer() {
    for seed in [0u64, 42, 0xE55E] {
        let circuit = gen_circuit(seed);
        let netlist = build(&circuit.source, false);
        let sim = EssentSim::new(&netlist, &native());
        assert_eq!(
            sim.jit_compiled_count(),
            0,
            "seed {seed}: sanitizer must gate JIT"
        );
        let mut run = Lockstep::new(format!("seed {seed}"), &circuit, &netlist);
        run.row("jit on", sim);
        run.run(seed, Reset::Random, &[1; 20]);
    }
}

/// The default config (`C_p` 8, which the matrix skips) with
/// `jit: true` must behave identically to `jit: false`.
#[test]
fn jit_threshold_selection_is_transparent() {
    for seed in [7u64, 0xBEE] {
        let circuit = gen_circuit(seed);
        let netlist = build(&circuit.source, false);
        check_native_twins(
            format!("seed {seed}"),
            &circuit,
            &netlist,
            EssentSim::new(&netlist, &EngineConfig::default()),
            EssentSim::new(&netlist, &native()),
            seed,
            &[1; 30],
        );
    }
}

/// Four copies of one generated module: the engine runs fewer bodies
/// than native partitions, and stays golden-exact and counter-exact
/// against a JIT-free twin every cycle.
#[test]
fn replicated_partitions_share_bodies() {
    for seed in [3u64, 11, 0xE55E] {
        let circuit = gen_replicated(seed, 4);
        let netlist = build(&circuit.source, false);
        let sim = EssentSim::new(&netlist, &native());
        let compiled = sim.jit_compiled_count();
        let Some(parts) = sim.jit_parts().filter(|_| compiled > 0) else {
            let gated = !essent_sim::jit::supported() || cfg!(feature = "race-sanitizer");
            assert!(gated, "seed {seed}: nothing compiled");
            continue;
        };
        let bodies = parts.body_count();
        assert!(
            bodies < compiled,
            "seed {seed}: {bodies} bodies for {compiled} partitions"
        );
        check_native_twins(
            format!("seed {seed}"),
            &circuit,
            &netlist,
            EssentSim::new(&netlist, &EngineConfig::default()),
            sim,
            seed ^ 0x5EED,
            &[1; 48],
        );
    }
}
