//! The engine-facing API: the [`Simulator`] trait every engine implements
//! and the [`EngineConfig`] they are built from.

use crate::machine::WorkCounters;
use essent_bits::Bits;
use essent_netlist::SignalId;

/// Configuration shared by the engines. Most fields switch one of the
/// paper's optimizations, for the ablation study. Four do not: `jit`
/// selects the native tier, `lanes` the batch width, `profile` telemetry
/// and `race_sanitizer` a dynamic race check; `par_dataflow` is inert.
/// Each field's doc says which engines read it.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Partitioning threshold `C_p` (paper Figure 6; default 8). Only the
    /// ESSENT engine uses it.
    pub c_p: usize,
    /// Conditional multiplexer-way evaluation (Section III-B).
    pub mux_conditional: bool,
    /// Register/memory update elision (Section III-B1). Only the ESSENT
    /// engine uses it.
    pub elide_state: bool,
    /// Capture printf output into a log (disable in benchmarks).
    pub capture_printf: bool,
    /// ESSENT engine only: push-direction triggering (producers wake
    /// consumers on output change — the paper's choice). When `false`,
    /// pull-direction: each partition compares snapshots of its
    /// cross-partition inputs every cycle, paying the per-cycle compare
    /// cost the paper predicts makes pull slower on idle designs
    /// (Section III-A). State and memory changes still use wake flags in
    /// both modes (memory contents are not visible to input snapshots).
    pub trigger_push: bool,
    /// Event-driven engine only: process events in levelized order
    /// (each signal evaluated at most once per cycle). When `false` the
    /// engine uses a classic FIFO delta queue with repeat evaluations —
    /// the behavior of traditional event-driven simulators that the paper
    /// contrasts against (Section II).
    pub event_levelized: bool,
    /// Lower single-word steps into the specialized one-word tier
    /// ([`crate::step1`]); multi-word steps keep the generic kernels.
    /// Used by the full-cycle, ESSENT, and parallel engines.
    pub tier1: bool,
    /// Fuse partition-output trigger updates (compare + consumer wakes)
    /// into the defining tier-1 instruction. Requires `tier1` and
    /// push-direction triggering; ignored otherwise.
    pub fuse_triggers: bool,
    /// ESSENT engine only: collect per-partition telemetry
    /// ([`crate::profile`]) — evals, derived skips, ops and wake-cause
    /// attribution. Off by default; the disabled cost is zero (the probe
    /// calls monomorphize away). The other engines ignore it and report
    /// no profile.
    pub profile: bool,
    /// Inert. It used to select the dataflow schedule over the
    /// barrier-per-level engines; those are gone and
    /// [`crate::ParEssentSim`] always runs the dataflow schedule. Nothing
    /// reads this field: it survives only because the frozen `bench`
    /// package still names it in a struct literal, and goes when that
    /// package next changes (ROADMAP item 2b).
    pub par_dataflow: bool,
    /// Compile hot partitions' tier-1 programs to native machine code
    /// ([`crate::jit`]): partitions whose estimated eval cost clears
    /// [`crate::jit::JIT_MIN_COST`] run an emitted x86-64 body (fused
    /// CCSS trigger tail included) instead of the tier-1 interpreter.
    /// Requires `tier1`; silently ignored on targets other than x86-64
    /// Linux, under `profile` (wake attribution needs the interpreter's
    /// flag sinks), and under the `race-sanitizer` feature (the dynamic
    /// oracle instruments the interpreter loop). Used by the ESSENT
    /// engine only: the dataflow engine's workers share flag bytes a
    /// native bit `or` would race on.
    pub jit: bool,
    /// Parallel engine only: shadow-memory race sanitizer — tag every
    /// arena word with its last writer/reader partition during parallel
    /// evaluation and panic on any cross-partition conflict the dataflow
    /// schedule did not order, the dynamic oracle for the static
    /// footprint and dependence proofs (`R05xx`, `S06xx`).
    /// Only effective when `essent-sim` is compiled with the
    /// `race-sanitizer` cargo feature; a no-op (and zero-cost) otherwise.
    pub race_sanitizer: bool,
    /// Batched engine ([`crate::batch::BatchSim`]) only: number of
    /// design instances evaluated in lockstep over one schedule. The
    /// arena becomes an N-lane SoA (lane-strided words) and activity
    /// flags become per-lane wake masks, so a partition evaluates only
    /// the union of awake lanes and a flag test covers all lanes at
    /// once. 1..=64 (one `u64` mask word); the other engines ignore it.
    pub lanes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            c_p: 8,
            mux_conditional: true,
            elide_state: true,
            capture_printf: true,
            trigger_push: true,
            event_levelized: true,
            tier1: true,
            fuse_triggers: true,
            profile: false,
            par_dataflow: true,
            jit: false,
            race_sanitizer: false,
            lanes: 1,
        }
    }
}

impl EngineConfig {
    /// Whether partition-output triggers are fused into the defining
    /// tier-1 instruction. Fusion needs the word-specialized tier and
    /// push-direction triggering: pull mode detects changes by input
    /// snapshots and must not consume the outputs' consumer wakes.
    pub fn fuses_triggers(&self) -> bool {
        self.tier1 && self.fuse_triggers && self.trigger_push
    }

    /// The paper's **Baseline**: every optimization off (pure full-cycle
    /// evaluation of the unoptimized netlist).
    pub fn baseline() -> Self {
        EngineConfig {
            c_p: 1,
            mux_conditional: false,
            elide_state: false,
            capture_printf: true,
            trigger_push: true,
            event_levelized: true,
            tier1: false,
            fuse_triggers: false,
            profile: false,
            par_dataflow: true,
            jit: false,
            race_sanitizer: false,
            lanes: 1,
        }
    }
}

/// The uniform testbench interface over all engines.
///
/// Peeked values reflect the combinational evaluation of the most recent
/// cycle; register outputs reflect committed state.
pub trait Simulator {
    /// Sets an external input for subsequent cycles.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not an input signal.
    fn poke(&mut self, name: &str, value: Bits);

    /// Reads any surviving signal by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is unknown (optimizations may remove internal
    /// signals; ports always survive).
    fn peek(&self, name: &str) -> Bits;

    /// Runs up to `n` cycles; returns how many ran (fewer after a `stop`).
    fn step(&mut self, n: u64) -> u64;

    /// Cycles simulated so far.
    fn cycle(&self) -> u64;

    /// The `stop` code, once one has fired.
    fn halted(&self) -> Option<u64>;

    /// Work counters for the overhead decomposition (Figure 7).
    fn counters(&self) -> WorkCounters;

    /// Looks up a signal id for id-based peeks in hot testbench loops.
    fn find(&self, name: &str) -> Option<SignalId>;

    /// Reads a signal by id.
    fn peek_id(&self, id: SignalId) -> Bits;

    /// Back-door memory write (e.g. loading a program image).
    fn write_mem(&mut self, mem: &str, addr: usize, value: Bits);

    /// Back-door memory read.
    fn read_mem(&self, mem: &str, addr: usize) -> Bits;

    /// Captured printf output.
    fn printf_log(&self) -> &[String];

    /// A short engine name for reports ("essent", "full-cycle", ...).
    fn engine_name(&self) -> &'static str;

    /// The telemetry collected so far when the engine was built with
    /// [`EngineConfig::profile`]; `None` otherwise.
    fn profile_report(&self) -> Option<crate::profile::ProfileReport> {
        None
    }
}

/// Shared poke/peek plumbing for engines embedding a
/// [`Machine`](crate::machine::Machine); macro instead of trait default
/// methods so each engine can intercept `poke` for wakeups.
macro_rules! delegate_simulator_basics {
    () => {
        fn peek(&self, name: &str) -> Bits {
            let id = self.machine.netlist.expect_signal(name);
            self.machine.value(id)
        }

        fn cycle(&self) -> u64 {
            self.machine.cycle
        }

        fn halted(&self) -> Option<u64> {
            self.machine.halted
        }

        fn counters(&self) -> crate::machine::WorkCounters {
            self.machine.counters
        }

        fn find(&self, name: &str) -> Option<essent_netlist::SignalId> {
            self.machine.netlist.find(name)
        }

        fn peek_id(&self, id: essent_netlist::SignalId) -> Bits {
            self.machine.value(id)
        }

        fn write_mem(&mut self, mem: &str, addr: usize, value: Bits) {
            self.machine.write_mem_backdoor(mem, addr, &value);
        }

        fn read_mem(&self, mem: &str, addr: usize) -> Bits {
            self.machine.read_mem_backdoor(mem, addr)
        }

        fn printf_log(&self) -> &[String] {
            &self.machine.printf_log
        }
    };
}

pub(crate) use delegate_simulator_basics;
