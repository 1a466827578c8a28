//! essent-profile: per-partition activity and performance telemetry.
//!
//! The paper's speedup argument rests on *measured* activity (Figure 5's
//! per-cycle activity factors, Section III's observation that most
//! partitions sleep most cycles), yet whole-design probes like
//! [`crate::activity::ActivityProbe`] cannot say *which* partition pays
//! for a wake or *who* caused it. This module attributes evals, skips,
//! and wake causes to individual schedule units so the partitioner's
//! merge heuristics and the tier-1 fast path can be tuned against
//! evidence instead of intuition.
//!
//! Design:
//!
//! * **Monomorphized sink.** Engines thread a [`Profiler`] generic
//!   through their cycle loop, mirroring the tier's
//!   [`FlagSink`](crate::step1::FlagSink) pattern: the disabled
//!   instantiation ([`NoProfile`]) is all empty `#[inline(always)]`
//!   methods, so the compiler erases every probe site and the disabled
//!   cost is zero. The enabled instantiation ([`ProfileArena`]) keeps
//!   every counter in flat `Vec<u64>`s indexed by schedule unit, so the
//!   enabled-but-idle cost is one predictable branch (the engine's
//!   activity test) plus one counter increment per unit per cycle.
//! * **Wake-cause attribution.** Every consumer wake is charged to its
//!   trigger: the *producer partition* whose output changed (including
//!   wakes fused into tier-1 instructions, via [`ProfCellFlags`] /
//!   [`ProfAtomicFlags`](crate::step1::ProfAtomicFlags)), the *state
//!   element* (register / memory write plan) whose commit changed, or
//!   the external *input* that was poked. Attribution goes through a
//!   [`ProfileWiring`] table that `essent-verify` audits independently
//!   (`P0301`–`P0304`), so an off-by-one or aliased counter is a
//!   verification error, not a silently wrong profile.
//! * **Batched time sampling.** Eval time uses an `rdtsc`-style
//!   monotonic tick ([`tick`]) sampled one activation in
//!   [`ProfileArena::time_stride`], extrapolated in the report — the
//!   common case pays two counter increments, not two serializing
//!   timestamp reads.
//!
//! Exporters: [`ProfileReport::to_json`] (the `BENCH_profile.json`
//! summary), [`ProfileReport::heatmap_csv`] (partition × cycle-bucket
//! skip rate, the Figure 7 analog), and [`ProfileArena::chrome_trace`]
//! (Chrome `trace_event` JSON for per-cycle flame views).

use crate::machine::MemBank;
use crate::step1::{run_tier1_raw, CellFlags, ProfCellFlags, Tier1Program};
use essent_core::partition::ActivityPrior;
use essent_core::plan::CcssPlan;
use essent_netlist::{Netlist, SignalId};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic cycle-ish timestamp: `rdtsc` on x86-64, a nanosecond
/// clock elsewhere. Only differences are meaningful; the unit is
/// reported as raw "ticks".
#[inline(always)]
pub fn tick() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: rdtsc has no preconditions.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::time::Instant;
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Static attribution tables: which counter slot each wake cause
/// charges. Built next to the engine's own trigger tables and audited
/// independently by `essent-verify` (`P0301`–`P0304`): a correct wiring
/// maps every cause to a distinct, in-range slot with the producer map
/// being the identity over scheduled partitions.
#[derive(Debug, Clone, Default)]
pub struct ProfileWiring {
    /// Display name per schedule unit (`p0…` for partitions, `L0…` for
    /// event levels, `full` for the full-cycle block).
    pub unit_names: Vec<String>,
    /// Producer attribution: scheduled partition index → `caused`
    /// counter slot. Identity in a correct wiring.
    pub producer_slot: Vec<u32>,
    /// Register plan index → state-cause slot.
    pub reg_slot: Vec<u32>,
    /// Memory-write plan index → state-cause slot.
    pub mem_slot: Vec<u32>,
    /// Display name per state-cause slot.
    pub state_names: Vec<String>,
    /// Input signal → input-cause slot (one entry per waking input).
    pub input_slot: Vec<(SignalId, u32)>,
    /// Display name per input-cause slot.
    pub input_names: Vec<String>,
}

impl ProfileWiring {
    /// Wiring for a CCSS schedule: one unit per partition, one state
    /// slot per register plan then per memory-write plan, one input
    /// slot per waking input.
    pub fn for_plan(netlist: &Netlist, plan: &CcssPlan) -> ProfileWiring {
        let units = plan.partitions.len();
        let mut state_names = Vec::new();
        let reg_slot = (0..plan.reg_plans.len() as u32).collect();
        for rp in &plan.reg_plans {
            state_names.push(netlist.regs()[rp.reg.index()].name.clone());
        }
        let mem_slot = (0..plan.mem_write_plans.len())
            .map(|j| (plan.reg_plans.len() + j) as u32)
            .collect();
        for wp in &plan.mem_write_plans {
            let m = &netlist.mems()[wp.mem.index()];
            state_names.push(format!("{}.w{}", m.name, wp.writer));
        }
        let mut input_slot = Vec::new();
        let mut input_names = Vec::new();
        for (i, (sig, _)) in plan.input_wakes.iter().enumerate() {
            input_slot.push((*sig, i as u32));
            input_names.push(netlist.signal(*sig).name.clone());
        }
        ProfileWiring {
            unit_names: (0..units).map(|i| format!("p{i}")).collect(),
            producer_slot: (0..units as u32).collect(),
            reg_slot,
            mem_slot,
            state_names,
            input_slot,
            input_names,
        }
    }

    /// Wiring for a single-unit engine (full-cycle): no triggers, so no
    /// cause slots.
    pub fn single(name: &str) -> ProfileWiring {
        ProfileWiring {
            unit_names: vec![name.to_string()],
            producer_slot: vec![0],
            ..ProfileWiring::default()
        }
    }

    /// Wiring for the event-driven engine: one unit per topological
    /// level, one state slot per register then per memory, one input
    /// slot per external input.
    pub fn for_levels(netlist: &Netlist, levels: usize) -> ProfileWiring {
        let mut state_names: Vec<String> = netlist.regs().iter().map(|r| r.name.clone()).collect();
        let reg_slot = (0..netlist.regs().len() as u32).collect();
        let mem_slot = (0..netlist.mems().len())
            .map(|j| (netlist.regs().len() + j) as u32)
            .collect();
        for m in netlist.mems() {
            state_names.push(m.name.clone());
        }
        let mut input_slot = Vec::new();
        let mut input_names = Vec::new();
        for (i, s) in netlist.signals().iter().enumerate() {
            if matches!(s.def, essent_netlist::SignalDef::Input) {
                input_slot.push((SignalId(i as u32), input_names.len() as u32));
                input_names.push(s.name.clone());
            }
        }
        ProfileWiring {
            unit_names: (0..levels).map(|i| format!("L{i}")).collect(),
            producer_slot: (0..levels as u32).collect(),
            reg_slot,
            mem_slot,
            state_names,
            input_slot,
            input_names,
        }
    }

    /// Number of schedule units.
    pub fn units(&self) -> usize {
        self.unit_names.len()
    }
}

/// The probe interface engines monomorphize their cycle loop over.
/// [`NoProfile`] erases every call; [`ProfileArena`] counts.
pub trait Profiler {
    /// `false` for the no-op instantiation — lets call sites skip work
    /// that only feeds the profiler (e.g. reading `ops_evaluated`).
    const ENABLED: bool;

    /// Called once at the top of every simulated cycle.
    fn begin_cycle(&mut self);
    /// The unit's activity test failed: it slept this cycle.
    fn unit_skip(&mut self, unit: usize);
    /// The unit is about to evaluate; returns a timestamp token to pass
    /// to [`Profiler::eval_end`] (0 = this activation is not timed).
    fn eval_begin(&mut self, unit: usize) -> u64;
    /// The unit finished evaluating; `ops_delta` is the engine's
    /// `ops_evaluated` increase across the evaluation.
    fn eval_end(&mut self, unit: usize, start: u64, ops_delta: u64);
    /// Partition `producer`'s changed output woke `consumer`.
    fn wake_output(&mut self, producer: usize, consumer: u32);
    /// Register plan `reg_plan`'s commit changed and woke `consumer`.
    fn wake_state_reg(&mut self, reg_plan: usize, consumer: u32);
    /// Memory-write plan `mem_plan` changed the bank and woke `consumer`.
    fn wake_state_mem(&mut self, mem_plan: usize, consumer: u32);
    /// External input `input` changed and woke `consumer`.
    fn wake_input(&mut self, input: SignalId, consumer: u32);

    /// Runs a tier-1 program for `producer`, wiring its fused wakes
    /// through the profiler — output triggers to the producer, register
    /// commits to their state slot (the tier-1 dispatch loop's probe
    /// point).
    ///
    /// # Safety
    ///
    /// Same contract as [`run_tier1_raw`].
    #[allow(clippy::too_many_arguments)]
    unsafe fn run_tier1(
        &mut self,
        prog: &Tier1Program,
        arena: *mut u64,
        mems: &[MemBank],
        flags: &[Cell<u64>],
        producer: usize,
        ops: &mut u64,
        dynamic: &mut u64,
    );
}

/// The disabled profiler: every probe inlines to nothing.
pub struct NoProfile;

impl Profiler for NoProfile {
    const ENABLED: bool = false;

    #[inline(always)]
    fn begin_cycle(&mut self) {}
    #[inline(always)]
    fn unit_skip(&mut self, _unit: usize) {}
    #[inline(always)]
    fn eval_begin(&mut self, _unit: usize) -> u64 {
        0
    }
    #[inline(always)]
    fn eval_end(&mut self, _unit: usize, _start: u64, _ops_delta: u64) {}
    #[inline(always)]
    fn wake_output(&mut self, _producer: usize, _consumer: u32) {}
    #[inline(always)]
    fn wake_state_reg(&mut self, _reg_plan: usize, _consumer: u32) {}
    #[inline(always)]
    fn wake_state_mem(&mut self, _mem_plan: usize, _consumer: u32) {}
    #[inline(always)]
    fn wake_input(&mut self, _input: SignalId, _consumer: u32) {}

    #[inline(always)]
    unsafe fn run_tier1(
        &mut self,
        prog: &Tier1Program,
        arena: *mut u64,
        mems: &[MemBank],
        flags: &[Cell<u64>],
        _producer: usize,
        ops: &mut u64,
        dynamic: &mut u64,
    ) {
        // SAFETY: forwards this method's contract (same as
        // `run_tier1_raw`'s) unchanged.
        unsafe { run_tier1_raw(prog, arena, mems, &CellFlags(flags), ops, dynamic) }
    }
}

/// One recorded trace event (an activation inside the trace window).
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    pub unit: u32,
    /// Worker thread that ran the activation (0 for sequential
    /// engines). The Chrome exporter lays tracks out per worker, so
    /// dataflow-schedule stalls and cycle overlap are visible.
    pub worker: u32,
    pub cycle: u64,
    pub start: u64,
    pub dur: u64,
}

/// Chrome `trace_event` JSON (array form): one complete ("X") event per
/// timed activation, one track (`tid`) per *worker*, the schedule unit
/// in the event name and args. Load in `chrome://tracing` / Perfetto;
/// gaps inside a worker's lane are schedule stalls, and events of cycle
/// `k+1` starting before the last event of cycle `k` ends (on another
/// lane) are the dataflow engine's cycle overlap.
pub fn chrome_trace_json(trace: &[TraceEvent], unit_names: &[String]) -> String {
    let base = trace.iter().map(|e| e.start).min().unwrap_or(0);
    let mut s = String::from("[\n");
    for (i, e) in trace.iter().enumerate() {
        let _ = write!(
            s,
            "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"cycle\": {}, \"unit\": {}}}}}",
            unit_names[e.unit as usize],
            e.worker,
            (e.start - base) as f64 / 1e3,
            (e.dur.max(1)) as f64 / 1e3,
            e.cycle,
            e.unit,
        );
        s.push_str(if i + 1 < trace.len() { ",\n" } else { "\n" });
    }
    s.push_str("]\n");
    s
}

/// The enabled profiler: flat per-unit counters plus cause-slot
/// counters, a bucketed activity heatmap, and an optional trace window.
#[derive(Debug, Clone)]
pub struct ProfileArena {
    wiring: ProfileWiring,
    /// Per unit: activations / sleeps / ops evaluated while active.
    evals: Vec<u64>,
    skips: Vec<u64>,
    ops: Vec<u64>,
    /// Per unit: summed ticks over *timed* activations, and how many
    /// activations were timed (mean × evals estimates total time).
    time: Vec<u64>,
    timed_evals: Vec<u64>,
    /// Per unit, countdown to the next timed activation.
    stride_ctr: Vec<u32>,
    /// Per unit: wakes received, by cause kind.
    woke_output: Vec<u64>,
    woke_state: Vec<u64>,
    woke_input: Vec<u64>,
    /// Per unit: wakes this unit's outputs caused (as producer).
    caused: Vec<u64>,
    /// Per state slot / input slot: wakes caused.
    state_causes: Vec<u64>,
    input_causes: Vec<u64>,
    input_index: HashMap<SignalId, u32>,
    /// Activations per unit per cycle bucket, bucket-major.
    heat: Vec<u64>,
    /// Cycles per heatmap bucket.
    bucket: u64,
    cycles: u64,
    /// Record [`TraceEvent`]s while `cycles < trace_until`.
    trace_until: u64,
    trace: Vec<TraceEvent>,
    /// Time one activation in this many (per unit); 1 = time every.
    time_stride: u32,
}

impl ProfileArena {
    /// Default cycles-per-bucket for the activity heatmap.
    pub const DEFAULT_BUCKET: u64 = 256;
    /// Default sampling stride for eval timing.
    pub const DEFAULT_TIME_STRIDE: u32 = 8;

    /// Fresh arena over a wiring; all counters zero.
    pub fn new(wiring: ProfileWiring) -> ProfileArena {
        let units = wiring.units();
        let states = wiring.state_names.len();
        let inputs = wiring.input_names.len();
        let input_index = wiring.input_slot.iter().copied().collect();
        ProfileArena {
            evals: vec![0; units],
            skips: vec![0; units],
            ops: vec![0; units],
            time: vec![0; units],
            timed_evals: vec![0; units],
            stride_ctr: vec![0; units],
            woke_output: vec![0; units],
            woke_state: vec![0; units],
            woke_input: vec![0; units],
            caused: vec![0; units],
            state_causes: vec![0; states],
            input_causes: vec![0; inputs],
            input_index,
            heat: Vec::new(),
            bucket: Self::DEFAULT_BUCKET,
            cycles: 0,
            trace_until: 0,
            trace: Vec::new(),
            time_stride: Self::DEFAULT_TIME_STRIDE,
            wiring,
        }
    }

    /// Record Chrome-trace events for the first `cycles` cycles.
    pub fn set_trace_window(&mut self, cycles: u64) {
        self.trace_until = cycles;
    }

    /// Sets the heatmap bucket width (cycles per bucket).
    pub fn set_bucket(&mut self, cycles_per_bucket: u64) {
        assert!(cycles_per_bucket > 0, "bucket must be positive");
        assert_eq!(self.cycles, 0, "set the bucket before simulating");
        self.bucket = cycles_per_bucket;
    }

    /// Sets the eval-time sampling stride (1 = time every activation).
    pub fn set_time_stride(&mut self, stride: u32) {
        assert!(stride > 0, "stride must be positive");
        self.time_stride = stride;
    }

    /// The wiring this arena charges counters through.
    pub fn wiring(&self) -> &ProfileWiring {
        &self.wiring
    }

    /// Cycles profiled so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    #[inline]
    fn in_trace_window(&self) -> bool {
        self.cycles <= self.trace_until
    }

    /// Summarizes the counters into an owned report.
    pub fn report(&self, engine: &'static str) -> ProfileReport {
        let units = (0..self.wiring.units())
            .map(|u| UnitProfile {
                name: self.wiring.unit_names[u].clone(),
                evals: self.evals[u],
                skips: self.skips[u],
                ops: self.ops[u],
                time: self.time[u],
                timed_evals: self.timed_evals[u],
                woke_output: self.woke_output[u],
                woke_state: self.woke_state[u],
                woke_input: self.woke_input[u],
                caused: self.caused[u],
            })
            .collect();
        ProfileReport {
            engine,
            cycles: self.cycles,
            bucket: self.bucket,
            units,
            state_causes: self
                .wiring
                .state_names
                .iter()
                .cloned()
                .zip(self.state_causes.iter().copied())
                .collect(),
            input_causes: self
                .wiring
                .input_names
                .iter()
                .cloned()
                .zip(self.input_causes.iter().copied())
                .collect(),
            heat: self.heat.clone(),
        }
    }

    /// Chrome `trace_event` JSON of the recorded window (see
    /// [`chrome_trace_json`]); a sequential engine's events all share
    /// worker lane 0.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&self.trace, &self.wiring.unit_names)
    }
}

impl Profiler for ProfileArena {
    const ENABLED: bool = true;

    #[inline]
    fn begin_cycle(&mut self) {
        if self.cycles.is_multiple_of(self.bucket) {
            let grown = self.heat.len() + self.wiring.units();
            self.heat.resize(grown, 0);
        }
        self.cycles += 1;
    }

    #[inline]
    fn unit_skip(&mut self, unit: usize) {
        self.skips[unit] += 1;
    }

    #[inline]
    fn eval_begin(&mut self, unit: usize) -> u64 {
        self.evals[unit] += 1;
        let row = self.heat.len() - self.wiring.units();
        self.heat[row + unit] += 1;
        if self.stride_ctr[unit] == 0 {
            self.stride_ctr[unit] = self.time_stride - 1;
            tick().max(1)
        } else {
            self.stride_ctr[unit] -= 1;
            0
        }
    }

    #[inline]
    fn eval_end(&mut self, unit: usize, start: u64, ops_delta: u64) {
        self.ops[unit] += ops_delta;
        if start != 0 {
            let dur = tick().saturating_sub(start);
            self.time[unit] += dur;
            self.timed_evals[unit] += 1;
            if self.in_trace_window() {
                self.trace.push(TraceEvent {
                    unit: unit as u32,
                    worker: 0,
                    cycle: self.cycles,
                    start,
                    dur,
                });
            }
        }
    }

    #[inline]
    fn wake_output(&mut self, producer: usize, consumer: u32) {
        self.caused[self.wiring.producer_slot[producer] as usize] += 1;
        self.woke_output[consumer as usize] += 1;
    }

    #[inline]
    fn wake_state_reg(&mut self, reg_plan: usize, consumer: u32) {
        self.state_causes[self.wiring.reg_slot[reg_plan] as usize] += 1;
        self.woke_state[consumer as usize] += 1;
    }

    #[inline]
    fn wake_state_mem(&mut self, mem_plan: usize, consumer: u32) {
        self.state_causes[self.wiring.mem_slot[mem_plan] as usize] += 1;
        self.woke_state[consumer as usize] += 1;
    }

    #[inline]
    fn wake_input(&mut self, input: SignalId, consumer: u32) {
        if let Some(&slot) = self.input_index.get(&input) {
            self.input_causes[slot as usize] += 1;
        }
        self.woke_input[consumer as usize] += 1;
    }

    unsafe fn run_tier1(
        &mut self,
        prog: &Tier1Program,
        arena: *mut u64,
        mems: &[MemBank],
        flags: &[Cell<u64>],
        producer: usize,
        ops: &mut u64,
        dynamic: &mut u64,
    ) {
        let slot = self.wiring.producer_slot[producer] as usize;
        fn cells(v: &mut [u64]) -> &[Cell<u64>] {
            Cell::from_mut(v).as_slice_of_cells()
        }
        let sink = ProfCellFlags {
            flags,
            caused: Cell::from_mut(&mut self.caused[slot]),
            woke: cells(&mut self.woke_output),
            reg_slot: &self.wiring.reg_slot,
            state_causes: cells(&mut self.state_causes),
            woke_state: cells(&mut self.woke_state),
        };
        // SAFETY: forwards this method's contract (same as
        // `run_tier1_raw`'s) unchanged.
        unsafe { run_tier1_raw(prog, arena, mems, &sink, ops, dynamic) }
    }
}

/// Thread-safe profile counters for the parallel engine: the same
/// attribution scheme over relaxed atomics (mirroring
/// [`AtomicFlags`](crate::step1::AtomicFlags)). Eval timing is per
/// activation (no stride batching — workers own no per-unit state).
#[derive(Debug)]
pub struct AtomicProfile {
    wiring: ProfileWiring,
    evals: Vec<AtomicU64>,
    skips: Vec<AtomicU64>,
    ops: Vec<AtomicU64>,
    time: Vec<AtomicU64>,
    timed_evals: Vec<AtomicU64>,
    woke_output: Vec<AtomicU64>,
    woke_state: Vec<AtomicU64>,
    woke_input: Vec<AtomicU64>,
    caused: Vec<AtomicU64>,
    state_causes: Vec<AtomicU64>,
    input_causes: Vec<AtomicU64>,
    input_index: HashMap<SignalId, u32>,
    cycles: AtomicU64,
    /// Record [`TraceEvent`]s while `cycles <= trace_until` (per-worker
    /// lanes; workers append under a mutex, which only trace-windowed
    /// runs pay for).
    trace_until: u64,
    trace: std::sync::Mutex<Vec<TraceEvent>>,
}

fn azeros(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl AtomicProfile {
    /// Fresh atomic arena over a wiring.
    pub fn new(wiring: ProfileWiring) -> AtomicProfile {
        let units = wiring.units();
        let states = wiring.state_names.len();
        let inputs = wiring.input_names.len();
        let input_index = wiring.input_slot.iter().copied().collect();
        AtomicProfile {
            evals: azeros(units),
            skips: azeros(units),
            ops: azeros(units),
            time: azeros(units),
            timed_evals: azeros(units),
            woke_output: azeros(units),
            woke_state: azeros(units),
            woke_input: azeros(units),
            caused: azeros(units),
            state_causes: azeros(states),
            input_causes: azeros(inputs),
            input_index,
            cycles: AtomicU64::new(0),
            trace_until: 0,
            trace: std::sync::Mutex::new(Vec::new()),
            wiring,
        }
    }

    /// The wiring this arena charges counters through.
    pub fn wiring(&self) -> &ProfileWiring {
        &self.wiring
    }

    /// Record Chrome-trace events for the first `cycles` cycles.
    pub fn set_trace_window(&mut self, cycles: u64) {
        self.trace_until = cycles;
    }

    /// Chrome `trace_event` JSON of the recorded window (see
    /// [`chrome_trace_json`]): one lane per worker, so dataflow stalls
    /// and cycle overlap are visible.
    pub fn chrome_trace(&self) -> String {
        let trace = self.trace.lock().expect("trace lock");
        chrome_trace_json(&trace, &self.wiring.unit_names)
    }

    #[inline]
    pub fn begin_cycle(&self) {
        self.cycles.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn unit_skip(&self, unit: usize) {
        self.skips[unit].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn eval_begin(&self, unit: usize) -> u64 {
        self.evals[unit].fetch_add(1, Ordering::Relaxed);
        tick().max(1)
    }

    #[inline]
    pub fn eval_end(&self, unit: usize, start: u64, ops_delta: u64) {
        self.eval_end_on(unit, 0, start, ops_delta);
    }

    /// [`AtomicProfile::eval_end`] with the worker lane for the trace;
    /// parallel engines pass their worker id so the Chrome export shows
    /// real thread occupancy. Never inlined: it runs only when profiling,
    /// and its trace-window locking would otherwise sit inside the
    /// workers' per-partition loop, whose idle path is the engine's hot
    /// path.
    #[inline(never)]
    pub fn eval_end_on(&self, unit: usize, worker: u32, start: u64, ops_delta: u64) {
        self.ops[unit].fetch_add(ops_delta, Ordering::Relaxed);
        let dur = tick().saturating_sub(start);
        self.time[unit].fetch_add(dur, Ordering::Relaxed);
        self.timed_evals[unit].fetch_add(1, Ordering::Relaxed);
        let cycle = self.cycles.load(Ordering::Relaxed);
        if cycle <= self.trace_until {
            self.trace.lock().expect("trace lock").push(TraceEvent {
                unit: unit as u32,
                worker,
                cycle,
                start,
                dur,
            });
        }
    }

    #[inline]
    pub fn wake_output(&self, producer: usize, consumer: u32) {
        self.caused[self.wiring.producer_slot[producer] as usize].fetch_add(1, Ordering::Relaxed);
        self.woke_output[consumer as usize].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn wake_state_reg(&self, reg_plan: usize, consumer: u32) {
        self.state_causes[self.wiring.reg_slot[reg_plan] as usize].fetch_add(1, Ordering::Relaxed);
        self.woke_state[consumer as usize].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn wake_state_mem(&self, mem_plan: usize, consumer: u32) {
        self.state_causes[self.wiring.mem_slot[mem_plan] as usize].fetch_add(1, Ordering::Relaxed);
        self.woke_state[consumer as usize].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn wake_input(&self, input: SignalId, consumer: u32) {
        if let Some(&slot) = self.input_index.get(&input) {
            self.input_causes[slot as usize].fetch_add(1, Ordering::Relaxed);
        }
        self.woke_input[consumer as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Summarizes the counters into an owned report (no heatmap — the
    /// parallel engine records aggregates; the trace window is exported
    /// separately via [`AtomicProfile::chrome_trace`]).
    pub fn report(&self, engine: &'static str) -> ProfileReport {
        let ld = |v: &[AtomicU64], i: usize| v[i].load(Ordering::Relaxed);
        let units = (0..self.wiring.units())
            .map(|u| UnitProfile {
                name: self.wiring.unit_names[u].clone(),
                evals: ld(&self.evals, u),
                skips: ld(&self.skips, u),
                ops: ld(&self.ops, u),
                time: ld(&self.time, u),
                timed_evals: ld(&self.timed_evals, u),
                woke_output: ld(&self.woke_output, u),
                woke_state: ld(&self.woke_state, u),
                woke_input: ld(&self.woke_input, u),
                caused: ld(&self.caused, u),
            })
            .collect();
        ProfileReport {
            engine,
            cycles: self.cycles.load(Ordering::Relaxed),
            bucket: 0,
            units,
            state_causes: self
                .wiring
                .state_names
                .iter()
                .cloned()
                .zip(self.state_causes.iter().map(|a| a.load(Ordering::Relaxed)))
                .collect(),
            input_causes: self
                .wiring
                .input_names
                .iter()
                .cloned()
                .zip(self.input_causes.iter().map(|a| a.load(Ordering::Relaxed)))
                .collect(),
            heat: Vec::new(),
        }
    }
}

/// One schedule unit's profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitProfile {
    pub name: String,
    /// Activations (cycles the unit evaluated).
    pub evals: u64,
    /// Cycles the unit's activity test failed.
    pub skips: u64,
    /// Operations evaluated while this unit was active.
    pub ops: u64,
    /// Summed ticks over the timed activations.
    pub time: u64,
    /// How many activations were timed (stride sampling).
    pub timed_evals: u64,
    /// Wakes received from producer-output triggers.
    pub woke_output: u64,
    /// Wakes received from state (register/memory) changes.
    pub woke_state: u64,
    /// Wakes received from external input pokes.
    pub woke_input: u64,
    /// Wakes this unit's own outputs caused (as producer).
    pub caused: u64,
}

impl UnitProfile {
    /// Fraction of cycles this unit slept.
    pub fn skip_rate(&self) -> f64 {
        let total = self.evals + self.skips;
        if total == 0 {
            0.0
        } else {
            self.skips as f64 / total as f64
        }
    }

    /// Estimated total eval ticks: mean timed cost × activations.
    pub fn est_time(&self) -> f64 {
        if self.timed_evals == 0 {
            0.0
        } else {
            self.time as f64 / self.timed_evals as f64 * self.evals as f64
        }
    }
}

/// An engine's full profile: per-unit counters, cause attributions, and
/// the bucketed activity heatmap.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    pub engine: &'static str,
    pub cycles: u64,
    /// Cycles per heatmap bucket (0 = no heatmap recorded).
    pub bucket: u64,
    pub units: Vec<UnitProfile>,
    /// (state element name, wakes caused).
    pub state_causes: Vec<(String, u64)>,
    /// (input name, wakes caused).
    pub input_causes: Vec<(String, u64)>,
    /// Activations per unit per bucket, bucket-major
    /// (`heat[b * units + u]`).
    pub heat: Vec<u64>,
}

impl ProfileReport {
    /// Sum of unit activations.
    pub fn total_evals(&self) -> u64 {
        self.units.iter().map(|u| u.evals).sum()
    }

    /// Sum of unit sleeps.
    pub fn total_skips(&self) -> u64 {
        self.units.iter().map(|u| u.skips).sum()
    }

    /// Sum of ops attributed to units.
    pub fn total_ops(&self) -> u64 {
        self.units.iter().map(|u| u.ops).sum()
    }

    /// Mean fraction of units active per cycle — the partition-level
    /// activity factor.
    pub fn activity_factor(&self) -> f64 {
        let total = self.total_evals() + self.total_skips();
        if total == 0 {
            0.0
        } else {
            self.total_evals() as f64 / total as f64
        }
    }

    /// The `n` hottest units by estimated eval time (ops as the
    /// tie-break when nothing was timed), hottest first.
    pub fn hottest(&self, n: usize) -> Vec<(usize, &UnitProfile)> {
        let mut idx: Vec<usize> = (0..self.units.len()).collect();
        idx.sort_by(|&a, &b| {
            let (ua, ub) = (&self.units[a], &self.units[b]);
            ub.est_time()
                .partial_cmp(&ua.est_time())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ub.ops.cmp(&ua.ops))
                .then(a.cmp(&b))
        });
        idx.into_iter()
            .take(n)
            .map(|i| (i, &self.units[i]))
            .collect()
    }

    /// Renders the report as JSON (the `BENCH_profile.json` schema).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"engine\": \"{}\",", self.engine);
        let _ = writeln!(s, "  \"cycles\": {},", self.cycles);
        let _ = writeln!(s, "  \"unit_count\": {},", self.units.len());
        let _ = writeln!(s, "  \"total_evals\": {},", self.total_evals());
        let _ = writeln!(s, "  \"total_skips\": {},", self.total_skips());
        let _ = writeln!(s, "  \"total_ops\": {},", self.total_ops());
        let _ = writeln!(s, "  \"activity_factor\": {:.6},", self.activity_factor());
        let _ = writeln!(s, "  \"units\": [");
        for (i, u) in self.units.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"name\": \"{}\", \"evals\": {}, \"skips\": {}, \"ops\": {}, \"time\": {}, \"timed_evals\": {}, \"woke_output\": {}, \"woke_state\": {}, \"woke_input\": {}, \"caused\": {}}}",
                u.name, u.evals, u.skips, u.ops, u.time, u.timed_evals,
                u.woke_output, u.woke_state, u.woke_input, u.caused,
            );
            let _ = writeln!(s, "{}", if i + 1 < self.units.len() { "," } else { "" });
        }
        let _ = writeln!(s, "  ],");
        let dump = |s: &mut String, key: &str, causes: &[(String, u64)], last: bool| {
            let _ = writeln!(s, "  \"{key}\": [");
            for (i, (name, n)) in causes.iter().enumerate() {
                let _ = write!(s, "    {{\"name\": \"{name}\", \"wakes\": {n}}}");
                let _ = writeln!(s, "{}", if i + 1 < causes.len() { "," } else { "" });
            }
            let _ = writeln!(s, "  ]{}", if last { "" } else { "," });
        };
        dump(&mut s, "state_causes", &self.state_causes, false);
        dump(&mut s, "input_causes", &self.input_causes, true);
        let _ = writeln!(s, "}}");
        s
    }

    /// Renders the heatmap as CSV: one row per unit, one column per
    /// cycle bucket, each cell the unit's **skip rate** in that bucket
    /// (the paper's Figure 7 analog at partition granularity).
    pub fn heatmap_csv(&self) -> String {
        let units = self.units.len();
        if self.bucket == 0 || units == 0 || self.heat.is_empty() {
            return String::new();
        }
        let buckets = self.heat.len() / units;
        let mut s = String::from("unit");
        for b in 0..buckets {
            let _ = write!(s, ",c{}", b as u64 * self.bucket);
        }
        s.push('\n');
        for (u, unit) in self.units.iter().enumerate() {
            let _ = write!(s, "{}", unit.name);
            for b in 0..buckets {
                // The last bucket may be partial.
                let span = if b + 1 == buckets {
                    let rem = self.cycles - (buckets as u64 - 1) * self.bucket;
                    if rem == 0 {
                        self.bucket
                    } else {
                        rem
                    }
                } else {
                    self.bucket
                };
                let evals = self.heat[b * units + u];
                let _ = write!(s, ",{:.4}", 1.0 - evals as f64 / span as f64);
            }
            s.push('\n');
        }
        s
    }

    /// Renders a compact summary: the same per-design totals as
    /// [`ProfileReport::to_json`] but only the `top_n` hottest units and
    /// the `top_n` biggest state/input wake causes — the checked-in
    /// `BENCH_profile.json` shape. [`ProfileReport::from_json`] reads
    /// both forms (a summary simply yields a partial activity prior).
    pub fn to_summary_json(&self, top_n: usize) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"engine\": \"{}\",", self.engine);
        let _ = writeln!(s, "  \"summary_top_n\": {top_n},");
        let _ = writeln!(s, "  \"cycles\": {},", self.cycles);
        let _ = writeln!(s, "  \"unit_count\": {},", self.units.len());
        let _ = writeln!(s, "  \"total_evals\": {},", self.total_evals());
        let _ = writeln!(s, "  \"total_skips\": {},", self.total_skips());
        let _ = writeln!(s, "  \"total_ops\": {},", self.total_ops());
        let _ = writeln!(s, "  \"activity_factor\": {:.6},", self.activity_factor());
        let hot = self.hottest(top_n);
        let _ = writeln!(s, "  \"units\": [");
        for (i, (_, u)) in hot.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"name\": \"{}\", \"evals\": {}, \"skips\": {}, \"ops\": {}, \"time\": {}, \"timed_evals\": {}, \"woke_output\": {}, \"woke_state\": {}, \"woke_input\": {}, \"caused\": {}}}",
                u.name, u.evals, u.skips, u.ops, u.time, u.timed_evals,
                u.woke_output, u.woke_state, u.woke_input, u.caused,
            );
            let _ = writeln!(s, "{}", if i + 1 < hot.len() { "," } else { "" });
        }
        let _ = writeln!(s, "  ],");
        let top_causes = |causes: &[(String, u64)]| -> Vec<(String, u64)> {
            let mut sorted: Vec<(String, u64)> = causes.to_vec();
            sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            sorted.truncate(top_n);
            sorted
        };
        let dump = |s: &mut String, key: &str, causes: &[(String, u64)], last: bool| {
            let _ = writeln!(s, "  \"{key}\": [");
            for (i, (name, n)) in causes.iter().enumerate() {
                let _ = write!(s, "    {{\"name\": \"{name}\", \"wakes\": {n}}}");
                let _ = writeln!(s, "{}", if i + 1 < causes.len() { "," } else { "" });
            }
            let _ = writeln!(s, "  ]{}", if last { "" } else { "," });
        };
        dump(
            &mut s,
            "state_causes",
            &top_causes(&self.state_causes),
            false,
        );
        dump(
            &mut s,
            "input_causes",
            &top_causes(&self.input_causes),
            true,
        );
        let _ = writeln!(s, "}}");
        s
    }

    /// Parses a report rendered by [`ProfileReport::to_json`] or
    /// [`ProfileReport::to_summary_json`] (the feedback loader's input).
    /// The heatmap is not serialized, so `bucket`/`heat` come back
    /// empty; the engine name is replaced by a `"loaded"` marker.
    ///
    /// Returns `None` on any malformed field — like the rest of the
    /// bench JSON handling this is a hand-rolled scan, not a general
    /// JSON parser.
    pub fn from_json(text: &str) -> Option<ProfileReport> {
        fn num<T: std::str::FromStr>(obj: &str, key: &str) -> Option<T> {
            let pat = format!("\"{key}\": ");
            let at = obj.find(&pat)? + pat.len();
            let rest = &obj[at..];
            let end = rest.find([',', '}', ']', '\n']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        }
        fn str_field(obj: &str, key: &str) -> Option<String> {
            let pat = format!("\"{key}\": \"");
            let at = obj.find(&pat)? + pat.len();
            let rest = &obj[at..];
            Some(rest[..rest.find('"')?].to_string())
        }
        /// The `{...}` chunks of the flat object array at `"key": [`.
        fn objects<'t>(text: &'t str, key: &str) -> Option<Vec<&'t str>> {
            let pat = format!("\"{key}\": [");
            let at = text.find(&pat)? + pat.len();
            let rest = &text[at..];
            let body = &rest[..rest.find(']')?];
            Some(
                body.split('{')
                    .skip(1)
                    .filter_map(|c| c.find('}').map(|e| &c[..e]))
                    .collect(),
            )
        }
        let cycles = num::<u64>(text, "cycles")?;
        let mut units = Vec::new();
        for obj in objects(text, "units")? {
            units.push(UnitProfile {
                name: str_field(obj, "name")?,
                evals: num(obj, "evals")?,
                skips: num(obj, "skips")?,
                ops: num(obj, "ops")?,
                time: num(obj, "time")?,
                timed_evals: num(obj, "timed_evals")?,
                woke_output: num(obj, "woke_output")?,
                woke_state: num(obj, "woke_state")?,
                woke_input: num(obj, "woke_input")?,
                caused: num(obj, "caused")?,
            });
        }
        let causes = |key: &str| -> Option<Vec<(String, u64)>> {
            let mut out = Vec::new();
            for obj in objects(text, key)? {
                out.push((str_field(obj, "name")?, num(obj, "wakes")?));
            }
            Some(out)
        };
        Some(ProfileReport {
            engine: "loaded",
            cycles,
            bucket: 0,
            units,
            state_causes: causes("state_causes")?,
            input_causes: causes("input_causes")?,
            heat: Vec::new(),
        })
    }
}

/// Projects a per-unit [`ProfileReport`] down to the per-node
/// [`ActivityPrior`] the partitioner and the [`CostModel`](crate::CostModel)
/// consume.
///
/// The report's units are schedule indices of `plan` (names `p<i>`);
/// each unit's activity rate lands on every node the unit covers, and
/// its estimated eval time — normalized to *ticks per simulated cycle*
/// so priors from runs of different lengths are comparable — is split
/// evenly across the unit's computed members. Units a summary report
/// omitted simply stay unknown (`NaN` rate), as do memory-write action
/// nodes of non-elided writes; the feedback loop degrades gracefully
/// toward "no information" rather than inventing heat.
pub fn activity_prior(netlist: &Netlist, plan: &CcssPlan, report: &ProfileReport) -> ActivityPrior {
    let signal_count = netlist.signal_count();
    let mut prior = ActivityPrior::neutral(signal_count + plan.mem_write_plans.len());
    let mut unit_rate = vec![f64::NAN; plan.partitions.len()];
    let mut unit_cost = vec![0.0f64; plan.partitions.len()];
    let cycles = report.cycles.max(1) as f64;
    for u in &report.units {
        let Some(idx) = u
            .name
            .strip_prefix('p')
            .and_then(|t| t.parse::<usize>().ok())
        else {
            continue;
        };
        if idx >= plan.partitions.len() {
            continue;
        }
        let total = u.evals + u.skips;
        if total == 0 {
            continue;
        }
        unit_rate[idx] = u.evals as f64 / total as f64;
        let part = &plan.partitions[idx];
        let share = (part.members.len() + part.elided_writes.len()).max(1) as f64;
        unit_cost[idx] = u.est_time() / cycles / share;
    }
    // Rates cover every signal through the schedule map (inputs and
    // state outputs carry their partition's rate into a repartitioning);
    // costs land only on the nodes the unit actually evaluates.
    for sig in 0..signal_count {
        let sched = plan.sched_of_signal[sig] as usize;
        if !unit_rate[sched].is_nan() {
            prior.set_node(sig, unit_rate[sched], 0.0);
        }
    }
    for (sched, part) in plan.partitions.iter().enumerate() {
        if unit_rate[sched].is_nan() {
            continue;
        }
        for &s in &part.members {
            prior.set_node(s.index(), unit_rate[sched], unit_cost[sched]);
        }
        for &wi in &part.elided_writes {
            prior.set_node(signal_count + wi, unit_rate[sched], unit_cost[sched]);
        }
    }
    prior
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_wiring(units: usize) -> ProfileWiring {
        ProfileWiring {
            unit_names: (0..units).map(|i| format!("p{i}")).collect(),
            producer_slot: (0..units as u32).collect(),
            reg_slot: vec![0],
            mem_slot: vec![1],
            state_names: vec!["r".into(), "m.w0".into()],
            input_slot: vec![(SignalId(0), 0)],
            input_names: vec!["in".into()],
        }
    }

    #[test]
    fn counters_accumulate_and_report() {
        let mut p = ProfileArena::new(tiny_wiring(2));
        p.set_time_stride(1);
        for _ in 0..10 {
            p.begin_cycle();
            let t = p.eval_begin(0);
            p.eval_end(0, t, 3);
            p.unit_skip(1);
        }
        p.wake_output(0, 1);
        p.wake_state_reg(0, 1);
        p.wake_state_mem(0, 0);
        p.wake_input(SignalId(0), 0);
        let r = p.report("essent");
        assert_eq!(r.cycles, 10);
        assert_eq!(r.units[0].evals, 10);
        assert_eq!(r.units[0].ops, 30);
        assert_eq!(r.units[0].timed_evals, 10);
        assert_eq!(r.units[1].skips, 10);
        assert_eq!(r.units[1].woke_output, 1);
        assert_eq!(r.units[1].woke_state, 1);
        assert_eq!(r.units[0].woke_state, 1);
        assert_eq!(r.units[0].woke_input, 1);
        assert_eq!(r.units[0].caused, 1);
        assert_eq!(r.state_causes, vec![("r".into(), 1), ("m.w0".into(), 1)]);
        assert_eq!(r.input_causes, vec![("in".into(), 1)]);
        assert_eq!(r.total_evals(), 10);
        assert_eq!(r.total_skips(), 10);
        assert!((r.activity_factor() - 0.5).abs() < 1e-9);
        assert_eq!(r.hottest(1)[0].0, 0);
        let json = r.to_json();
        assert!(json.contains("\"engine\": \"essent\""));
        assert!(json.contains("\"woke_state\": 1"));
    }

    #[test]
    fn stride_samples_one_in_n() {
        let mut p = ProfileArena::new(tiny_wiring(1));
        p.set_time_stride(4);
        for _ in 0..16 {
            p.begin_cycle();
            let t = p.eval_begin(0);
            p.eval_end(0, t, 1);
        }
        let r = p.report("essent");
        assert_eq!(r.units[0].evals, 16);
        assert_eq!(r.units[0].timed_evals, 4, "1 in 4 activations timed");
        assert!(r.units[0].est_time() >= 0.0);
    }

    #[test]
    fn heatmap_buckets_roll_over() {
        let mut p = ProfileArena::new(tiny_wiring(2));
        p.set_bucket(4);
        for c in 0..10 {
            p.begin_cycle();
            let t = p.eval_begin(0);
            p.eval_end(0, t, 1);
            // Unit 1 active only in the first bucket.
            if c < 4 {
                let t = p.eval_begin(1);
                p.eval_end(1, t, 1);
            } else {
                p.unit_skip(1);
            }
        }
        let r = p.report("essent");
        // 10 cycles / 4 per bucket -> 3 buckets.
        assert_eq!(r.heat.len(), 3 * 2);
        assert_eq!(&r.heat[..2], &[4, 4]);
        assert_eq!(&r.heat[2..4], &[4, 0]);
        assert_eq!(&r.heat[4..], &[2, 0], "partial last bucket");
        let csv = r.heatmap_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("p0,0.0000,0.0000,0.0000"));
        assert!(lines[2].starts_with("p1,0.0000,1.0000,1.0000"));
    }

    #[test]
    fn trace_window_records_events() {
        let mut p = ProfileArena::new(tiny_wiring(1));
        p.set_time_stride(1);
        p.set_trace_window(3);
        for _ in 0..10 {
            p.begin_cycle();
            let t = p.eval_begin(0);
            p.eval_end(0, t, 1);
        }
        assert_eq!(p.trace.len(), 3, "only the windowed cycles trace");
        let json = p.chrome_trace();
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"cycle\": 1"));
    }

    /// The report's per-unit counts must be an exact decomposition of
    /// the engine's own deterministic work counters: every evaluated op
    /// is charged to exactly one unit, and every partition is either
    /// evaluated or skipped every cycle — the accounting identity that
    /// makes per-partition profiles trustworthy as Figure 7 inputs.
    #[test]
    fn report_sums_to_engine_work_counters() {
        use crate::engine::{EngineConfig, Simulator};
        use crate::essent::EssentSim;
        use essent_bits::Bits;

        let src = "circuit S :\n  module S :\n    input clock : Clock\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<8>\n    reg r1 : UInt<8>, clock\n    reg r2 : UInt<8>, clock\n    node s = xor(r1, a)\n    node t = xor(r2, b)\n    node u = and(s, t)\n    o <= u\n    r1 <= not(s)\n    r2 <= not(t)\n";
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        let netlist = essent_netlist::Netlist::from_circuit(&lowered).unwrap();
        let config = EngineConfig {
            c_p: 1,
            profile: true,
            ..EngineConfig::default()
        };
        let mut sim = EssentSim::new(&netlist, &config);
        let n_parts = sim.profile_arena().expect("profile is on").wiring().units();
        assert!(n_parts >= 2, "c_p=1 must split this design");
        sim.poke("a", Bits::from_u64(3, 8));
        sim.step(10);
        sim.poke("b", Bits::from_u64(200, 8));
        sim.step(10);
        let counters = sim.counters();
        let report = sim.profile_report().expect("profile is on");
        assert_eq!(report.cycles, counters.cycles);
        assert_eq!(
            report.total_ops(),
            counters.ops_evaluated,
            "every op charges exactly one unit"
        );
        assert_eq!(
            report.total_evals() + report.total_skips(),
            n_parts as u64 * counters.cycles,
            "each partition is evaluated or skipped every cycle"
        );
        assert!(report.total_skips() > 0, "quiet partitions must skip");
        assert!(
            report.activity_factor() < 1.0,
            "this design is not fully active every cycle"
        );
    }

    #[test]
    fn atomic_profile_matches_scheme() {
        let p = AtomicProfile::new(tiny_wiring(2));
        p.begin_cycle();
        let t = p.eval_begin(0);
        p.eval_end(0, t, 7);
        p.unit_skip(1);
        p.wake_output(0, 1);
        p.wake_state_reg(0, 1);
        p.wake_input(SignalId(0), 0);
        let r = p.report("essent-parallel");
        assert_eq!(r.cycles, 1);
        assert_eq!(r.units[0].ops, 7);
        assert_eq!(r.units[1].woke_output, 1);
        assert_eq!(r.units[0].caused, 1);
        assert_eq!(r.state_causes[0].1, 1);
        assert_eq!(r.input_causes[0].1, 1);
    }

    /// A report with distinct values in every field.
    fn sample_report() -> ProfileReport {
        let mut p = ProfileArena::new(tiny_wiring(3));
        p.set_time_stride(1);
        for c in 0..20 {
            p.begin_cycle();
            let t = p.eval_begin(0);
            p.eval_end(0, t, 5);
            if c % 4 == 0 {
                let t = p.eval_begin(1);
                p.eval_end(1, t, 2);
            } else {
                p.unit_skip(1);
            }
            p.unit_skip(2);
        }
        p.wake_output(0, 1);
        p.wake_state_reg(0, 2);
        p.wake_state_mem(0, 1);
        p.wake_input(SignalId(0), 0);
        p.report("essent")
    }

    #[test]
    fn report_json_round_trips() {
        let r = sample_report();
        let parsed = ProfileReport::from_json(&r.to_json()).expect("parse own output");
        assert_eq!(parsed.cycles, r.cycles);
        assert_eq!(parsed.units, r.units);
        assert_eq!(parsed.state_causes, r.state_causes);
        assert_eq!(parsed.input_causes, r.input_causes);
        assert_eq!(parsed.engine, "loaded");
    }

    #[test]
    fn summary_json_keeps_totals_and_top_units() {
        let r = sample_report();
        let parsed = ProfileReport::from_json(&r.to_summary_json(2)).expect("parse summary");
        assert_eq!(parsed.cycles, r.cycles);
        assert_eq!(parsed.units.len(), 2, "top-2 units only");
        // The hottest unit (p0: most evals, most ops) must survive.
        assert!(parsed.units.iter().any(|u| u.name == "p0"));
        let full = ProfileReport::from_json(&r.to_json()).unwrap();
        assert_eq!(full.units.len(), 3);
        // Summary stays dramatically smaller on wide unit tables.
        let wide = ProfileReport {
            units: (0..500)
                .map(|i| UnitProfile {
                    name: format!("p{i}"),
                    evals: 1,
                    skips: 1,
                    ops: 1,
                    time: 1,
                    timed_evals: 1,
                    woke_output: 0,
                    woke_state: 0,
                    woke_input: 0,
                    caused: 0,
                })
                .collect(),
            ..r
        };
        assert!(wide.to_summary_json(10).lines().count() < wide.to_json().lines().count() / 10);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(ProfileReport::from_json("").is_none());
        assert!(ProfileReport::from_json("{\"cycles\": 5}").is_none());
        assert!(ProfileReport::from_json(
            "{\"cycles\": x, \"units\": [], \"state_causes\": [], \"input_causes\": []}"
        )
        .is_none());
    }
}
