//! A parallel CCSS engine: partition-level parallelism over a statically
//! synthesized dataflow schedule.
//!
//! The acyclic partitioning that makes singular *sequential* schedules
//! possible also exposes parallelism — partitions with no dependence
//! path between them touch disjoint output slots and can evaluate
//! concurrently. At construction the engine derives the exact
//! inter-partition dependence graph, assigns every partition to a worker
//! (earliest finish time over the [`CostModel`]) and reduces the graph to
//! per-edge waits on per-partition `done` cycle counters
//! ([`essent_core::depgraph`]); there is no global barrier, and
//! partitions the analysis proves independent of the end-of-cycle serial
//! phase start the next cycle early. Activation flags become atomics, so
//! the conditional-execution benefit of CCSS is preserved: an inactive
//! partition costs one relaxed atomic load.
//!
//! This is the direction of the follow-on research building on ESSENT
//! (thread-parallel simulation over replication-free partitionings); it
//! is not part of the DAC 2020 evaluation and is benchmarked separately.
//! It is the only parallel schedule here: the barrier-per-level sweep and
//! its LPT bin packer ran 1.8× (soc) to 11.6× (boom) slower and were
//! removed (DESIGN.md §10).
//!
//! Memory-write elision is disabled here (concurrent in-partition writes
//! to a shared bank would race — see [`PlanOptions::elide_mem`]); register
//! elision is kept, since each register is written by exactly one
//! partition into a private slot and the schedule orders every reader
//! before the writer.
//!
//! Designs whose whole cycle is lighter than a cross-worker handoff
//! collapse to one worker; tiny designs are still slower than
//! [`EssentSim`](crate::EssentSim) — measure before adopting.
//!
//! [`PlanOptions::elide_mem`]: essent_core::plan::PlanOptions::elide_mem

use crate::engine::{delegate_simulator_basics, EngineConfig, Simulator};
use crate::frontend::{build_plan, Frontend};
use crate::machine::{self, Machine};
use crate::slots::WakeTable;
use crate::state::StateTable;
use crate::step1::{run_tier1_raw, AtomicFlags, Tier1Program};
use essent_bits::Bits;
use essent_core::depgraph::{synthesize_dataflow, DataflowSchedule, DepGraph};
use essent_core::plan::CcssPlan;
use essent_netlist::{Netlist, SignalDef};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

pub use crate::frontend::CostModel;

/// Shared arena pointer that workers may dereference under the engine's
/// disjointness discipline.
#[derive(Clone, Copy)]
struct ArenaPtr(*mut u64);
// SAFETY: workers only touch disjoint slots while running concurrently:
// every arena word has a single writing partition (R0502, plan-wide),
// no partition writes outside its declared range (R0504), and every
// pair of partitions whose footprints overlap is ordered by a wait edge
// of the dataflow schedule (S0601) — proven statically per design by
// `essent-verify`, enforced at run time by the wait protocol.
unsafe impl Send for ArenaPtr {}
// SAFETY: same discipline as the `Send` impl above — concurrent
// `&ArenaPtr` access only ever dereferences word ranges the schedule
// keeps apart (single writer R0502, in-range writes R0504, wait-edge
// cover S0601).
unsafe impl Sync for ArenaPtr {}

impl ArenaPtr {
    /// Accessor (closures must capture the Sync wrapper, not the raw
    /// pointer field — Rust 2021 captures precise paths).
    #[inline]
    fn get(&self) -> *mut u64 {
        self.0
    }
}

/// Shared memory-bank pointer for the worker closures.
struct MemsPtr(*mut crate::machine::MemBank, usize);
// SAFETY: workers only *read* the banks during partition evaluation;
// the banks are written exclusively in the serial phase, which runs
// concurrently only with partitions whose exemption proof includes
// bank-read disjointness (S0602).
unsafe impl Send for MemsPtr {}
// SAFETY: same read-only-during-evaluation discipline as `Send`.
unsafe impl Sync for MemsPtr {}
impl MemsPtr {
    #[inline]
    fn get(&self) -> (*mut crate::machine::MemBank, usize) {
        (self.0, self.1)
    }
}

/// Shared snapshot-buffer pointer for the worker closures.
struct SnapPtr(*mut u64);
// SAFETY: the snapshot buffer is partitioned by construction — every
// watch of the wake table owns a private, pre-assigned range (its `snap`
// offset, handed out once by `WakeTable::build`), so workers never
// alias.
unsafe impl Send for SnapPtr {}
// SAFETY: same private-per-partition ranges as the `Send` impl.
unsafe impl Sync for SnapPtr {}
impl SnapPtr {
    #[inline]
    fn get(&self) -> *mut u64 {
        self.0
    }
}

/// Thread-parallel CCSS simulator.
pub struct ParEssentSim {
    machine: Machine,
    /// The plan, with the synthesized dataflow schedule attached
    /// (`plan.dataflow`) — the only schedule this engine runs.
    plan: CcssPlan,
    /// The word-specialized program of each partition; fused trigger
    /// writes go through the atomic flag sink. Never native code: a
    /// body's bit `or` from two workers into one byte would lose wakes,
    /// so `config.jit` is ignored here.
    programs: Vec<Tier1Program>,
    flags: Vec<AtomicBool>,
    /// Per-partition arena offsets of the stop-condition bits the
    /// partition computes: after evaluating, the owner probes these and
    /// publishes an early halt bound so speculative next-cycle work
    /// never outruns a firing `stop`.
    stop_probe: Vec<Vec<u32>>,
    /// What a wake does beyond its program: the unfused outputs to
    /// snapshot-compare, the `plain` bits, input wakes.
    wake: WakeTable,
    /// Snapshot storage, indexed by the wake table's `snap` offsets.
    snapshots: Vec<u64>,
    /// The elided registers the programs did not absorb (per partition)
    /// and the serial phase's writes and commits, pre-resolved.
    state: StateTable,
    /// Shadow memory for the dynamic race oracle
    /// ([`EngineConfig::race_sanitizer`]).
    #[cfg(feature = "race-sanitizer")]
    shadow: Option<Box<crate::sanitizer::ShadowMem>>,
}

impl ParEssentSim {
    /// Partitions the design, synthesizes its dataflow schedule and
    /// builds the parallel simulator with `threads` workers (0 =
    /// available parallelism).
    pub fn new(netlist: &Netlist, config: &EngineConfig, threads: usize) -> ParEssentSim {
        ParEssentSim::new_shared(Arc::new(netlist.clone()), config, threads)
    }

    /// [`ParEssentSim::new`] over an already-shared netlist (no deep
    /// clone).
    pub fn new_shared(
        netlist: Arc<Netlist>,
        config: &EngineConfig,
        threads: usize,
    ) -> ParEssentSim {
        // Memory-write elision off: every bank write stays in the serial
        // phase (see the module docs).
        let mut plan = build_plan(&netlist, config, false);
        let mut machine = Machine::from_arc(Arc::clone(&netlist));
        machine.capture_printf = config.capture_printf;
        let Frontend {
            programs,
            state,
            wake,
            cost,
            ..
        } = Frontend::compile(&netlist, &machine.layout, &plan, config, false);

        let np = plan.partitions.len();

        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };

        // Derive the dependence graph, synthesize the static worker
        // schedule, and build the stop-probe table.
        let graph = DepGraph::derive(&netlist, &plan);
        let dsched = synthesize_dataflow(&plan, &graph, &cost.costs, threads);
        let mut stop_probe = vec![Vec::new(); np];
        for st in netlist.stops() {
            if matches!(
                netlist.signal(st.en).def,
                SignalDef::Op(_) | SignalDef::MemRead { .. }
            ) {
                let owner = plan.sched_of_signal[st.en.index()] as usize;
                stop_probe[owner].push(machine.layout.offset(st.en) as u32);
            }
        }
        plan.attach_dataflow(dsched);

        // The sanitizer needs the schedule's same-cycle ordering relation
        // to tell legal handoffs from races.
        #[cfg(feature = "race-sanitizer")]
        let shadow = config.race_sanitizer.then(|| {
            let edges = graph
                .preds
                .iter()
                .enumerate()
                .flat_map(|(p, preds)| preds.iter().map(move |&q| ((q as u64) << 32) | p as u64))
                .collect();
            Box::new(crate::sanitizer::ShadowMem::new(
                machine.layout.total_words(),
                edges,
            ))
        });
        ParEssentSim {
            flags: (0..np).map(|_| AtomicBool::new(true)).collect(),
            snapshots: vec![0; wake.snapshot_words],
            machine,
            plan,
            programs,
            stop_probe,
            wake,
            state,
            #[cfg(feature = "race-sanitizer")]
            shadow,
        }
    }

    /// The synthesized dataflow schedule this engine runs: per-worker
    /// partition lists, the reduced wait edges and the exempt set.
    /// Always `Some` (it reads the plan's optional attachment slot).
    pub fn dataflow_schedule(&self) -> Option<&DataflowSchedule> {
        self.plan.dataflow.as_ref()
    }

    /// Borrow of the underlying machine (testing, activity profiling).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.plan.partitions.len()
    }

    /// Runs partition `sched`'s program through the tier-1 interpreter.
    ///
    /// # Safety
    ///
    /// [`ParEssentSim::eval_partition`]'s contract.
    unsafe fn run_program(
        &self,
        sched: usize,
        arena: ArenaPtr,
        mems: &[crate::machine::MemBank],
        ops: &mut u64,
    ) {
        // Fused trigger writes go straight to the atomic flags; this
        // engine does not track dynamic-check counts.
        let mut dynamic = 0u64;
        // SAFETY: the tier-1 program's footprint equals the block's
        // (R0501), which the footprint layer proved single-writer and
        // in-bounds (R0502, R0504) and the schedule orders against every
        // overlapping partition (S0601); banks are read-only here.
        unsafe {
            run_tier1_raw(
                &self.programs[sched],
                arena.get(),
                mems,
                &AtomicFlags(&self.flags),
                ops,
                &mut dynamic,
            )
        }
    }

    /// Worker routine: evaluate one partition (flag already claimed).
    ///
    /// # Safety
    ///
    /// Caller must guarantee schedule-disjointness: no partition that
    /// can run concurrently with `sched` may write any arena word this
    /// partition reads or writes, or read one it writes. The dataflow
    /// schedule orders every pair whose footprints (`R0501`, `R0502`,
    /// `R0504`) conflict by a wait edge and lets cycles overlap only between
    /// footprint-disjoint partitions — what `essent-verify`'s dependence
    /// layer proves statically per design (`S0601`–`S0605`) and the
    /// `race-sanitizer` feature checks dynamically.
    unsafe fn eval_partition(
        &self,
        sched: usize,
        arena: ArenaPtr,
        mems: &[crate::machine::MemBank],
        snapshots: *mut u64,
        ops: &mut u64,
    ) {
        if self.wake.plain[sched] {
            // The program is the whole wake.
            // SAFETY: forwards this function's contract.
            unsafe { self.run_program(sched, arena, mems, ops) };
            return;
        }
        let outs = self.wake.outputs(sched);
        // Snapshot outputs.
        for o in outs {
            #[cfg(feature = "race-sanitizer")]
            crate::sanitizer::note_read(o.off, o.words);
            // SAFETY: `off..off+words` are this partition's own output
            // slots (no concurrent writer, caller's contract); the
            // `snap` range is this watch's private snapshot storage.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    arena.get().add(o.off as usize),
                    snapshots.add(o.snap as usize),
                    o.words as usize,
                );
            }
        }
        // SAFETY: forwards this function's contract.
        unsafe { self.run_program(sched, arena, mems, ops) };
        // Elided registers the program did not absorb (this engine
        // elides no memory write): private slots, single writer.
        for r in self.state.in_place(sched).1 {
            // SAFETY: the elided register's `next` and `out` slots are
            // in this partition's footprint (the block's commits, in the
            // footprint layer's generic derivation), hence exclusive
            // here.
            let changed = unsafe {
                machine::commit_state_raw(
                    arena.get(),
                    r.next as usize,
                    r.out as usize,
                    r.words as usize,
                )
            };
            if changed {
                for &c in self.state.woken(r.wake) {
                    self.flags[c as usize].store(true, Ordering::Relaxed);
                }
            }
        }
        // Output triggers.
        for o in outs {
            #[cfg(feature = "race-sanitizer")]
            crate::sanitizer::note_read(o.off, o.words);
            // SAFETY: output slots are written only by this partition
            // while it runs (caller's contract); the snapshot range is
            // private. Both ranges are in-bounds by construction.
            let (cur, snap) = unsafe {
                (
                    std::slice::from_raw_parts(arena.get().add(o.off as usize), o.words as usize),
                    std::slice::from_raw_parts(snapshots.add(o.snap as usize), o.words as usize),
                )
            };
            if cur != snap {
                for &c in self.wake.woken(o.wake) {
                    self.flags[c as usize].store(true, Ordering::Relaxed);
                }
            }
        }
    }

    /// End-of-cycle serial phase: printf/stop sampling, memory writes,
    /// and non-elided register commits, with their wake flags.
    ///
    /// # Safety
    ///
    /// No concurrently running partition evaluation may touch any arena
    /// word or memory bank this phase accesses. The runtime lets only
    /// *exempt* partitions run concurrently, whose footprints the
    /// dependence analysis proves disjoint from the serial footprint
    /// (verified as S0602).
    #[allow(clippy::too_many_arguments)]
    unsafe fn serial_phase(
        &self,
        netlist: &Netlist,
        layout: &crate::compile::Layout,
        arena: ArenaPtr,
        mems: &MemsPtr,
        capture_printf: bool,
        halted: &mut Option<u64>,
        printf_log: &mut Vec<String>,
        static_checks: &mut u64,
    ) {
        for p in netlist.printfs() {
            // SAFETY: serial-footprint word (caller's contract), layout
            // offsets in-bounds by construction.
            let en = unsafe { *arena.get().add(layout.offset(p.en)) } & 1 == 1;
            if en && capture_printf {
                let args: Vec<Bits> = p
                    .args
                    .iter()
                    .map(|&a| {
                        let w = layout.words(a);
                        // SAFETY: serial-footprint words, in-bounds
                        // layout range (as above).
                        let slice = unsafe {
                            std::slice::from_raw_parts(arena.get().add(layout.offset(a)), w)
                        };
                        Bits::from_limbs(slice.to_vec(), netlist.signal(a).width)
                    })
                    .collect();
                printf_log.push(essent_netlist::interp::format_printf(&p.fmt, &args));
            }
        }
        for st in netlist.stops() {
            // SAFETY: serial-footprint word, in-bounds layout offset.
            let en = unsafe { *arena.get().add(layout.offset(st.en)) } & 1 == 1;
            if en && halted.is_none() {
                *halted = Some(st.code);
            }
        }
        // Memory writes (all serial in this engine), then register
        // commits.
        let (writes, regs) = self.state.end_of_cycle();
        for w in writes {
            *static_checks += 1;
            // SAFETY: the banks are serial-phase-exclusive (caller's
            // contract: concurrent workers are bank-disjoint, S0602);
            // `w.mem` indexes a real bank by construction of the table.
            let bank = unsafe { &mut *mems.get().0.add(w.mem as usize) };
            // SAFETY: serial-footprint words, resolved in-bounds against
            // this machine's layout.
            let changed = unsafe { machine::run_mem_write_raw(arena.get(), bank, w) };
            if changed {
                for &c in self.state.woken(w.wake) {
                    self.flags[c as usize].store(true, Ordering::Relaxed);
                }
            }
        }
        for r in regs {
            *static_checks += 1;
            // SAFETY: `next` and `out` are distinct in-bounds layout
            // ranges in the serial footprint (non-elided registers).
            let changed = unsafe {
                machine::commit_state_raw(
                    arena.get(),
                    r.next as usize,
                    r.out as usize,
                    r.words as usize,
                )
            };
            if changed {
                for &c in self.state.woken(r.wake) {
                    self.flags[c as usize].store(true, Ordering::Relaxed);
                }
            }
        }
    }

    /// The dataflow (BSP) runtime: no barriers — each worker walks its
    /// static partition list every cycle, synchronizing through
    /// per-partition `done` cycle counters. Runs up to `n` cycles and
    /// returns how many ran.
    ///
    /// Protocol, per worker `t`, cycle `k` (1-based), partition `p`:
    ///
    /// 1. wait `done[q] >= k` for `q` in `waits_same[p]` (same-cycle
    ///    producers and elision anti-edges, reduced per foreign worker);
    /// 2. if `p` is *exempt* (footprint-disjoint from the serial
    ///    phase): wait `serial_done >= k-2` (one cycle of skew) and
    ///    `done[q] >= k-1` for `q` in `waits_prev[p]` (p's same-cycle
    ///    successors — whose cycle-`k-1` reads and flag claims p must
    ///    not outrun — plus the stop owners, so a published halt is
    ///    visible before speculating); otherwise wait
    ///    `serial_done >= k-1` (cycle `k-1` fully closed);
    /// 3. bail if a halt at a cycle before `k` was published (before
    ///    touching the activity flag, so poke/wake state survives for a
    ///    later `step`);
    /// 4. claim the flag and evaluate (or skip); probe any owned stop
    ///    bits and publish `halt_at = min(halt_at, k)` *before* step 5,
    ///    so no cycle `k+1` evaluation can start once a stop fired;
    /// 5. publish `done[p] = k` (release).
    ///
    /// The main worker additionally closes each cycle: waits every
    /// worker's tail `done >= k`, runs the serial phase (concurrent
    /// only with exempt partitions — disjoint by S0602), and publishes
    /// `serial_done = k`. Deadlock freedom: `waits_same` targets are
    /// schedule-order predecessors and worker lists ascend in schedule
    /// order, so all same-cycle waiting follows a total order; `waits_prev`
    /// and `serial_done` waits reference strictly earlier cycles
    /// (verified as S0603/S0605).
    fn run_cycles(&mut self, n: u64) -> u64 {
        let arena = ArenaPtr(self.machine.arena.as_mut_ptr());
        let mems = MemsPtr(self.machine.mems.as_mut_ptr(), self.machine.mems.len());
        let snap_ptr = SnapPtr(self.snapshots.as_mut_ptr());
        let ds = self
            .dataflow_schedule()
            .expect("schedule attached at construction");
        let nworkers = ds.worker_count();
        let np = self.plan.partitions.len();

        let done: Vec<AtomicU64> = (0..np).map(|_| AtomicU64::new(0)).collect();
        let serial_done = AtomicU64::new(0);
        // First cycle (exclusive) every worker must bail before; a stop
        // at cycle `k` halts the run after cycle `k` completes.
        let halt_at = AtomicU64::new(u64::MAX);
        let total_ops = AtomicUsize::new(0);

        let netlist = self.machine.netlist.clone();
        let layout = self.machine.layout.clone();
        let capture_printf = self.machine.capture_printf;
        let mut halted = self.machine.halted;
        let mut printf_log: Vec<String> = Vec::new();
        let mut static_checks = 0u64;
        let mut ran = 0u64;

        // Reserve one epoch per cycle so the sanitizer can tell
        // overlapping cycles apart (no-op without the feature).
        #[cfg(feature = "race-sanitizer")]
        let epoch_base = self
            .shadow
            .as_deref()
            .map(|s| s.advance_base(n + 2))
            .unwrap_or(0);

        let this = &*self;

        if nworkers == 1 {
            // Single-worker schedule: the worker-list order alone
            // carries every dependence (the S0603 worker-prefix edges),
            // so no signaling is needed — a barrier-free sequential
            // sweep with the serial phase run inline each cycle.
            let (mptr, mlen) = mems.get();
            // SAFETY: one worker; this thread has exclusive access.
            let banks = unsafe { std::slice::from_raw_parts(mptr, mlen) };
            let mut ops0 = 0u64;
            for _k in 1..=n {
                if halted.is_some() {
                    break;
                }
                for &p in &ds.workers[0] {
                    let p = p as usize;
                    // Cheap activity test before the claiming RMW: only
                    // this worker clears the flag, so a relaxed load
                    // cannot miss a wake the wait edges ordered before
                    // this cycle (an RMW on every idle partition is
                    // what a claim-by-swap sweep would pay).
                    if this.flags[p].load(Ordering::Relaxed)
                        && this.flags[p].swap(false, Ordering::Relaxed)
                    {
                        #[cfg(feature = "race-sanitizer")]
                        let _sanitizer_scope = this
                            .shadow
                            .as_deref()
                            .map(|s| crate::sanitizer::enter_at(s, p as u32, epoch_base + _k));
                        // SAFETY: exclusive access, schedule order.
                        unsafe { this.eval_partition(p, arena, banks, snap_ptr.get(), &mut ops0) };
                    }
                }
                // SAFETY: no other worker exists.
                unsafe {
                    this.serial_phase(
                        &netlist,
                        &layout,
                        arena,
                        &mems,
                        capture_printf,
                        &mut halted,
                        &mut printf_log,
                        &mut static_checks,
                    )
                };
                ran += 1;
            }
            self.machine.counters.ops_evaluated += ops0;
            self.machine.counters.static_checks += static_checks;
            self.machine.counters.cycles += ran;
            self.machine.cycle += ran;
            self.machine.halted = halted;
            self.machine.printf_log.extend(printf_log);
            return ran;
        }

        // Bounded-spin wait: true once `ctr >= target`, false if a halt
        // before cycle `k` is published first (the worker must bail).
        let wait = |ctr: &AtomicU64, target: u64, k: u64| -> bool {
            let mut spins = 0u32;
            loop {
                if ctr.load(Ordering::Acquire) >= target {
                    return true;
                }
                if halt_at.load(Ordering::Acquire) < k {
                    return false;
                }
                if spins < 64 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        };
        // One worker's sweep of its partition list for cycle `k`;
        // returns false when the worker must bail (halt published).
        let sweep = |tid: usize, k: u64, ops: &mut u64| -> bool {
            let (mptr, mlen) = mems.get();
            // SAFETY: banks are written only in the serial phase, which
            // runs concurrently only with exempt partitions whose bank
            // reads are disjoint from every written bank (S0602);
            // non-exempt partitions hold no bank access while the
            // serial phase runs (they wait on `serial_done`).
            let banks = unsafe { std::slice::from_raw_parts(mptr, mlen) };
            for &p in &ds.workers[tid] {
                let p = p as usize;
                for &q in &ds.waits_same[p] {
                    if !wait(&done[q as usize], k, k) {
                        return false;
                    }
                }
                if ds.exempt[p] {
                    if !wait(&serial_done, k.saturating_sub(2), k) {
                        return false;
                    }
                    for &q in &ds.waits_prev[p] {
                        if !wait(&done[q as usize], k - 1, k) {
                            return false;
                        }
                    }
                } else if !wait(&serial_done, k - 1, k) {
                    return false;
                }
                if halt_at.load(Ordering::Acquire) < k {
                    return false;
                }
                // Relaxed-load activity test before the claiming RMW
                // (see the single-worker sweep): every wake for cycle
                // `k` is ordered before this test by the wait edges
                // just passed — producer wakes before their `done`
                // stores, serial wakes before `serial_done` (and the
                // serial phase never wakes an exempt partition, S0602).
                if this.flags[p].load(Ordering::Relaxed)
                    && this.flags[p].swap(false, Ordering::Relaxed)
                {
                    // Tag accesses with this cycle's epoch (overlapping
                    // cycles are in flight at once).
                    #[cfg(feature = "race-sanitizer")]
                    let _sanitizer_scope = this
                        .shadow
                        .as_deref()
                        .map(|s| crate::sanitizer::enter_at(s, p as u32, epoch_base + k));
                    // SAFETY: every cross-partition footprint overlap is
                    // covered by a wait edge passed above (S0601), and
                    // cross-cycle overlap only pairs footprint-disjoint
                    // partitions (S0602/S0604).
                    unsafe { this.eval_partition(p, arena, banks, snap_ptr.get(), ops) };
                }
                // Publish a halt bound for any owned stop bits BEFORE
                // `done[p]`, so every wait on `done[p] >= k` also sees
                // the halt (stop owners are serial-conflicting, and
                // exempt partitions wait on the owners via
                // `waits_prev`).
                for &off in &this.stop_probe[p] {
                    // SAFETY: the stop bit is `p`'s own member slot
                    // (owners are chosen by `sched_of_signal`), in
                    // bounds by construction.
                    let en = unsafe { *arena.get().add(off as usize) } & 1 == 1;
                    if en {
                        halt_at.fetch_min(k, Ordering::AcqRel);
                    }
                }
                done[p].store(k, Ordering::Release);
            }
            true
        };

        std::thread::scope(|scope| {
            let sweep = &sweep;
            let wait = &wait;
            let handles: Vec<_> = (1..nworkers)
                .map(|t| {
                    scope.spawn(move || {
                        let mut ops = 0u64;
                        for k in 1..=n {
                            if !sweep(t, k, &mut ops) {
                                break;
                            }
                        }
                        ops
                    })
                })
                .collect();

            let mut ops0 = 0u64;
            for k in 1..=n {
                if !sweep(0, k, &mut ops0) {
                    break;
                }
                // Close cycle `k`: every worker's last partition done.
                let mut bailed = false;
                for list in ds.workers.iter().skip(1) {
                    if let Some(&tail) = list.last() {
                        if !wait(&done[tail as usize], k, k) {
                            bailed = true;
                            break;
                        }
                    }
                }
                if bailed {
                    break;
                }
                // SAFETY: all workers finished cycle `k`; the only
                // evaluations that can be running concurrently are
                // exempt partitions at cycle `k+1`, whose footprints
                // the dependence analysis proves disjoint from every
                // word and bank the serial phase touches (S0602).
                unsafe {
                    this.serial_phase(
                        &netlist,
                        &layout,
                        arena,
                        &mems,
                        capture_printf,
                        &mut halted,
                        &mut printf_log,
                        &mut static_checks,
                    )
                };
                ran += 1;
                if halted.is_some() {
                    // The halting cycle still counts (it completed);
                    // everything later bails before touching flags.
                    halt_at.fetch_min(k, Ordering::AcqRel);
                    break;
                }
                serial_done.store(k, Ordering::Release);
            }
            total_ops.fetch_add(ops0 as usize, Ordering::Relaxed);
            for h in handles {
                total_ops.fetch_add(h.join().expect("worker join") as usize, Ordering::Relaxed);
            }
        });

        self.machine.counters.ops_evaluated += total_ops.load(Ordering::Relaxed) as u64;
        self.machine.counters.static_checks += static_checks;
        self.machine.counters.cycles += ran;
        self.machine.cycle += ran;
        self.machine.halted = halted;
        self.machine.printf_log.extend(printf_log);
        ran
    }
}

impl Simulator for ParEssentSim {
    fn poke(&mut self, name: &str, value: Bits) {
        if let Some(id) = self.machine.poke_input(name, &value) {
            for &c in self.wake.input_wakes(id) {
                self.flags[c as usize].store(true, Ordering::Relaxed);
            }
        }
    }

    fn write_mem(&mut self, mem: &str, addr: usize, value: Bits) {
        if let Some(m) = self.machine.write_mem_backdoor(mem, addr, &value) {
            for &c in self.wake.mem_wakes(m) {
                self.flags[c as usize].store(true, Ordering::Relaxed);
            }
        }
    }

    fn step(&mut self, n: u64) -> u64 {
        if self.machine.halted.is_some() {
            return 0;
        }
        self.run_cycles(n)
    }

    fn engine_name(&self) -> &'static str {
        "essent-dataflow"
    }

    delegate_simulator_basics!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EssentSim, FullCycleSim};

    fn netlist_of(src: &str) -> Netlist {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        Netlist::from_circuit(&lowered).unwrap()
    }

    const COUNTER: &str = "circuit C :\n  module C :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    q <= r\n";

    #[test]
    fn parallel_matches_sequential_on_wide_design() {
        // Many independent register pipelines: real parallel work.
        let mut body = String::new();
        use std::fmt::Write;
        for i in 0..16 {
            let _ = writeln!(body, "    reg a{i} : UInt<16>, clock");
            let _ = writeln!(body, "    reg b{i} : UInt<16>, clock");
            let _ = writeln!(body, "    a{i} <= bits(add(x, UInt<16>({i})), 15, 0)");
            let _ = writeln!(
                body,
                "    b{i} <= xor(a{i}, bits(mul(a{i}, UInt<8>(37)), 15, 0))"
            );
        }
        let mut xorall = String::from("b0");
        for i in 1..16 {
            xorall = format!("xor({xorall}, b{i})");
        }
        let _ = writeln!(body, "    o <= {xorall}");
        let src = format!(
            "circuit W :\n  module W :\n    input clock : Clock\n    input x : UInt<16>\n    output o : UInt<16>\n{body}"
        );
        let n = netlist_of(&src);
        let mut par = ParEssentSim::new(
            &n,
            &EngineConfig {
                c_p: 2,
                ..EngineConfig::default()
            },
            4,
        );
        let mut seq = EssentSim::new(
            &n,
            &EngineConfig {
                c_p: 2,
                ..EngineConfig::default()
            },
        );
        let mut full = FullCycleSim::new(&n, &EngineConfig::default());
        for cycle in 0..60u64 {
            let x = Bits::from_u64((cycle * 2654435761) & 0xffff, 16);
            par.poke("x", x.clone());
            seq.poke("x", x.clone());
            full.poke("x", x);
            par.step(1);
            seq.step(1);
            full.step(1);
            assert_eq!(par.peek("o"), seq.peek("o"), "cycle {cycle}");
            assert_eq!(par.peek("o"), full.peek("o"), "cycle {cycle}");
        }
    }

    #[test]
    fn dataflow_counter_counts() {
        let n = netlist_of(COUNTER);
        for threads in [1, 2, 4] {
            let mut sim = ParEssentSim::new(&n, &EngineConfig::default(), threads);
            sim.poke("reset", Bits::from_u64(0, 1));
            sim.step(10);
            assert_eq!(sim.peek("q").to_u64(), Some(9), "threads={threads}");
        }
    }

    /// `n` independent self-feedback registers: every register's only
    /// reader is its own next function, so all of them elide and the
    /// serial phase has (almost) nothing to do — the shape where
    /// cycle-boundary overlap exemption actually fires.
    fn register_farm(nregs: usize) -> String {
        use std::fmt::Write;
        let mut body = String::new();
        for i in 0..nregs {
            let _ = writeln!(body, "    reg r{i} : UInt<16>, clock");
            let _ = writeln!(
                body,
                "    r{i} <= bits(add(xor(r{i}, x), UInt<16>({})), 15, 0)",
                (i * 2654435761usize) & 0xffff
            );
        }
        let _ = writeln!(body, "    o <= r0");
        format!(
            "circuit F :\n  module F :\n    input clock : Clock\n    input x : UInt<16>\n    output o : UInt<16>\n{body}"
        )
    }

    #[test]
    fn dataflow_matches_sequential_on_register_farm() {
        let n = netlist_of(&register_farm(768));
        let cfg = EngineConfig {
            c_p: 2,
            ..EngineConfig::default()
        };
        let mut seq = EssentSim::new(&n, &cfg);
        let mut dts: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&t| ParEssentSim::new(&n, &cfg, t))
            .collect();
        // The farm has exempt partitions at 2+ workers, so the
        // cross-cycle overlap path is exercised (batched steps below).
        assert!(dts[2].dataflow_schedule().unwrap().exempt_count() > 0);
        let probes = ["r1", "r100", "r767", "o"];
        for cycle in 0..40u64 {
            let x = Bits::from_u64((cycle * 2654435761) & 0xffff, 16);
            seq.poke("x", x.clone());
            seq.step(1);
            for df in &mut dts {
                df.poke("x", x.clone());
                df.step(1);
                for p in probes {
                    assert_eq!(df.peek(p), seq.peek(p), "{p} cycle {cycle}");
                }
            }
        }
        // Batched steps keep adjacent cycles in flight simultaneously.
        let mut batched = ParEssentSim::new(&n, &cfg, 4);
        let mut seq = EssentSim::new(&n, &cfg);
        batched.poke("x", Bits::from_u64(0x1234, 16));
        seq.poke("x", Bits::from_u64(0x1234, 16));
        batched.step(64);
        seq.step(64);
        for p in probes {
            assert_eq!(batched.peek(p), seq.peek(p), "{p} batched");
        }
    }

    #[test]
    fn dataflow_respects_stop() {
        let src = "circuit S :\n  module S :\n    input clock : Clock\n    input reset : UInt<1>\n    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))\n    r <= tail(add(r, UInt<4>(1)), 1)\n    stop(clock, eq(r, UInt<4>(5)), 9)\n";
        let n = netlist_of(src);
        for threads in [1, 2, 4] {
            let mut sim = ParEssentSim::new(&n, &EngineConfig::default(), threads);
            sim.poke("reset", Bits::from_u64(0, 1));
            let ran = sim.step(100);
            assert_eq!(sim.halted(), Some(9), "threads={threads}");
            assert!(ran < 100, "threads={threads}");
            // Post-halt steps are no-ops.
            assert_eq!(sim.step(5), 0, "threads={threads}");
        }
    }

    /// A register farm (so 2+ dataflow workers get exempt partitions
    /// speculating one cycle ahead) plus a counter-armed stop whose fire
    /// cycle is an *input*: the stage for sweeping a halt across every
    /// offset of one batched `step`.
    fn stopping_farm(nregs: usize) -> String {
        use std::fmt::Write;
        let mut body = String::new();
        let _ = writeln!(body, "    reg c : UInt<16>, clock");
        let _ = writeln!(body, "    c <= bits(add(c, UInt<16>(1)), 15, 0)");
        let _ = writeln!(body, "    stop(clock, eq(c, t), 7)");
        for i in 0..nregs {
            let _ = writeln!(body, "    reg r{i} : UInt<16>, clock");
            let _ = writeln!(
                body,
                "    r{i} <= bits(add(xor(r{i}, x), UInt<16>({})), 15, 0)",
                (i * 2654435761usize) & 0xffff
            );
        }
        let _ = writeln!(body, "    o <= r0");
        format!(
            "circuit H :\n  module H :\n    input clock : Clock\n    input x : UInt<16>\n    input t : UInt<16>\n    output o : UInt<16>\n{body}"
        )
    }

    /// The `halt_at` publication protocol, empirically: a stop firing at
    /// *every* cycle offset inside one batched `step` must leave the
    /// parallel engine with exactly the golden sequential state — no
    /// speculated cycle may survive a halt, and the halting cycle itself
    /// must complete — where exempt partitions run a cycle ahead of the
    /// stop owner's publication.
    #[test]
    fn batched_halt_at_every_offset_matches_sequential() {
        let n = netlist_of(&stopping_farm(768));
        let cfg = EngineConfig {
            c_p: 2,
            ..EngineConfig::default()
        };
        // The farm must actually exercise cross-cycle speculation.
        assert!(
            ParEssentSim::new(&n, &cfg, 4)
                .dataflow_schedule()
                .unwrap()
                .exempt_count()
                > 0
        );
        let probes = ["c", "r0", "r17", "r95", "o"];
        const BATCH: u64 = 64;
        for offset in 0..BATCH {
            let t = Bits::from_u64(offset, 16);
            let x = Bits::from_u64(0xA5C3, 16);
            let mut seq = EssentSim::new(&n, &cfg);
            seq.poke("t", t.clone());
            seq.poke("x", x.clone());
            let seq_ran = seq.step(BATCH);
            assert_eq!(seq.halted(), Some(7), "offset {offset}");
            for threads in [2, 4] {
                let mut par = ParEssentSim::new(&n, &cfg, threads);
                par.poke("t", t.clone());
                par.poke("x", x.clone());
                let ran = par.step(BATCH);
                let tag = format!("offset {offset} threads {threads}");
                assert_eq!(ran, seq_ran, "{tag}: cycle count");
                assert_eq!(par.halted(), Some(7), "{tag}: halt code");
                for p in probes {
                    assert_eq!(par.peek(p), seq.peek(p), "{tag}: {p}");
                }
                // Post-halt steps stay no-ops with state frozen.
                assert_eq!(par.step(3), 0, "{tag}: post-halt step");
                assert_eq!(par.peek("o"), seq.peek("o"), "{tag}: post-halt o");
            }
        }
    }

    #[test]
    fn dataflow_schedule_is_sane() {
        let n = netlist_of(COUNTER);
        let sim = ParEssentSim::new(&n, &EngineConfig::default(), 4);
        let ds = sim.dataflow_schedule().unwrap();
        let np = sim.partition_count();
        let mut seen = vec![false; np];
        for list in &ds.workers {
            for &p in list {
                assert!(!seen[p as usize], "partition {p} scheduled twice");
                seen[p as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every partition scheduled");
        // The stop-free counter design still has the serial register
        // commit, so its lone conflict partition must be non-exempt.
        for p in 0..np {
            if ds.exempt[p] {
                assert!(ds.worker_count() > 1);
            }
        }
    }
}
