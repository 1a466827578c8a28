//! Batched multi-instance CCSS simulation: one compiled schedule, N
//! lane-masked machines in lockstep.
//!
//! The production workload for an RTL simulator is rarely one run — it
//! is thousands of seeds/stimuli over the same design (fuzzing farms,
//! CI regression matrices, parameter sweeps). [`BatchSim`] evaluates N
//! instances of one compiled plan data-parallel:
//!
//! - the value arena becomes an **N-lane SoA**: word `w` of lane `l`
//!   lives at `w * lanes + l`, so one instruction's operand values for
//!   all lanes are contiguous and a per-op lane loop auto-vectorizes
//!   (with an explicit AVX2 path for the hot unsigned ALU/mux ops,
//!   [`crate::step1`]);
//! - every CCSS activity flag becomes a **per-lane wake mask**
//!   (`u64`, one bit per lane): a partition evaluates only the union
//!   of awake lanes and a single word test skips it for all lanes at
//!   once — the paper's low-activity bet, multiplied across lanes;
//! - each lane keeps its own memory banks, work counters, halt state,
//!   and printf log, so lane `i` of a batched run is bit- and
//!   counter-identical to an independent single-instance
//!   [`crate::EssentSim`] run over the same stimulus (the property
//!   `tests/batch_props.rs` proves differentially; the X08xx verify layer
//!   audits the wake table all engines share and this engine's lane
//!   geometry);
//! - **divergence-aware lane compaction** remaps cold/halted lanes out
//!   of the hot stride: lanes are addressed logically through a
//!   physical permutation, and when per-lane activity drifts (or a
//!   lane halts) the running lanes are re-packed into a dense prefix
//!   so the dense lane loops stay contiguous.
//!
//! The JIT is intentionally not threaded through the batch engine: the
//! native bodies are compiled against the scalar arena stride. Nor does
//! it profile — only [`crate::EssentSim`] does (DESIGN.md §9).
//! `EngineConfig::jit` / `profile` are ignored here (documented in
//! DESIGN.md §14); every other ablation switch — `c_p`, mux
//! conditionalization, state elision, push/pull triggering, trigger
//! fusion — behaves per lane exactly as in [`crate::EssentSim`].

use crate::compile::Layout;
use crate::engine::EngineConfig;
use crate::frontend::{build_plan, Frontend};
use crate::machine::{MemBank, WorkCounters};
use crate::slots::{WakeTable, Watch};
use crate::state::{MemWrite, RegCommit, StateTable};
use crate::step1::{item_rw, run_tier1_lanes, ItemRw, Tier1Program, TierStats};
use essent_bits::{kernels, Bits};
use essent_core::plan::CcssPlan;
use essent_netlist::interp::format_printf;
use essent_netlist::{Netlist, SignalDef, SignalId};
use std::cell::Cell;
use std::sync::Arc;

/// Re-pack lanes by activity at most this often (a halted lane
/// triggers compaction immediately).
const COMPACT_INTERVAL: u64 = 1024;

/// What the X08xx verify layer audits about a live batch engine beyond
/// the wake table every engine shares: the stride geometry, the lane
/// permutation, and each lane's bank shapes. Captured by
/// [`BatchSim::batch_audit`]; checked by `essent-verify::check_batch`.
#[derive(Debug, Clone)]
pub struct BatchAudit {
    pub lanes: usize,
    /// Arena lane stride in words (must equal `lanes`).
    pub stride: usize,
    /// Scalar layout size the stride multiplies.
    pub total_words: usize,
    pub arena_len: usize,
    pub scratch_len: usize,
    /// Logical lane → physical stride slot.
    pub phys_of_log: Vec<u32>,
    /// Physical stride slot → logical lane.
    pub log_of_phys: Vec<u32>,
    /// Per physical lane, per bank: `(words_per_entry, depth)`.
    pub bank_shapes: Vec<Vec<(usize, usize)>>,
}

/// The batched CCSS simulator. Lane arguments on the public API are
/// **logical** lane indices (stable across compaction).
pub struct BatchSim {
    netlist: Arc<Netlist>,
    layout: Layout,
    plan: CcssPlan,
    /// The word-specialized program of each partition.
    programs: Vec<Tier1Program>,
    /// Per partition: footprints of its generic-fallback items
    /// (parallel to each program's `generic` vector).
    generic_rw: Vec<Vec<ItemRw>>,
    lanes: usize,
    /// Lane-strided SoA value arena: `total_words * lanes` words.
    arena: Vec<u64>,
    /// Scalar scratch arena (`total_words`) for generic-fallback items.
    scratch: Vec<u64>,
    /// Per physical lane: memory banks.
    mems: Vec<Vec<MemBank>>,
    /// Per partition: lane wake mask (bit `l` = physical lane `l` awake).
    flags: Vec<u64>,
    /// What a wake does beyond its program, as in the single-instance
    /// engine: unfused outputs, pull inputs, input wakes.
    wake: WakeTable,
    /// Last-seen values of everything the wake table watches,
    /// lane-strided: word `k` of a watch for lane `l` lives at
    /// `(snap + k) * lanes + l`.
    snapshots: Vec<u64>,
    /// The state updates the programs did not absorb, and the
    /// end-of-cycle commit path.
    state: StateTable,
    /// Per `stop`: its enable slot and halt code.
    stops: Vec<(u32, u64)>,
    push: bool,
    capture_printf: bool,
    // --- per physical lane state ------------------------------------
    counters: Vec<WorkCounters>,
    cycles: Vec<u64>,
    halted: Vec<Option<u64>>,
    printf_log: Vec<Vec<String>>,
    // --- lane compaction ---------------------------------------------
    phys_of_log: Vec<u32>,
    log_of_phys: Vec<u32>,
    evals_since_compact: Vec<u64>,
    cycles_since_compact: u64,
    compactions: u64,
}

impl BatchSim {
    /// Partitions the netlist at `config.c_p` and compiles the batched
    /// simulator with `config.lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics unless `config.lanes` is in `1..=64` (one `u64` wake-mask
    /// word).
    pub fn new(netlist: &Netlist, config: &EngineConfig) -> BatchSim {
        BatchSim::new_shared(Arc::new(netlist.clone()), config)
    }

    /// [`BatchSim::new`] over an already-shared netlist (no deep clone).
    pub fn new_shared(netlist: Arc<Netlist>, config: &EngineConfig) -> BatchSim {
        let plan = build_plan(&netlist, config, config.elide_state);
        BatchSim::from_plan_shared(netlist, plan, config)
    }

    /// Builds the batched simulator from a pre-computed plan. The plan
    /// must have been built the way [`BatchSim::new`] builds it for
    /// lane-equivalence with [`crate::EssentSim`] to hold.
    pub fn from_plan_shared(
        netlist: Arc<Netlist>,
        plan: CcssPlan,
        config: &EngineConfig,
    ) -> BatchSim {
        let lanes = config.lanes;
        assert!(
            (1..=64).contains(&lanes),
            "batch lanes must be 1..=64, got {lanes}"
        );
        let layout = Layout::new(&netlist);
        // No native tier here: the bodies are compiled against the scalar
        // arena stride.
        let Frontend {
            programs,
            state,
            wake,
            ..
        } = Frontend::compile(&netlist, &layout, &plan, config, None);
        let generic_rw: Vec<Vec<ItemRw>> = programs
            .iter()
            .map(|p| p.generic.iter().map(item_rw).collect())
            .collect();

        let stops = netlist
            .stops()
            .iter()
            .map(|s| (layout.offset(s.en) as u32, s.code))
            .collect();

        // Strided arena with constants materialized into every lane.
        let total = layout.total_words();
        let mut arena = vec![0u64; total * lanes];
        for (i, s) in netlist.signals().iter().enumerate() {
            if let SignalDef::Const(c) = &s.def {
                let sig = SignalId(i as u32);
                let off = layout.offset(sig);
                for (k, &limb) in c.limbs().iter().enumerate() {
                    for l in 0..lanes {
                        arena[(off + k) * lanes + l] = limb;
                    }
                }
            }
        }
        let bank_proto: Vec<MemBank> = netlist
            .mems()
            .iter()
            .map(|m| MemBank {
                words_per: essent_bits::words(m.width),
                depth: m.depth,
                width: m.width,
                data: vec![0; essent_bits::words(m.width) * m.depth],
            })
            .collect();
        let np = plan.partitions.len();
        let full_mask = mask_of(lanes);
        BatchSim {
            layout,
            plan,
            programs,
            generic_rw,
            lanes,
            arena,
            scratch: vec![0u64; total],
            mems: vec![bank_proto; lanes],
            flags: vec![full_mask; np],
            snapshots: vec![0; wake.snapshot_words * lanes],
            wake,
            state,
            stops,
            push: config.trigger_push,
            capture_printf: config.capture_printf,
            counters: vec![WorkCounters::default(); lanes],
            cycles: vec![0; lanes],
            halted: vec![None; lanes],
            printf_log: vec![Vec::new(); lanes],
            phys_of_log: (0..lanes as u32).collect(),
            log_of_phys: (0..lanes as u32).collect(),
            evals_since_compact: vec![0; lanes],
            cycles_since_compact: 0,
            compactions: 0,
            netlist,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of partitions in the schedule.
    pub fn partition_count(&self) -> usize {
        self.plan.partitions.len()
    }

    /// The compiled plan (reports, tests).
    pub fn plan(&self) -> &CcssPlan {
        &self.plan
    }

    /// Steps a full-cycle evaluation would run per cycle per lane.
    pub fn full_steps_per_cycle(&self) -> usize {
        self.wake.full_steps
    }

    /// Aggregated word-specialization coverage; always `Some`.
    pub fn tier_stats(&self) -> Option<TierStats> {
        Some(
            self.programs
                .iter()
                .fold(TierStats::default(), |acc, p| acc.merged(&p.stats)),
        )
    }

    /// How many lane compactions have re-packed the stride so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The live lane permutation: `(phys_of_log, log_of_phys)`.
    pub fn lane_permutation(&self) -> (&[u32], &[u32]) {
        (&self.phys_of_log, &self.log_of_phys)
    }

    /// Looks up a signal id for id-based peeks in hot testbench loops.
    pub fn find(&self, name: &str) -> Option<SignalId> {
        self.netlist.find(name)
    }

    #[inline]
    fn phys(&self, lane: usize) -> usize {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        self.phys_of_log[lane] as usize
    }

    /// Sets an external input on **every** lane.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not an input signal.
    pub fn poke(&mut self, name: &str, value: Bits) {
        let id = self.input_id(name);
        for phys in 0..self.lanes {
            self.poke_phys(phys, id, &value);
        }
    }

    /// Sets an external input on one lane (per-lane stimulus).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not an input signal or `lane` is out of range.
    pub fn poke_lane(&mut self, lane: usize, name: &str, value: Bits) {
        let id = self.input_id(name);
        let phys = self.phys(lane);
        self.poke_phys(phys, id, &value);
    }

    fn input_id(&self, name: &str) -> SignalId {
        let id = self.netlist.expect_signal(name);
        assert!(
            matches!(self.netlist.signal(id).def, SignalDef::Input),
            "`{name}` is not an input"
        );
        id
    }

    fn poke_phys(&mut self, phys: usize, id: SignalId, value: &Bits) {
        if self.set_value_phys(phys, id, value) {
            for &c in self.wake.input_wakes(id) {
                self.flags[c as usize] |= 1u64 << phys;
            }
        }
    }

    fn set_value_phys(&mut self, phys: usize, sig: SignalId, value: &Bits) -> bool {
        let width = self.netlist.signal(sig).width;
        let adapted = value.extend(width, false);
        let off = self.layout.offset(sig);
        let w = self.layout.words(sig);
        let mut changed = false;
        for (k, &limb) in adapted.limbs().iter().take(w).enumerate() {
            let slot = &mut self.arena[(off + k) * self.lanes + phys];
            if *slot != limb {
                *slot = limb;
                changed = true;
            }
        }
        changed
    }

    /// Reads any surviving signal on one lane.
    ///
    /// # Panics
    ///
    /// Panics if `name` is unknown or `lane` out of range.
    pub fn peek_lane(&self, lane: usize, name: &str) -> Bits {
        let id = self.netlist.expect_signal(name);
        self.peek_id_lane(lane, id)
    }

    /// Reads a signal by id on one lane.
    pub fn peek_id_lane(&self, lane: usize, id: SignalId) -> Bits {
        let phys = self.phys(lane);
        self.value_phys(phys, id)
    }

    fn value_phys(&self, phys: usize, sig: SignalId) -> Bits {
        let off = self.layout.offset(sig);
        let w = self.layout.words(sig);
        let limbs: Vec<u64> = (0..w)
            .map(|k| self.arena[(off + k) * self.lanes + phys])
            .collect();
        Bits::from_limbs(limbs, self.netlist.signal(sig).width)
    }

    /// One lane's full scalar arena image (differential tests): word `w`
    /// of the returned vector equals `machine.arena[w]` of an equivalent
    /// single-instance run.
    pub fn lane_arena(&self, lane: usize) -> Vec<u64> {
        let phys = self.phys(lane);
        let total = self.layout.total_words();
        (0..total)
            .map(|w| self.arena[w * self.lanes + phys])
            .collect()
    }

    /// One lane's memory banks (differential tests).
    pub fn lane_banks(&self, lane: usize) -> &[MemBank] {
        &self.mems[self.phys(lane)]
    }

    /// Cycles simulated by one lane (lanes freeze when they halt).
    pub fn cycle_of(&self, lane: usize) -> u64 {
        self.cycles[self.phys(lane)]
    }

    /// One lane's `stop` code, once fired.
    pub fn halted_of(&self, lane: usize) -> Option<u64> {
        self.halted[self.phys(lane)]
    }

    /// One lane's work counters.
    pub fn counters_of(&self, lane: usize) -> WorkCounters {
        self.counters[self.phys(lane)]
    }

    /// One lane's captured printf output.
    pub fn printf_log_of(&self, lane: usize) -> &[String] {
        &self.printf_log[self.phys(lane)]
    }

    /// Back-door memory write on one lane (program loading).
    ///
    /// # Panics
    ///
    /// Panics on unknown memory or out-of-range address.
    pub fn write_mem_lane(&mut self, lane: usize, mem: &str, addr: usize, value: &Bits) {
        let phys = self.phys(lane);
        let id = self
            .netlist
            .find_mem(mem)
            .unwrap_or_else(|| panic!("unknown memory `{mem}`"));
        let bank = &mut self.mems[phys][id.index()];
        assert!(
            addr < bank.depth,
            "address {addr} out of range for `{mem}` (depth {})",
            bank.depth
        );
        let adapted = value.extend(bank.width, false);
        bank.entry_mut(addr).copy_from_slice(adapted.limbs());
    }

    /// Back-door memory read on one lane.
    ///
    /// # Panics
    ///
    /// Panics on unknown memory or out-of-range address.
    pub fn read_mem_lane(&self, lane: usize, mem: &str, addr: usize) -> Bits {
        let phys = self.phys(lane);
        let id = self
            .netlist
            .find_mem(mem)
            .unwrap_or_else(|| panic!("unknown memory `{mem}`"));
        let bank = &self.mems[phys][id.index()];
        assert!(addr < bank.depth);
        Bits::from_limbs(bank.entry(addr).to_vec(), bank.width)
    }

    fn running_mask(&self) -> u64 {
        let mut m = 0u64;
        for (l, h) in self.halted.iter().enumerate() {
            if h.is_none() {
                m |= 1u64 << l;
            }
        }
        m
    }

    /// Runs up to `n` cycles; lanes that halt freeze (cycle, counters,
    /// and state stop advancing) while the rest continue. Returns how
    /// many cycles ran with at least one live lane.
    pub fn step(&mut self, n: u64) -> u64 {
        for i in 0..n {
            let run = self.running_mask();
            if run == 0 {
                return i;
            }
            self.run_cycle(run);
            self.maybe_compact();
        }
        n
    }

    fn run_cycle(&mut self, run: u64) {
        let BatchSim {
            netlist,
            layout,
            programs,
            generic_rw,
            lanes,
            arena,
            scratch,
            mems,
            flags,
            wake,
            snapshots: snaps,
            state,
            stops,
            push,
            capture_printf,
            counters,
            cycles,
            halted,
            printf_log,
            evals_since_compact,
            ..
        } = self;
        let lanes = *lanes;
        let push = *push;
        let np = flags.len();
        // Interior-mutable view of the wake masks so fused trigger
        // writes inside the lane interpreter can set lane bits while
        // the mask slice stays borrowed here.
        let flags = Cell::from_mut(flags.as_mut_slice()).as_slice_of_cells();

        if push {
            // One wake-mask test per partition per cycle covers every
            // lane at once; each running lane is accounted the same
            // `np` flag tests its single-instance run would pay.
            for_lanes(run, |l| counters[l].static_checks += np as u64);
        }

        for sched in 0..np {
            let mut eval = flags[sched].get() & run;
            if !push {
                // Pull direction, per lane: every partition is visited;
                // sleeping lanes compare their cross-partition input
                // snapshots (stopping at the first mismatch).
                for_lanes(run, |l| {
                    counters[l].static_checks += 1;
                    if eval & (1u64 << l) != 0 {
                        return;
                    }
                    for i in wake.pull_inputs(sched) {
                        counters[l].static_checks += 1;
                        if differs(arena, snaps, i, lanes, l) {
                            eval |= 1u64 << l;
                            break;
                        }
                    }
                });
            }
            if eval == 0 {
                continue;
            }
            for_lanes(eval, |l| evals_since_compact[l] += 1);

            // 1. Deactivate the evaluated lanes for the next cycle.
            flags[sched].set(flags[sched].get() & !eval);
            if !push {
                // Refresh the evaluated lanes' input snapshots.
                for i in wake.pull_inputs(sched) {
                    snapshot(arena, snaps, i, lanes, eval);
                }
            }

            // Snapshot old output values (unfused outputs only; step 4).
            let outs = wake.outputs(sched);
            for o in outs {
                snapshot(arena, snaps, o, lanes, eval);
            }

            // 2. The program across the awake lanes: members, fused
            //    output triggers and register commits.
            // SAFETY: exclusive access to the strided arena and scratch
            // through `&mut self`; `generic_rw[sched]` parallels the
            // program's generic items; `eval` is non-zero with bits only
            // below `lanes`; `mems` and `counters` hold `lanes` entries.
            unsafe {
                run_tier1_lanes(
                    &programs[sched],
                    &generic_rw[sched],
                    arena.as_mut_ptr(),
                    lanes,
                    eval,
                    mems,
                    scratch,
                    flags,
                    counters,
                    true,
                );
            }

            // 3. In-place state updates the program did not absorb, per
            //    lane: write, wake next-cycle consumers' lane bits.
            let (writes, regs) = state.in_place(sched);
            for w in writes {
                for_lanes(eval, |l| {
                    counters[l].dynamic_checks += 1;
                    if mem_write_lane(arena, &mut mems[l][w.mem as usize], lanes, l, w) {
                        wake_lane(flags, state.woken(w.wake), l);
                    }
                });
            }
            for r in regs {
                for_lanes(eval, |l| {
                    counters[l].dynamic_checks += 1;
                    if commit_reg_lane(arena, lanes, l, r) {
                        wake_lane(flags, state.woken(r.wake), l);
                    }
                });
            }

            // 4. Push direction: per-lane change detection for the
            //    outputs the program did not fuse.
            if push {
                for o in outs {
                    for_lanes(eval, |l| {
                        counters[l].dynamic_checks += 1;
                        if differs(arena, snaps, o, lanes, l) {
                            wake_lane(flags, wake.woken(o.wake), l);
                        }
                    });
                }
            }
        }

        // Side effects observe end-of-cycle values, per lane.
        let printing = *capture_printf && !netlist.printfs().is_empty();
        for_lanes(run, |l| {
            if printing {
                log_printfs(netlist, layout, arena, lanes, l, &mut printf_log[l]);
            }
            for &(en, code) in stops.iter() {
                if arena[en as usize * lanes + l] & 1 == 1 && halted[l].is_none() {
                    halted[l] = Some(code);
                }
            }
        });

        // Non-elided state: end-of-cycle commit with change detection,
        // memory writes first (as in the single-instance engine).
        let (writes, regs) = state.end_of_cycle();
        for w in writes {
            for_lanes(run, |l| {
                counters[l].static_checks += 1;
                if mem_write_lane(arena, &mut mems[l][w.mem as usize], lanes, l, w) {
                    wake_lane(flags, state.woken(w.wake), l);
                }
            });
        }
        for r in regs {
            for_lanes(run, |l| {
                counters[l].static_checks += 1;
                if commit_reg_lane(arena, lanes, l, r) {
                    wake_lane(flags, state.woken(r.wake), l);
                }
            });
        }
        for_lanes(run, |l| {
            cycles[l] += 1;
            counters[l].cycles += 1;
        });
        self.cycles_since_compact += 1;
    }

    fn maybe_compact(&mut self) {
        let run = self.running_mask();
        let dense = run & run.wrapping_add(1) == 0;
        if !dense || self.cycles_since_compact >= COMPACT_INTERVAL {
            self.compact();
        }
    }

    /// Re-packs lanes: running lanes first (most active first), halted
    /// lanes last — so partial eval masks cluster into the dense-prefix
    /// shape the vector loops want. A no-op when already in order.
    /// Public as a test hook; `step` triggers it automatically on lane
    /// halt and on activity drift every `COMPACT_INTERVAL` cycles.
    pub fn force_compact(&mut self) {
        self.compact();
    }

    fn compact(&mut self) {
        self.cycles_since_compact = 0;
        let lanes = self.lanes;
        // order[new_phys] = old_phys.
        let mut order: Vec<u32> = (0..lanes as u32).collect();
        order.sort_by_key(|&p| {
            (
                self.halted[p as usize].is_some(),
                std::cmp::Reverse(self.evals_since_compact[p as usize]),
                p,
            )
        });
        for v in self.evals_since_compact.iter_mut() {
            *v = 0;
        }
        if order.iter().enumerate().all(|(i, &p)| i == p as usize) {
            return;
        }
        self.apply_perm(&order);
        self.compactions += 1;
    }

    fn apply_perm(&mut self, order: &[u32]) {
        let lanes = self.lanes;
        permute_strided(&mut self.arena, lanes, order);
        permute_strided(&mut self.snapshots, lanes, order);
        for f in self.flags.iter_mut() {
            let old = *f;
            let mut new = 0u64;
            for (nl, &op) in order.iter().enumerate() {
                if old >> op & 1 == 1 {
                    new |= 1u64 << nl;
                }
            }
            *f = new;
        }
        permute_vec(&mut self.mems, order);
        permute_vec(&mut self.counters, order);
        permute_vec(&mut self.cycles, order);
        permute_vec(&mut self.halted, order);
        permute_vec(&mut self.printf_log, order);
        permute_vec(&mut self.evals_since_compact, order);
        let mut inv = vec![0u32; lanes];
        for (nl, &op) in order.iter().enumerate() {
            inv[op as usize] = nl as u32;
        }
        for pl in self.phys_of_log.iter_mut() {
            *pl = inv[*pl as usize];
        }
        for (log, &phys) in self.phys_of_log.iter().enumerate() {
            self.log_of_phys[phys as usize] = log as u32;
        }
    }

    /// Captures the engine's stride geometry, lane permutation and bank
    /// shapes for the X08xx verify layer.
    pub fn batch_audit(&self) -> BatchAudit {
        BatchAudit {
            lanes: self.lanes,
            stride: self.lanes,
            total_words: self.layout.total_words(),
            arena_len: self.arena.len(),
            scratch_len: self.scratch.len(),
            phys_of_log: self.phys_of_log.clone(),
            log_of_phys: self.log_of_phys.clone(),
            bank_shapes: self
                .mems
                .iter()
                .map(|banks| banks.iter().map(|b| (b.words_per, b.depth)).collect())
                .collect(),
        }
    }
}

/// All-lanes mask for `lanes` in `1..=64`.
fn mask_of(lanes: usize) -> u64 {
    if lanes == 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Calls `f` for every set lane bit, lowest first.
#[inline]
fn for_lanes(mask: u64, mut f: impl FnMut(usize)) {
    let mut m = mask;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        m &= m - 1;
        f(l);
    }
}

/// Permutes the lane columns of a lane-strided buffer:
/// `new[base + nl] = old[base + order[nl]]` for every word stripe.
fn permute_strided(buf: &mut [u64], lanes: usize, order: &[u32]) {
    let mut tmp = [0u64; 64];
    for base in (0..buf.len()).step_by(lanes) {
        for (nl, &op) in order.iter().enumerate() {
            tmp[nl] = buf[base + op as usize];
        }
        buf[base..base + lanes].copy_from_slice(&tmp[..lanes]);
    }
}

/// Permutes a per-lane vector: `new[nl] = old[order[nl]]`.
fn permute_vec<T: Default>(v: &mut [T], order: &[u32]) {
    let mut out: Vec<T> = order
        .iter()
        .map(|&op| std::mem::take(&mut v[op as usize]))
        .collect();
    for (slot, val) in v.iter_mut().zip(out.drain(..)) {
        *slot = val;
    }
}

/// Reads one lane's value of a (possibly multi-word) signal out of the
/// strided arena.
fn value_strided(
    netlist: &Netlist,
    layout: &Layout,
    arena: &[u64],
    lanes: usize,
    lane: usize,
    sig: SignalId,
) -> Bits {
    let off = layout.offset(sig);
    let w = layout.words(sig);
    let limbs: Vec<u64> = (0..w).map(|k| arena[(off + k) * lanes + lane]).collect();
    Bits::from_limbs(limbs, netlist.signal(sig).width)
}

/// Copies a watched range into its snapshot, for the lanes of `mask`.
fn snapshot(arena: &[u64], snaps: &mut [u64], w: &Watch, lanes: usize, mask: u64) {
    for k in 0..w.words as usize {
        for_lanes(mask, |l| {
            snaps[(w.snap as usize + k) * lanes + l] = arena[(w.off as usize + k) * lanes + l];
        });
    }
}

/// Whether `lane`'s value of a watched range differs from its snapshot.
#[inline]
fn differs(arena: &[u64], snaps: &[u64], w: &Watch, lanes: usize, lane: usize) -> bool {
    (0..w.words as usize).any(|k| {
        arena[(w.off as usize + k) * lanes + lane] != snaps[(w.snap as usize + k) * lanes + lane]
    })
}

/// Sets `lane`'s bit in the wake mask of every partition in `woken`.
#[inline]
fn wake_lane(flags: &[Cell<u64>], woken: &[u32], lane: usize) {
    for &c in woken {
        let f = &flags[c as usize];
        f.set(f.get() | (1u64 << lane));
    }
}

/// Appends the output of every `printf` enabled on `lane` this cycle.
fn log_printfs(
    netlist: &Netlist,
    layout: &Layout,
    arena: &[u64],
    lanes: usize,
    lane: usize,
    log: &mut Vec<String>,
) {
    for p in netlist.printfs() {
        if arena[layout.offset(p.en) * lanes + lane] & 1 == 1 {
            let args: Vec<Bits> = p
                .args
                .iter()
                .map(|&a| value_strided(netlist, layout, arena, lanes, lane, a))
                .collect();
            log.push(format_printf(&p.fmt, &args));
        }
    }
}

/// One lane's register commit (copy next → out, strided); `true` on
/// change.
fn commit_reg_lane(arena: &mut [u64], lanes: usize, lane: usize, reg: &RegCommit) -> bool {
    let (next, out) = (reg.next as usize, reg.out as usize);
    let mut changed = false;
    for k in 0..reg.words as usize {
        let nv = arena[(next + k) * lanes + lane];
        let slot = &mut arena[(out + k) * lanes + lane];
        if *slot != nv {
            *slot = nv;
            changed = true;
        }
    }
    changed
}

/// One lane's memory write port execution (strided field reads, lane
/// bank storage); `true` when the stored contents changed. Mirrors
/// `Machine::write_port` including width adaption.
fn mem_write_lane(
    arena: &[u64],
    bank: &mut MemBank,
    lanes: usize,
    lane: usize,
    port: &MemWrite,
) -> bool {
    let ld1 = |off: u32| arena[off as usize * lanes + lane];
    if ld1(port.en) & 1 != 1 || ld1(port.mask) & 1 != 1 {
        return false;
    }
    let addr = ld1(port.addr) as usize;
    if addr >= bank.depth {
        return false;
    }
    let doff = port.data as usize;
    let dw = port.data_words as usize;
    let mut src_st = [0u64; 8];
    let src_vec: Vec<u64>;
    let src: &[u64] = if dw <= 8 {
        for (k, slot) in src_st.iter_mut().take(dw).enumerate() {
            *slot = arena[(doff + k) * lanes + lane];
        }
        &src_st[..dw]
    } else {
        src_vec = (0..dw).map(|k| arena[(doff + k) * lanes + lane]).collect();
        &src_vec
    };
    let width = bank.width;
    let wp_words = bank.words_per;
    let mut ad_st = [0u64; 8];
    let mut ad_vec: Vec<u64>;
    let adapted: &mut [u64] = if wp_words <= 8 {
        &mut ad_st[..wp_words]
    } else {
        ad_vec = vec![0u64; wp_words];
        &mut ad_vec
    };
    kernels::extend(adapted, width, src, port.data_width, port.data_signed);
    let entry = bank.entry_mut(addr);
    if entry != &*adapted {
        entry.copy_from_slice(adapted);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::EssentSim;
    use std::collections::BTreeSet;

    fn netlist_of(src: &str) -> Netlist {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        Netlist::from_circuit(&lowered).unwrap()
    }

    const COUNTER: &str = "circuit C :\n  module C :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    q <= r\n";

    #[test]
    fn lanes_count_independently() {
        let n = netlist_of(COUNTER);
        let config = EngineConfig {
            lanes: 4,
            ..EngineConfig::default()
        };
        let mut sim = BatchSim::new(&n, &config);
        sim.poke("reset", Bits::from_u64(1, 1));
        sim.step(2);
        sim.poke("reset", Bits::from_u64(0, 1));
        // Release lane 2 three cycles later than the rest.
        sim.poke_lane(2, "reset", Bits::from_u64(1, 1));
        sim.step(3);
        sim.poke_lane(2, "reset", Bits::from_u64(0, 1));
        sim.step(10);
        assert_eq!(sim.peek_lane(0, "q").to_u64(), Some(12));
        assert_eq!(sim.peek_lane(1, "q").to_u64(), Some(12));
        assert_eq!(sim.peek_lane(2, "q").to_u64(), Some(9));
        assert_eq!(sim.peek_lane(3, "q").to_u64(), Some(12));
    }

    #[test]
    fn matches_single_instance_per_lane() {
        let n = netlist_of(COUNTER);
        let config = EngineConfig {
            lanes: 3,
            ..EngineConfig::default()
        };
        let mut batch = BatchSim::new(&n, &config);
        let mut singles: Vec<EssentSim> = (0..3).map(|_| EssentSim::new(&n, &config)).collect();
        for cycle in 0..40u64 {
            for (lane, single) in singles.iter_mut().enumerate() {
                // Per-lane stimulus: different reset pulse positions.
                let rst = (cycle < 2 || cycle == 11 + 3 * lane as u64) as u64;
                batch.poke_lane(lane, "reset", Bits::from_u64(rst, 1));
                single.poke("reset", Bits::from_u64(rst, 1));
            }
            batch.step(1);
            for s in singles.iter_mut() {
                s.step(1);
            }
            for (lane, single) in singles.iter().enumerate() {
                assert_eq!(
                    batch.peek_lane(lane, "q"),
                    single.peek("q"),
                    "cycle {cycle} lane {lane}"
                );
            }
        }
        for (lane, single) in singles.iter().enumerate() {
            assert_eq!(batch.counters_of(lane), single.counters(), "{lane}");
            assert_eq!(batch.lane_arena(lane), single.machine().arena);
        }
    }

    #[test]
    fn compaction_preserves_logical_lanes() {
        let n = netlist_of(COUNTER);
        let config = EngineConfig {
            lanes: 4,
            ..EngineConfig::default()
        };
        let mut sim = BatchSim::new(&n, &config);
        sim.poke("reset", Bits::from_u64(0, 1));
        // Give every lane a distinct count by pulsing reset at
        // different times.
        for lane in 0..4 {
            sim.poke_lane(lane, "reset", Bits::from_u64(1, 1));
            sim.step(1);
            sim.poke_lane(lane, "reset", Bits::from_u64(0, 1));
        }
        // Settle: with reset low everywhere `q` advances 1/cycle.
        sim.step(2);
        let before: Vec<_> = (0..4).map(|l| sim.peek_lane(l, "q").to_u64()).collect();
        assert_eq!(before.iter().collect::<BTreeSet<_>>().len(), 4);
        sim.force_compact();
        let after: Vec<_> = (0..4).map(|l| sim.peek_lane(l, "q").to_u64()).collect();
        assert_eq!(before, after);
        sim.step(5);
        let stepped: Vec<_> = (0..4).map(|l| sim.peek_lane(l, "q").to_u64()).collect();
        for (a, s) in after.iter().zip(&stepped) {
            assert_eq!(s.unwrap(), a.unwrap() + 5);
        }
    }
}
