//! The ESSENT engine: **conditional, coarsened, singular, static (CCSS)**
//! execution (paper Section III, Figure 1).
//!
//! The design is coarsened into acyclic partitions by `essent-core`; each
//! partition carries an activation flag. Per cycle, the engine walks the
//! static schedule once (singular): an inactive partition costs a single
//! flag test (the static overhead); an active partition
//!
//! 1. deactivates itself for the next cycle,
//! 2. runs its **program** — the tier-1 [`Tier1Program`], natively
//!    compiled when the JIT selected it — which is the whole of the
//!    paper's generated partition code: the members as straight-line
//!    code, each output's compare-against-previous-value and consumer
//!    wakes fused into its defining instruction (push-direction
//!    triggering at per-output granularity), and the partition's elided
//!    registers committed in place by [`Op1::Commit`] instructions that
//!    wake their next-cycle consumers (Section III-B1 — safe because
//!    every consumer is scheduled no later than the writer, so a flag set
//!    now is consumed only in the following cycle),
//! 3. runs what the program did not absorb from the pre-resolved
//!    [`StateTable`]: elided memory writes, and the elided registers that
//!    are wider than a word (all of them under the generic tier or with
//!    fusion off),
//! 4. snapshot-compares the outputs the program did not fuse (usually
//!    none; all of them under the generic tier).
//!
//! Steps 3 and 4 are empty for most partitions, and the engine knows
//! which before it wakes one: each partition has a **wake slot**
//! ([`crate::slots`]) — the native entry, if any, and a `plain` bit for
//! "the program is the whole wake" — so a plain wake is one record load,
//! one flag clear and one call, and only the rest visit the trigger and
//! state tables.
//!
//! Non-elidable state falls back to an end-of-cycle commit with change
//! detection, from the same table, and external input changes wake their
//! reader partitions in the main eval function.
//!
//! [`Op1::Commit`]: crate::step1::Op1::Commit

use crate::compile::Block;
use crate::engine::{delegate_simulator_basics, EngineConfig, Simulator};
use crate::frontend::{build_plan, Frontend};
use crate::jit;
use crate::machine::Machine;
use crate::profile::{NoProfile, ProfileArena, ProfileReport, ProfileWiring, Profiler};
use crate::slots::{WakeSlot, WakeSlots};
use crate::state::StateTable;
use crate::step1::{Tier1Program, TierStats};
use essent_bits::Bits;
use essent_core::partition::ActivityPrior;
use essent_core::plan::CcssPlan;
use essent_netlist::{Netlist, SignalId};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Flattened per-output trigger tables (hot-loop friendly).
#[derive(Debug, Default)]
struct Triggers {
    /// Per output: arena offset and word count.
    out_off: Vec<u32>,
    out_words: Vec<u16>,
    /// Per output: offset of its snapshot in `old_vals`.
    old_off: Vec<u32>,
    /// Per output: range into `consumers`.
    cons_start: Vec<u32>,
    cons_end: Vec<u32>,
    consumers: Vec<u32>,
    /// Per partition: range of outputs in the tables above.
    part_start: Vec<u32>,
    part_end: Vec<u32>,
    /// Snapshot storage.
    old_vals: Vec<u64>,
}

/// The CCSS simulator.
pub struct EssentSim {
    machine: Machine,
    plan: CcssPlan,
    blocks: Vec<Block>,
    /// Word-specialized programs per partition (`config.tier1`); `None`
    /// runs the generic item interpreter.
    programs: Option<Vec<Tier1Program>>,
    /// Per partition: the native entry (`config.jit`; partitions that
    /// cleared the cost threshold and lowered cleanly) and whether the
    /// program is the whole wake. Owns the native parts.
    slots: WakeSlots,
    flags: Vec<bool>,
    triggers: Triggers,
    input_wake: HashMap<SignalId, Vec<u32>>,
    /// The state updates the programs did not absorb, and the
    /// end-of-cycle commit path.
    state: StateTable,
    /// Total steps a full-cycle evaluation would run (for effective
    /// activity factor reporting).
    full_steps: usize,
    /// Push (true) or pull (false) activity triggering.
    push: bool,
    /// Pull mode: per-partition cross-partition input snapshots.
    pull_inputs: PullInputs,
    /// Telemetry arena ([`EngineConfig::profile`]); taken out of the
    /// option for the duration of a `step` so the cycle loop
    /// monomorphizes over the enabled/disabled profiler.
    profile: Option<Box<ProfileArena>>,
}

/// Pull-direction snapshot tables: each partition's cross-partition input
/// signals and their last-seen values.
#[derive(Debug, Default)]
struct PullInputs {
    in_off: Vec<u32>,
    in_words: Vec<u16>,
    snap_off: Vec<u32>,
    part_start: Vec<u32>,
    part_end: Vec<u32>,
    snapshots: Vec<u64>,
}

impl EssentSim {
    /// Partitions the netlist at `config.c_p` and compiles the CCSS
    /// simulator.
    pub fn new(netlist: &Netlist, config: &EngineConfig) -> EssentSim {
        EssentSim::new_shared(Arc::new(netlist.clone()), config)
    }

    /// [`EssentSim::new`] over an already-shared netlist (no deep clone).
    pub fn new_shared(netlist: Arc<Netlist>, config: &EngineConfig) -> EssentSim {
        EssentSim::new_shared_with_prior(netlist, config, None)
    }

    /// [`EssentSim::new_shared`] with a measured activity prior (the
    /// feedback loop's repartitioning step): the structural partitioning
    /// gains the profile-guided `activity_merge` phase, and the JIT
    /// selects hot partitions by measured eval cost instead of static
    /// step counts. `None`, or a neutral prior, reproduces
    /// [`EssentSim::new_shared`] exactly.
    pub fn new_shared_with_prior(
        netlist: Arc<Netlist>,
        config: &EngineConfig,
        prior: Option<&ActivityPrior>,
    ) -> EssentSim {
        let plan = build_plan(&netlist, config, prior, config.elide_state);
        EssentSim::build(netlist, plan, config, prior)
    }

    /// Builds the simulator from a pre-computed plan (the `C_p` sweep and
    /// the traced bench run reuse partitioning work).
    pub fn from_plan_shared(
        netlist: Arc<Netlist>,
        plan: CcssPlan,
        config: &EngineConfig,
    ) -> EssentSim {
        EssentSim::build(netlist, plan, config, None)
    }

    fn build(
        netlist: Arc<Netlist>,
        plan: CcssPlan,
        config: &EngineConfig,
        prior: Option<&ActivityPrior>,
    ) -> EssentSim {
        if config.verify {
            let report = plan.check(&netlist);
            assert!(
                report.is_clean(),
                "CCSS plan failed verification:\n{report}"
            );
        }
        let mut machine = Machine::from_arc(Arc::clone(&netlist));
        machine.capture_printf = config.capture_printf;
        let Frontend {
            blocks,
            programs,
            state,
            jit,
            ..
        } = Frontend::compile(
            &netlist,
            &machine.layout,
            &plan,
            config,
            prior,
            Some(&machine.mems),
        );

        // Snapshot-compare tables cover only the outputs the tier did not
        // fuse (all of them when the tier is off).
        let mut triggers = Triggers::default();
        for (sched, part) in plan.partitions.iter().enumerate() {
            triggers.part_start.push(triggers.out_off.len() as u32);
            for (oi, out) in part.outputs.iter().enumerate() {
                if let Some(progs) = &programs {
                    if !progs[sched].unfused.contains(&oi) {
                        continue;
                    }
                }
                let off = machine.layout.offset(out.signal) as u32;
                let words = machine.layout.words(out.signal) as u16;
                triggers.out_off.push(off);
                triggers.out_words.push(words);
                triggers.old_off.push(triggers.old_vals.len() as u32);
                triggers
                    .old_vals
                    .extend(std::iter::repeat_n(0, words as usize));
                triggers.cons_start.push(triggers.consumers.len() as u32);
                triggers.consumers.extend(out.consumers.iter().copied());
                triggers.cons_end.push(triggers.consumers.len() as u32);
            }
            triggers.part_end.push(triggers.out_off.len() as u32);
        }

        let input_wake = plan
            .input_wakes
            .iter()
            .map(|(sig, wakes)| (*sig, wakes.clone()))
            .collect();
        let full_steps = blocks
            .iter()
            .flat_map(|b| b.items.iter())
            .map(crate::compile::Item::step_count)
            .sum();

        // Pull-direction tables: the cross-partition signals each
        // partition's members read (deduplicated), with snapshot storage.
        let mut pull_inputs = PullInputs::default();
        if !config.trigger_push {
            for (sched, part) in plan.partitions.iter().enumerate() {
                pull_inputs.part_start.push(pull_inputs.in_off.len() as u32);
                let mut seen = std::collections::BTreeSet::new();
                for &m in &part.members {
                    for dep in netlist.deps(m) {
                        // Inputs from outside this partition, except
                        // register outputs and external inputs — those are
                        // still interesting (their changes are what pull
                        // mode detects by value), so include everything
                        // not computed in this partition.
                        if plan.sched_of_signal[dep.index()] as usize != sched
                            || !matches!(
                                netlist.signal(dep).def,
                                essent_netlist::SignalDef::Op(_)
                                    | essent_netlist::SignalDef::MemRead { .. }
                            )
                        {
                            seen.insert(dep);
                        }
                    }
                }
                for dep in seen {
                    pull_inputs.in_off.push(machine.layout.offset(dep) as u32);
                    let words = machine.layout.words(dep) as u16;
                    pull_inputs.in_words.push(words);
                    pull_inputs
                        .snap_off
                        .push(pull_inputs.snapshots.len() as u32);
                    pull_inputs
                        .snapshots
                        .extend(std::iter::repeat_n(0, words as usize));
                }
                pull_inputs.part_end.push(pull_inputs.in_off.len() as u32);
            }
        }

        let profile = config
            .profile
            .then(|| Box::new(ProfileArena::new(ProfileWiring::for_plan(&netlist, &plan))));
        let flags = vec![true; plan.partitions.len()];
        // Plain: a lowered program in push mode (pull refreshes input
        // snapshots on every wake) that left nothing to steps 3 and 4.
        let plain = (0..plan.partitions.len())
            .map(|sched| {
                config.trigger_push
                    && programs.is_some()
                    && triggers.part_start[sched] == triggers.part_end[sched]
                    && !state.has_in_place(sched)
            })
            .collect();
        EssentSim {
            machine,
            plan,
            blocks,
            programs,
            flags,
            triggers,
            input_wake,
            state,
            full_steps,
            push: config.trigger_push,
            pull_inputs,
            profile,
            slots: WakeSlots::new(jit, plain),
        }
    }

    /// Number of partitions in the schedule.
    pub fn partition_count(&self) -> usize {
        self.plan.partitions.len()
    }

    /// The compiled plan (reports, tests).
    pub fn plan(&self) -> &CcssPlan {
        &self.plan
    }

    /// Steps a full-cycle evaluation of this design would run per cycle;
    /// `counters().ops_evaluated / (cycles * full_steps_per_cycle)` is the
    /// *effective activity factor* of Figure 7.
    pub fn full_steps_per_cycle(&self) -> usize {
        self.full_steps
    }

    /// Borrow of the underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Aggregated word-specialization coverage over all partitions
    /// (`None` when the tier is disabled).
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.programs.as_ref().map(|ps| {
            ps.iter()
                .fold(TierStats::default(), |acc, p| acc.merged(&p.stats))
        })
    }

    /// Number of partitions currently running native-compiled bodies
    /// (0 when the JIT is off or unsupported on this target).
    pub fn jit_compiled_count(&self) -> usize {
        self.slots.compiled_count()
    }

    /// Number of partitions whose wake is the program alone: no unfused
    /// output to compare, no in-place state left to the engine.
    pub fn plain_slot_count(&self) -> usize {
        self.slots.plain_count()
    }

    /// Discards the compiled body for one partition, forcing it back to
    /// the tier-1 interpreter (deopt testing). Returns whether a body
    /// was actually dropped.
    pub fn force_deopt(&mut self, sched: usize) -> bool {
        self.slots.deopt(sched)
    }

    /// Discards every compiled body; returns how many were dropped.
    pub fn force_deopt_all(&mut self) -> usize {
        self.slots.deopt_all()
    }

    /// Testing hook: compiles every eligible partition regardless of the
    /// cost threshold, so deopt tests cover partitions the threshold
    /// would leave interpreted. Returns how many bodies now exist; 0 on
    /// unsupported targets or when the tier/profile gating forbids JIT.
    pub fn jit_compile_all(&mut self) -> usize {
        self.slots.compile_all(
            self.programs.as_deref(),
            &self.machine.mems,
            self.profile.is_some(),
        )
    }

    /// Borrow of the compiled partitions (verification, tests).
    pub fn jit_parts(&self) -> Option<&jit::JitParts> {
        self.slots.jit()
    }

    /// Borrow of the telemetry arena (trace export; `None` unless built
    /// with [`EngineConfig::profile`]).
    pub fn profile_arena(&self) -> Option<&ProfileArena> {
        self.profile.as_deref()
    }

    /// Mutable borrow of the telemetry arena (trace window / heatmap
    /// bucket configuration).
    pub fn profile_arena_mut(&mut self) -> Option<&mut ProfileArena> {
        self.profile.as_deref_mut()
    }

    fn run_cycle<P: Profiler>(&mut self, prof: &mut P) {
        prof.begin_cycle();
        let machine = &mut self.machine;
        // Interior-mutable view of the activity flags so fused trigger
        // writes inside the tier-1 interpreter can wake consumers while
        // the flag slice stays borrowed here.
        let flags = Cell::from_mut(self.flags.as_mut_slice()).as_slice_of_cells();
        let tr = &mut self.triggers;
        let state = &self.state;
        let slots = self.slots.as_slice();
        let code = Programs {
            programs: self.programs.as_deref(),
            blocks: &self.blocks,
            flags,
            banks: self.slots.banks(),
        };

        let push = self.push;
        let np = flags.len();
        // A woken non-plain partition, its flag already cleared: steps
        // 2 to 4 of the module docs.
        let mut wake_full = |sched: usize, slot: WakeSlot, machine: &mut Machine, prof: &mut P| {
            let ops_before = machine.counters.ops_evaluated;
            let t0 = prof.eval_begin(sched);
            // Snapshot the old values of the unfused outputs (step 4).
            let (o_start, o_end) = (tr.part_start[sched] as usize, tr.part_end[sched] as usize);
            for o in o_start..o_end {
                let off = tr.out_off[o] as usize;
                let w = tr.out_words[o] as usize;
                let old = tr.old_off[o] as usize;
                tr.old_vals[old..old + w].copy_from_slice(&machine.arena[off..off + w]);
            }

            code.run(slot, sched, machine, prof);

            // 3. In-place state updates the program did not absorb:
            //    write, wake next-cycle consumers (they are scheduled at
            //    or before this partition, so the flags persist into the
            //    next cycle).
            let (writes, regs) = state.in_place(sched);
            for w in writes {
                machine.counters.dynamic_checks += 1;
                if machine.write_port(w) {
                    for &c in state.woken(w.wake) {
                        flags[c as usize].set(true);
                        prof.wake_state_mem(w.plan as usize, c);
                    }
                }
            }
            for r in regs {
                machine.counters.dynamic_checks += 1;
                if machine.commit(r) {
                    for &c in state.woken(r.wake) {
                        flags[c as usize].set(true);
                        prof.wake_state_reg(r.plan as usize, c);
                    }
                }
            }

            // 4. Push direction only: change detection for the outputs
            //    the program did not fuse; wake consumers of changed
            //    outputs (branchless OR-reduction in the generated C++; a
            //    compare + flag writes here).
            if push {
                for o in o_start..o_end {
                    machine.counters.dynamic_checks += 1;
                    let off = tr.out_off[o] as usize;
                    let w = tr.out_words[o] as usize;
                    let old = tr.old_off[o] as usize;
                    if machine.arena[off..off + w] != tr.old_vals[old..old + w] {
                        for ci in tr.cons_start[o]..tr.cons_end[o] {
                            flags[tr.consumers[ci as usize] as usize].set(true);
                            prof.wake_output(sched, tr.consumers[ci as usize]);
                        }
                    }
                }
            }
            prof.eval_end(sched, t0, machine.counters.ops_evaluated - ops_before);
        };

        if push {
            // One activity flag test per partition per cycle, accounted
            // in bulk: the chunked scan below performs the same tests
            // eight at a time.
            machine.counters.static_checks += np as u64;
            // Chunked idle scan: with the paper's low activity factors
            // most flags are clear most cycles, so the sweep tests eight
            // flag bytes with one word load and skips whole idle runs.
            // A non-zero chunk falls back to the per-partition walk,
            // re-reading each flag at arrival — an earlier partition in
            // the same chunk may wake a later one mid-scan.
            let bytes = flags.as_ptr().cast::<u8>();
            let mut sched = 0;
            while sched < np {
                if np - sched >= 8 {
                    // SAFETY: `sched + 8 <= np` in-bounds flag cells;
                    // `Cell<bool>` is a single byte (0 or 1) and no other
                    // thread exists, so an unaligned 8-byte read observes
                    // exactly the eight flags as currently set.
                    let word = unsafe { bytes.add(sched).cast::<u64>().read_unaligned() };
                    if word == 0 {
                        for i in 0..8 {
                            prof.unit_skip(sched + i);
                        }
                        sched += 8;
                        continue;
                    }
                }
                let lanes = (np - sched).min(8);
                for _ in 0..lanes {
                    if !flags[sched].get() {
                        prof.unit_skip(sched);
                    } else {
                        // 1. Deactivate for the next cycle.
                        flags[sched].set(false);
                        let slot = slots[sched];
                        if slot.plain {
                            // The program is the whole wake: one record
                            // load, one flag clear, one call.
                            let ops_before = machine.counters.ops_evaluated;
                            let t0 = prof.eval_begin(sched);
                            code.run(slot, sched, machine, prof);
                            prof.eval_end(sched, t0, machine.counters.ops_evaluated - ops_before);
                        } else {
                            wake_full(sched, slot, machine, prof);
                        }
                    }
                    sched += 1;
                }
            }
        } else {
            // Pull direction (no slot is plain): a partition whose flag
            // is clear compares every cross-partition input against its
            // snapshot — per-cycle work proportional to the partition's
            // inputs, the overhead the paper's push choice avoids.
            let pull = &mut self.pull_inputs;
            for sched in 0..np {
                machine.counters.static_checks += 1;
                let inputs = pull.part_start[sched] as usize..pull.part_end[sched] as usize;
                let mut active = flags[sched].get();
                if !active {
                    for i in inputs.clone() {
                        machine.counters.static_checks += 1;
                        let off = pull.in_off[i] as usize;
                        let w = pull.in_words[i] as usize;
                        let snap = pull.snap_off[i] as usize;
                        if machine.arena[off..off + w] != pull.snapshots[snap..snap + w] {
                            active = true;
                            break;
                        }
                    }
                }
                if !active {
                    prof.unit_skip(sched);
                    continue;
                }
                flags[sched].set(false);
                // Refresh input snapshots for the next pull comparison.
                for i in inputs {
                    let off = pull.in_off[i] as usize;
                    let w = pull.in_words[i] as usize;
                    let snap = pull.snap_off[i] as usize;
                    pull.snapshots[snap..snap + w].copy_from_slice(&machine.arena[off..off + w]);
                }
                wake_full(sched, slots[sched], machine, prof);
            }
        }

        // Side effects observe end-of-cycle values.
        machine.side_effects();

        // Non-elided state: end-of-cycle commit with change detection.
        // Memory writes first — their fields may alias the outputs of
        // the registers committed next (the plan keeps a register read by
        // a non-elided write two-phase, so every write here observes
        // intra-cycle values).
        let (writes, regs) = state.end_of_cycle();
        for w in writes {
            machine.counters.static_checks += 1;
            if machine.write_port(w) {
                for &c in state.woken(w.wake) {
                    flags[c as usize].set(true);
                    prof.wake_state_mem(w.plan as usize, c);
                }
            }
        }
        for r in regs {
            machine.counters.static_checks += 1;
            if machine.commit(r) {
                for &c in state.woken(r.wake) {
                    flags[c as usize].set(true);
                    prof.wake_state_reg(r.plan as usize, c);
                }
            }
        }
        machine.cycle += 1;
        machine.counters.cycles += 1;
    }
}

/// What a wake runs as the partition's program, and what the program
/// needs beside the machine.
struct Programs<'a> {
    programs: Option<&'a [Tier1Program]>,
    blocks: &'a [Block],
    flags: &'a [Cell<bool>],
    banks: *const jit::JitBank,
}

impl Programs<'_> {
    /// Step 2: partition `sched`'s program — natively when its slot has
    /// an entry, through the word-specialized tier when lowered (outputs
    /// and register commits compare-and-wake inline either way), through
    /// the generic item interpreter otherwise.
    #[inline(always)]
    fn run<P: Profiler>(&self, slot: WakeSlot, sched: usize, machine: &mut Machine, prof: &mut P) {
        let arena = machine.arena.as_mut_ptr();
        match (slot.entry, self.programs) {
            (Some(entry), _) => {
                // SAFETY: the slot table is rebuilt whenever the native
                // parts change, so `entry` is a live body of this
                // engine; exclusive machine access through the engine's
                // &mut self; the body touches only arena offsets lowered
                // from this partition's tier-1 program — its members'
                // slots and, for its `Commit` instructions, its elided
                // registers' `next`/`out` slots (B0210 holds the program
                // to the block, J07xx the bytes to the program) — wakes
                // consumers through the flag bytes (Cell<bool> is a
                // byte, 1 == true), and reads memory banks through the
                // pinned bank table built from this machine's mems.
                let (o, d) = unsafe {
                    jit::call(
                        entry,
                        arena,
                        self.flags.as_ptr().cast::<u8>().cast_mut(),
                        self.banks,
                    )
                };
                machine.counters.ops_evaluated += o;
                machine.counters.dynamic_checks += d;
            }
            // SAFETY: exclusive machine access through the engine's
            // &mut self; the flag cells alias no arena or bank storage.
            (None, Some(progs)) => unsafe {
                prof.run_tier1(
                    &progs[sched],
                    arena,
                    &machine.mems,
                    self.flags,
                    sched,
                    &mut machine.counters.ops_evaluated,
                    &mut machine.counters.dynamic_checks,
                )
            },
            (None, None) => machine.run_items(&self.blocks[sched].items),
        }
    }
}

impl Simulator for EssentSim {
    fn poke(&mut self, name: &str, value: Bits) {
        let id = self.machine.netlist.expect_signal(name);
        assert!(
            matches!(
                self.machine.netlist.signal(id).def,
                essent_netlist::SignalDef::Input
            ),
            "`{name}` is not an input"
        );
        if self.machine.set_value(id, &value) {
            if let Some(wakes) = self.input_wake.get(&id) {
                for &c in wakes {
                    self.flags[c as usize] = true;
                    if let Some(p) = &mut self.profile {
                        p.wake_input(id, c);
                    }
                }
            }
        }
    }

    fn step(&mut self, n: u64) -> u64 {
        // Take/put the arena so the cycle loop monomorphizes: the
        // disabled path compiles with every probe erased.
        match self.profile.take() {
            Some(mut p) => {
                let ran = self.step_profiled(n, &mut *p);
                self.profile = Some(p);
                ran
            }
            None => self.step_profiled(n, &mut NoProfile),
        }
    }

    fn engine_name(&self) -> &'static str {
        "essent"
    }

    fn profile_report(&self) -> Option<ProfileReport> {
        self.profile.as_ref().map(|p| p.report("essent"))
    }

    delegate_simulator_basics!();
}

impl EssentSim {
    fn step_profiled<P: Profiler>(&mut self, n: u64, prof: &mut P) -> u64 {
        for i in 0..n {
            if self.machine.halted.is_some() {
                return i;
            }
            self.run_cycle(prof);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn netlist_of(src: &str) -> Netlist {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        Netlist::from_circuit(&lowered).unwrap()
    }

    const COUNTER: &str = "circuit C :\n  module C :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    q <= r\n";

    #[test]
    fn counter_counts_with_activity() {
        let n = netlist_of(COUNTER);
        let mut sim = EssentSim::new(&n, &EngineConfig::default());
        sim.poke("reset", Bits::from_u64(0, 1));
        sim.step(10);
        assert_eq!(sim.peek("q").to_u64(), Some(9));
    }

    /// A design where half the logic is gated off: ESSENT must evaluate
    /// dramatically fewer ops than full-cycle once the gated half sleeps.
    #[test]
    fn idle_logic_is_skipped() {
        let src = "circuit G :\n  module G :\n    input clock : Clock\n    input en : UInt<1>\n    input a : UInt<8>\n    output o : UInt<8>\n    output busy : UInt<8>\n    reg idle : UInt<8>, clock\n    when en :\n      idle <= xor(mul(a, a), idle)\n    o <= idle\n    reg spin : UInt<8>, clock\n    spin <= tail(add(spin, UInt<8>(1)), 1)\n    busy <= spin\n";
        let n = netlist_of(src);
        let mut sim = EssentSim::new(
            &n,
            &EngineConfig {
                c_p: 2,
                ..EngineConfig::default()
            },
        );
        sim.poke("en", Bits::from_u64(0, 1));
        sim.poke("a", Bits::from_u64(3, 8));
        sim.step(5); // settle
        let before = sim.counters().ops_evaluated;
        sim.step(100);
        let idle_ops = sim.counters().ops_evaluated - before;
        // The spinning counter keeps its partition busy, but the gated
        // multiplier partition must sleep.
        let full = (sim.full_steps_per_cycle() * 100) as u64;
        assert!(
            idle_ops < full,
            "ESSENT evaluated {idle_ops} of {full} full-cycle ops"
        );
        // And correctness: enable it and check the value updates.
        sim.poke("en", Bits::from_u64(1, 1));
        sim.step(1);
        sim.step(1);
        assert_eq!(sim.peek("o").to_u64(), Some(9));
    }

    #[test]
    fn quiescent_design_costs_only_flag_checks() {
        let n = netlist_of(COUNTER);
        let mut sim = EssentSim::new(&n, &EngineConfig::default());
        // Hold reset: the register value pins at 0, and after the first
        // few cycles nothing changes, so no partition re-activates...
        sim.poke("reset", Bits::from_u64(1, 1));
        sim.step(5);
        let before = sim.counters().ops_evaluated;
        sim.step(50);
        let delta = sim.counters().ops_evaluated - before;
        assert_eq!(delta, 0, "a quiescent design must evaluate nothing");
    }

    #[test]
    fn matches_full_cycle_on_counter() {
        let n = netlist_of(COUNTER);
        let mut essent = EssentSim::new(&n, &EngineConfig::default());
        let mut full = crate::FullCycleSim::new(&n, &EngineConfig::default());
        for cycle in 0..30u64 {
            let rst = Bits::from_u64((cycle < 2 || cycle == 17) as u64, 1);
            essent.poke("reset", rst.clone());
            full.poke("reset", rst);
            essent.step(1);
            full.step(1);
            assert_eq!(essent.peek("q"), full.peek("q"), "cycle {cycle}");
        }
    }

    #[test]
    fn works_across_cp_values() {
        let n = netlist_of(COUNTER);
        for cp in [1, 2, 4, 8, 64] {
            let mut sim = EssentSim::new(
                &n,
                &EngineConfig {
                    c_p: cp,
                    ..EngineConfig::default()
                },
            );
            sim.poke("reset", Bits::from_u64(0, 1));
            sim.step(12);
            assert_eq!(sim.peek("q").to_u64(), Some(11), "cp={cp}");
        }
    }

    #[test]
    fn elision_off_still_correct() {
        let n = netlist_of(COUNTER);
        let config = EngineConfig {
            elide_state: false,
            ..EngineConfig::default()
        };
        let mut sim = EssentSim::new(&n, &config);
        sim.poke("reset", Bits::from_u64(0, 1));
        sim.step(10);
        assert_eq!(sim.peek("q").to_u64(), Some(9));
        assert!(sim.plan().reg_plans.iter().all(|r| !r.elided));
    }
}
