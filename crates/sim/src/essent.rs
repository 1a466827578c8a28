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
//! What steps 3 and 4 are for a partition is resolved once by the front
//! end ([`StateTable`], [`WakeTable`]); this engine adds storage — arena,
//! snapshots, flags — and the schedule loop. Both steps are empty for
//! most partitions, and the engine knows which before it wakes one: each
//! partition has a **wake slot** ([`crate::slots`]) — the native entry,
//! if any, and a `plain` bit for "the program is the whole wake" — so a
//! plain wake is one record load, one flag clear and one call, and only
//! the rest visit the two tables.
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
use crate::slots::{WakeSlot, WakeSlots, WakeTable};
use crate::state::StateTable;
use crate::step1::{Tier1Program, TierStats};
use essent_bits::Bits;
use essent_core::partition::ActivityPrior;
use essent_core::plan::CcssPlan;
use essent_netlist::Netlist;
use std::cell::Cell;
use std::sync::Arc;

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
    /// What a wake does beyond its program: the unfused outputs to
    /// snapshot-compare, the inputs pull mode watches, input wakes.
    wake: WakeTable,
    /// Last-seen values of everything the wake table watches.
    snapshots: Vec<u64>,
    /// The state updates the programs did not absorb, and the
    /// end-of-cycle commit path.
    state: StateTable,
    /// Push (true) or pull (false) activity triggering.
    push: bool,
    /// Telemetry arena ([`EngineConfig::profile`]); taken out of the
    /// option for the duration of a `step` so the cycle loop
    /// monomorphizes over the enabled/disabled profiler.
    profile: Option<Box<ProfileArena>>,
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
            wake,
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
        let profile = config
            .profile
            .then(|| Box::new(ProfileArena::new(ProfileWiring::for_plan(&netlist, &plan))));
        EssentSim {
            flags: vec![true; plan.partitions.len()],
            slots: WakeSlots::new(jit, &wake.plain),
            snapshots: vec![0; wake.snapshot_words],
            machine,
            plan,
            blocks,
            programs,
            wake,
            state,
            push: config.trigger_push,
            profile,
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
        self.wake.full_steps
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
        let wake = &self.wake;
        let snaps = self.snapshots.as_mut_slice();
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
        let wake_full = |sched: usize,
                         slot: WakeSlot,
                         machine: &mut Machine,
                         snaps: &mut [u64],
                         prof: &mut P| {
            let ops_before = machine.counters.ops_evaluated;
            let t0 = prof.eval_begin(sched);
            // Snapshot the old values of the unfused outputs (step 4).
            let outs = wake.outputs(sched);
            for o in outs {
                snaps[range(o.snap, o.words)]
                    .copy_from_slice(&machine.arena[range(o.off, o.words)]);
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
                for o in outs {
                    machine.counters.dynamic_checks += 1;
                    if machine.arena[range(o.off, o.words)] != snaps[range(o.snap, o.words)] {
                        for &c in wake.woken(o.wake) {
                            flags[c as usize].set(true);
                            prof.wake_output(sched, c);
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
                            wake_full(sched, slot, machine, snaps, prof);
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
            for sched in 0..np {
                machine.counters.static_checks += 1;
                let inputs = wake.pull_inputs(sched);
                let mut active = flags[sched].get();
                if !active {
                    for i in inputs {
                        machine.counters.static_checks += 1;
                        if machine.arena[range(i.off, i.words)] != snaps[range(i.snap, i.words)] {
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
                    snaps[range(i.snap, i.words)]
                        .copy_from_slice(&machine.arena[range(i.off, i.words)]);
                }
                wake_full(sched, slots[sched], machine, snaps, prof);
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

/// The `words` words at `off`, as a slice range.
#[inline(always)]
fn range(off: u32, words: u32) -> std::ops::Range<usize> {
    off as usize..(off + words) as usize
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
            for &c in self.wake.input_wakes(id) {
                self.flags[c as usize] = true;
                if let Some(p) = &mut self.profile {
                    p.wake_input(id, c);
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
