//! The ESSENT engine: **conditional, coarsened, singular, static (CCSS)**
//! execution (paper Section III, Figure 1).
//!
//! The design is coarsened into acyclic partitions by `essent-core`; each
//! partition carries an activation flag — one bit of a `u64` per 64
//! schedule-consecutive partitions. Per cycle, the engine walks the
//! static schedule once (singular), but visits only set bits: a zero word
//! skips 64 inactive partitions with one load, and `trailing_zeros` finds
//! the next active one in a non-zero word, so the static overhead is a
//! word test per 64 partitions rather than a flag test per partition. An
//! active partition
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
//!    are wider than a word (all of them with fusion off),
//! 4. snapshot-compares the outputs the program did not fuse (usually
//!    none; all of them with fusion off).
//!
//! The walk takes a non-zero word's pending bits at once, leaving the
//! word clear, and after each wake re-reads it and takes only the bits
//! *above* the partition it just ran: output wakes point forward in the
//! schedule and must run this cycle, while state wakes and self-wakes
//! land at or before the current partition and must survive into the
//! next. Later words are read when the walk reaches them, so forward
//! wakes into them are seen too.
//!
//! What steps 3 and 4 are for a partition is resolved once by the front
//! end ([`StateTable`], [`WakeTable`]); this engine adds storage — arena,
//! snapshots, flags — and the schedule loop. Both steps are empty for
//! most partitions, and the engine knows which before it wakes one: each
//! partition has a **wake slot** ([`crate::slots`]) — the native entry,
//! if any, with the operand record it reads, and a `plain` bit for "the
//! program is the whole wake" — so a plain wake is one slot load and one
//! call, and only the rest visit the two tables.
//!
//! Non-elidable state falls back to an end-of-cycle commit with change
//! detection, from the same table, and external input changes wake their
//! reader partitions in the main eval function.
//!
//! The engine is two halves: the compiled design (`Compiled`: plan,
//! programs, both tables, wake slots and native bodies), which names no
//! instance's storage, and the instance (machine, activity bits,
//! snapshots, profile, and the bank table native bodies read its banks
//! through). A fleet ([`crate::BatchSim`]) compiles once and shares the
//! first half between its lanes.
//!
//! [`Op1::Commit`]: crate::step1::Op1::Commit

use crate::engine::{delegate_simulator_basics, EngineConfig, Simulator};
use crate::frontend::{build_plan, Frontend};
use crate::jit::{self, BankTable};
use crate::machine::Machine;
use crate::profile::{NoProfile, ProfileArena, ProfileReport, Profiler};
use crate::slots::{WakeSlot, WakeSlots, WakeTable};
use crate::state::StateTable;
use crate::step1::{wake_bit, Tier1Program, TierStats};
use essent_bits::Bits;
use essent_core::plan::CcssPlan;
use essent_netlist::Netlist;
use std::cell::Cell;
use std::sync::Arc;

/// What every instance of one compiled design shares: the plan, the
/// programs, the two tables and the wake slots with the native bodies
/// they point into. None of it names an instance's storage — arena,
/// flags and banks reach a body as call arguments — so a fleet
/// ([`crate::BatchSim`]) builds it once and its lanes hold it behind an
/// `Arc`.
pub(crate) struct Compiled {
    plan: CcssPlan,
    /// The word-specialized program of each partition.
    programs: Vec<Tier1Program>,
    /// Per partition: the native entry and its operand record
    /// (`config.jit`; partitions that cleared the cost threshold and
    /// lowered cleanly) and whether the program is the whole wake. Owns
    /// the native parts.
    slots: WakeSlots,
    /// What a wake does beyond its program: the unfused outputs to
    /// snapshot-compare, the inputs pull mode watches, input wakes.
    wake: WakeTable,
    /// The state updates the programs did not absorb, and the
    /// end-of-cycle commit path.
    state: StateTable,
    /// Push (true) or pull (false) activity triggering.
    push: bool,
}

impl Compiled {
    /// Compiles `plan` against `machine`'s layout: programs, tables and,
    /// under `config.jit`, native bodies.
    pub(crate) fn new(machine: &Machine, plan: CcssPlan, config: &EngineConfig) -> Compiled {
        let Frontend {
            programs,
            state,
            wake,
            jit,
            ..
        } = Frontend::compile(&machine.netlist, &machine.layout, &plan, config, true);
        Compiled {
            slots: WakeSlots::new(jit, &wake.plain),
            plan,
            programs,
            wake,
            state,
            push: config.trigger_push,
        }
    }
}

/// The CCSS simulator: one instance of a compiled design.
pub struct EssentSim {
    machine: Machine,
    /// The compiled half; a fleet's lanes share one.
    design: Arc<Compiled>,
    /// Activity bits: partition `s` is bit `s % 64` of word `s / 64`;
    /// the bits past the partition count are always clear.
    flags: Vec<u64>,
    /// Last-seen values of everything the wake table watches.
    snapshots: Vec<u64>,
    /// The bank table native bodies read, over this machine's banks.
    banks: BankTable,
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
        let plan = build_plan(&netlist, config, config.elide_state);
        EssentSim::from_plan_shared(netlist, plan, config)
    }

    /// Builds the simulator from a pre-computed plan (the `C_p` sweep and
    /// the traced bench run reuse partitioning work).
    pub fn from_plan_shared(
        netlist: Arc<Netlist>,
        plan: CcssPlan,
        config: &EngineConfig,
    ) -> EssentSim {
        let machine = EssentSim::fresh_machine(netlist, config);
        let design = Arc::new(Compiled::new(&machine, plan, config));
        EssentSim::instance(design, machine, config)
    }

    /// The machine an instance starts from: zeroed state, constants in
    /// place.
    pub(crate) fn fresh_machine(netlist: Arc<Netlist>, config: &EngineConfig) -> Machine {
        let mut machine = Machine::from_arc(netlist);
        machine.capture_printf = config.capture_printf;
        machine
    }

    /// One more instance of `design`, starting from `machine` (a
    /// [`EssentSim::fresh_machine`] of the design's netlist): its own
    /// flags, snapshots, bank table and profile, every partition awake.
    pub(crate) fn instance(
        design: Arc<Compiled>,
        machine: Machine,
        config: &EngineConfig,
    ) -> EssentSim {
        let profile = config
            .profile
            .then(|| Box::new(ProfileArena::new(&design.plan)));
        let np = design.plan.partitions.len();
        let mut flags = vec![u64::MAX; np.div_ceil(64)];
        if let (Some(last), tail @ 1..) = (flags.last_mut(), np % 64) {
            *last = (1 << tail) - 1;
        }
        EssentSim {
            flags,
            snapshots: vec![0; design.wake.snapshot_words],
            banks: BankTable::new(&machine.mems),
            machine,
            design,
            profile,
        }
    }

    /// Number of partitions in the schedule.
    pub fn partition_count(&self) -> usize {
        self.design.plan.partitions.len()
    }

    /// The compiled plan (reports, tests).
    pub fn plan(&self) -> &CcssPlan {
        &self.design.plan
    }

    /// Steps a full-cycle evaluation of this design would run per cycle;
    /// `counters().ops_evaluated / (cycles * full_steps_per_cycle)` is the
    /// *effective activity factor* of Figure 7.
    pub fn full_steps_per_cycle(&self) -> usize {
        self.design.wake.full_steps
    }

    /// Borrow of the underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Aggregated word-specialization coverage over all partitions;
    /// always `Some`.
    pub fn tier_stats(&self) -> Option<TierStats> {
        Some(
            self.design
                .programs
                .iter()
                .fold(TierStats::default(), |acc, p| acc.merged(&p.stats)),
        )
    }

    /// Number of partitions running native-compiled bodies
    /// (0 when the JIT is off or unsupported on this target).
    pub fn jit_compiled_count(&self) -> usize {
        self.design.slots.compiled_count()
    }

    /// Number of partitions whose wake is the program alone: no unfused
    /// output to compare, no in-place state left to the engine.
    pub fn plain_slot_count(&self) -> usize {
        self.design.slots.plain_count()
    }

    /// Borrow of the compiled partitions (verification, tests).
    pub fn jit_parts(&self) -> Option<&jit::JitParts> {
        self.design.slots.jit()
    }

    fn run_cycle<P: Profiler>(&mut self, prof: &mut P) {
        let design = &*self.design;
        let machine = &mut self.machine;
        // Interior-mutable view of the activity bits so fused trigger
        // writes inside the tier-1 interpreter can wake consumers while
        // the bit words stay borrowed here.
        let flags = Cell::from_mut(self.flags.as_mut_slice()).as_slice_of_cells();
        let wake = &design.wake;
        let snaps = self.snapshots.as_mut_slice();
        let state = &design.state;
        let slots = design.slots.as_slice();
        let code = Programs {
            programs: &design.programs,
            flags,
            banks: self.banks.ptr(),
            records: design.slots.records(),
        };

        let push = design.push;
        let np = slots.len();
        // A woken non-plain partition, its bit already cleared: steps 2
        // to 4 of the module docs.
        let wake_full = |sched: usize,
                         slot: WakeSlot,
                         machine: &mut Machine,
                         snaps: &mut [u64],
                         prof: &mut P| {
            let ops_before = machine.counters.ops_evaluated;
            // Snapshot the old values of the unfused outputs (step 4).
            let outs = wake.outputs(sched);
            for o in outs {
                snaps[range(o.snap, o.words)]
                    .copy_from_slice(&machine.arena[range(o.off, o.words)]);
            }

            code.run(slot, sched, machine, prof);

            // 3. In-place state updates the program did not absorb:
            //    write, wake next-cycle consumers (they are scheduled at
            //    or before this partition, so the bits persist into the
            //    next cycle).
            let (writes, regs) = state.in_place(sched);
            for w in writes {
                machine.counters.dynamic_checks += 1;
                if machine.write_port(w) {
                    for &c in state.woken(w.wake) {
                        wake_bit(flags, c);
                        prof.wake_state_mem(w.plan as usize, c);
                    }
                }
            }
            for r in regs {
                machine.counters.dynamic_checks += 1;
                if machine.commit(r) {
                    for &c in state.woken(r.wake) {
                        wake_bit(flags, c);
                        prof.wake_state_reg(r.plan as usize, c);
                    }
                }
            }

            // 4. Push direction only: change detection for the outputs
            //    the program did not fuse; wake consumers of changed
            //    outputs (branchless OR-reduction in the generated C++; a
            //    compare + bit sets here).
            if push {
                for o in outs {
                    machine.counters.dynamic_checks += 1;
                    if machine.arena[range(o.off, o.words)] != snaps[range(o.snap, o.words)] {
                        for &c in wake.woken(o.wake) {
                            wake_bit(flags, c);
                            prof.wake_output(sched, c);
                        }
                    }
                }
            }
            prof.evaluated(sched, machine.counters.ops_evaluated - ops_before);
        };

        if push {
            // One logical activity test per partition per cycle, accounted
            // in bulk: the walk below performs them a word at a time.
            machine.counters.static_checks += np as u64;
            // The bit walk (module docs). A non-zero word's pending bits
            // are taken — cleared before any of their wakes — into
            // `bits`, and `trailing_zeros` picks the next partition from
            // there, so its index never waits on a load of the word the
            // previous wake just wrote. A profiled walk pays nothing for
            // the partitions it skips: their skips are derived from the
            // cycle count when a report is made.
            let mut w = 0;
            while let Some(skip) = first_set(&flags[w..]) {
                w += skip;
                let word = &flags[w];
                let mut bits = word.replace(0);
                while bits != 0 {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    let sched = w * 64 + bit as usize;
                    let slot = slots[sched];
                    if slot.plain {
                        // The program is the whole wake: one record load,
                        // one call.
                        let ops_before = machine.counters.ops_evaluated;
                        code.run(slot, sched, machine, prof);
                        prof.evaluated(sched, machine.counters.ops_evaluated - ops_before);
                    } else {
                        wake_full(sched, slot, machine, snaps, prof);
                    }
                    // The re-read: what the wake set above this partition
                    // runs this cycle (rare: a branch, not a dependence);
                    // what it set at or below stays for the next.
                    let woken = word.get();
                    let above = woken & (!1 << bit);
                    if above != 0 {
                        bits |= above;
                        word.set(woken & !above);
                    }
                }
                w += 1;
            }
        } else {
            // Pull direction (no slot is plain): a partition whose bit is
            // clear compares every cross-partition input against its
            // snapshot — per-cycle work proportional to the partition's
            // inputs, the overhead the paper's push choice avoids.
            for sched in 0..np {
                machine.counters.static_checks += 1;
                let (word, bit) = (&flags[sched / 64], 1 << (sched % 64));
                let inputs = wake.pull_inputs(sched);
                let mut active = word.get() & bit != 0;
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
                    continue;
                }
                word.set(word.get() & !bit);
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
                    wake_bit(flags, c);
                    prof.wake_state_mem(w.plan as usize, c);
                }
            }
        }
        for r in regs {
            machine.counters.static_checks += 1;
            if machine.commit(r) {
                for &c in state.woken(r.wake) {
                    wake_bit(flags, c);
                    prof.wake_state_reg(r.plan as usize, c);
                }
            }
        }
        machine.cycle += 1;
        machine.counters.cycles += 1;
    }
}

/// The index of the first non-zero activity word — the walk's skip over
/// idle partitions. Out of line on purpose: inlined into the cycle loop,
/// its induction variables share registers with the wake path and spill,
/// and an idle r18 cycle measured 55 ns instead of 35.
#[inline(never)]
fn first_set(words: &[Cell<u64>]) -> Option<usize> {
    words.iter().position(|word| word.get() != 0)
}

/// Sets the activity bits of `consumers`: a testbench's change between
/// steps, seen by the next cycle's walk.
fn wake_all(flags: &mut [u64], consumers: &[u32]) {
    for &c in consumers {
        flags[c as usize / 64] |= 1 << (c % 64);
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
    programs: &'a [Tier1Program],
    flags: &'a [Cell<u64>],
    banks: *const jit::JitBank,
    records: *const u32,
}

impl Programs<'_> {
    /// Step 2: partition `sched`'s program — natively when its slot has
    /// an entry, through the tier-1 interpreter otherwise (outputs and
    /// register commits compare-and-wake inline either way).
    #[inline(always)]
    fn run<P: Profiler>(&self, slot: WakeSlot, sched: usize, machine: &mut Machine, prof: &mut P) {
        let arena = machine.arena.as_mut_ptr();
        match slot.entry {
            Some(entry) => {
                // SAFETY: the slot table and the native parts it points
                // into live in the shared design this engine holds, and
                // nothing changes them after build, so `entry` is a live
                // body and `slot.record` is where this partition's
                // operand record for it starts in the parts' record
                // buffer;
                // exclusive machine access through the engine's &mut
                // self; the body touches only arena offsets lowered from
                // this partition's tier-1 program — its members' slots
                // and, for its `Commit` instructions, its elided
                // registers' `next`/`out` slots (B0210 holds the program
                // to the block, J07xx the bytes and, slot by slot, this
                // partition's record to the program) — wakes consumers by
                // `or`ing their bit into the byte that holds it (J0704
                // holds each, displaced or recorded, to the program's
                // consumer list, which only names scheduled partitions,
                // so every byte is inside the bit words; no reference to
                // their contents is live across the call), and reads
                // memory banks through this instance's own bank table,
                // built from this machine's mems.
                let (o, d) = unsafe {
                    jit::call(
                        entry,
                        arena,
                        self.flags.as_ptr().cast::<u8>().cast_mut(),
                        self.banks,
                        self.records.wrapping_add(slot.record as usize),
                    )
                };
                machine.counters.ops_evaluated += o;
                machine.counters.dynamic_checks += d;
            }
            // SAFETY: exclusive machine access through the engine's
            // &mut self; the bit words alias no arena or bank storage.
            None => unsafe {
                prof.run_tier1(
                    &self.programs[sched],
                    arena,
                    &machine.mems,
                    self.flags,
                    sched,
                    &mut machine.counters.ops_evaluated,
                    &mut machine.counters.dynamic_checks,
                )
            },
        }
    }
}

impl Simulator for EssentSim {
    fn poke(&mut self, name: &str, value: Bits) {
        if let Some(id) = self.machine.poke_input(name, &value) {
            wake_all(&mut self.flags, self.design.wake.input_wakes(id));
            if let Some(p) = &mut self.profile {
                p.wake_input(&self.design.plan, id);
            }
        }
    }

    fn write_mem(&mut self, mem: &str, addr: usize, value: Bits) {
        if let Some(m) = self.machine.write_mem_backdoor(mem, addr, &value) {
            wake_all(&mut self.flags, self.design.wake.mem_wakes(m));
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
        self.profile.as_ref().map(|p| {
            p.report(
                &self.machine.netlist,
                &self.design.plan,
                self.machine.counters.cycles,
            )
        })
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

    // --- The bit walk, on hand-built designs -------------------------

    /// One combinational partition, woken only by its input.
    const INVERTER: &str = "circuit N :\n  module N :\n    input a : UInt<8>\n    output o : UInt<8>\n    o <= not(a)\n";

    /// At `c_p = 1` (no small-partition merging), `n + 6` partitions in
    /// this schedule order: the reader of `c` (`q`); `n` chained stages
    /// `x0 = a ^ r`, `x{i} = x{i-1} + 1`, each its own partition and each
    /// waking the next (forward output wakes, across word boundaries once
    /// `n > 62`); the writer of `r <= x{n-1}` (when `en`), a state wake
    /// back to stage 0; and the counter `c <= c + en`, which reads itself
    /// (a self-wake) and wakes `q` behind it. `a` wakes stage 0, `en` the
    /// two register writers.
    fn ladder(n: usize) -> String {
        let mut s = String::from("circuit L :\n  module L :\n    input clock : Clock\n    input a : UInt<8>\n    input en : UInt<1>\n    output q : UInt<8>\n");
        for i in 0..n {
            s += &format!("    output o{i} : UInt<8>\n");
        }
        s += "    reg r : UInt<8>, clock\n    reg c : UInt<8>, clock\n    c <= tail(add(c, en), 1)\n    q <= c\n";
        s += "    node x0 = xor(a, r)\n    o0 <= x0\n";
        for i in 1..n {
            s += &format!(
                "    node x{i} = tail(add(x{}, UInt<8>(1)), 1)\n    o{i} <= x{i}\n",
                i - 1
            );
        }
        s + &format!("    when en :\n      r <= x{}\n", n - 1)
    }

    /// The design with exactly `np` partitions.
    fn design(np: usize) -> Netlist {
        netlist_of(&if np == 1 {
            INVERTER.into()
        } else {
            ladder(np - 6)
        })
    }

    fn cp1(push: bool) -> EngineConfig {
        EngineConfig {
            c_p: 1,
            trigger_push: push,
            ..EngineConfig::default()
        }
    }

    /// Drives `design(np)` for 40 cycles — `a` changes every fourth
    /// cycle, `en` toggles every fifth — checking every output against
    /// the golden interpreter and the bits past `np` after each cycle.
    /// Under `config.jit` the partitions the cost model selects run
    /// native bodies.
    fn walk(np: usize, config: &EngineConfig) -> EssentSim {
        let netlist = design(np);
        let mut sim = EssentSim::new(&netlist, config);
        assert_eq!(sim.partition_count(), np);
        if config.jit {
            let gated = !jit::supported() || cfg!(feature = "race-sanitizer");
            assert!(sim.jit_compiled_count() > 0 || gated);
        }
        let mut golden = essent_netlist::interp::Interpreter::new(&netlist);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for cycle in 0..40u64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            for &input in netlist.inputs() {
                let name = &netlist.signal(input).name;
                let value = match name.as_str() {
                    "a" if cycle % 4 == 1 => Bits::from_u64(rng >> 56, 8),
                    "en" => Bits::from_u64(cycle / 5 % 2, 1),
                    _ => continue,
                };
                sim.poke(name, value.clone());
                golden.poke(name, value);
            }
            sim.step(1);
            golden.step(1);
            for &out in netlist.outputs() {
                let name = &netlist.signal(out).name;
                assert_eq!(
                    sim.peek(name),
                    golden.peek(name),
                    "np {np} cycle {cycle}: {name}"
                );
            }
            assert_eq!(sim.flags.len(), np.div_ceil(64));
            let tail = sim.flags[np / 64..].iter().fold(0, |acc, w| acc | w);
            assert_eq!(
                tail >> (np % 64),
                0,
                "np {np} cycle {cycle}: a bit past the schedule"
            );
        }
        sim
    }

    /// `(np, ops, static, dynamic)` of [`walk`] under the byte-flag sweep
    /// the bit walk replaced (git `2ff448f`): the same partitions ran, in
    /// the same cycles.
    const BYTE_FLAG_PUSH: [(usize, u64, u64, u64); 5] = [
        (1, 22, 40, 0),
        (63, 6050, 2520, 1534),
        (64, 6154, 2560, 1560),
        (65, 6258, 2600, 1586),
        (130, 13018, 5200, 3276),
    ];
    const BYTE_FLAG_PULL: [(usize, u64, u64, u64); 5] = [
        (1, 22, 69, 0),
        (63, 6050, 6991, 52),
        (64, 6154, 7109, 52),
        (65, 6258, 7227, 52),
        (130, 13018, 14897, 52),
    ];

    fn counters_of(sim: EssentSim) -> (u64, u64, u64) {
        let c = sim.counters();
        assert_eq!(c.cycles, 40);
        (c.ops_evaluated, c.static_checks, c.dynamic_checks)
    }

    #[test]
    fn bits_past_the_schedule_never_run() {
        for (np, ops, stat, dynamic) in BYTE_FLAG_PUSH {
            for jit in [false, true] {
                let config = EngineConfig { jit, ..cp1(true) };
                let got = counters_of(walk(np, &config));
                assert_eq!(got, (ops, stat, dynamic), "np {np} jit {jit}");
            }
        }
    }

    #[test]
    fn pull_mode_runs_on_the_bitmap() {
        for (np, ops, stat, dynamic) in BYTE_FLAG_PULL {
            let got = counters_of(walk(np, &cp1(false)));
            assert_eq!(got, (ops, stat, dynamic), "np {np}");
        }
    }

    /// One per-unit profile field of [`walk`]'s 130-partition ladder,
    /// run-length encoded in schedule order: `(units, value)`.
    type Runs = &'static [(usize, u64)];

    /// A profiled [`walk`] of the 130-partition ladder: per unit `evals`,
    /// `skips`, `woke_output`, `woke_state`, `woke_input`, `caused`, then
    /// the state-cause and input-cause totals, as the profiler that swept
    /// a skip counter over every idle partition and charged causes
    /// through a slot table (git `d26f4cf`) counted them.
    struct ProfilePin {
        units: [Runs; 6],
        state_causes: u64,
        input_causes: u64,
    }

    const PROFILE_PUSH: ProfilePin = ProfilePin {
        units: [
            &[(1, 1), (1, 20), (124, 26), (1, 1), (1, 28), (1, 24), (1, 1)],
            &[
                (1, 39),
                (1, 20),
                (124, 14),
                (1, 39),
                (1, 12),
                (1, 16),
                (1, 39),
            ],
            &[(3, 0), (1, 25), (122, 26), (1, 0), (1, 26), (2, 0)],
            &[(1, 0), (2, 20), (124, 0), (2, 20), (1, 0)],
            &[(2, 0), (1, 10), (124, 0), (2, 7), (1, 0)],
            &[(2, 0), (1, 25), (123, 26), (4, 0)],
        ],
        state_causes: 80,
        input_causes: 24,
    };
    /// Pull mode runs the same partitions; no wake is an output wake.
    const PROFILE_PULL: ProfilePin = ProfilePin {
        units: [
            PROFILE_PUSH.units[0],
            PROFILE_PUSH.units[1],
            &[(130, 0)],
            PROFILE_PUSH.units[3],
            PROFILE_PUSH.units[4],
            &[(130, 0)],
        ],
        ..PROFILE_PUSH
    };

    fn runs(values: impl IntoIterator<Item = u64>) -> Vec<(usize, u64)> {
        let mut runs: Vec<(usize, u64)> = Vec::new();
        for v in values {
            match runs.last_mut() {
                Some((n, last)) if *last == v => *n += 1,
                _ => runs.push((1, v)),
            }
        }
        runs
    }

    #[test]
    fn profile_counts_match_the_swept_profiler() {
        for (push, pin) in [(true, PROFILE_PUSH), (false, PROFILE_PULL)] {
            let config = EngineConfig {
                profile: true,
                ..cp1(push)
            };
            let report = walk(130, &config).profile_report().expect("profiled");
            let fields: [fn(&crate::profile::UnitProfile) -> u64; 6] = [
                |u| u.evals,
                |u| u.skips,
                |u| u.woke_output,
                |u| u.woke_state,
                |u| u.woke_input,
                |u| u.caused,
            ];
            for (i, (field, want)) in fields.iter().zip(pin.units).enumerate() {
                let got = runs(report.units.iter().map(field));
                assert_eq!(got, want, "push {push} field {i}");
            }
            let total = |causes: &[(String, u64)]| causes.iter().map(|c| c.1).sum::<u64>();
            assert_eq!(total(&report.state_causes), pin.state_causes, "push {push}");
            assert_eq!(total(&report.input_causes), pin.input_causes, "push {push}");
        }
    }

    /// Per-partition evals of a profiled run so far.
    fn evals(sim: &EssentSim) -> Vec<u64> {
        let report = sim.profile_report().expect("profiled");
        report.units.iter().map(|u| u.evals).collect()
    }

    fn profiled(netlist: &Netlist) -> EssentSim {
        let config = EngineConfig {
            profile: true,
            ..cp1(true)
        };
        EssentSim::new(netlist, &config)
    }

    fn sched_of(sim: &EssentSim, netlist: &Netlist, sig: &str) -> usize {
        sim.plan().sched_of_signal[netlist.expect_signal(sig).index()] as usize
    }

    /// Steps the profiled `sim` and the golden interpreter `cycles`
    /// cycles; returns how often each partition ran.
    fn run(
        sim: &mut EssentSim,
        golden: &mut essent_netlist::interp::Interpreter,
        netlist: &Netlist,
        cycles: u64,
    ) -> Vec<u64> {
        let before = evals(sim);
        sim.step(cycles);
        golden.step(cycles);
        for &out in netlist.outputs() {
            let name = &netlist.signal(out).name;
            assert_eq!(sim.peek(name), golden.peek(name), "{name}");
        }
        evals(sim)
            .iter()
            .zip(before)
            .map(|(now, was)| now - was)
            .collect()
    }

    fn poke(
        sim: &mut EssentSim,
        golden: &mut essent_netlist::interp::Interpreter,
        name: &str,
        v: u64,
    ) {
        let width = if name == "en" { 1 } else { 8 };
        sim.poke(name, Bits::from_u64(v, width));
        golden.poke(name, Bits::from_u64(v, width));
    }

    /// A changed `a` reaches the last of 124 stages — partitions 2 to
    /// 125, across the first word boundary — and the writer of `r` behind
    /// them in the cycle it is poked, each running once; nothing else
    /// runs.
    #[test]
    fn forward_wakes_run_in_the_same_cycle() {
        let netlist = design(130);
        let mut sim = profiled(&netlist);
        let mut golden = essent_netlist::interp::Interpreter::new(&netlist);
        poke(&mut sim, &mut golden, "en", 0);
        poke(&mut sim, &mut golden, "a", 0);
        run(&mut sim, &mut golden, &netlist, 3);
        poke(&mut sim, &mut golden, "a", 0x5A);
        let ran = run(&mut sim, &mut golden, &netlist, 1);
        let stages = sched_of(&sim, &netlist, "x0")..=sched_of(&sim, &netlist, "x123");
        let writer = sched_of(&sim, &netlist, "r$next");
        assert_eq!((stages.clone(), writer), (2..=125, 127));
        for (sched, &n) in ran.iter().enumerate() {
            let woken = stages.contains(&sched) || sched == writer;
            assert_eq!(n, u64::from(woken), "partition {sched}");
        }
    }

    /// With `en` held, `r` and `c` change every cycle. `r`'s writer wakes
    /// stage 0 and `c`'s writer itself and `q`'s partition, all at or
    /// before the writer: each of them runs once per cycle, in the next.
    #[test]
    fn state_and_self_wakes_run_the_next_cycle() {
        let netlist = design(12);
        let mut sim = profiled(&netlist);
        let mut golden = essent_netlist::interp::Interpreter::new(&netlist);
        poke(&mut sim, &mut golden, "en", 1);
        poke(&mut sim, &mut golden, "a", 0x33);
        run(&mut sim, &mut golden, &netlist, 2);
        let (q, counter) = (
            sched_of(&sim, &netlist, "q"),
            sched_of(&sim, &netlist, "c$next"),
        );
        let stage0 = sched_of(&sim, &netlist, "x0");
        let writer = sched_of(&sim, &netlist, "r$next");
        assert!(q < counter && stage0 < writer, "state wakes point backward");
        let ran = run(&mut sim, &mut golden, &netlist, 20);
        for sched in [q, counter, stage0, writer] {
            assert_eq!(ran[sched], 20, "partition {sched}: {ran:?}");
        }
        assert!(
            ran.iter().all(|&n| n <= 20),
            "one run per cycle at most: {ran:?}"
        );
    }

    /// A poke that changes an input wakes its reader for the next step;
    /// one that does not, nothing.
    #[test]
    fn input_pokes_wake_their_readers() {
        let netlist = design(1);
        let mut sim = profiled(&netlist);
        let mut golden = essent_netlist::interp::Interpreter::new(&netlist);
        poke(&mut sim, &mut golden, "a", 7);
        assert_eq!(run(&mut sim, &mut golden, &netlist, 3), [1]);
        poke(&mut sim, &mut golden, "a", 7);
        assert_eq!(run(&mut sim, &mut golden, &netlist, 3), [0]);
        poke(&mut sim, &mut golden, "a", 8);
        assert_eq!(run(&mut sim, &mut golden, &netlist, 3), [1]);
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
