//! What a wake does beyond running the partition's program, resolved
//! once in the front end, and the dense record an engine reads at the
//! moment an activity flag tests set.
//!
//! [`WakeTable`] is the pre-resolved trigger bookkeeping of a plan, built
//! by [`Frontend::compile`](crate::frontend::Frontend::compile) next to
//! the [`StateTable`] and run from by all three CCSS engines: per
//! scheduled partition the outputs its program did not fuse (snapshot
//! before the program, compare after, wake the consumers of what
//! changed), the cross-partition inputs a pull-mode partition watches,
//! and the `plain` bit — *the program is the whole wake*: no unfused
//! output, no in-place state update the program did not absorb — plus
//! the wakes of a testbench's changes between steps: per external input
//! and, for back-door writes, per memory. Engines keep only storage (snapshots,
//! flags) and their schedule loop; `essent-verify` audits the table once
//! for all of them (`X0801`/`X0802`).
//!
//! `WakeSlots` is the per-design record in front of it: the native
//! `entry` (or `None`: run the tier-1 program) and the operand record it
//! reads beside the table's `plain` bit, so a plain wake is one slot
//! load and one call, and only non-plain partitions visit
//! [`WakeTable::outputs`] and [`StateTable::in_place`].
//!
//! The slots cache entry pointers into the executable arena the
//! [`JitParts`] owns, and offsets into its record buffer, so the parts
//! live in the same struct, private to it, and nothing changes them
//! after `WakeSlots::new`: the pointers live exactly as long as the
//! arena they point into. Nothing in a slot names an instance's storage,
//! so every `EssentSim` over one compiled design shares one slot table.

use crate::compile::Layout;
use crate::jit::{EntryFn, JitParts};
use crate::state::StateTable;
use crate::step1::Tier1Program;
use essent_core::plan::CcssPlan;
use essent_netlist::{Netlist, SignalDef, SignalId};
use std::collections::{BTreeSet, HashMap};

/// One watched arena range: `words` words at `off`, last seen at `snap`.
#[derive(Debug, Clone, Copy)]
pub struct Watch {
    pub off: u32,
    pub words: u32,
    /// Snapshot offset, in words of the engine's snapshot storage.
    pub snap: u32,
    /// Consumers to wake on change ([`WakeTable::woken`]); empty for a
    /// pull input, whose change wakes the watching partition itself.
    pub wake: (u32, u32),
}

/// The flat table (see the module docs). Fields are public, like
/// [`Tier1Program`]'s, for the verifier's mutation tests.
#[derive(Debug, Clone, Default)]
pub struct WakeTable {
    /// Partition 0's unfused outputs, partition 1's, …; `out_bound`
    /// holds the `partitions + 1` prefix bounds.
    pub outputs: Vec<Watch>,
    pub out_bound: Vec<u32>,
    /// The same shape for the pull direction's watched inputs; every
    /// range is empty under push triggering.
    pub inputs: Vec<Watch>,
    pub in_bound: Vec<u32>,
    pub consumers: Vec<u32>,
    /// Per partition: the program is the whole wake.
    pub plain: Vec<bool>,
    /// Per external input: the partitions to wake when it changes.
    pub input_wake: HashMap<SignalId, Vec<u32>>,
    /// Per memory: the partitions holding its read ports, to wake when a
    /// back-door write changes a word.
    pub mem_wake: Vec<Vec<u32>>,
    /// Words of snapshot storage the `snap` offsets address.
    pub snapshot_words: usize,
    /// Steps a full-cycle evaluation would run per cycle (the
    /// denominator of the effective activity factor).
    pub full_steps: usize,
}

impl WakeTable {
    /// Resolves `plan`'s triggers against what the front end compiled:
    /// `programs` decide which outputs stay with the engine (all of them
    /// with fusion off), `state` which partitions have in-place updates
    /// left, `push` the triggering direction.
    pub fn build(
        netlist: &Netlist,
        layout: &Layout,
        plan: &CcssPlan,
        programs: &[Tier1Program],
        state: &StateTable,
        push: bool,
    ) -> WakeTable {
        let mut t = WakeTable::default();
        for (sched, part) in plan.partitions.iter().enumerate() {
            t.out_bound.push(t.outputs.len() as u32);
            t.in_bound.push(t.inputs.len() as u32);
            for (oi, out) in part.outputs.iter().enumerate() {
                if !programs[sched].unfused.contains(&oi) {
                    continue;
                }
                let start = t.consumers.len() as u32;
                t.consumers.extend_from_slice(&out.consumers);
                let watch = t.watch(layout, out.signal, (start, t.consumers.len() as u32));
                t.outputs.push(watch);
            }
            // Push mode (pull refreshes input snapshots on every wake),
            // and the program left the engine nothing.
            t.plain.push(
                push && t.outputs.len() as u32 == t.out_bound[sched] && !state.has_in_place(sched),
            );
            if push {
                continue;
            }
            // Pull direction: every signal the members read that is not
            // computed in this partition — other partitions' outputs,
            // register outputs, external inputs — deduplicated.
            let mut seen = BTreeSet::new();
            for &m in &part.members {
                for dep in netlist.deps(m) {
                    if plan.sched_of_signal[dep.index()] as usize != sched
                        || !matches!(
                            netlist.signal(dep).def,
                            SignalDef::Op(_) | SignalDef::MemRead { .. }
                        )
                    {
                        seen.insert(dep);
                    }
                }
            }
            for dep in seen {
                let watch = t.watch(layout, dep, (0, 0));
                t.inputs.push(watch);
            }
        }
        t.out_bound.push(t.outputs.len() as u32);
        t.in_bound.push(t.inputs.len() as u32);
        t.input_wake = plan.input_wakes.iter().cloned().collect();
        t.mem_wake = netlist
            .mems()
            .iter()
            .map(|m| {
                let readers: BTreeSet<u32> = m
                    .readers
                    .iter()
                    .map(|r| plan.sched_of_signal[r.data.index()])
                    .collect();
                readers.into_iter().collect()
            })
            .collect();
        t.full_steps = programs.iter().map(|p| p.stats.total_steps).sum();
        t
    }

    /// A watch on `sig`, with fresh snapshot storage.
    fn watch(&mut self, layout: &Layout, sig: SignalId, wake: (u32, u32)) -> Watch {
        let words = layout.words(sig);
        let snap = self.snapshot_words as u32;
        self.snapshot_words += words;
        Watch {
            off: layout.offset(sig) as u32,
            words: words as u32,
            snap,
            wake,
        }
    }

    /// The outputs partition `sched`'s program did not fuse.
    #[inline]
    pub fn outputs(&self, sched: usize) -> &[Watch] {
        &self.outputs[self.out_bound[sched] as usize..self.out_bound[sched + 1] as usize]
    }

    /// The inputs partition `sched` watches in the pull direction.
    #[inline]
    pub fn pull_inputs(&self, sched: usize) -> &[Watch] {
        &self.inputs[self.in_bound[sched] as usize..self.in_bound[sched + 1] as usize]
    }

    /// The consumers an output's `wake` range names.
    #[inline]
    pub fn woken(&self, wake: (u32, u32)) -> &[u32] {
        &self.consumers[wake.0 as usize..wake.1 as usize]
    }

    /// The partitions a change of external input `sig` wakes.
    pub fn input_wakes(&self, sig: SignalId) -> &[u32] {
        self.input_wake.get(&sig).map_or(&[], Vec::as_slice)
    }

    /// The partitions a back-door write to memory `mem` wakes.
    pub fn mem_wakes(&self, mem: usize) -> &[u32] {
        &self.mem_wake[mem]
    }
}

/// One partition's record (see the module docs).
#[derive(Clone, Copy)]
pub(crate) struct WakeSlot {
    /// The native body to call; `None` runs the tier-1 program.
    pub entry: Option<EntryFn>,
    /// Where the operand record `entry` reads starts in
    /// [`WakeSlots::records`].
    pub record: u32,
    /// The program is the whole wake.
    pub plain: bool,
}

/// The slots, with the native parts they point into.
pub(crate) struct WakeSlots {
    jit: Option<JitParts>,
    slots: Vec<WakeSlot>,
}

impl WakeSlots {
    /// One slot per entry of `plain` (the [`WakeTable`]'s: a property of
    /// the plan and the lowering, not of which partitions run native
    /// code), native where `jit` has a body.
    pub fn new(jit: Option<JitParts>, plain: &[bool]) -> WakeSlots {
        let slots = plain
            .iter()
            .enumerate()
            .map(|(sched, &plain)| {
                let part = jit.as_ref().and_then(|j| j.part(sched));
                WakeSlot {
                    entry: part.map(|p| p.entry()),
                    record: part.map_or(0, |p| p.record_start()),
                    plain,
                }
            })
            .collect();
        WakeSlots { jit, slots }
    }

    /// The slots, indexed by scheduled partition.
    #[inline]
    pub fn as_slice(&self) -> &[WakeSlot] {
        &self.slots
    }

    /// The base of the operand records native bodies take (null without
    /// native parts).
    #[inline]
    pub fn records(&self) -> *const u32 {
        self.jit.as_ref().map_or(std::ptr::null(), |j| j.records())
    }

    /// The native parts (verification, tests).
    pub fn jit(&self) -> Option<&JitParts> {
        self.jit.as_ref()
    }

    /// Partitions running native code.
    pub fn compiled_count(&self) -> usize {
        self.jit.as_ref().map_or(0, |j| j.compiled_count())
    }

    /// Partitions whose wake is the program alone.
    pub fn plain_count(&self) -> usize {
        self.slots.iter().filter(|s| s.plain).count()
    }
}
