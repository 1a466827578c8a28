//! The dense **wake-slot table**: everything a CCSS engine needs to know
//! about a partition at the moment its activity flag tests set, in one
//! record per scheduled partition.
//!
//! A wake used to ask several per-partition tables — the native parts,
//! the unfused-output trigger ranges, the in-place state bounds — mostly
//! to learn that there was nothing to do besides running the program.
//! The slot answers all of them at once: the native `entry` (or `None`:
//! run the tier-1 program), and a `plain` bit meaning *the program is
//! the whole wake* — no unfused output to snapshot and compare, no
//! in-place state update the program did not absorb. A plain wake is one
//! record load, one flag clear and one call; only non-plain partitions
//! visit the trigger tables and [`StateTable::in_place`].
//!
//! The table caches entry pointers into the executable arena the
//! [`JitParts`] owns, so the two live in one struct with the parts
//! private to it: every operation that changes them — deopt of one
//! partition, deopt of all, the force-compile hook that replaces the
//! arena — ends in [`WakeSlots::rebuild_slots`], and no stale pointer
//! survives the arena it pointed into.
//!
//! [`StateTable::in_place`]: crate::state::StateTable::in_place

use crate::jit::{self, EntryFn, JitBank, JitParts};
use crate::machine::MemBank;
use crate::step1::Tier1Program;

/// One partition's record (see the module docs).
#[derive(Clone, Copy)]
pub(crate) struct WakeSlot {
    /// The native body to call; `None` runs the tier-1 program (or,
    /// without the tier, the generic items).
    pub entry: Option<EntryFn>,
    /// The program is the whole wake.
    pub plain: bool,
}

/// The table, with the native parts it points into.
pub(crate) struct WakeSlots {
    jit: Option<JitParts>,
    /// Fixed at construction: a property of the plan and the lowering,
    /// not of which partitions run native code.
    plain: Vec<bool>,
    slots: Vec<WakeSlot>,
}

impl WakeSlots {
    /// One slot per entry of `plain`, native where `jit` has a body.
    pub fn new(jit: Option<JitParts>, plain: Vec<bool>) -> WakeSlots {
        let mut slots = WakeSlots {
            jit,
            plain,
            slots: Vec::new(),
        };
        slots.rebuild_slots();
        slots
    }

    /// Re-derives every slot from the parts as they are now.
    fn rebuild_slots(&mut self) {
        let jit = self.jit.as_ref();
        self.slots = self
            .plain
            .iter()
            .enumerate()
            .map(|(sched, &plain)| WakeSlot {
                entry: jit.and_then(|j| j.part(sched)).map(|p| p.entry()),
                plain,
            })
            .collect();
    }

    /// The slots, indexed by scheduled partition.
    #[inline]
    pub fn as_slice(&self) -> &[WakeSlot] {
        &self.slots
    }

    /// The bank table native bodies take (null without native parts —
    /// no slot has an entry then).
    #[inline]
    pub fn banks(&self) -> *const JitBank {
        self.jit.as_ref().map_or(std::ptr::null(), |j| j.banks())
    }

    /// The native parts (verification, tests).
    pub fn jit(&self) -> Option<&JitParts> {
        self.jit.as_ref()
    }

    /// Partitions currently running native code.
    pub fn compiled_count(&self) -> usize {
        self.jit.as_ref().map_or(0, |j| j.compiled_count())
    }

    /// Partitions whose wake is the program alone.
    pub fn plain_count(&self) -> usize {
        self.plain.iter().filter(|&&p| p).count()
    }

    /// Drops one partition back to the tier-1 interpreter; returns
    /// whether a compiled body was actually discarded.
    pub fn deopt(&mut self, sched: usize) -> bool {
        let dropped = self.jit.as_mut().is_some_and(|j| j.deopt(sched));
        self.rebuild_slots();
        dropped
    }

    /// Deoptimizes every partition; returns how many were compiled.
    pub fn deopt_all(&mut self) -> usize {
        let dropped = self.jit.as_mut().map_or(0, |j| j.deopt_all());
        self.rebuild_slots();
        dropped
    }

    /// Testing hook: replaces the native parts with a body for every
    /// eligible program regardless of cost. Returns how many bodies now
    /// exist; refuses (0, nothing changed) without tier-1 programs, when
    /// `profiled` (wake attribution needs the interpreter's flag sinks),
    /// under the race sanitizer and on unsupported hosts.
    pub fn compile_all(
        &mut self,
        programs: Option<&[Tier1Program]>,
        mems: &[MemBank],
        profiled: bool,
    ) -> usize {
        let Some(programs) = programs else {
            return 0;
        };
        if profiled || cfg!(feature = "race-sanitizer") || !jit::supported() {
            return 0;
        }
        self.jit = Some(JitParts::build_all(programs, mems));
        self.rebuild_slots();
        self.compiled_count()
    }
}
