//! Layer six: static read/write **footprint** analysis — the ground the
//! parallel engine's shared-arena `unsafe` blocks stand on (`R0501`,
//! `R0502`, `R0504`).
//!
//! For every partition the analysis derives the exact set of arena
//! words, memory banks, and trigger flags the partition may touch
//! during its evaluation. The derivation is done **twice**, from two
//! independent artifacts:
//!
//! * the generic [`Block`] bytecode (arg/dst ranges, `CondMux` ways,
//!   memory-read banks, the block's register commits), and
//! * the lowered [`Tier1Program`] instruction stream (operand offsets,
//!   jump diamonds, `Generic` fallbacks, `Commit` instructions,
//!   fused-trigger sinks) together with the commits it reports
//!   unabsorbed, resolved from the plan as the engine's state table
//!   resolves them,
//!
//! and the two must agree word-for-word (`R0501`) — so a lowering bug
//! that shifts an offset, or drops a register commit, cannot silently
//! survive into the proof. On top of the bytecode footprint the analysis
//! adds the engine-level accesses `ParEssentSim::eval_partition` performs
//! around the bytecode (unfused-output snapshot/compare reads,
//! trigger-flag writes), then proves two plan-wide properties: every
//! arena word has a single writing partition (`R0502`), and every write
//! lands inside the partition's declared arena range (`R0504`).
//!
//! Which partitions may *run* concurrently is not decided here: the
//! dependence layer ([`crate::depgraph`], `S06xx`) takes these same
//! footprints and demands a wait edge of the dataflow schedule for every
//! pair whose footprints overlap (a write one partition makes and
//! another reads included), and proves the schedule's cross-cycle
//! overlap against them.
//!
//! The `race-sanitizer` cargo feature of `essent-sim` is the dynamic
//! counterpart: per-arena-word last-writer/last-reader shadow tags
//! checked during actual parallel execution, the differential oracle
//! that these static footprints over-approximate every real access.

use essent_core::diag::{codes, Diagnostic, Report};
use essent_core::plan::CcssPlan;
use essent_netlist::{Netlist, SignalId};
use essent_sim::compile::{Block, Item, Layout, Step, StepKind};
use essent_sim::step1::{Inst1, Op1, Tier1Program, NO_FUSE};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Word sets
// ---------------------------------------------------------------------

/// A set of arena words stored as sorted, coalesced, half-open
/// `[start, end)` runs — footprints are dense per signal but sparse
/// across the arena, so runs beat bitmaps at boom scale.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WordSet {
    runs: Vec<(u32, u32)>,
    sealed: bool,
}

impl WordSet {
    /// Adds `[off, off+words)`; no-op for empty ranges.
    pub fn add(&mut self, off: u32, words: u32) {
        if words > 0 {
            self.runs.push((off, off + words));
            self.sealed = false;
        }
    }

    /// Sorts and coalesces the runs; all queries require a sealed set.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.runs.sort_unstable();
        let mut out: Vec<(u32, u32)> = Vec::with_capacity(self.runs.len());
        for &(s, e) in &self.runs {
            match out.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => out.push((s, e)),
            }
        }
        self.runs = out;
        self.sealed = true;
    }

    /// The coalesced runs (sealed sets only).
    pub fn runs(&self) -> &[(u32, u32)] {
        debug_assert!(self.sealed || self.runs.is_empty());
        &self.runs
    }

    /// Number of words in the set.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(s, e)| (e - s) as usize).sum()
    }

    /// True when no word is present.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// First word present in both sets, if any (both sealed).
    pub fn first_overlap(&self, other: &WordSet) -> Option<u32> {
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let (a, b) = (self.runs[i], other.runs[j]);
            if a.1 <= b.0 {
                i += 1;
            } else if b.1 <= a.0 {
                j += 1;
            } else {
                return Some(a.0.max(b.0));
            }
        }
        None
    }

    /// First word of `self` not covered by `cover`, if any (both sealed).
    pub fn first_uncovered(&self, cover: &WordSet) -> Option<u32> {
        let mut j = 0;
        for &(mut s, e) in &self.runs {
            while s < e {
                while j < cover.runs.len() && cover.runs[j].1 <= s {
                    j += 1;
                }
                match cover.runs.get(j) {
                    Some(&(cs, ce)) if cs <= s => s = ce,
                    _ => return Some(s),
                }
            }
        }
        None
    }

    /// First word on which the two sets differ (symmetric difference),
    /// if any (both sealed).
    pub fn first_difference(&self, other: &WordSet) -> Option<u32> {
        match (self.first_uncovered(other), other.first_uncovered(self)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

// ---------------------------------------------------------------------
// Footprints
// ---------------------------------------------------------------------

/// One partition's statically derived memory footprint: everything its
/// parallel evaluation may touch (bytecode plus the engine's own
/// snapshot/commit/trigger accesses around it).
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// Arena words the partition may read.
    pub reads: WordSet,
    /// Arena words the partition may write.
    pub writes: WordSet,
    /// Memory banks read (read ports evaluated by this partition).
    pub bank_reads: BTreeSet<u32>,
    /// Memory banks written (elided write ports; empty under the
    /// parallel engine, which never elides memory writes).
    pub bank_writes: BTreeSet<u32>,
    /// Scheduled partitions whose activity flag this partition may set.
    /// Flag stores are atomic, so they never participate in the
    /// word-conflict proof, but cross-cycle overlap must respect them.
    pub flag_wakes: BTreeSet<u32>,
}

impl Footprint {
    fn seal(&mut self) {
        self.reads.seal();
        self.writes.seal();
    }
}

/// Bytecode-level accesses accumulated during one derivation.
#[derive(Debug, Clone, Default)]
struct Access {
    reads: WordSet,
    writes: WordSet,
    bank_reads: BTreeSet<u32>,
    /// Fused-trigger flag targets (tier-1 derivation only; the generic
    /// tier performs all trigger writes in the engine, not in bytecode).
    fused_flags: BTreeSet<u32>,
    /// `(register plan, consumer)` per `Commit` instruction wake (tier-1
    /// derivation only).
    commit_flags: BTreeSet<(u32, u32)>,
}

impl Access {
    fn seal(&mut self) {
        self.reads.seal();
        self.writes.seal();
    }
}

fn add_step(step: &Step, acc: &mut Access) {
    for a in &step.args {
        acc.reads.add(a.off, a.words as u32);
    }
    if let StepKind::MemRead { mem, .. } = step.kind {
        acc.bank_reads.insert(mem);
    }
    acc.writes.add(step.dst.off, step.dst.words as u32);
}

fn add_item(item: &Item, acc: &mut Access) {
    match item {
        Item::Step(step) => add_step(step, acc),
        Item::CondMux {
            sel,
            dst,
            high_items,
            high,
            low_items,
            low,
            ..
        } => {
            // Static may-access: both ways union, exactly like the
            // tier-1 jump diamond below.
            acc.reads.add(sel.off, sel.words as u32);
            for it in high_items {
                add_item(it, acc);
            }
            acc.reads.add(high.off, high.words as u32);
            for it in low_items {
                add_item(it, acc);
            }
            acc.reads.add(low.off, low.words as u32);
            acc.writes.add(dst.off, dst.words as u32);
        }
    }
}

/// Footprint of a partition's generic `Block` bytecode: its items, then
/// its in-place register commits (`next` read, `out` written).
fn block_access(block: &Block) -> Access {
    let mut acc = Access::default();
    for item in &block.items {
        add_item(item, &mut acc);
    }
    for commit in &block.commits {
        acc.reads.add(commit.next, commit.words as u32);
        acc.writes.add(commit.out, commit.words as u32);
    }
    acc.seal();
    acc
}

/// The arena words a partition's generic block may write — the write
/// half of its footprint, for the wake-table audit ([`crate::wake`]).
pub(crate) fn block_writes(block: &Block) -> WordSet {
    block_access(block).writes
}

/// The memory banks a partition's generic block reads — the partitions
/// a back-door write to one of them must wake ([`crate::wake`]).
pub(crate) fn block_bank_reads(block: &Block) -> BTreeSet<u32> {
    block_access(block).bank_reads
}

fn add_inst(inst: &Inst1, prog: &Tier1Program, acc: &mut Access) {
    if inst.op == Op1::Generic {
        // The fallback interprets the original generic item; its
        // footprint is that item's footprint.
        add_item(&prog.generic[inst.a as usize], acc);
    }
    let roles = inst.roles();
    for &off in roles.reads() {
        acc.reads.add(off, 1);
    }
    acc.bank_reads.extend(roles.bank);
    if roles.writes_dst {
        acc.writes.add(inst.dst, 1);
    }
    if inst.ws != NO_FUSE {
        // The fused tail also re-reads `dst` for the change compare;
        // that read is accounted for by the uniform engine-level output
        // read (every output slot is snapshot- or compare-read), so it
        // is deliberately not part of the bytecode footprint here.
        for &c in &prog.consumers[inst.ws as usize..inst.we as usize] {
            if inst.op == Op1::Commit {
                acc.commit_flags.insert((inst.imm as u32, c));
            } else {
                acc.fused_flags.insert(c);
            }
        }
    }
}

/// Footprint of a partition's lowered `Tier1Program` — derived from the
/// instruction stream alone, never from the block it was lowered from —
/// plus the commits the program leaves to the engine's state table,
/// resolved as the table resolves them: `unabsorbed[k]` names the
/// partition's `k`-th elided register. `None` when such an index is out
/// of range.
fn tier_access(
    netlist: &Netlist,
    layout: &Layout,
    elided_regs: &[usize],
    prog: &Tier1Program,
) -> Option<Access> {
    let mut acc = Access::default();
    for inst in &prog.code {
        add_inst(inst, prog, &mut acc);
    }
    for &ci in &prog.unabsorbed {
        let reg = &netlist.regs()[*elided_regs.get(ci)?];
        let words = layout.words(reg.out) as u32;
        acc.reads.add(layout.offset(reg.next) as u32, words);
        acc.writes.add(layout.offset(reg.out) as u32, words);
    }
    acc.seal();
    Some(acc)
}

/// Engine-level accesses `ParEssentSim::eval_partition` performs around
/// the bytecode: output snapshot/compare reads and trigger-flag writes
/// (the in-place register commits' `next` read and `out` write are part
/// of the bytecode footprint; their wakes are added here, from the
/// plan). Elided memory writes (sequential plans only) read the port's
/// addr/en/mask/data slots and write the bank.
fn engine_access(
    netlist: &Netlist,
    layout: &Layout,
    plan: &CcssPlan,
    sched: usize,
    fp: &mut Footprint,
) {
    let slot = |sig: SignalId| (layout.offset(sig) as u32, layout.words(sig) as u32);
    let part = &plan.partitions[sched];
    for o in &part.outputs {
        let (off, words) = slot(o.signal);
        fp.reads.add(off, words);
        fp.flag_wakes.extend(o.consumers.iter().copied());
    }
    for &ri in &part.elided_regs {
        fp.flag_wakes
            .extend(plan.reg_plans[ri].wake_on_change.iter().copied());
    }
    for &wi in &part.elided_writes {
        let wp = &plan.mem_write_plans[wi];
        let port = &netlist.mems()[wp.mem.index()].writers[wp.writer];
        for sig in [port.addr, port.en, port.mask, port.data] {
            let (off, words) = slot(sig);
            fp.reads.add(off, words);
        }
        fp.bank_writes.insert(wp.mem.index() as u32);
        fp.flag_wakes.extend(wp.wake_on_change.iter().copied());
    }
}

/// The arena words partition `sched` legitimately owns for writing: the
/// slots of its member signals plus the out-slots of registers whose
/// next-value it computes (the only registers it may legally commit in
/// place). Derived from the layout and the netlist, not from the
/// bytecode under audit.
fn declared_writes(netlist: &Netlist, layout: &Layout, plan: &CcssPlan, sched: usize) -> WordSet {
    let mut declared = WordSet::default();
    for &sig in &plan.partitions[sched].members {
        declared.add(layout.offset(sig) as u32, layout.words(sig) as u32);
    }
    for &ri in &plan.partitions[sched].elided_regs {
        let reg = &netlist.regs()[ri];
        if plan.sched_of_signal[reg.next.index()] as usize == sched {
            declared.add(layout.offset(reg.out) as u32, layout.words(reg.out) as u32);
        }
    }
    declared.seal();
    declared
}

// ---------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------

/// Names the signal whose slot covers `word`, for diagnostics.
fn word_owner(netlist: &Netlist, layout: &Layout, word: u32) -> String {
    for (i, s) in netlist.signals().iter().enumerate() {
        let sig = SignalId(i as u32);
        let off = layout.offset(sig) as u32;
        let words = layout.words(sig) as u32;
        if word >= off && word < off + words {
            return format!("`{}`", s.name);
        }
    }
    "no signal".to_string()
}

/// Derives every partition's footprint (from the generic blocks, plus
/// the tier-1 cross-check when programs are given) and proves the
/// plan-wide write discipline:
///
/// * `R0501` — the tier-1 footprint (unabsorbed commits included)
///   disagrees with the block footprint, or a fused trigger or a commit
///   wakes a partition the plan never names for it;
/// * `R0502` — two partitions write the same arena word;
/// * `R0504` — a write escapes the partition's declared arena range.
pub fn check_footprint(
    netlist: &Netlist,
    layout: &Layout,
    plan: &CcssPlan,
    blocks: &[Block],
    programs: Option<&[Tier1Program]>,
) -> Report {
    let (footprints, mut report) = derive_footprints(netlist, layout, plan, blocks, programs);
    if footprints.len() != plan.partitions.len() {
        return report;
    }

    // --- R0504: writes stay inside the declared range -----------------
    let total = layout.total_words() as u32;
    for (sched, fp) in footprints.iter().enumerate() {
        let declared = declared_writes(netlist, layout, plan, sched);
        if let Some(word) = fp.writes.first_uncovered(&declared) {
            let place = if word >= total {
                "outside the arena".to_string()
            } else {
                format!("owned by {}", word_owner(netlist, layout, word))
            };
            report.push(
                Diagnostic::error(
                    codes::FOOTPRINT_ESCAPE,
                    format!(
                        "partition p{sched} writes arena word {word}, {place}, outside its \
                         declared range of {} word(s)",
                        declared.len()
                    ),
                )
                .with_partition(sched),
            );
        }
    }

    // --- R0502: every arena word has a single writing partition -------
    // Write runs of all partitions sorted by start word: a run that
    // begins before the furthest end seen so far shares a word with the
    // run that reached it (runs of one partition are coalesced, so that
    // run is another partition's).
    let mut runs: Vec<(u32, u32, u32)> = footprints
        .iter()
        .enumerate()
        .flat_map(|(p, fp)| fp.writes.runs().iter().map(move |&(s, e)| (s, e, p as u32)))
        .collect();
    runs.sort_unstable();
    let mut reported: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut reach: Option<(u32, u32)> = None; // (end, partition)
    for (start, end, p) in runs {
        if let Some((far, q)) = reach {
            if start < far && reported.insert((q.min(p), q.max(p))) {
                report.push(
                    Diagnostic::error(
                        codes::FOOTPRINT_WRITE_WRITE,
                        format!(
                            "partitions p{} and p{} both write arena word {start} ({})",
                            q.min(p),
                            q.max(p),
                            word_owner(netlist, layout, start)
                        ),
                    )
                    .with_partition(q.min(p) as usize),
                );
            }
        }
        if reach.is_none_or(|(far, _)| end > far) {
            reach = Some((end, p));
        }
    }
    report
}

/// Dual-derives every partition's [`Footprint`] — the front half of
/// [`check_footprint`], reused by the dependence-schedule layer
/// ([`crate::depgraph`]) so both layers reason about the identical
/// word-level access sets. Reports `R0501` tier disagreements; returns
/// an empty footprint vector when the derivation cardinalities are
/// inconsistent.
pub(crate) fn derive_footprints(
    netlist: &Netlist,
    layout: &Layout,
    plan: &CcssPlan,
    blocks: &[Block],
    programs: Option<&[Tier1Program]>,
) -> (Vec<Footprint>, Report) {
    let mut report = Report::new();
    let np = plan.partitions.len();
    if blocks.len() != np || programs.is_some_and(|p| p.len() != np) {
        report.push(Diagnostic::error(
            codes::FOOTPRINT_TIER_MISMATCH,
            format!(
                "derivation cardinality mismatch: {np} partition(s), {} block(s), {} program(s)",
                blocks.len(),
                programs.map_or(np, <[_]>::len)
            ),
        ));
        return (Vec::new(), report);
    }

    // --- Per-partition footprints, dual-derived -----------------------
    let mut footprints: Vec<Footprint> = Vec::with_capacity(np);
    for sched in 0..np {
        let block_acc = block_access(&blocks[sched]);
        if let Some(progs) = programs {
            let elided_regs = &plan.partitions[sched].elided_regs;
            let Some(tier_acc) = tier_access(netlist, layout, elided_regs, &progs[sched]) else {
                report.push(
                    Diagnostic::error(
                        codes::FOOTPRINT_TIER_MISMATCH,
                        format!(
                            "partition p{sched}: the tier-1 program leaves commits {:?} to the \
                             engine, the partition elides {} register(s)",
                            progs[sched].unabsorbed,
                            elided_regs.len()
                        ),
                    )
                    .with_partition(sched),
                );
                return (Vec::new(), report);
            };
            for (what, a, b) in [
                ("read", &block_acc.reads, &tier_acc.reads),
                ("write", &block_acc.writes, &tier_acc.writes),
            ] {
                if let Some(word) = a.first_difference(b) {
                    report.push(
                        Diagnostic::error(
                            codes::FOOTPRINT_TIER_MISMATCH,
                            format!(
                                "partition p{sched}: {what} footprints disagree between the \
                                 generic block and the tier-1 program at arena word {word} \
                                 ({})",
                                word_owner(netlist, layout, word)
                            ),
                        )
                        .with_partition(sched),
                    );
                }
            }
            if block_acc.bank_reads != tier_acc.bank_reads {
                report.push(
                    Diagnostic::error(
                        codes::FOOTPRINT_TIER_MISMATCH,
                        format!(
                            "partition p{sched}: memory-bank read sets disagree between tiers \
                             (block {:?}, tier-1 {:?})",
                            block_acc.bank_reads, tier_acc.bank_reads
                        ),
                    )
                    .with_partition(sched),
                );
            }
            // Every fused trigger sink must be a consumer the plan
            // declares for this partition's outputs.
            let planned: BTreeSet<u32> = plan.partitions[sched]
                .outputs
                .iter()
                .flat_map(|o| o.consumers.iter().copied())
                .collect();
            for &c in tier_acc.fused_flags.difference(&planned) {
                report.push(
                    Diagnostic::error(
                        codes::FOOTPRINT_TIER_MISMATCH,
                        format!(
                            "partition p{sched}: fused trigger wakes partition p{c}, which no \
                             planned output consumer list contains"
                        ),
                    )
                    .with_partition(sched),
                );
            }
            // Every commit wake must be a reader the plan declares for
            // that register, and the register one this partition elides.
            for &(ri, c) in &tier_acc.commit_flags {
                let planned = elided_regs.contains(&(ri as usize))
                    && plan.reg_plans[ri as usize].wake_on_change.contains(&c);
                if !planned {
                    report.push(
                        Diagnostic::error(
                            codes::FOOTPRINT_TIER_MISMATCH,
                            format!(
                                "partition p{sched}: a commit wakes partition p{c} for register \
                                 plan {ri}, which the plan does not name among the readers of a \
                                 register this partition elides"
                            ),
                        )
                        .with_partition(sched),
                    );
                }
            }
        }
        let mut fp = Footprint {
            reads: block_acc.reads,
            writes: block_acc.writes,
            bank_reads: block_acc.bank_reads,
            bank_writes: BTreeSet::new(),
            flag_wakes: BTreeSet::new(),
        };
        engine_access(netlist, layout, plan, sched, &mut fp);
        fp.seal();
        footprints.push(fp);
    }
    (footprints, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(ranges: &[(u32, u32)]) -> WordSet {
        let mut w = WordSet::default();
        for &(off, words) in ranges {
            w.add(off, words);
        }
        w.seal();
        w
    }

    #[test]
    fn wordset_coalesces_and_queries() {
        let a = sealed(&[(4, 2), (6, 3), (20, 1)]);
        assert_eq!(a.runs(), &[(4, 9), (20, 21)]);
        assert_eq!(a.len(), 6);
        let b = sealed(&[(0, 4), (8, 3)]);
        assert_eq!(a.first_overlap(&b), Some(8));
        let c = sealed(&[(0, 4), (10, 10)]);
        assert_eq!(a.first_overlap(&c), None);
        assert_eq!(a.first_uncovered(&sealed(&[(0, 30)])), None);
        assert_eq!(a.first_uncovered(&sealed(&[(4, 5), (20, 1)])), None);
        assert_eq!(a.first_uncovered(&sealed(&[(4, 4), (20, 1)])), Some(8));
        assert_eq!(a.first_difference(&a.clone()), None);
        assert_eq!(sealed(&[]).first_overlap(&a), None);
    }
}
