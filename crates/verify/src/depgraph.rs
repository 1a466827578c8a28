//! Layer seven: **dependence / dataflow-schedule** verification — the
//! proof behind the barrier-free BSP runtime's `unsafe` blocks
//! (`S0601`–`S0605`).
//!
//! The parallel engine synchronizes through a statically synthesized
//! schedule, not barriers ([`DataflowSchedule`]): a
//! compile-time partition→worker assignment, per-edge waits on
//! per-partition `done` cycle counters, and cycle-boundary overlap for
//! partitions proven independent of the end-of-cycle serial phase. This
//! layer re-derives every obligation **from the word-level footprints**
//! ([`crate::footprint`]) — never from the runtime's own
//! `DepGraph::derive` edge set — so a bug in the runtime's dependence
//! analysis and a bug in the proof cannot cancel out:
//!
//! * `S0605` — the worker lists must exactly cover the partitions, in
//!   ascending schedule order, with consistent index maps and in-range
//!   wait targets (everything later checks rides on this shape);
//! * `S0603` — the same-cycle wait graph (wait edges plus per-worker
//!   list order) must be acyclic, or the runtime deadlocks;
//! * `S0601` — every cross-partition footprint overlap (word-level
//!   write/read, read/write, write/write, memory banks) and every
//!   trigger-flag wake pair must be *covered*: ordered, in schedule
//!   direction, by the transitive closure of the wait graph;
//! * `S0602` — a partition exempted from the serial-phase barrier must
//!   be footprint-disjoint from everything the serial phase touches
//!   (non-elided register commits, memory-bank writes, stop/printf
//!   enable and argument reads, state wake flags), and every stop must
//!   be attributable to a probing owner partition;
//! * `S0604` — an exempt partition starting cycle `k+1` must be unable
//!   to outrun any conflicting partition still in cycle `k`: every
//!   conflicting partner (and every stop owner) must be provably done
//!   with cycle `k` first, through the partition's own worker list, its
//!   `waits_prev`/`waits_same` targets, and their wait-graph ancestors.
//!
//! The `race-sanitizer` cargo feature of `essent-sim` is the dynamic
//! differential oracle: the shadow memory tags carry the cycle epoch, and any access pair the static edges do not order
//! panics at runtime.

use crate::footprint::{derive_footprints, Footprint, WordSet};
use essent_core::depgraph::DataflowSchedule;
use essent_core::diag::{codes, Diagnostic, Report};
use essent_core::plan::CcssPlan;
use essent_netlist::{Netlist, SignalDef, SignalId};
use essent_sim::compile::{Block, Layout};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Bit matrix (reachability closure)
// ---------------------------------------------------------------------

/// A dense `np × np` boolean matrix backed by `u64` rows.
struct BitMatrix {
    words: usize,
    rows: Vec<u64>,
}

impl BitMatrix {
    fn new(np: usize) -> BitMatrix {
        let words = np.div_ceil(64);
        BitMatrix {
            words,
            rows: vec![0; words * np],
        }
    }

    fn set(&mut self, r: usize, c: usize) {
        self.rows[r * self.words + c / 64] |= 1 << (c % 64);
    }

    fn get(&self, r: usize, c: usize) -> bool {
        self.rows[r * self.words + c / 64] & (1 << (c % 64)) != 0
    }

    /// `rows[dst] |= rows[src]`.
    fn or_row(&mut self, dst: usize, src: usize) {
        let (d, s) = (dst * self.words, src * self.words);
        for i in 0..self.words {
            self.rows[d + i] |= self.rows[s + i];
        }
    }
}

// ---------------------------------------------------------------------
// The wait graph
// ---------------------------------------------------------------------

/// The same-cycle ordering graph `H` the schedule actually enforces:
/// an edge `u → v` means "within any one cycle, `u` completes before
/// `v` starts" — from an explicit wait (`u ∈ waits_same[v]`) or from
/// worker-list order (`u` immediately precedes `v` on one worker's
/// list; each worker is a sequential thread).
fn wait_graph(ds: &DataflowSchedule, np: usize) -> Vec<Vec<u32>> {
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); np];
    for (p, waits) in ds.waits_same.iter().enumerate() {
        for &q in waits {
            succs[q as usize].push(p as u32);
        }
    }
    for list in &ds.workers {
        for w in list.windows(2) {
            succs[w[0] as usize].push(w[1]);
        }
    }
    succs
}

/// Kahn's algorithm over `succs`; `Some(topo)` when acyclic, `None`
/// (with one residual member) otherwise.
fn toposort(succs: &[Vec<u32>]) -> Result<Vec<u32>, u32> {
    let np = succs.len();
    let mut indeg = vec![0u32; np];
    for ss in succs {
        for &s in ss {
            indeg[s as usize] += 1;
        }
    }
    let mut queue: Vec<u32> = (0..np as u32).filter(|&p| indeg[p as usize] == 0).collect();
    let mut topo = Vec::with_capacity(np);
    while let Some(u) = queue.pop() {
        topo.push(u);
        for &v in &succs[u as usize] {
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                queue.push(v);
            }
        }
    }
    if topo.len() == np {
        Ok(topo)
    } else {
        Err((0..np as u32).find(|&p| indeg[p as usize] > 0).unwrap_or(0))
    }
}

// ---------------------------------------------------------------------
// Conflict discovery (from footprints alone)
// ---------------------------------------------------------------------

/// One discovered cross-partition conflict, `lo < hi` by schedule index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Conflict {
    lo: u32,
    hi: u32,
    /// Both sides write (never coverable by ordering alone).
    write_write: bool,
}

/// Sweeps every partition's arena runs at once and collects each
/// cross-partition overlapping pair where at least one side writes,
/// then adds memory-bank conflicts and trigger-flag wake pairs. This is
/// the full obligation set: any two partitions in one of these pairs
/// must never run unordered within a cycle.
fn discover_conflicts(footprints: &[Footprint]) -> BTreeSet<Conflict> {
    let mut pairs: BTreeSet<Conflict> = BTreeSet::new();
    let mut insert = |a: u32, b: u32, ww: bool| {
        if a != b {
            pairs.insert(Conflict {
                lo: a.min(b),
                hi: a.max(b),
                write_write: ww,
            });
        }
    };

    // Arena words: interval sweep over (start, end, partition, is_write).
    let mut events: Vec<(u32, u32, u32, bool)> = Vec::new();
    for (p, fp) in footprints.iter().enumerate() {
        for &(s, e) in fp.writes.runs() {
            events.push((s, e, p as u32, true));
        }
        for &(s, e) in fp.reads.runs() {
            events.push((s, e, p as u32, false));
        }
    }
    events.sort_unstable();
    let mut active: Vec<(u32, u32, u32, bool)> = Vec::new();
    for ev in events {
        active.retain(|a| a.1 > ev.0);
        for a in &active {
            if a.2 != ev.2 && (a.3 || ev.3) {
                insert(a.2, ev.2, a.3 && ev.3);
            }
        }
        active.push(ev);
    }

    // Memory banks.
    let mut bank_writers: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    let mut bank_readers: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for (p, fp) in footprints.iter().enumerate() {
        for &b in &fp.bank_writes {
            bank_writers.entry(b).or_default().push(p as u32);
        }
        for &b in &fp.bank_reads {
            bank_readers.entry(b).or_default().push(p as u32);
        }
    }
    for (bank, writers) in &bank_writers {
        for (i, &w) in writers.iter().enumerate() {
            for &w2 in &writers[i + 1..] {
                insert(w, w2, true);
            }
            for &r in bank_readers.get(bank).map_or(&[][..], |v| v) {
                insert(w, r, false);
            }
        }
    }

    // Trigger-flag wakes: the store by the waker and the claim (swap)
    // by the owner must be cycle-ordered. Stores are atomic, so these
    // never become write/write word conflicts — but they must still be
    // covered by a wait edge in schedule direction.
    for (p, fp) in footprints.iter().enumerate() {
        for &h in &fp.flag_wakes {
            insert(p as u32, h, false);
        }
    }
    pairs
}

// ---------------------------------------------------------------------
// The serial-phase footprint
// ---------------------------------------------------------------------

/// Everything the end-of-cycle serial phase may touch, word-granular,
/// derived from the netlist, layout, and plan (never from the runtime):
/// printf/stop enables and arguments, non-elided memory-write port
/// inputs and their banks, non-elided register commits, and the wake
/// flags those commits may store.
struct SerialFootprint {
    reads: WordSet,
    writes: WordSet,
    bank_writes: BTreeSet<u32>,
    /// Partitions whose activity flag the serial phase may store.
    wakes: BTreeSet<u32>,
}

fn serial_footprint(netlist: &Netlist, layout: &Layout, plan: &CcssPlan) -> SerialFootprint {
    let mut fp = SerialFootprint {
        reads: WordSet::default(),
        writes: WordSet::default(),
        bank_writes: BTreeSet::new(),
        wakes: BTreeSet::new(),
    };
    let read = |fp: &mut SerialFootprint, sig: SignalId| {
        fp.reads
            .add(layout.offset(sig) as u32, layout.words(sig) as u32);
    };
    for pf in netlist.printfs() {
        read(&mut fp, pf.en);
        for &a in &pf.args {
            read(&mut fp, a);
        }
    }
    for st in netlist.stops() {
        read(&mut fp, st.en);
    }
    for wp in &plan.mem_write_plans {
        if wp.elided {
            continue;
        }
        let port = &netlist.mems()[wp.mem.index()].writers[wp.writer];
        for sig in [port.addr, port.en, port.mask, port.data] {
            read(&mut fp, sig);
        }
        fp.bank_writes.insert(wp.mem.index() as u32);
        fp.wakes.extend(wp.wake_on_change.iter().copied());
    }
    for rp in &plan.reg_plans {
        if rp.elided {
            continue;
        }
        let reg = &netlist.regs()[rp.reg.index()];
        read(&mut fp, reg.next);
        fp.writes
            .add(layout.offset(reg.out) as u32, layout.words(reg.out) as u32);
        fp.wakes.extend(rp.wake_on_change.iter().copied());
    }
    fp.reads.seal();
    fp.writes.seal();
    fp
}

// ---------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------

/// Verifies a synthesized [`DataflowSchedule`] against obligations
/// re-derived from the word-level footprints (`S0601`–`S0605`; see the
/// module docs for the per-code statements). `blocks` must be the
/// bytecode of `plan`'s partitions — the same artifacts the footprint
/// layer audits — so both layers reason about identical access sets.
pub fn check_depgraph(
    netlist: &Netlist,
    layout: &Layout,
    plan: &CcssPlan,
    blocks: &[Block],
    ds: &DataflowSchedule,
) -> Report {
    let np = plan.partitions.len();
    // R0501 tier findings are the footprint layer's to report; here the
    // block-derived footprints are the authority.
    let (footprints, derive_report) = derive_footprints(netlist, layout, plan, blocks, None);
    if footprints.len() != np {
        return derive_report;
    }
    let mut report = Report::new();

    // --- S0605: structural cover -------------------------------------
    let mut structural_ok = true;
    let fail = |report: &mut Report, msg: String| {
        report.push(Diagnostic::error(codes::WORKER_COVER, msg));
    };
    for (what, len) in [
        ("worker_of", ds.worker_of.len()),
        ("pos_of", ds.pos_of.len()),
        ("waits_same", ds.waits_same.len()),
        ("waits_prev", ds.waits_prev.len()),
        ("exempt", ds.exempt.len()),
    ] {
        if len != np {
            fail(
                &mut report,
                format!("schedule table `{what}` has {len} entries for {np} partition(s)"),
            );
            structural_ok = false;
        }
    }
    if structural_ok {
        let mut seen = vec![false; np];
        for (w, list) in ds.workers.iter().enumerate() {
            let mut prev: Option<u32> = None;
            for (pos, &p) in list.iter().enumerate() {
                if p as usize >= np {
                    fail(
                        &mut report,
                        format!("worker {w} schedules partition p{p}, outside the plan"),
                    );
                    structural_ok = false;
                    continue;
                }
                if seen[p as usize] {
                    fail(
                        &mut report,
                        format!("partition p{p} appears on more than one worker list"),
                    );
                    structural_ok = false;
                }
                seen[p as usize] = true;
                if prev.is_some_and(|q| q >= p) {
                    fail(
                        &mut report,
                        format!(
                            "worker {w}'s list is not ascending in schedule order at p{p} \
                             (the done-counter prefix argument relies on it)"
                        ),
                    );
                    structural_ok = false;
                }
                prev = Some(p);
                if ds.worker_of[p as usize] as usize != w || ds.pos_of[p as usize] as usize != pos {
                    fail(
                        &mut report,
                        format!(
                            "partition p{p}: worker_of/pos_of say worker {} position {}, but \
                             the lists place it at worker {w} position {pos}",
                            ds.worker_of[p as usize], ds.pos_of[p as usize]
                        ),
                    );
                    structural_ok = false;
                }
            }
        }
        for (p, s) in seen.iter().enumerate() {
            if !s {
                fail(&mut report, format!("partition p{p} is on no worker list"));
                structural_ok = false;
            }
        }
        for (what, lists) in [
            ("waits_same", &ds.waits_same),
            ("waits_prev", &ds.waits_prev),
        ] {
            for (p, waits) in lists.iter().enumerate() {
                for &q in waits {
                    if q as usize >= np {
                        fail(
                            &mut report,
                            format!("partition p{p}: {what} targets p{q}, outside the plan"),
                        );
                        structural_ok = false;
                    }
                }
            }
        }
        for &o in &ds.stop_owners {
            if o as usize >= np {
                fail(&mut report, format!("stop owner p{o} is outside the plan"));
                structural_ok = false;
            }
        }
    }
    if !structural_ok {
        return report;
    }

    // --- S0603: the wait graph must be acyclic -------------------------
    let succs = wait_graph(ds, np);
    let topo = match toposort(&succs) {
        Ok(topo) => topo,
        Err(member) => {
            report.push(
                Diagnostic::error(
                    codes::SCHEDULE_CYCLE,
                    format!(
                        "the same-cycle wait graph (wait edges + worker-list order) has a \
                         cycle through partition p{member}: the dataflow runtime would \
                         deadlock"
                    ),
                )
                .with_partition(member as usize),
            );
            // No topological order exists; the coverage proofs below are
            // meaningless over a cyclic graph.
            return report;
        }
    };

    // Transitive closures of the wait graph: `reach` (descendants,
    // reflexive) answers "is u ordered before v within a cycle";
    // `ancestors` (reflexive) answers "whose completion does waiting on
    // u transitively imply".
    let mut reach = BitMatrix::new(np);
    for &u in topo.iter().rev() {
        reach.set(u as usize, u as usize);
        let ss = succs[u as usize].clone();
        for v in ss {
            reach.or_row(u as usize, v as usize);
        }
    }
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); np];
    for (u, ss) in succs.iter().enumerate() {
        for &v in ss {
            preds[v as usize].push(u as u32);
        }
    }
    let mut ancestors = BitMatrix::new(np);
    for &u in &topo {
        ancestors.set(u as usize, u as usize);
        let ps = preds[u as usize].clone();
        for v in ps {
            ancestors.or_row(u as usize, v as usize);
        }
    }

    // --- S0601: every conflict covered, in schedule direction ----------
    let conflicts = discover_conflicts(&footprints);
    for c in &conflicts {
        let (lo, hi) = (c.lo as usize, c.hi as usize);
        if c.write_write {
            report.push(
                Diagnostic::error(
                    codes::DEP_EDGE_UNCOVERED,
                    format!(
                        "partitions p{lo} and p{hi} write overlapping arena words or the \
                         same memory bank: no wait edge can make concurrent writers safe"
                    ),
                )
                .with_partition(lo),
            );
        } else if !reach.get(lo, hi) {
            report.push(
                Diagnostic::error(
                    codes::DEP_EDGE_UNCOVERED,
                    format!(
                        "partitions p{lo} and p{hi} have overlapping footprints (a write \
                         meeting a read, or a trigger-flag wake) but no chain of wait \
                         edges orders p{lo} before p{hi} within a cycle"
                    ),
                )
                .with_partition(lo),
            );
        }
    }

    // --- S0602: exemptions are honest ----------------------------------
    let serial = serial_footprint(netlist, layout, plan);
    let any_exempt = ds.exempt.iter().any(|&e| e);
    if any_exempt {
        // Every stop must be attributable to an owner partition that
        // probes it; an unattributable stop forbids all exemption.
        let mut derived_owners: BTreeSet<u32> = BTreeSet::new();
        for st in netlist.stops() {
            match netlist.signal(st.en).def {
                SignalDef::Op(_) | SignalDef::MemRead { .. } => {
                    derived_owners.insert(plan.sched_of_signal[st.en.index()]);
                }
                _ => {
                    report.push(
                        Diagnostic::error(
                            codes::FABRICATED_OVERLAP,
                            format!(
                                "stop `{}` has an enable no partition computes: its halt \
                                 cannot be probed, so no partition may be exempt from \
                                 the serial-phase barrier",
                                st.name
                            ),
                        )
                        .with_signal(netlist.signal(st.en).name.clone()),
                    );
                }
            }
        }
        for &o in &derived_owners {
            if !ds.stop_owners.contains(&o) {
                report.push(
                    Diagnostic::error(
                        codes::FABRICATED_OVERLAP,
                        format!(
                            "partition p{o} computes a stop enable but is missing from \
                             the schedule's stop-owner list: a halt it raises would be \
                             invisible to overlapping partitions"
                        ),
                    )
                    .with_partition(o as usize),
                );
            }
        }
    }
    let mut exempt_sound = vec![false; np];
    for (p, fp) in footprints.iter().enumerate() {
        if !ds.exempt[p] {
            continue;
        }
        let mut sound = true;
        let overlap = |report: &mut Report, sound: &mut bool, what: &str| {
            report.push(
                Diagnostic::error(
                    codes::FABRICATED_OVERLAP,
                    format!(
                        "partition p{p} is exempt from the serial-phase barrier but {what}: \
                         its cycle-boundary overlap would race the serial phase"
                    ),
                )
                .with_partition(p),
            );
            *sound = false;
        };
        if fp.writes.first_overlap(&serial.reads).is_some()
            || fp.writes.first_overlap(&serial.writes).is_some()
        {
            overlap(
                &mut report,
                &mut sound,
                "writes arena words the serial phase reads or writes",
            );
        }
        if fp.reads.first_overlap(&serial.writes).is_some() {
            overlap(
                &mut report,
                &mut sound,
                "reads arena words the serial phase writes",
            );
        }
        if !fp.bank_reads.is_disjoint(&serial.bank_writes)
            || !fp.bank_writes.is_disjoint(&serial.bank_writes)
        {
            overlap(
                &mut report,
                &mut sound,
                "touches a memory bank the serial phase writes",
            );
        }
        if serial.wakes.contains(&(p as u32)) {
            overlap(
                &mut report,
                &mut sound,
                "has an activity flag the serial phase stores",
            );
        }
        exempt_sound[p] = sound;
    }

    // --- S0604: cross-cycle overlap stays behind its conflicts ---------
    // Conflict partners per partition, from the discovered set.
    let mut partners: Vec<Vec<u32>> = vec![Vec::new(); np];
    for c in &conflicts {
        partners[c.lo as usize].push(c.hi);
        partners[c.hi as usize].push(c.lo);
    }
    for p in 0..np {
        if !ds.exempt[p] || !exempt_sound[p] {
            // Unsound exemptions already failed S0602; their cross-cycle
            // story is moot.
            continue;
        }
        // Partitions provably done with cycle `k` when `p` starts cycle
        // `k+1`: everything on `p`'s own worker (a sequential thread
        // finishes its whole cycle-`k` list first), the `waits_prev`
        // targets (waited to `k` directly), the `waits_same` targets
        // (waited to `k+1`, hence past `k`), and every wait-graph
        // ancestor of any of those (`done` is published in-order along
        // the graph).
        let words = ancestors.words;
        let mut ordered_prev = vec![0u64; words];
        let add = |ordered_prev: &mut Vec<u64>, seed: u32| {
            let row = seed as usize * words;
            for (dst, src) in ordered_prev
                .iter_mut()
                .zip(&ancestors.rows[row..row + words])
            {
                *dst |= *src;
            }
        };
        for &q in &ds.workers[ds.worker_of[p] as usize] {
            add(&mut ordered_prev, q);
        }
        for &q in ds.waits_prev[p].iter().chain(&ds.waits_same[p]) {
            add(&mut ordered_prev, q);
        }
        let covered =
            |ordered_prev: &Vec<u64>, q: u32| ordered_prev[q as usize / 64] & (1 << (q % 64)) != 0;
        for &q in &partners[p] {
            if !covered(&ordered_prev, q) {
                report.push(
                    Diagnostic::error(
                        codes::MISSING_CROSS_CYCLE_COVER,
                        format!(
                            "exempt partition p{p} may start cycle k+1 while conflicting \
                             partition p{q} is still in cycle k: no waits_prev/waits_same \
                             chain guarantees p{q} finished first"
                        ),
                    )
                    .with_partition(p),
                );
            }
        }
        for &o in &ds.stop_owners {
            if !covered(&ordered_prev, o) {
                report.push(
                    Diagnostic::error(
                        codes::MISSING_CROSS_CYCLE_COVER,
                        format!(
                            "exempt partition p{p} may start cycle k+1 before stop owner \
                             p{o} finishes cycle k: a halt could be published after p{p} \
                             already speculated into the halted cycle"
                        ),
                    )
                    .with_partition(p),
                );
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_matrix_or_rows() {
        let mut m = BitMatrix::new(130);
        m.set(0, 129);
        m.set(1, 3);
        m.or_row(1, 0);
        assert!(m.get(1, 129) && m.get(1, 3) && !m.get(0, 3));
    }

    #[test]
    fn toposort_finds_cycles() {
        assert!(toposort(&[vec![1], vec![2], vec![]]).is_ok());
        assert!(toposort(&[vec![1], vec![2], vec![0]]).is_err());
    }
}
