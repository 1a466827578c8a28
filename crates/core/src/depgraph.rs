//! Whole-design static dependence analysis and dataflow (BSP) schedule
//! synthesis — the replacement for the parallel engine's per-level
//! barriers (ROADMAP item 2).
//!
//! [`DepGraph::derive`] extracts the exact inter-partition dependence
//! structure of a [`CcssPlan`] at signal granularity:
//!
//! * **same-cycle edges** — combinational producer → consumer triggers
//!   (always forward in schedule order) plus state-elision anti-edges
//!   (every reader of an elided register or memory must finish the cycle
//!   before the writing partition commits in place);
//! * **serial-phase conflicts** — which partitions touch state the
//!   end-of-cycle serial phase reads or writes (printf/stop sampling,
//!   memory-write fields and banks, non-elided register `next`/`out`
//!   slots) or have their activity flag set by it. Such a partition may
//!   never start cycle `k+1` before cycle `k`'s serial phase completes;
//! * **stop ownership** — which partitions compute stop-condition
//!   signals, so the runtime can publish an early halt bound before any
//!   speculative next-cycle work observes it.
//!
//! [`synthesize_dataflow`] turns the graph into a static
//! [`DataflowSchedule`]: a deterministic earliest-finish-time assignment
//! of partitions to workers driven by the profiled cost model, per-edge
//! wait lists against per-partition `done` cycle counters instead of
//! global level barriers, and a per-partition *exemption* bit marking
//! partitions allowed to start cycle `k+1` while cycle `k`'s tail is
//! still draining (cycle-boundary overlap). The synthesis is trusted by
//! nothing: `essent-verify`'s seventh layer (`S06xx`) re-derives every
//! ordering obligation from the bytecode footprints and proves the
//! schedule covers them, and the `race-sanitizer` feature cross-checks
//! the same claims dynamically.

use crate::plan::CcssPlan;
use essent_netlist::{Netlist, SignalDef};
use std::collections::{BTreeMap, BTreeSet};

/// The inter-partition dependence graph of one plan, in scheduled
/// partition indices.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Same-cycle predecessors of each partition: partitions that must
    /// finish the current cycle before this one evaluates. Sorted,
    /// deduplicated, and always strictly smaller than the node (the
    /// schedule order is a topological order of these edges).
    pub preds: Vec<Vec<u32>>,
    /// Transpose of [`DepGraph::preds`].
    pub succs: Vec<Vec<u32>>,
    /// Partition conflicts with the end-of-cycle serial phase and must
    /// observe `serial_done >= k-1` before evaluating cycle `k`.
    pub serial_conflict: Vec<bool>,
    /// Scheduled partitions computing a stop-condition signal. Empty
    /// when a stop condition is not a computed signal — in that case
    /// every partition is marked serial-conflicting, because no probe
    /// can bound speculation ahead of the halt check.
    pub stop_owners: Vec<u32>,
}

impl DepGraph {
    /// Derives the dependence graph from the plan and the netlist.
    pub fn derive(netlist: &Netlist, plan: &CcssPlan) -> DepGraph {
        let np = plan.partitions.len();
        let mut pred_sets: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); np];
        for (sched, part) in plan.partitions.iter().enumerate() {
            for o in &part.outputs {
                for &c in &o.consumers {
                    if (c as usize) > sched {
                        pred_sets[c as usize].insert(sched as u32);
                    }
                }
            }
            // Elision anti-edges: readers run before the in-place commit.
            for &ri in &part.elided_regs {
                for &reader in &plan.reg_plans[ri].wake_on_change {
                    if (reader as usize) != sched {
                        pred_sets[sched].insert(reader);
                    }
                }
            }
            for &wi in &part.elided_writes {
                for &reader in &plan.mem_write_plans[wi].wake_on_change {
                    if (reader as usize) != sched {
                        pred_sets[sched].insert(reader);
                    }
                }
            }
        }

        // --- Serial-phase footprint at signal granularity -------------
        let nsig = netlist.signal_count();
        let mut serial_reads = vec![false; nsig];
        let mut serial_writes = vec![false; nsig];
        let mut serial_wakes = vec![false; np];
        for p in netlist.printfs() {
            serial_reads[p.en.index()] = true;
            for &a in &p.args {
                serial_reads[a.index()] = true;
            }
        }
        let mut stop_owner_set: BTreeSet<u32> = BTreeSet::new();
        let mut exempt_allowed = true;
        for st in netlist.stops() {
            serial_reads[st.en.index()] = true;
            if matches!(
                netlist.signal(st.en).def,
                SignalDef::Op(_) | SignalDef::MemRead { .. }
            ) {
                stop_owner_set.insert(plan.sched_of_signal[st.en.index()]);
            } else {
                // The stop condition is an input, constant, or register
                // output: no partition evaluation recomputes it, so no
                // probe can publish the halt before speculation starts.
                exempt_allowed = false;
            }
        }
        let mut written_banks = vec![false; netlist.mems().len()];
        for (wi, wp) in plan.mem_write_plans.iter().enumerate() {
            if wp.elided {
                // In-place writes are partition accesses, not serial ones
                // (the parallel plan never elides memory writes).
                let _ = wi;
                continue;
            }
            written_banks[wp.mem.index()] = true;
            let port = &netlist.mems()[wp.mem.index()].writers[wp.writer];
            for f in [port.addr, port.en, port.mask, port.data] {
                serial_reads[f.index()] = true;
            }
            for &c in &wp.wake_on_change {
                serial_wakes[c as usize] = true;
            }
        }
        for (ri, rp) in plan.reg_plans.iter().enumerate() {
            if rp.elided {
                continue;
            }
            let reg = &netlist.regs()[ri];
            serial_reads[reg.next.index()] = true;
            serial_writes[reg.out.index()] = true;
            for &c in &rp.wake_on_change {
                serial_wakes[c as usize] = true;
            }
        }

        // --- Per-partition serial conflict ----------------------------
        let mut serial_conflict = vec![false; np];
        for (sched, part) in plan.partitions.iter().enumerate() {
            let mut conflict = !exempt_allowed || serial_wakes[sched];
            for &m in &part.members {
                // Writing a slot the serial phase reads, or one it
                // writes, is a conflict either way.
                conflict = conflict || serial_reads[m.index()] || serial_writes[m.index()];
                for dep in netlist.deps(m) {
                    conflict = conflict || serial_writes[dep.index()];
                }
                if let SignalDef::MemRead { mem, .. } = netlist.signal(m).def {
                    conflict = conflict || written_banks[mem.index()];
                }
            }
            for &ri in &part.elided_regs {
                let reg = &netlist.regs()[ri];
                // The in-place commit reads `next` (a member, covered
                // above) and reads + writes `out`.
                conflict =
                    conflict || serial_reads[reg.out.index()] || serial_writes[reg.out.index()];
            }
            serial_conflict[sched] = conflict;
        }

        let mut preds: Vec<Vec<u32>> = pred_sets
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); np];
        for (p, ps) in preds.iter().enumerate() {
            for &q in ps {
                succs[q as usize].push(p as u32);
            }
        }
        for s in &mut succs {
            s.sort_unstable();
        }
        for p in &mut preds {
            p.sort_unstable();
        }
        DepGraph {
            preds,
            succs,
            serial_conflict,
            stop_owners: stop_owner_set.into_iter().collect(),
        }
    }

    /// Number of same-cycle dependence edges.
    pub fn edge_count(&self) -> usize {
        self.preds.iter().map(Vec::len).sum()
    }
}

/// The static dataflow (BSP) schedule the parallel engine runs.
///
/// Per cycle `k` (1-based within a run), worker `t` walks
/// `workers[t]` in order; before evaluating partition `p` it waits for
/// `done[q] >= k` for every `q` in `waits_same[p]`, then — if `p` is
/// *exempt* — for `serial_done >= k-2` and `done[q] >= k-1` for every
/// `q` in `waits_prev[p]`, or otherwise for `serial_done >= k-1`. After
/// the eval-or-skip it publishes `done[p] = k`. The main worker closes
/// the cycle by waiting on every worker's tail and running the serial
/// phase, then publishes `serial_done = k`.
#[derive(Debug, Clone)]
pub struct DataflowSchedule {
    /// Per-worker partition lists, each ascending in schedule order (the
    /// `done`-counter prefix argument and deadlock freedom rely on it).
    pub workers: Vec<Vec<u32>>,
    /// Partition → worker index.
    pub worker_of: Vec<u32>,
    /// Partition → position within its worker's list.
    pub pos_of: Vec<u32>,
    /// Same-cycle wait list (targets must reach the current cycle).
    /// Reduced: same-worker predecessors are covered by list order, and
    /// per foreign worker only the latest-positioned predecessor is kept
    /// (`done` counters advance along each worker's list).
    pub waits_same: Vec<Vec<u32>>,
    /// Previous-cycle wait list (targets must reach `k-1`), populated
    /// only for exempt partitions: their same-cycle successors (whose
    /// cycle-`k-1` reads and flag claims the overwrite must not outrun)
    /// plus the stop owners (so a published halt is visible first).
    pub waits_prev: Vec<Vec<u32>>,
    /// Partition may start cycle `k` before cycle `k-1`'s serial phase
    /// completes (bounded to one cycle of skew by `serial_done >= k-2`).
    pub exempt: Vec<bool>,
    /// Mirror of [`DepGraph::stop_owners`] for the runtime's probes.
    pub stop_owners: Vec<u32>,
}

impl DataflowSchedule {
    /// Number of workers the schedule was synthesized for.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Number of partitions allowed to overlap the previous cycle.
    pub fn exempt_count(&self) -> usize {
        self.exempt.iter().filter(|&&e| e).count()
    }
}

/// Estimated cross-worker handoff cost (counter publish + spin pickup),
/// in the cost model's ~nanosecond units, biasing the placement toward
/// keeping an edge's endpoints on one worker.
const HANDOFF: u64 = 200;

/// Designs whose whole per-cycle work is below this are not worth any
/// cross-worker signaling (single-digit microseconds): the synthesis
/// collapses them to one worker.
const SERIAL_FLOOR: u64 = 3000;

/// Synthesizes the static dataflow schedule: earliest-finish-time list
/// scheduling over the dependence graph in schedule order, using the
/// per-partition `costs` (the parallel engine's [cost model]; pass
/// step-count costs when no profile exists). Deterministic: ties prefer
/// the heaviest predecessor's worker, then the lowest worker index.
///
/// [cost model]: CcssPlan
pub fn synthesize_dataflow(
    plan: &CcssPlan,
    graph: &DepGraph,
    costs: &[u64],
    threads: usize,
) -> DataflowSchedule {
    let np = plan.partitions.len();
    let total: u64 = (0..np)
        .map(|p| costs.get(p).copied().unwrap_or(1).max(1))
        .sum();
    let nworkers = if threads <= 1 || total < SERIAL_FLOOR {
        1
    } else {
        threads.min(np.max(1))
    };

    // --- Earliest-finish-time placement, schedule order ---------------
    let mut worker_of = vec![0u32; np];
    let mut finish = vec![0u64; np];
    let mut avail = vec![0u64; nworkers];
    for p in 0..np {
        let cost = costs.get(p).copied().unwrap_or(1).max(1);
        let pref = graph.preds[p]
            .iter()
            .max_by_key(|&&q| {
                (
                    costs.get(q as usize).copied().unwrap_or(1),
                    std::cmp::Reverse(q),
                )
            })
            .map(|&q| worker_of[q as usize] as usize);
        let mut best: Option<(u64, bool, usize)> = None;
        for (w, &w_avail) in avail.iter().enumerate() {
            let mut start = w_avail;
            for &q in &graph.preds[p] {
                let f = finish[q as usize]
                    + if worker_of[q as usize] as usize == w {
                        0
                    } else {
                        HANDOFF
                    };
                start = start.max(f);
            }
            let key = (start, Some(w) != pref, w);
            if best.is_none_or(|b| (key.0, key.1, key.2) < b) {
                best = Some(key);
            }
        }
        let (start, _, w) = best.expect("nworkers >= 1");
        worker_of[p] = w as u32;
        finish[p] = start + cost;
        avail[w] = finish[p];
    }

    let mut workers: Vec<Vec<u32>> = vec![Vec::new(); nworkers];
    for p in 0..np {
        // Ascending schedule order per worker, by construction.
        workers[worker_of[p] as usize].push(p as u32);
    }
    let mut pos_of = vec![0u32; np];
    for list in &workers {
        for (i, &p) in list.iter().enumerate() {
            pos_of[p as usize] = i as u32;
        }
    }

    // --- Wait lists, reduced ------------------------------------------
    // Same-worker targets are covered by list order (same cycle) or by
    // whole-cycle-before-next-cycle sequencing (previous cycle); per
    // foreign worker only the latest position is needed, because a
    // worker publishes `done` in list order.
    let reduce = |targets: &mut dyn Iterator<Item = u32>, me: usize| -> Vec<u32> {
        let mut best: BTreeMap<u32, u32> = BTreeMap::new();
        for q in targets {
            let w = worker_of[q as usize];
            if w == worker_of[me] {
                continue;
            }
            let cur = best.entry(w).or_insert(q);
            if pos_of[q as usize] > pos_of[*cur as usize] {
                *cur = q;
            }
        }
        let mut out: Vec<u32> = best.into_values().collect();
        out.sort_unstable();
        out
    };

    let exempt: Vec<bool> = (0..np)
        .map(|p| nworkers > 1 && !graph.serial_conflict[p])
        .collect();
    let mut waits_same = Vec::with_capacity(np);
    let mut waits_prev = Vec::with_capacity(np);
    for (p, &ex) in exempt.iter().enumerate() {
        waits_same.push(reduce(&mut graph.preds[p].iter().copied(), p));
        if ex {
            waits_prev.push(reduce(
                &mut graph.succs[p]
                    .iter()
                    .copied()
                    .chain(graph.stop_owners.iter().copied()),
                p,
            ));
        } else {
            waits_prev.push(Vec::new());
        }
    }

    DataflowSchedule {
        workers,
        worker_of,
        pos_of,
        waits_same,
        waits_prev,
        exempt,
        stop_owners: graph.stop_owners.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essent_netlist::Netlist;

    fn netlist_of(src: &str) -> Netlist {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        Netlist::from_circuit(&lowered).unwrap()
    }

    const COUNTER: &str = "circuit C :\n  module C :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    q <= r\n";

    #[test]
    fn edges_are_forward_and_deduped() {
        let n = netlist_of(COUNTER);
        let plan = CcssPlan::build(&n, 1);
        let g = DepGraph::derive(&n, &plan);
        for (p, preds) in g.preds.iter().enumerate() {
            for &q in preds {
                assert!((q as usize) < p, "edge {q} -> {p} must be forward");
            }
            let set: BTreeSet<u32> = preds.iter().copied().collect();
            assert_eq!(set.len(), preds.len(), "no duplicate edges");
        }
        assert_eq!(g.edge_count(), g.succs.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn stop_conditions_pin_their_owners_serial() {
        let src = "circuit S :\n  module S :\n    input clock : Clock\n    input reset : UInt<1>\n    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))\n    r <= tail(add(r, UInt<4>(1)), 1)\n    stop(clock, eq(r, UInt<4>(5)), 9)\n";
        let n = netlist_of(src);
        let plan = CcssPlan::build(&n, 1);
        let g = DepGraph::derive(&n, &plan);
        for &o in &g.stop_owners {
            assert!(
                g.serial_conflict[o as usize],
                "stop owners write serial-read slots and must be serial-conflicting"
            );
        }
    }

    #[test]
    fn synthesis_covers_every_partition_exactly_once() {
        let n = netlist_of(COUNTER);
        let plan = CcssPlan::build(&n, 1);
        let g = DepGraph::derive(&n, &plan);
        let costs = vec![10_000u64; plan.partitions.len()];
        for threads in [1, 2, 4] {
            let ds = synthesize_dataflow(&plan, &g, &costs, threads);
            let mut seen = vec![false; plan.partitions.len()];
            for (w, list) in ds.workers.iter().enumerate() {
                let mut last = None;
                for &p in list {
                    assert!(!seen[p as usize], "partition p{p} scheduled twice");
                    seen[p as usize] = true;
                    assert_eq!(ds.worker_of[p as usize] as usize, w);
                    assert!(last.is_none_or(|l| l < p), "worker list must ascend");
                    last = Some(p);
                }
            }
            assert!(seen.iter().all(|&s| s), "exact cover");
        }
    }

    #[test]
    fn single_worker_schedules_have_no_waits_or_overlap() {
        let n = netlist_of(COUNTER);
        let plan = CcssPlan::build(&n, 1);
        let g = DepGraph::derive(&n, &plan);
        let costs = vec![1u64; plan.partitions.len()];
        // Tiny total cost collapses to one worker even at 4 threads.
        let ds = synthesize_dataflow(&plan, &g, &costs, 4);
        assert_eq!(ds.worker_count(), 1);
        assert!(ds.waits_same.iter().all(Vec::is_empty));
        assert!(ds.waits_prev.iter().all(Vec::is_empty));
        assert_eq!(ds.exempt_count(), 0);
    }
}
