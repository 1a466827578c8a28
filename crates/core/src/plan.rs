//! The CCSS execution plan: everything a generated simulator needs to run
//! the conditional, coarsened, singular, static schedule of paper
//! Section III.
//!
//! Built from a netlist plus an acyclic partitioning, the plan contains:
//!
//! * the **static schedule** — partitions in topological order (with the
//!   extra ordering edges required by state-update elision);
//! * per-partition **member evaluation order** (computed signals only, in
//!   dependency order);
//! * per-partition **output triggers** — for each member read by another
//!   partition, the consumer partitions to wake when its value changes
//!   (the push-direction activation of Figure 1);
//! * the **state-element update elision** analysis of Section III-B1:
//!   a register (or memory write port) is updated *in place inside its
//!   partition* when no path leads from the writing partition back to any
//!   reader, with ordering edges pinning readers before the writer; the
//!   writing partition then immediately wakes next-cycle consumers.
//!   Non-elidable state falls back to an end-of-cycle commit with change
//!   detection;
//! * per-input **wake lists** so the main eval function can trigger
//!   activity when the testbench changes an external input.
//!
//! # The extended graph
//!
//! Memory writes are *actions*, not signals, so the plan extends the
//! signal DAG with one node per write port, depending on the port's
//! `addr`/`en`/`mask`/`data` signals. The partitioner runs over this
//! extended graph, which guarantees the schedule orders every write after
//! the partitions computing its fields.

use crate::dag::DagView;
use crate::diag::{codes, Diagnostic, Report};
use crate::legality::Marks;
use crate::partition::{partition, Partitioning};
use essent_netlist::{MemId, Netlist, RegId, SignalDef, SignalId};
use std::collections::BTreeSet;

/// Options controlling plan construction (ablation switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Apply register/memory update elision (Section III-B1). When off,
    /// all state commits at end of cycle.
    pub elide_state: bool,
    /// Allow *memory write* elision specifically. The parallel engine
    /// turns this off: in-partition memory writes from concurrently
    /// executing partitions would race on the banks, while register
    /// elision stays safe (each register has one writing partition and
    /// a private slot).
    pub elide_mem: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            elide_state: true,
            elide_mem: true,
        }
    }
}

/// One partition's compiled form, in schedule order.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Computed member signals (defs `Op` or `MemRead`) in dependency
    /// order; inputs, constants, and register outputs need no evaluation.
    pub members: Vec<SignalId>,
    /// Members read by other partitions, with the consumers to wake on
    /// change.
    pub outputs: Vec<OutputPlan>,
    /// Indices into [`CcssPlan::reg_plans`] updated in place at the end of
    /// this partition's evaluation.
    pub elided_regs: Vec<usize>,
    /// Indices into [`CcssPlan::mem_write_plans`] executed in place at the
    /// end of this partition's evaluation.
    pub elided_writes: Vec<usize>,
}

/// A partition output: one signal and the scheduled indices of the
/// partitions that consume it.
#[derive(Debug, Clone)]
pub struct OutputPlan {
    pub signal: SignalId,
    pub consumers: Vec<u32>,
}

/// Execution plan for one register.
#[derive(Debug, Clone)]
pub struct RegPlan {
    pub reg: RegId,
    /// Updated in place inside the partition holding its next-value
    /// (true) or committed at end of cycle (false).
    pub elided: bool,
    /// Scheduled partitions reading the register's output; woken (for the
    /// next cycle) when the stored value changes.
    pub wake_on_change: Vec<u32>,
}

/// Execution plan for one memory write port.
#[derive(Debug, Clone)]
pub struct MemWritePlan {
    pub mem: MemId,
    /// Index into the memory's `writers`.
    pub writer: usize,
    pub elided: bool,
    /// Scheduled partitions holding this memory's read-data signals.
    pub wake_on_change: Vec<u32>,
}

/// The complete CCSS execution plan.
#[derive(Debug, Clone)]
pub struct CcssPlan {
    pub partitions: Vec<PartitionPlan>,
    /// Signal → scheduled partition index.
    pub sched_of_signal: Vec<u32>,
    /// Per external input: the partitions to wake when it changes.
    pub input_wakes: Vec<(SignalId, Vec<u32>)>,
    pub reg_plans: Vec<RegPlan>,
    pub mem_write_plans: Vec<MemWritePlan>,
    /// Static dataflow (BSP) schedule attached by
    /// [`CcssPlan::attach_dataflow`] after
    /// [`synthesize_dataflow`](crate::depgraph::synthesize_dataflow);
    /// `None` until a synthesis has run.
    pub dataflow: Option<crate::depgraph::DataflowSchedule>,
}

impl CcssPlan {
    /// Convenience: partition the netlist at threshold `c_p` and build the
    /// plan with default options.
    pub fn build(netlist: &Netlist, c_p: usize) -> CcssPlan {
        let (dag, writes) = extended_dag(netlist);
        let parts = partition(&dag, c_p);
        CcssPlan::from_partitioning(netlist, &dag, &writes, &parts, PlanOptions::default())
    }

    /// Builds the plan from an existing partitioning over the extended
    /// graph (see [`extended_dag`]).
    ///
    /// # Panics
    ///
    /// Panics if the partitioning is inconsistent with the netlist (the
    /// partitioner's `validate` would fail).
    pub fn from_partitioning(
        netlist: &Netlist,
        dag: &DagView,
        write_nodes: &[(MemId, usize)],
        parts: &Partitioning,
        options: PlanOptions,
    ) -> CcssPlan {
        let signal_count = netlist.signal_count();
        let live: Vec<usize> = parts.live_partitions().collect();
        let rank_of_part =
            |p: usize| -> usize { live.binary_search(&p).expect("live partition id") };

        // Partition adjacency (recomputed over live ids) + ordering edges.
        let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); live.len()];
        for node in 0..dag.node_count() {
            let p = rank_of_part(parts.part_of(node));
            for &s in &dag.succs[node] {
                let q = rank_of_part(parts.part_of(s));
                if p != q {
                    succs[p].insert(q);
                }
            }
        }

        // One walk per state element: does the writer reach any of its
        // (sorted) readers? The graph is acyclic, so it never reaches
        // itself. Marks are epoch-stamped and reused.
        let mut visited = Marks::default();
        let mut stack = Vec::new();
        let mut reaches_a_reader = |succs: &[BTreeSet<usize>], writer: usize, readers: &[usize]| {
            visited.clear(succs.len());
            stack.clear();
            stack.push(writer);
            while let Some(p) = stack.pop() {
                for &s in &succs[p] {
                    if readers.binary_search(&s).is_ok() {
                        return true;
                    }
                    if visited.mark(s) {
                        stack.push(s);
                    }
                }
            }
            false
        };

        // --- State-update elision (Section III-B1) ---
        // Memory-write elision is decided first: a register whose output
        // feeds a *non-elided* write action must not be elided, because
        // the end-of-cycle write would otherwise observe the register's
        // next-cycle value (after copy forwarding the write's fields can
        // alias the register output directly).
        let mut write_elided = vec![false; write_nodes.len()];
        // Reader partitions per memory (partitions holding read-data).
        let mem_reader_parts: Vec<Vec<usize>> = netlist
            .mems()
            .iter()
            .map(|m| {
                let set: BTreeSet<usize> = m
                    .readers
                    .iter()
                    .map(|r| rank_of_part(parts.part_of(r.data.index())))
                    .collect();
                set.into_iter().collect()
            })
            .collect();
        for (wi, &(mem, _port)) in write_nodes.iter().enumerate() {
            if !options.elide_state || !options.elide_mem {
                continue;
            }
            let writer = rank_of_part(parts.part_of(signal_count + wi));
            let readers = &mem_reader_parts[mem.index()];
            if !reaches_a_reader(&succs, writer, readers) {
                write_elided[wi] = true;
                for &p in readers {
                    if p != writer {
                        succs[p].insert(writer);
                    }
                }
            }
        }

        let mut reg_elided = vec![false; netlist.regs().len()];
        let mut reg_readers: Vec<Vec<usize>> = Vec::with_capacity(netlist.regs().len());
        for (ri, reg) in netlist.regs().iter().enumerate() {
            let writer = rank_of_part(parts.part_of(reg.next.index()));
            let readers: BTreeSet<usize> = dag.succs[reg.out.index()]
                .iter()
                .map(|&s| rank_of_part(parts.part_of(s)))
                .collect();
            reg_readers.push(readers.iter().copied().collect());
            if !options.elide_state {
                continue;
            }
            // A non-elided write action reading this register executes at
            // end of cycle and needs the pre-update value: keep the
            // register two-phase in that case.
            let feeds_unelided_write = dag.succs[reg.out.index()]
                .iter()
                .any(|&s| s >= signal_count && !write_elided[s - signal_count]);
            if feeds_unelided_write {
                continue;
            }
            // The mirror rule for an *elided* write held by the
            // register's own writer partition: the write reads its
            // fields after the partition's program has run, and the
            // program commits its elided registers — the write would
            // see the next-cycle value. (An elided write in any other
            // partition is a reader, ordered before the writer below.)
            let feeds_own_partition_write = dag.succs[reg.out.index()].iter().any(|&s| {
                s >= signal_count
                    && write_elided[s - signal_count]
                    && rank_of_part(parts.part_of(s)) == writer
            });
            if feeds_own_partition_write {
                continue;
            }
            // Elidable iff no reader is downstream of the writer.
            if !reaches_a_reader(&succs, writer, &reg_readers[ri]) {
                reg_elided[ri] = true;
                for &p in &readers {
                    if p != writer {
                        succs[p].insert(writer);
                    }
                }
            }
        }

        // --- Static schedule: deterministic topological order ---
        let mut indegree = vec![0usize; live.len()];
        for part_succs in &succs {
            for &s in part_succs {
                indegree[s] += 1;
            }
        }
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..live.len())
            .filter(|&p| indegree[p] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut sched_of_rank = vec![u32::MAX; live.len()];
        let mut rank_of_sched = Vec::with_capacity(live.len());
        while let Some(std::cmp::Reverse(p)) = heap.pop() {
            sched_of_rank[p] = rank_of_sched.len() as u32;
            rank_of_sched.push(p);
            for &s in &succs[p] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    heap.push(std::cmp::Reverse(s));
                }
            }
        }
        assert_eq!(
            rank_of_sched.len(),
            live.len(),
            "ordering edges must keep the partition graph acyclic"
        );

        // --- Per-signal schedule map ---
        let mut sched_of_signal = vec![0u32; signal_count];
        for (s, sched) in sched_of_signal.iter_mut().enumerate() {
            *sched = sched_of_rank[rank_of_part(parts.part_of(s))];
        }

        // --- Members in evaluation order ---
        let topo = essent_netlist::graph::topo_order(netlist).expect("netlist is acyclic");
        let mut partitions: Vec<PartitionPlan> = (0..live.len())
            .map(|_| PartitionPlan {
                members: Vec::new(),
                outputs: Vec::new(),
                elided_regs: Vec::new(),
                elided_writes: Vec::new(),
            })
            .collect();
        for &sig in &topo {
            let def = &netlist.signal(sig).def;
            if matches!(def, SignalDef::Op(_) | SignalDef::MemRead { .. }) {
                let sched = sched_of_signal[sig.index()] as usize;
                partitions[sched].members.push(sig);
            }
        }

        // --- Output triggers ---
        for (s, &my_sched) in sched_of_signal.iter().enumerate() {
            let sig = SignalId(s as u32);
            if !matches!(
                netlist.signal(sig).def,
                SignalDef::Op(_) | SignalDef::MemRead { .. }
            ) {
                continue;
            }
            let consumers: BTreeSet<u32> = dag.succs[s]
                .iter()
                .map(|&t| sched_of_rank[rank_of_part(parts.part_of(t))])
                .filter(|&c| c != my_sched)
                .collect();
            if !consumers.is_empty() {
                partitions[my_sched as usize].outputs.push(OutputPlan {
                    signal: sig,
                    consumers: consumers.into_iter().collect(),
                });
            }
        }

        // --- Register plans ---
        let mut reg_plans = Vec::with_capacity(netlist.regs().len());
        for (ri, reg) in netlist.regs().iter().enumerate() {
            let wake: Vec<u32> = reg_readers[ri]
                .iter()
                .map(|&p| sched_of_rank[p])
                .collect::<BTreeSet<u32>>()
                .into_iter()
                .collect();
            if reg_elided[ri] {
                let sched = sched_of_signal[reg.next.index()] as usize;
                partitions[sched].elided_regs.push(ri);
            }
            reg_plans.push(RegPlan {
                reg: RegId(ri as u32),
                elided: reg_elided[ri],
                wake_on_change: wake,
            });
        }

        // --- Memory write plans ---
        let mut mem_write_plans = Vec::with_capacity(write_nodes.len());
        for (wi, &(mem, port)) in write_nodes.iter().enumerate() {
            let wake: Vec<u32> = mem_reader_parts[mem.index()]
                .iter()
                .map(|&p| sched_of_rank[p])
                .collect::<BTreeSet<u32>>()
                .into_iter()
                .collect();
            if write_elided[wi] {
                let writer_rank = rank_of_part(parts.part_of(signal_count + wi));
                let sched = sched_of_rank[writer_rank] as usize;
                partitions[sched].elided_writes.push(wi);
            }
            mem_write_plans.push(MemWritePlan {
                mem,
                writer: port,
                elided: write_elided[wi],
                wake_on_change: wake,
            });
        }

        // --- Input wake lists ---
        let input_wakes = netlist
            .inputs()
            .iter()
            .map(|&input| {
                let wakes: BTreeSet<u32> = dag.succs[input.index()]
                    .iter()
                    .map(|&t| sched_of_rank[rank_of_part(parts.part_of(t))])
                    .collect();
                (input, wakes.into_iter().collect())
            })
            .collect();

        CcssPlan {
            partitions,
            sched_of_signal,
            input_wakes,
            reg_plans,
            mem_write_plans,
            dataflow: None,
        }
    }

    /// Stores a synthesized dataflow schedule in the plan for the
    /// parallel runtime to consume.
    pub fn attach_dataflow(&mut self, sched: crate::depgraph::DataflowSchedule) {
        self.dataflow = Some(sched);
    }

    /// Number of partitions in the schedule.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of (output, consumer) trigger pairs — the quantity the
    /// paper's dynamic overhead is proportional to.
    pub fn trigger_count(&self) -> usize {
        self.partitions
            .iter()
            .flat_map(|p| p.outputs.iter())
            .map(|o| o.consumers.len())
            .sum()
    }

    /// Checks the plan's structural invariants against the netlist,
    /// reporting every violation (not just the first) with stable codes
    /// (used heavily by the property tests).
    pub fn check(&self, netlist: &Netlist) -> Report {
        let mut report = Report::new();
        // Members are topologically consistent within and across
        // partitions: a member's dependencies in other partitions must be
        // scheduled strictly earlier; same-partition deps earlier in the
        // member list. Register outputs / inputs / constants are exempt
        // (state or cycle-start values).
        let mut member_pos = vec![usize::MAX; netlist.signal_count()];
        for (sched, part) in self.partitions.iter().enumerate() {
            for (i, &m) in part.members.iter().enumerate() {
                if self.sched_of_signal[m.index()] as usize != sched {
                    report.push(
                        Diagnostic::error(
                            codes::MEMBER_MISPLACED,
                            format!(
                                "member {m} listed in partition {sched} but assigned to {}",
                                self.sched_of_signal[m.index()]
                            ),
                        )
                        .with_signal(&netlist.signal(m).name)
                        .with_partition(sched),
                    );
                }
                member_pos[m.index()] = i;
            }
        }
        for (sched, part) in self.partitions.iter().enumerate() {
            for (i, &m) in part.members.iter().enumerate() {
                for &dep in netlist.deps(m).iter() {
                    let dep_def = &netlist.signal(dep).def;
                    if !matches!(dep_def, SignalDef::Op(_) | SignalDef::MemRead { .. }) {
                        continue;
                    }
                    let dep_sched = self.sched_of_signal[dep.index()] as usize;
                    if dep_sched == sched {
                        if member_pos[dep.index()] >= i {
                            report.push(
                                Diagnostic::error(
                                    codes::TOPO_ORDER,
                                    format!("member {m} evaluated before same-partition dep {dep}"),
                                )
                                .with_signal(&netlist.signal(m).name)
                                .with_partition(sched),
                            );
                        }
                    } else if dep_sched > sched {
                        report.push(
                            Diagnostic::error(
                                codes::TOPO_ORDER,
                                format!(
                                    "partition {sched} uses {dep} from later partition {dep_sched}"
                                ),
                            )
                            .with_signal(&netlist.signal(dep).name)
                            .with_partition(sched),
                        );
                    }
                }
            }
        }
        // Elision safety: every reader of an elided register/memory is
        // scheduled no later than the writer.
        for (ri, rp) in self.reg_plans.iter().enumerate() {
            if !rp.elided {
                continue;
            }
            let reg = &netlist.regs()[ri];
            let writer = self.sched_of_signal[reg.next.index()];
            for &reader in &rp.wake_on_change {
                if reader > writer {
                    report.push(
                        Diagnostic::error(
                            codes::UNSAFE_ELISION,
                            format!(
                                "elided register {} read by partition {reader} after writer {writer}",
                                reg.name
                            ),
                        )
                        .with_signal(&reg.name)
                        .with_partition(reader as usize),
                    );
                }
            }
        }
        for wp in &self.mem_write_plans {
            if !wp.elided {
                continue;
            }
            // The writer partition holds the elided write.
            let writer = self
                .partitions
                .iter()
                .position(|p| {
                    p.elided_writes
                        .iter()
                        .any(|&wi| std::ptr::eq(&self.mem_write_plans[wi], wp))
                })
                .unwrap_or(usize::MAX);
            for &reader in &wp.wake_on_change {
                if writer != usize::MAX && (reader as usize) > writer {
                    report.push(
                        Diagnostic::error(
                            codes::UNSAFE_ELISION,
                            format!(
                                "elided memory write read by partition {reader} after writer {writer}"
                            ),
                        )
                        .with_signal(&netlist.mems()[wp.mem.index()].name)
                        .with_partition(reader as usize),
                    );
                }
            }
        }
        report
    }
}

/// Builds the extended DAG: signal nodes plus one action node per memory
/// write port (depending on the port's four field signals). Returns the
/// graph and the `(mem, writer-index)` identity of each action node, in
/// order, starting at node id `netlist.signal_count()`.
pub fn extended_dag(netlist: &Netlist) -> (DagView, Vec<(MemId, usize)>) {
    let s = netlist.signal_count();
    let mut edges = Vec::new();
    for i in 0..s {
        for &dep in netlist.deps(SignalId(i as u32)).iter() {
            edges.push((dep.index(), i));
        }
    }
    let mut write_nodes = Vec::new();
    for (mi, mem) in netlist.mems().iter().enumerate() {
        for (wi, w) in mem.writers.iter().enumerate() {
            let node = s + write_nodes.len();
            write_nodes.push((MemId(mi as u32), wi));
            for field in [w.addr, w.en, w.mask, w.data] {
                edges.push((field.index(), node));
            }
        }
    }
    (
        DagView::from_edges(s + write_nodes.len(), &edges),
        write_nodes,
    )
}

/// The complete activity-wake routing of a plan, flattened into one
/// canonical, deterministic artifact: every path by which the engines set
/// an activity flag. The batched engine builds its per-lane wake-mask
/// tables from this (lane bit `l` of consumer `c`'s mask is set exactly
/// when single-instance ESSENT would set `flags[c]` for that lane's
/// values), and `essent-verify`'s X08 layer re-derives it from an
/// independently built plan to prove the engine's captured tables
/// complete — a missing consumer here is a lane that silently stops
/// waking (mask-bit misrouting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeRouting {
    /// Per scheduled partition: its outputs as `(signal, consumers)`,
    /// consumers sorted and deduplicated.
    pub outputs: Vec<Vec<(SignalId, Vec<u32>)>>,
    /// Per [`CcssPlan::reg_plans`] entry: sorted wake-on-change readers.
    pub reg_wakes: Vec<Vec<u32>>,
    /// Per [`CcssPlan::mem_write_plans`] entry: sorted wake-on-change
    /// readers.
    pub mem_wakes: Vec<Vec<u32>>,
    /// Per external input (sorted by signal): partitions woken on change.
    pub input_wakes: Vec<(SignalId, Vec<u32>)>,
}

impl CcssPlan {
    /// Flattens this plan's wake edges into a [`WakeRouting`].
    pub fn wake_routing(&self) -> WakeRouting {
        let canon = |v: &[u32]| -> Vec<u32> {
            let mut s: Vec<u32> = v.to_vec();
            s.sort_unstable();
            s.dedup();
            s
        };
        let outputs = self
            .partitions
            .iter()
            .map(|p| {
                p.outputs
                    .iter()
                    .map(|o| (o.signal, canon(&o.consumers)))
                    .collect()
            })
            .collect();
        let reg_wakes = self
            .reg_plans
            .iter()
            .map(|r| canon(&r.wake_on_change))
            .collect();
        let mem_wakes = self
            .mem_write_plans
            .iter()
            .map(|w| canon(&w.wake_on_change))
            .collect();
        let mut input_wakes: Vec<(SignalId, Vec<u32>)> = self
            .input_wakes
            .iter()
            .map(|(s, w)| (*s, canon(w)))
            .collect();
        input_wakes.sort_by_key(|(s, _)| s.0);
        WakeRouting {
            outputs,
            reg_wakes,
            mem_wakes,
            input_wakes,
        }
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
    fn counter_plan_elides_register() {
        let n = netlist_of(COUNTER);
        let plan = CcssPlan::build(&n, 8);
        assert!(plan.check(&n).is_clean());
        assert_eq!(plan.reg_plans.len(), 1);
        assert!(plan.reg_plans[0].elided, "feedback-only register elides");
        // The register wakes its own partition (feedback loop).
        let writer = plan.sched_of_signal[n.regs()[0].next.index()];
        assert!(plan.reg_plans[0].wake_on_change.contains(&writer));
    }

    #[test]
    fn plan_covers_every_computed_signal_once() {
        let n = netlist_of(COUNTER);
        let plan = CcssPlan::build(&n, 4);
        let mut seen = vec![false; n.signal_count()];
        for p in &plan.partitions {
            for &m in &p.members {
                assert!(!seen[m.index()], "member listed twice");
                seen[m.index()] = true;
            }
        }
        for (i, s) in n.signals().iter().enumerate() {
            let computed = matches!(s.def, SignalDef::Op(_) | SignalDef::MemRead { .. });
            assert_eq!(seen[i], computed, "signal {} coverage", s.name);
        }
    }

    #[test]
    fn triggers_point_forward_or_are_state_wakes() {
        let src = "circuit T :\n  module T :\n    input a : UInt<8>\n    input b : UInt<8>\n    output x : UInt<9>\n    output y : UInt<9>\n    output z : UInt<1>\n    x <= add(a, b)\n    y <= sub(a, b)\n    z <= eq(a, b)\n";
        let n = netlist_of(src);
        let plan = CcssPlan::build(&n, 1);
        assert!(plan.check(&n).is_clean());
        for (sched, part) in plan.partitions.iter().enumerate() {
            for o in &part.outputs {
                for &c in &o.consumers {
                    // Combinational triggers go strictly forward.
                    assert!(c as usize > sched, "combinational trigger must go forward");
                }
            }
        }
    }

    #[test]
    fn input_wakes_cover_direct_readers() {
        let n = netlist_of(COUNTER);
        let plan = CcssPlan::build(&n, 8);
        let reset = n.find("reset").unwrap();
        let wake = plan
            .input_wakes
            .iter()
            .find(|(s, _)| *s == reset)
            .map(|(_, w)| w.clone())
            .unwrap();
        assert!(!wake.is_empty(), "reset must wake its consumers");
    }

    #[test]
    fn memory_write_plan_orders_readers_first() {
        let src = "circuit M :\n  module M :\n    input clock : Clock\n    input addr : UInt<3>\n    input wen : UInt<1>\n    input wdata : UInt<8>\n    output o : UInt<8>\n    mem m :\n      data-type => UInt<8>\n      depth => 8\n      read-latency => 0\n      write-latency => 1\n      reader => r\n      writer => w\n    m.r.clk <= clock\n    m.r.en <= UInt<1>(1)\n    m.r.addr <= addr\n    m.w.clk <= clock\n    m.w.en <= wen\n    m.w.addr <= addr\n    m.w.data <= wdata\n    m.w.mask <= UInt<1>(1)\n    o <= m.r.data\n";
        let n = netlist_of(src);
        let plan = CcssPlan::build(&n, 8);
        assert!(plan.check(&n).is_clean());
        assert_eq!(plan.mem_write_plans.len(), 1);
        let wp = &plan.mem_write_plans[0];
        assert!(!wp.wake_on_change.is_empty());
    }

    #[test]
    fn elision_disabled_by_options() {
        let n = netlist_of(COUNTER);
        let (dag, writes) = extended_dag(&n);
        let parts = crate::partition::partition(&dag, 8);
        let plan = CcssPlan::from_partitioning(
            &n,
            &dag,
            &writes,
            &parts,
            PlanOptions {
                elide_state: false,
                elide_mem: false,
            },
        );
        assert!(plan.reg_plans.iter().all(|r| !r.elided));
        assert!(plan.check(&n).is_clean());
    }

    #[test]
    fn plan_works_across_cp_values() {
        let src = "circuit W :\n  module W :\n    input clock : Clock\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<8>\n    reg r1 : UInt<8>, clock\n    reg r2 : UInt<8>, clock\n    r1 <= xor(a, b)\n    r2 <= and(r1, a)\n    o <= or(r2, b)\n";
        let n = netlist_of(src);
        for cp in [1, 2, 4, 8, 32] {
            let plan = CcssPlan::build(&n, cp);
            let report = plan.check(&n);
            assert!(report.is_clean(), "cp={cp}:\n{report}");
        }
    }
}
