//! The CCSS schedule verifier (the `V____` diagnostic family): re-derives
//! every invariant a [`CcssPlan`] must satisfy *from the netlist alone*,
//! independently of the partitioner, the legality oracle
//! (`essent_core::legality`), and the plan builder's own bookkeeping.
//!
//! Checked properties:
//!
//! * **exact cover** — every computed signal is a member of exactly one
//!   partition, and `sched_of_signal` agrees with the member lists;
//! * **acyclicity** — a fresh Kahn topological sort over the partition
//!   graph recomputed from raw dependency edges terminates;
//! * **topological order** — dependencies are evaluated before their
//!   users, both across partitions and within a member list;
//! * **trigger completeness** — every cross-partition dependency edge has
//!   a registered wake-up trigger, every input and state element wakes
//!   all of its readers;
//! * **elision safety** — a re-proof of Section III-B1: an in-place state
//!   update may never be observed by a later-scheduled reader in the
//!   same cycle.

use essent_core::diag::{codes, Diagnostic, Report};
use essent_core::plan::CcssPlan;
use essent_netlist::{graph, Netlist, SignalDef, SignalId};
use std::collections::{BTreeMap, BTreeSet};

fn computed(netlist: &Netlist, sig: SignalId) -> bool {
    matches!(
        netlist.signal(sig).def,
        SignalDef::Op(_) | SignalDef::MemRead { .. }
    )
}

/// Verifies a CCSS plan against its netlist. Every violated invariant is
/// reported (the verifier never stops at the first finding).
pub fn check_plan(netlist: &Netlist, plan: &CcssPlan) -> Report {
    let mut report = Report::new();
    let n_parts = plan.partitions.len();
    let n_sigs = netlist.signal_count();

    if plan.sched_of_signal.len() != n_sigs {
        report.push(Diagnostic::error(
            codes::MEMBER_MISPLACED,
            format!(
                "sched_of_signal covers {} signals, netlist has {}",
                plan.sched_of_signal.len(),
                n_sigs
            ),
        ));
        return report;
    }

    // --- Exact cover and membership consistency ---------------------------
    let mut count = vec![0u32; n_sigs];
    let mut member_pos = vec![usize::MAX; n_sigs];
    for (sched, part) in plan.partitions.iter().enumerate() {
        for (i, &m) in part.members.iter().enumerate() {
            if m.index() >= n_sigs {
                report.push(
                    Diagnostic::error(
                        codes::MEMBER_MISPLACED,
                        format!("member {m} is out of signal range"),
                    )
                    .with_partition(sched),
                );
                continue;
            }
            count[m.index()] += 1;
            member_pos[m.index()] = i;
            if !computed(netlist, m) {
                report.push(
                    Diagnostic::error(
                        codes::MEMBER_MISPLACED,
                        format!(
                            "member `{}` is not a computed signal (def needs no evaluation)",
                            netlist.signal(m).name
                        ),
                    )
                    .with_signal(netlist.signal(m).name.clone())
                    .with_partition(sched),
                );
            }
            if plan.sched_of_signal[m.index()] as usize != sched {
                report.push(
                    Diagnostic::error(
                        codes::MEMBER_MISPLACED,
                        format!(
                            "member `{}` listed in partition {sched} but sched_of_signal says {}",
                            netlist.signal(m).name,
                            plan.sched_of_signal[m.index()]
                        ),
                    )
                    .with_signal(netlist.signal(m).name.clone())
                    .with_partition(sched),
                );
            }
        }
    }
    // A partition with no evaluated members and no elided state updates is
    // fine if it still hosts stateful/source signals (input-only or
    // register-output-only partitions are normal); it is dead only when no
    // signal at all maps to it.
    let mut hosts = vec![false; n_parts];
    for &sched in &plan.sched_of_signal {
        if (sched as usize) < n_parts {
            hosts[sched as usize] = true;
        }
    }
    for (sched, part) in plan.partitions.iter().enumerate() {
        if part.members.is_empty()
            && part.elided_writes.is_empty()
            && part.elided_regs.is_empty()
            && !hosts[sched]
        {
            report.push(
                Diagnostic::warning(
                    codes::DEAD_PARTITION,
                    format!("partition {sched} holds no signal and schedules no work"),
                )
                .with_partition(sched),
            );
        }
    }
    for (i, &sig_count) in count.iter().enumerate() {
        let sig = SignalId(i as u32);
        if computed(netlist, sig) {
            if sig_count == 0 {
                report.push(
                    Diagnostic::error(
                        codes::COVER_MISSING,
                        format!(
                            "computed signal `{}` is in no partition",
                            netlist.signal(sig).name
                        ),
                    )
                    .with_signal(netlist.signal(sig).name.clone()),
                );
            } else if sig_count > 1 {
                report.push(
                    Diagnostic::error(
                        codes::DOUBLE_COVER,
                        format!(
                            "computed signal `{}` is in {} partitions",
                            netlist.signal(sig).name,
                            sig_count
                        ),
                    )
                    .with_signal(netlist.signal(sig).name.clone()),
                );
            }
        }
        if plan.sched_of_signal[i] as usize >= n_parts && n_parts > 0 {
            report.push(
                Diagnostic::error(
                    codes::DEAD_PARTITION,
                    format!(
                        "signal `{}` assigned to nonexistent partition {}",
                        netlist.signal(sig).name,
                        plan.sched_of_signal[i]
                    ),
                )
                .with_signal(netlist.signal(sig).name.clone()),
            );
        }
    }

    // --- Fresh partition graph + Kahn acyclicity proof --------------------
    // Edges come straight from netlist dependency edges between computed
    // member signals in different partitions; nothing is trusted from the
    // plan builder.
    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n_parts];
    for i in 0..n_sigs {
        let user = SignalId(i as u32);
        if !computed(netlist, user) {
            continue;
        }
        let user_sched = plan.sched_of_signal[i] as usize;
        if user_sched >= n_parts {
            continue;
        }
        for &dep in netlist.deps(user).iter() {
            if !computed(netlist, dep) {
                continue;
            }
            let dep_sched = plan.sched_of_signal[dep.index()] as usize;
            if dep_sched < n_parts && dep_sched != user_sched {
                edges[dep_sched].insert(user_sched);
            }
        }
    }
    let mut indegree = vec![0usize; n_parts];
    for succs in &edges {
        for &s in succs {
            indegree[s] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n_parts).filter(|&p| indegree[p] == 0).collect();
    let mut head = 0;
    while head < queue.len() {
        let p = queue[head];
        head += 1;
        for &s in &edges[p] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                queue.push(s);
            }
        }
    }
    if queue.len() != n_parts {
        let stuck: Vec<String> = (0..n_parts)
            .filter(|&p| indegree[p] > 0)
            .map(|p| p.to_string())
            .collect();
        report.push(Diagnostic::error(
            codes::PARTITION_CYCLE,
            format!(
                "partition dependency graph has a cycle among partitions {{{}}}",
                stuck.join(", ")
            ),
        ));
    }

    // --- Topological order of the schedule and of member lists ------------
    for (sched, part) in plan.partitions.iter().enumerate() {
        for (i, &m) in part.members.iter().enumerate() {
            for &dep in netlist.deps(m).iter() {
                if !computed(netlist, dep) {
                    continue;
                }
                let dep_sched = plan.sched_of_signal[dep.index()] as usize;
                if dep_sched == sched {
                    if member_pos[dep.index()] == usize::MAX || member_pos[dep.index()] >= i {
                        report.push(
                            Diagnostic::error(
                                codes::TOPO_ORDER,
                                format!(
                                    "`{}` evaluated before its same-partition dependency `{}`",
                                    netlist.signal(m).name,
                                    netlist.signal(dep).name
                                ),
                            )
                            .with_signal(netlist.signal(m).name.clone())
                            .with_partition(sched),
                        );
                    }
                } else if dep_sched > sched && dep_sched < n_parts {
                    report.push(
                        Diagnostic::error(
                            codes::TOPO_ORDER,
                            format!(
                                "partition {sched} reads `{}` computed by later partition {dep_sched}",
                                netlist.signal(dep).name
                            ),
                        )
                        .with_signal(netlist.signal(dep).name.clone())
                        .with_partition(sched),
                    );
                }
            }
        }
    }

    // --- Trigger completeness ---------------------------------------------
    // Producer-side trigger table: (producer signal -> consumer set).
    let mut triggers: BTreeMap<SignalId, BTreeSet<u32>> = BTreeMap::new();
    for (sched, part) in plan.partitions.iter().enumerate() {
        for out in &part.outputs {
            if plan.sched_of_signal[out.signal.index()] as usize != sched {
                report.push(
                    Diagnostic::error(
                        codes::MEMBER_MISPLACED,
                        format!(
                            "partition {sched} declares output `{}` it does not compute",
                            netlist.signal(out.signal).name
                        ),
                    )
                    .with_signal(netlist.signal(out.signal).name.clone())
                    .with_partition(sched),
                );
            }
            for &c in &out.consumers {
                if c as usize >= n_parts {
                    report.push(
                        Diagnostic::error(
                            codes::CONSUMER_RANGE,
                            format!(
                                "output `{}` triggers nonexistent partition {c}",
                                netlist.signal(out.signal).name
                            ),
                        )
                        .with_signal(netlist.signal(out.signal).name.clone())
                        .with_partition(sched),
                    );
                }
            }
            triggers
                .entry(out.signal)
                .or_default()
                .extend(out.consumers.iter().copied());
        }
    }
    let has_trigger = |sig: SignalId, consumer: usize| -> bool {
        triggers
            .get(&sig)
            .is_some_and(|cs| cs.contains(&(consumer as u32)))
    };
    // Every cross-partition combinational edge must be triggered.
    for (sched, part) in plan.partitions.iter().enumerate() {
        for &m in &part.members {
            for &dep in netlist.deps(m).iter() {
                if !computed(netlist, dep) {
                    continue;
                }
                let dep_sched = plan.sched_of_signal[dep.index()] as usize;
                if dep_sched != sched && !has_trigger(dep, sched) {
                    report.push(
                        Diagnostic::error(
                            codes::TRIGGER_MISSING,
                            format!(
                                "`{}` (partition {dep_sched}) feeds partition {sched} with no wake-up trigger",
                                netlist.signal(dep).name
                            ),
                        )
                        .with_signal(netlist.signal(dep).name.clone())
                        .with_partition(dep_sched),
                    );
                }
            }
        }
    }
    // An elided write executes inside its partition, so computed fields
    // produced elsewhere must trigger the writer partition.
    for (wi, wp) in plan.mem_write_plans.iter().enumerate() {
        if !wp.elided {
            continue;
        }
        let Some(writer) = plan
            .partitions
            .iter()
            .position(|p| p.elided_writes.contains(&wi))
        else {
            report.push(Diagnostic::error(
                codes::UNSAFE_ELISION,
                format!(
                    "elided write {} of memory `{}` is owned by no partition",
                    wp.writer,
                    netlist.mems()[wp.mem.index()].name
                ),
            ));
            continue;
        };
        let port = &netlist.mems()[wp.mem.index()].writers[wp.writer];
        for field in [port.addr, port.en, port.mask, port.data] {
            if !computed(netlist, field) {
                continue;
            }
            let field_sched = plan.sched_of_signal[field.index()] as usize;
            if field_sched != writer && !has_trigger(field, writer) {
                report.push(
                    Diagnostic::error(
                        codes::TRIGGER_MISSING,
                        format!(
                            "write field `{}` (partition {field_sched}) feeds elided write in partition {writer} with no trigger",
                            netlist.signal(field).name
                        ),
                    )
                    .with_signal(netlist.signal(field).name.clone())
                    .with_partition(field_sched),
                );
            }
        }
    }

    // --- Input wake completeness ------------------------------------------
    let input_wakes: BTreeMap<SignalId, BTreeSet<u32>> = plan
        .input_wakes
        .iter()
        .map(|(sig, wakes)| (*sig, wakes.iter().copied().collect()))
        .collect();
    for (sig, wakes) in &input_wakes {
        for &w in wakes {
            if w as usize >= n_parts {
                report.push(
                    Diagnostic::error(
                        codes::CONSUMER_RANGE,
                        format!(
                            "input `{}` wakes nonexistent partition {w}",
                            netlist.signal(*sig).name
                        ),
                    )
                    .with_signal(netlist.signal(*sig).name.clone()),
                );
            }
        }
    }
    let fanouts = graph::fanout_lists(netlist);
    // Writer-partition index of every elided write's field signals, so
    // direct input fields of elided writes wake the owning partition.
    let mut elided_field_parts: BTreeMap<SignalId, BTreeSet<usize>> = BTreeMap::new();
    for (sched, part) in plan.partitions.iter().enumerate() {
        for &wi in &part.elided_writes {
            let wp = &plan.mem_write_plans[wi];
            let port = &netlist.mems()[wp.mem.index()].writers[wp.writer];
            for field in [port.addr, port.en, port.mask, port.data] {
                elided_field_parts.entry(field).or_default().insert(sched);
            }
        }
    }
    for &input in netlist.inputs() {
        let mut required: BTreeSet<usize> = BTreeSet::new();
        for &user in &fanouts[input.index()] {
            if computed(netlist, user) {
                let sched = plan.sched_of_signal[user.index()] as usize;
                if sched < n_parts {
                    required.insert(sched);
                }
            }
        }
        if let Some(parts) = elided_field_parts.get(&input) {
            required.extend(parts.iter().copied());
        }
        let wakes = input_wakes.get(&input);
        for need in required {
            let woken = wakes.is_some_and(|w| w.contains(&(need as u32)));
            if !woken {
                report.push(
                    Diagnostic::error(
                        codes::INPUT_WAKE_MISSING,
                        format!(
                            "input `{}` is read by partition {need} but does not wake it",
                            netlist.signal(input).name
                        ),
                    )
                    .with_signal(netlist.signal(input).name.clone())
                    .with_partition(need),
                );
            }
        }
    }

    // --- State wake completeness ------------------------------------------
    for (ri, rp) in plan.reg_plans.iter().enumerate() {
        let reg = &netlist.regs()[ri];
        let wakes: BTreeSet<u32> = rp.wake_on_change.iter().copied().collect();
        for &w in &wakes {
            if w as usize >= n_parts {
                report.push(
                    Diagnostic::error(
                        codes::CONSUMER_RANGE,
                        format!("register `{}` wakes nonexistent partition {w}", reg.name),
                    )
                    .with_signal(reg.name.clone()),
                );
            }
        }
        let readers: BTreeSet<usize> = fanouts[reg.out.index()]
            .iter()
            .filter(|&&u| computed(netlist, u))
            .map(|&u| plan.sched_of_signal[u.index()] as usize)
            .filter(|&p| p < n_parts)
            .collect();
        for sched in readers {
            if !wakes.contains(&(sched as u32)) {
                report.push(
                    Diagnostic::error(
                        codes::STATE_WAKE_MISSING,
                        format!(
                            "register `{}` is read by partition {sched} but does not wake it",
                            reg.name
                        ),
                    )
                    .with_signal(reg.name.clone())
                    .with_partition(sched),
                );
            }
        }
    }
    for wp in &plan.mem_write_plans {
        let mem = &netlist.mems()[wp.mem.index()];
        let wakes: BTreeSet<u32> = wp.wake_on_change.iter().copied().collect();
        for r in &mem.readers {
            let reader = plan.sched_of_signal[r.data.index()];
            if (reader as usize) < n_parts && !wakes.contains(&reader) {
                report.push(
                    Diagnostic::error(
                        codes::STATE_WAKE_MISSING,
                        format!(
                            "memory `{}` write does not wake reader partition {reader}",
                            mem.name
                        ),
                    )
                    .with_signal(mem.name.clone())
                    .with_partition(reader as usize),
                );
            }
        }
    }

    // --- Elision safety re-proof (Section III-B1) -------------------------
    // An in-place update is safe only when every same-cycle reader has
    // already run: reader schedule index <= writer schedule index.
    for (ri, rp) in plan.reg_plans.iter().enumerate() {
        if !rp.elided {
            continue;
        }
        let reg = &netlist.regs()[ri];
        let writer = plan.sched_of_signal[reg.next.index()] as usize;
        for &user in &fanouts[reg.out.index()] {
            if !computed(netlist, user) {
                continue;
            }
            let reader = plan.sched_of_signal[user.index()] as usize;
            if reader > writer {
                report.push(
                    Diagnostic::error(
                        codes::UNSAFE_ELISION,
                        format!(
                            "elided register `{}` (writer partition {writer}) is read by later partition {reader}",
                            reg.name
                        ),
                    )
                    .with_signal(reg.name.clone())
                    .with_partition(reader),
                );
            }
        }
        // A write action reading the register must see its pre-update
        // value. A non-elided write runs at end of cycle, after every
        // in-place commit; an elided one runs after its partition's
        // program, which commits that partition's elided registers — so
        // it must sit in a partition scheduled strictly before the
        // register's writer.
        for (wi, wp) in plan.mem_write_plans.iter().enumerate() {
            let port = &netlist.mems()[wp.mem.index()].writers[wp.writer];
            if ![port.addr, port.en, port.mask, port.data].contains(&reg.out) {
                continue;
            }
            let mem = &netlist.mems()[wp.mem.index()].name;
            let late = if wp.elided {
                plan.partitions
                    .iter()
                    .position(|p| p.elided_writes.contains(&wi))
                    .filter(|&holder| holder >= writer)
                    .map(|holder| {
                        format!("elided write {wi} of memory `{mem}` in partition {holder}")
                    })
            } else {
                Some(format!("end-of-cycle write {wi} of memory `{mem}`"))
            };
            if let Some(what) = late {
                report.push(
                    Diagnostic::error(
                        codes::UNSAFE_ELISION,
                        format!(
                            "elided register `{}` (writer partition {writer}) feeds {what}",
                            reg.name
                        ),
                    )
                    .with_signal(reg.name.clone()),
                );
            }
        }
    }
    for (wi, wp) in plan.mem_write_plans.iter().enumerate() {
        if !wp.elided {
            continue;
        }
        let Some(writer) = plan
            .partitions
            .iter()
            .position(|p| p.elided_writes.contains(&wi))
        else {
            continue; // already reported above
        };
        let mem = &netlist.mems()[wp.mem.index()];
        for r in &mem.readers {
            let reader = plan.sched_of_signal[r.data.index()] as usize;
            if reader > writer {
                report.push(
                    Diagnostic::error(
                        codes::UNSAFE_ELISION,
                        format!(
                            "elided write to memory `{}` (partition {writer}) is read by later partition {reader}",
                            mem.name
                        ),
                    )
                    .with_signal(mem.name.clone())
                    .with_partition(reader),
                );
            }
        }
    }

    report
}
