//! Ninth layer: audit of the front end's **wake table**
//! (`X0801`/`X0802`).
//!
//! What a wake does beyond running the partition's program — which
//! outputs are snapshot-compared, whom they wake, whether the wake is
//! `plain` — is resolved once by
//! [`Frontend::compile`](essent_sim::frontend::Frontend::compile) into a
//! [`WakeTable`](essent_sim::slots::WakeTable), and
//! [`EssentSim`](essent_sim::EssentSim) — alone or as the lanes of a
//! [`BatchSim`](essent_sim::BatchSim) fleet — and
//! [`ParEssentSim`](essent_sim::ParEssentSim) run from it. A misrouted
//! consumer there is a partition that silently sleeps through a change
//! on every engine at once, so the table is audited against the plan it
//! was resolved from:
//!
//! | code | check |
//! |---|---|
//! | `X0801` | every watched output range lies inside its partition's derived write footprint (the `R05xx` machinery) |
//! | `X0802` | the routing the engines perform — table outputs ∪ fused instruction ranges per output slot, `Commit` instructions ∪ state-table entries per register and write port, the input-wake map — equals [`CcssPlan::wake_routing`]; each memory's back-door wake list names exactly the partitions whose blocks read its bank |
//!
//! "Perform" is taken literally: a `plain` partition runs its program
//! and nothing else, so its table outputs and in-place state entries do
//! not count — a wrongly set `plain` bit shows up as the routes it
//! drops.

use crate::footprint::{block_bank_reads, block_writes};
use essent_core::diag::{codes, Diagnostic, Report};
use essent_core::plan::CcssPlan;
use essent_sim::compile::Layout;
use essent_sim::frontend::Frontend;
use essent_sim::step1::{Op1, NO_FUSE};
use std::collections::{BTreeMap, BTreeSet};

fn canon(list: &[u32]) -> Vec<u32> {
    let set: BTreeSet<u32> = list.iter().copied().collect();
    set.into_iter().collect()
}

/// Audits `front.wake` — with the programs and the state table it
/// complements — against `plan`, the plan `front` was compiled from.
pub fn check_wake_table(layout: &Layout, plan: &CcssPlan, front: &Frontend) -> Report {
    let mut report = Report::new();
    let np = plan.partitions.len();
    let wake = &front.wake;
    if wake.out_bound.len() != np + 1 || wake.plain.len() != np || front.blocks.len() != np {
        report.push(Diagnostic::error(
            codes::WAKE_ROUTE,
            format!(
                "wake table covers {} partition(s) ({} plain bit(s), {} block(s)), plan has {np}",
                wake.out_bound.len().saturating_sub(1),
                wake.plain.len(),
                front.blocks.len()
            ),
        ));
        return report;
    }
    let routing = plan.wake_routing();

    // State wakes as the engines will perform them: each register's from
    // its `Commit` instruction or its table entry, each write port's
    // from its table entry.
    let mut reg_wakes = vec![Vec::new(); plan.reg_plans.len()];
    let mut mem_wakes = vec![Vec::new(); plan.mem_write_plans.len()];
    let (writes, regs) = front.state.end_of_cycle();
    for w in writes {
        mem_wakes[w.plan as usize].extend(front.state.woken(w.wake));
    }
    for r in regs {
        reg_wakes[r.plan as usize].extend(front.state.woken(r.wake));
    }

    for sched in 0..np {
        let performed = !wake.plain[sched];
        let mut routes: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        let mut misplaced = false;
        if performed {
            // --- X0801: watched outputs inside the write footprint ----
            let outs = wake.outputs(sched);
            if !outs.is_empty() {
                let written = block_writes(&front.blocks[sched]);
                for o in outs {
                    // Runs are coalesced: a contiguous range is covered
                    // iff one run holds it.
                    let inside = written
                        .runs()
                        .iter()
                        .any(|&(s, e)| o.off >= s && o.off + o.words <= e);
                    if !inside {
                        misplaced = true;
                        report.push(
                            Diagnostic::error(
                                codes::WAKE_WATCH,
                                format!(
                                    "watched output at arena offset {} ({} word(s)) is outside \
                                     the partition's derived write footprint — the compare \
                                     would watch a word the partition never produces",
                                    o.off, o.words
                                ),
                            )
                            .with_partition(sched),
                        );
                    }
                    routes.entry(o.off).or_default().extend(wake.woken(o.wake));
                }
            }
            let (writes, regs) = front.state.in_place(sched);
            for w in writes {
                mem_wakes[w.plan as usize].extend(front.state.woken(w.wake));
            }
            for r in regs {
                reg_wakes[r.plan as usize].extend(front.state.woken(r.wake));
            }
        }
        let prog = &front.programs[sched];
        for inst in prog.code.iter().filter(|i| i.ws != NO_FUSE) {
            let woken = &prog.consumers[inst.ws as usize..inst.we as usize];
            if inst.op == Op1::Commit {
                reg_wakes[inst.imm as usize].extend(woken);
            } else {
                routes.entry(inst.dst).or_default().extend(woken);
            }
        }

        // --- X0802: output routing ------------------------------------
        // Routes are keyed by offset: a misplaced watch would only be
        // reported a second time.
        if misplaced {
            continue;
        }
        let got: Vec<(u32, Vec<u32>)> = routes
            .into_iter()
            .map(|(off, set)| (off, set.into_iter().collect()))
            .collect();
        let mut want: Vec<(u32, Vec<u32>)> = routing.outputs[sched]
            .iter()
            .map(|(sig, consumers)| (layout.offset(*sig) as u32, consumers.clone()))
            .collect();
        want.sort();
        if got != want {
            report.push(
                Diagnostic::error(
                    codes::WAKE_ROUTE,
                    format!(
                        "partition output routing disagrees with the plan: engines perform \
                         {got:?}, plan {want:?} (offset, consumer list)"
                    ),
                )
                .with_partition(sched),
            );
        }
    }

    // --- X0802: state and input routing -------------------------------
    for (what, got, want) in [
        ("register", &reg_wakes, &routing.reg_wakes),
        ("memory-write", &mem_wakes, &routing.mem_wakes),
    ] {
        let got: Vec<Vec<u32>> = got.iter().map(|l| canon(l)).collect();
        if &got != want {
            report.push(Diagnostic::error(
                codes::WAKE_ROUTE,
                format!(
                    "{what} wake routing disagrees with the plan: engines perform {got:?}, \
                     plan {want:?}"
                ),
            ));
        }
    }
    let mut got_inputs: Vec<_> = wake
        .input_wake
        .iter()
        .map(|(sig, wakes)| (*sig, canon(wakes)))
        .collect();
    got_inputs.sort_by_key(|(sig, _)| sig.0);
    if got_inputs != routing.input_wakes {
        report.push(Diagnostic::error(
            codes::WAKE_ROUTE,
            format!(
                "input wake routing disagrees with the plan: engines perform {got_inputs:?}, \
                 plan {:?}",
                routing.input_wakes
            ),
        ));
    }
    // Back-door memory wakes: a bank's readers, re-derived from the
    // blocks' read ports rather than the netlist the table was built
    // from.
    let mut want_mems = vec![Vec::new(); wake.mem_wake.len()];
    for (sched, block) in front.blocks.iter().enumerate() {
        for bank in block_bank_reads(block).into_iter().map(|b| b as usize) {
            if bank >= want_mems.len() {
                want_mems.resize(bank + 1, Vec::new());
            }
            want_mems[bank].push(sched as u32);
        }
    }
    let got_mems: Vec<Vec<u32>> = wake.mem_wake.iter().map(|l| canon(l)).collect();
    if got_mems != want_mems {
        report.push(Diagnostic::error(
            codes::WAKE_ROUTE,
            format!(
                "back-door memory wake routing disagrees with the read ports: engines \
                 perform {got_mems:?}, blocks read {want_mems:?}"
            ),
        ));
    }
    report
}
