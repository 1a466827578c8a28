//! Ninth layer: batched-lane engine audit (`X08xx`).
//!
//! The batch engine ([`essent_sim::batch::BatchSim`]) threads a second
//! data-parallel axis through the arena and the trigger subsystem: words
//! become lane stripes, activity flags become lane masks, and a
//! compaction permutation remaps logical lanes onto physical stride
//! slots. Each of those is a new way to corrupt a simulation without
//! failing any single-lane invariant — a stride drift reads lane `l`'s
//! word from lane `l+1`, a misrouted wake bit silently freezes one lane
//! of one partition, a bad remap loses a lane's identity entirely.
//!
//! This layer audits a live engine's captured tables
//! ([`essent_sim::batch::BatchAudit`]) against re-derivations from an
//! **independently built** plan and layout (the crate's usual
//! discipline: never trust the builder's own intermediate state):
//!
//! | code | check |
//! |---|---|
//! | `X0801` | stride geometry: lanes/stride/arena/scratch sizes, and every routed trigger offset inside its partition's independently derived write footprint (the `R05xx` machinery) |
//! | `X0802` | wake-mask completeness: engine routing (snapshot triggers ∪ fused ranges, register/memory/input wakes) ≡ the plan's consumer sets |
//! | `X0803` | compaction permutation is a bijection with consistent inverse |
//! | `X0804` | per-lane memory bank shapes match the netlist declarations |

use crate::footprint::derive_footprints;
use essent_core::diag::{codes, Diagnostic, Report};
use essent_core::plan::WakeRouting;
use essent_netlist::Netlist;
use essent_sim::batch::BatchAudit;
use essent_sim::compile::Layout;
use essent_sim::frontend::{build_plan, Frontend};
use essent_sim::EngineConfig;

/// Audits a batch engine's captured stride/routing/permutation tables
/// against an independently built plan for the same netlist and config.
/// The audit must come from an engine constructed with this `config`.
pub fn check_batch(netlist: &Netlist, config: &EngineConfig, audit: &BatchAudit) -> Report {
    let mut report = Report::new();

    // Independent re-derivation: same construction parameters, none of
    // the engine's intermediate state.
    let plan = build_plan(netlist, config, None, config.elide_state);
    let layout = Layout::new(netlist);
    let np = plan.partitions.len();

    // --- X0801: stride geometry --------------------------------------
    let lanes = audit.lanes;
    if !(1..=64).contains(&lanes) {
        report.push(Diagnostic::error(
            codes::BATCH_STRIDE,
            format!("lane count {lanes} outside the 1..=64 wake-mask range"),
        ));
        // Size checks below would cascade meaninglessly.
        return report;
    }
    if audit.stride != lanes {
        report.push(Diagnostic::error(
            codes::BATCH_STRIDE,
            format!("arena stride {} != lane count {lanes}", audit.stride),
        ));
    }
    let total = layout.total_words();
    if audit.total_words != total {
        report.push(Diagnostic::error(
            codes::BATCH_STRIDE,
            format!(
                "engine layout covers {} word(s), independent layout {total}",
                audit.total_words
            ),
        ));
    }
    if audit.arena_len != total * audit.stride {
        report.push(Diagnostic::error(
            codes::BATCH_STRIDE,
            format!(
                "strided arena holds {} word(s), expected {} ({} x stride {})",
                audit.arena_len,
                total * audit.stride,
                total,
                audit.stride
            ),
        ));
    }
    if audit.scratch_len != total {
        report.push(Diagnostic::error(
            codes::BATCH_STRIDE,
            format!(
                "scalar scratch holds {} word(s), expected {total}",
                audit.scratch_len
            ),
        ));
    }

    // --- X0802 prerequisites: expected routing from the plan ---------
    let routing: WakeRouting = plan.wake_routing();
    let expected_routes: Vec<Vec<(u32, Vec<u32>)>> = routing
        .outputs
        .iter()
        .map(|outs| {
            let mut v: Vec<(u32, Vec<u32>)> = outs
                .iter()
                .map(|(sig, consumers)| (layout.offset(*sig) as u32, consumers.clone()))
                .collect();
            v.sort();
            v
        })
        .collect();

    if audit.out_routes.len() != np {
        report.push(Diagnostic::error(
            codes::BATCH_WAKE_ROUTE,
            format!(
                "engine routes {} partition(s), plan has {np}",
                audit.out_routes.len()
            ),
        ));
        return report;
    }

    // --- X0801 (continued): routed offsets inside the partition's
    //     independently derived write footprint ----------------------
    let front = Frontend::compile(netlist, &layout, &plan, config, None, None);
    let (footprints, _fp_report) = derive_footprints(
        netlist,
        &layout,
        &plan,
        &front.blocks,
        front.programs.as_deref(),
    );
    if footprints.len() == np {
        for (sched, routes) in audit.out_routes.iter().enumerate() {
            let writes = &footprints[sched].writes;
            for &(off, _) in routes {
                let inside = writes.runs().iter().any(|&(s, e)| off >= s && off < e);
                if !inside {
                    report.push(
                        Diagnostic::error(
                            codes::BATCH_STRIDE,
                            format!(
                                "routed trigger offset {off} is outside the partition's \
                                 derived write footprint — the lane compare would watch \
                                 a word the partition never produces"
                            ),
                        )
                        .with_partition(sched),
                    );
                }
            }
        }
    } else {
        report.push(Diagnostic::error(
            codes::BATCH_STRIDE,
            "write-footprint derivation failed; routed offsets unverifiable".to_string(),
        ));
    }

    // --- X0802: wake-mask completeness -------------------------------
    for (sched, (got, want)) in audit.out_routes.iter().zip(&expected_routes).enumerate() {
        if got != want {
            report.push(
                Diagnostic::error(
                    codes::BATCH_WAKE_ROUTE,
                    format!(
                        "partition output routing disagrees with the plan: engine \
                         {got:?}, plan {want:?} (offset, consumer list)"
                    ),
                )
                .with_partition(sched),
            );
        }
    }
    let canon_list = |lists: &[Vec<u32>]| -> Vec<Vec<u32>> {
        lists
            .iter()
            .map(|l| {
                let mut s = l.clone();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect()
    };
    let want_regs = canon_list(&routing.reg_wakes);
    if audit.reg_wakes != want_regs {
        report.push(Diagnostic::error(
            codes::BATCH_WAKE_ROUTE,
            format!(
                "register wake routing disagrees with the plan: engine {:?}, plan {want_regs:?}",
                audit.reg_wakes
            ),
        ));
    }
    let want_mems = canon_list(&routing.mem_wakes);
    if audit.mem_wakes != want_mems {
        report.push(Diagnostic::error(
            codes::BATCH_WAKE_ROUTE,
            format!(
                "memory-write wake routing disagrees with the plan: engine {:?}, plan {want_mems:?}",
                audit.mem_wakes
            ),
        ));
    }
    let mut want_inputs: Vec<(u32, Vec<u32>)> = routing
        .input_wakes
        .iter()
        .map(|(sig, consumers)| (sig.0, consumers.clone()))
        .collect();
    want_inputs.sort();
    if audit.input_wakes != want_inputs {
        report.push(Diagnostic::error(
            codes::BATCH_WAKE_ROUTE,
            format!(
                "input wake routing disagrees with the plan: engine {:?}, plan {want_inputs:?}",
                audit.input_wakes
            ),
        ));
    }

    // --- X0803: compaction permutation bijection ---------------------
    let perm_ok =
        audit.phys_of_log.len() == lanes
            && audit.log_of_phys.len() == lanes
            && audit.phys_of_log.iter().enumerate().all(|(log, &p)| {
                (p as usize) < lanes && audit.log_of_phys[p as usize] as usize == log
            })
            && audit.log_of_phys.iter().enumerate().all(|(phys, &log)| {
                (log as usize) < lanes && audit.phys_of_log[log as usize] as usize == phys
            });
    if !perm_ok {
        report.push(Diagnostic::error(
            codes::BATCH_LANE_PERM,
            format!(
                "lane permutation is not a consistent bijection over {lanes} lane(s): \
                 phys_of_log {:?}, log_of_phys {:?}",
                audit.phys_of_log, audit.log_of_phys
            ),
        ));
    }

    // --- X0804: per-lane bank shapes ---------------------------------
    let want_banks: Vec<(usize, usize)> = netlist
        .mems()
        .iter()
        .map(|m| (essent_bits::words(m.width), m.depth))
        .collect();
    if audit.bank_shapes.len() != lanes {
        report.push(Diagnostic::error(
            codes::BATCH_BANK_SHAPE,
            format!(
                "engine carries banks for {} lane(s), expected {lanes}",
                audit.bank_shapes.len()
            ),
        ));
    }
    for (lane, shapes) in audit.bank_shapes.iter().enumerate() {
        if shapes != &want_banks {
            report.push(Diagnostic::error(
                codes::BATCH_BANK_SHAPE,
                format!(
                    "lane {lane} bank shapes {shapes:?} disagree with the netlist's \
                     memory declarations {want_banks:?} (words per entry, depth)"
                ),
            ));
        }
    }

    report
}
