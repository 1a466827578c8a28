//! Ninth layer, second half: batched-lane engine audit (`X0801`,
//! `X0803`, `X0804`).
//!
//! The batch engine ([`essent_sim::batch::BatchSim`]) threads a second
//! data-parallel axis through the arena and the trigger subsystem: words
//! become lane stripes, activity flags become lane masks, and a
//! compaction permutation remaps logical lanes onto physical stride
//! slots. What it wakes and compares comes from the wake table every
//! engine shares, audited once by [`crate::wake`]; what is left to audit
//! here is what only this engine has — a stride drift reads lane `l`'s
//! word from lane `l+1`, a bad remap loses a lane's identity entirely.
//!
//! This layer audits a live engine's captured geometry
//! ([`essent_sim::batch::BatchAudit`]) against the netlist and an
//! independently built layout:
//!
//! | code | check |
//! |---|---|
//! | `X0801` | stride geometry: lanes/stride/arena/scratch sizes |
//! | `X0803` | compaction permutation is a bijection with consistent inverse |
//! | `X0804` | per-lane memory bank shapes match the netlist declarations |

use essent_core::diag::{codes, Diagnostic, Report};
use essent_netlist::Netlist;
use essent_sim::batch::BatchAudit;
use essent_sim::compile::Layout;

/// Audits a batch engine's captured stride geometry, lane permutation
/// and bank shapes against `netlist`, the design it was built over.
pub fn check_batch(netlist: &Netlist, audit: &BatchAudit) -> Report {
    let mut report = Report::new();
    let layout = Layout::new(netlist);

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
