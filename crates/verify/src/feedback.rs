//! Profile-feedback verifier (`F____` codes): audits the activity-guided
//! repartitioning and the cost table the profile feeds.
//!
//! Two passes:
//!
//! * [`check_activity_merge`] replays an [`ActivityMergeRecord`] log
//!   from the structural baseline partitioning and re-checks every side
//!   condition with this crate's own code — endpoint liveness, the hot
//!   threshold (re-aggregated from the prior), the size cap, and the
//!   no-new-cycle condition via an independent indirect-path search over
//!   the replayed partition graph. The replay must land exactly on the
//!   claimed final assignment, which is then re-proved an exact acyclic
//!   cover of the extended DAG (`F0401`).
//! * [`check_cost_model`] checks the per-partition cost table that the
//!   dataflow schedule's worker assignment and the JIT's hot-partition
//!   selection consume: right cardinality, no zero entries (`F0403`).
//!
//! As everywhere in this crate, the builders' own checks are never
//! called; the one shared piece is [`Partitioning::merge`] itself, the
//! artifact under audit being the *log*, not the merge mechanics.

use essent_core::diag::{codes, Diagnostic, Report};
use essent_core::partition::{
    partition, ActivityMergeParams, ActivityMergeRecord, ActivityPrior, Partitioning,
};
use essent_core::plan::CcssPlan;
use essent_core::DagView;
use essent_sim::frontend::CostModel;
use std::collections::BTreeSet;

/// Is there a path `from -> ... -> to` through at least one intermediate
/// partition? (The direct edge, if any, is excluded — a merge is illegal
/// exactly when such an indirect path exists, because collapsing the two
/// endpoints would then close a cycle.)
fn indirect_path(parts: &Partitioning, from: usize, to: usize) -> bool {
    let mut frontier: Vec<usize> = parts
        .succs_of(from)
        .into_iter()
        .filter(|&s| s != to)
        .collect();
    let mut seen: BTreeSet<usize> = frontier.iter().copied().collect();
    while let Some(p) = frontier.pop() {
        if p == to {
            return true;
        }
        for s in parts.succs_of(p) {
            if seen.insert(s) {
                frontier.push(s);
            }
        }
    }
    false
}

/// Replays `log` from a fresh `partition(dag, c_p)` and audits every
/// merge's side conditions, then proves the result equals `result` and
/// is still an exact acyclic cover. All findings are `F0401`.
pub fn check_activity_merge(
    dag: &DagView,
    c_p: usize,
    prior: &ActivityPrior,
    params: &ActivityMergeParams,
    log: &[ActivityMergeRecord],
    result: &Partitioning,
) -> Report {
    let mut report = Report::new();
    let mut parts = partition(dag, c_p);
    let hot = |r: f64| !r.is_nan() && r >= params.hot_threshold;
    for (step, rec) in log.iter().enumerate() {
        if rec.kept == rec.absorbed || !parts.is_alive(rec.kept) || !parts.is_alive(rec.absorbed) {
            report.push(
                Diagnostic::error(
                    codes::ACTIVITY_SIDE_CONDITION,
                    format!(
                        "merge step {step}: p{} <- p{} does not name two distinct live partitions",
                        rec.kept, rec.absorbed
                    ),
                )
                .with_partition(rec.kept),
            );
            // The replay state is unusable past a dead endpoint.
            return report;
        }
        let ra = prior.part_rate(&parts, rec.kept);
        let rb = prior.part_rate(&parts, rec.absorbed);
        if !hot(ra) || !hot(rb) {
            report.push(
                Diagnostic::error(
                    codes::ACTIVITY_SIDE_CONDITION,
                    format!(
                        "merge step {step}: p{} <- p{} merged with activity {:.3}/{:.3} \
                         below the hot threshold {:.3}",
                        rec.kept, rec.absorbed, ra, rb, params.hot_threshold
                    ),
                )
                .with_partition(rec.kept),
            );
        }
        let size = parts.members(rec.kept).len() + parts.members(rec.absorbed).len();
        if size > params.max_size {
            report.push(
                Diagnostic::error(
                    codes::ACTIVITY_SIDE_CONDITION,
                    format!(
                        "merge step {step}: p{} <- p{} produces {size} nodes, over the \
                         size cap {}",
                        rec.kept, rec.absorbed, params.max_size
                    ),
                )
                .with_partition(rec.kept),
            );
        }
        if indirect_path(&parts, rec.kept, rec.absorbed)
            || indirect_path(&parts, rec.absorbed, rec.kept)
        {
            report.push(
                Diagnostic::error(
                    codes::ACTIVITY_SIDE_CONDITION,
                    format!(
                        "merge step {step}: p{} <- p{} have an external path between \
                         them; merging closes a cycle",
                        rec.kept, rec.absorbed
                    ),
                )
                .with_partition(rec.kept),
            );
        }
        parts.merge(rec.kept, rec.absorbed);
    }
    if parts.assignment() != result.assignment() {
        report.push(Diagnostic::error(
            codes::ACTIVITY_SIDE_CONDITION,
            format!(
                "replaying the {}-step merge log does not reproduce the final assignment",
                log.len()
            ),
        ));
        return report;
    }
    // Final re-proof on the claimed result, from the assignment alone:
    // exact cover (every node in a live partition) and acyclicity of the
    // condensed partition graph via our own Kahn count.
    let n = dag.node_count();
    if result.assignment().len() != n {
        report.push(Diagnostic::error(
            codes::ACTIVITY_SIDE_CONDITION,
            format!(
                "merged partitioning covers {} nodes, extended DAG has {n}",
                result.assignment().len()
            ),
        ));
        return report;
    }
    for node in 0..n {
        if !result.is_alive(result.part_of(node)) {
            report.push(
                Diagnostic::error(
                    codes::ACTIVITY_SIDE_CONDITION,
                    format!(
                        "node {node} assigned to dead partition p{}",
                        result.part_of(node)
                    ),
                )
                .with_partition(result.part_of(node)),
            );
        }
    }
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (a, succs) in dag.succs.iter().enumerate() {
        for &b in succs {
            let (pa, pb) = (result.part_of(a), result.part_of(b));
            if pa != pb {
                edges.insert((pa, pb));
            }
        }
    }
    let live: Vec<usize> = result.live_partitions().collect();
    let mut indegree: std::collections::BTreeMap<usize, usize> =
        live.iter().map(|&p| (p, 0)).collect();
    for &(_, b) in &edges {
        *indegree.entry(b).or_insert(0) += 1;
    }
    let mut queue: Vec<usize> = live.iter().copied().filter(|p| indegree[p] == 0).collect();
    let mut done = 0usize;
    while let Some(p) = queue.pop() {
        done += 1;
        for &(a, b) in edges.range((p, 0)..(p + 1, 0)) {
            debug_assert_eq!(a, p);
            let d = indegree.get_mut(&b).expect("edge endpoint is live");
            *d -= 1;
            if *d == 0 {
                queue.push(b);
            }
        }
    }
    if done != live.len() {
        report.push(Diagnostic::error(
            codes::ACTIVITY_SIDE_CONDITION,
            format!(
                "merged partition graph is cyclic: {done} of {} partitions sort",
                live.len()
            ),
        ));
    }
    report
}

/// Audits a [`CostModel`] against the plan it was built for: one entry
/// per scheduled partition, none zero (`F0403`).
pub fn check_cost_model(plan: &CcssPlan, cost: &CostModel) -> Report {
    let mut report = Report::new();
    let np = plan.partitions.len();
    if cost.costs.len() != np {
        report.push(Diagnostic::error(
            codes::COST_RANGE,
            format!(
                "cost table has {} entries for {np} scheduled partitions",
                cost.costs.len()
            ),
        ));
        // Cardinality mismatch poisons the per-entry check below.
        return report;
    }
    for (sched_idx, &c) in cost.costs.iter().enumerate() {
        if c == 0 {
            report.push(
                Diagnostic::error(
                    codes::COST_RANGE,
                    format!("partition p{sched_idx} has zero estimated cost; the floor is 1"),
                )
                .with_partition(sched_idx),
            );
        }
    }
    report
}
