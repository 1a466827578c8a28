//! The merge-based acyclic partitioner (paper Section IV, Figure 4).
//!
//! Starting from the MFFC seed decomposition, three greedy merge phases
//! eliminate small partitions (those below the coarsening threshold
//! `C_p`), which "contain too few components to fully amortize the cut
//! edges":
//!
//! * **Phase A** — absorb single-parent partitions into their parent
//!   (always legal: a partition fed by exactly one other partition can
//!   have no external path to or from it);
//! * **Phase B** — merge small partitions with small *siblings*
//!   (partitions sharing a parent), prioritizing merges by the number of
//!   partition-level cut edges they eliminate;
//! * **Phase C** — merge remaining small partitions with any sibling,
//!   maximizing the fraction of shared input signals.
//!
//! Every candidate merge in phases B and C passes the external-path
//! legality test ([`crate::legality`]), which guarantees the partition
//! graph stays acyclic — the property that makes a singular static
//! schedule possible.
//!
//! A fourth, **profile-guided** phase ([`activity_merge`]) runs after
//! the structural phases when an [`ActivityPrior`] carries measured
//! per-node activity: directly-connected partitions that are *both*
//! almost always active merge (their trigger traffic is pure overhead —
//! the consumer re-evaluates every cycle anyway), while rarely-co-active
//! pairs are left apart so skipping keeps paying. The phase proves the
//! same side conditions as B and C (external-path legality, hence
//! acyclicity) plus its own hot-threshold and size-cap conditions, and
//! returns a replayable merge log that `essent-verify` audits (F0401).

use crate::dag::DagView;
use crate::diag::{codes, Diagnostic, Report};
use crate::legality;
use crate::mffc;
use std::collections::BTreeSet;
use std::fmt;

/// An assignment of every node to exactly one partition, with the
/// partition-level graph maintained incrementally through merges.
#[derive(Debug, Clone)]
pub struct Partitioning {
    part_of: Vec<usize>,
    members: Vec<Vec<usize>>,
    /// Partition-level adjacency (derived from node edges that cross
    /// partitions). `BTreeSet` keeps iteration deterministic.
    pub(crate) preds: Vec<BTreeSet<usize>>,
    pub(crate) succs: Vec<BTreeSet<usize>>,
    alive: Vec<bool>,
}

impl Partitioning {
    /// Builds a partitioning from a node→partition assignment; the
    /// partition graph is derived lazily by [`Partitioning::attach`].
    pub fn from_assignment(part_of: Vec<usize>, partitions: usize) -> Self {
        let mut members = vec![Vec::new(); partitions];
        for (node, &p) in part_of.iter().enumerate() {
            members[p].push(node);
        }
        Partitioning {
            part_of,
            members,
            preds: vec![BTreeSet::new(); partitions],
            succs: vec![BTreeSet::new(); partitions],
            alive: vec![true; partitions],
        }
    }

    /// Derives the partition-level adjacency from the node graph. Must be
    /// called before merging.
    pub fn attach(&mut self, dag: &DagView) {
        for set in self.preds.iter_mut().chain(self.succs.iter_mut()) {
            set.clear();
        }
        for node in 0..dag.node_count() {
            let p = self.part_of[node];
            for &succ in &dag.succs[node] {
                let q = self.part_of[succ];
                if p != q {
                    self.succs[p].insert(q);
                    self.preds[q].insert(p);
                }
            }
        }
    }

    /// The partition of a node.
    pub fn part_of(&self, node: usize) -> usize {
        self.part_of[node]
    }

    /// The node→partition assignment slice.
    pub fn assignment(&self) -> &[usize] {
        &self.part_of
    }

    /// The member nodes of a partition (unsorted).
    pub fn members(&self, partition: usize) -> &[usize] {
        &self.members[partition]
    }

    /// Iterator over partition ids that still exist.
    pub fn live_partitions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.members.len()).filter(|&p| self.alive[p])
    }

    /// `true` if the partition still exists.
    pub fn is_alive(&self, partition: usize) -> bool {
        self.alive[partition]
    }

    /// The partition-level successors of a live partition, ascending.
    pub fn succs_of(&self, partition: usize) -> Vec<usize> {
        self.succs[partition].iter().copied().collect()
    }

    /// The partition-level predecessors of a live partition, ascending.
    pub fn preds_of(&self, partition: usize) -> Vec<usize> {
        self.preds[partition].iter().copied().collect()
    }

    /// Merges partition `b` into partition `a`, updating the assignment
    /// and the partition graph.
    ///
    /// The caller is responsible for having checked
    /// [`legality::merge_legal`]; this method only performs the move.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either partition is dead.
    pub fn merge(&mut self, a: usize, b: usize) {
        assert!(a != b, "cannot merge a partition with itself");
        assert!(self.alive[a] && self.alive[b], "merge of dead partition");
        let moved = std::mem::take(&mut self.members[b]);
        for &node in &moved {
            self.part_of[node] = a;
        }
        self.members[a].extend(moved);
        self.alive[b] = false;

        // Rewire partition adjacency: b's neighbors become a's, with the
        // internal a<->b edges consumed.
        let b_preds = std::mem::take(&mut self.preds[b]);
        let b_succs = std::mem::take(&mut self.succs[b]);
        for p in b_preds {
            self.succs[p].remove(&b);
            if p != a {
                self.succs[p].insert(a);
                self.preds[a].insert(p);
            }
        }
        for s in b_succs {
            self.preds[s].remove(&b);
            if s != a {
                self.preds[s].insert(a);
                self.succs[a].insert(s);
            }
        }
        self.preds[a].remove(&b);
        self.succs[a].remove(&b);
        self.preds[a].remove(&a);
        self.succs[a].remove(&a);
    }

    /// Number of partition-level cut edges.
    pub fn cut_edges(&self) -> usize {
        self.live_partitions().map(|p| self.succs[p].len()).sum()
    }

    /// Checks the two partitioning invariants on which CCSS execution
    /// rests: every node in exactly one live partition (*exact cover* —
    /// partitioning, not clustering), and the partition graph *acyclic*
    /// (singular schedules exist). Reports every violation (not just the
    /// first) with stable codes.
    pub fn check(&self, dag: &DagView) -> Report {
        let mut report = Report::new();
        // Exact cover.
        let mut seen = vec![false; dag.node_count()];
        for p in self.live_partitions() {
            for &node in &self.members[p] {
                if seen[node] {
                    report.push(
                        Diagnostic::error(
                            codes::DOUBLE_COVER,
                            format!("node {node} appears in two partitions"),
                        )
                        .with_partition(p),
                    );
                }
                seen[node] = true;
                if self.part_of[node] != p {
                    report.push(
                        Diagnostic::error(
                            codes::MEMBER_MISPLACED,
                            format!(
                                "node {node} assignment ({}) disagrees with members of {p}",
                                self.part_of[node]
                            ),
                        )
                        .with_partition(p),
                    );
                }
            }
        }
        for (missing, _) in seen.iter().enumerate().filter(|(_, &s)| !s) {
            report.push(Diagnostic::error(
                codes::COVER_MISSING,
                format!("node {missing} not in any partition"),
            ));
        }
        // Acyclicity of the *recomputed* partition graph (do not trust the
        // incrementally maintained one).
        let mut fresh = self.clone();
        fresh.attach(dag);
        let live: Vec<usize> = fresh.live_partitions().collect();
        let index_of = |p: usize| live.binary_search(&p).expect("live partition");
        let mut indegree = vec![0usize; live.len()];
        for &p in &live {
            for &s in &fresh.succs[p] {
                indegree[index_of(s)] += 1;
            }
        }
        let mut queue: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&p| indegree[index_of(p)] == 0)
            .collect();
        let mut done = 0;
        let mut head = 0;
        while head < queue.len() {
            let p = queue[head];
            head += 1;
            done += 1;
            for &s in &fresh.succs[p] {
                let i = index_of(s);
                indegree[i] -= 1;
                if indegree[i] == 0 {
                    queue.push(s);
                }
            }
        }
        if done != live.len() {
            report.push(Diagnostic::error(
                codes::PARTITION_CYCLE,
                format!(
                    "partition graph has a cycle ({} of {} partitions unreachable by Kahn's sort)",
                    live.len() - done,
                    live.len()
                ),
            ));
        }
        report
    }

    /// Summary statistics.
    pub fn stats(&self) -> PartitionStats {
        let sizes: Vec<usize> = self
            .live_partitions()
            .map(|p| self.members[p].len())
            .collect();
        let count = sizes.len();
        let largest = sizes.iter().copied().max().unwrap_or(0);
        let nodes: usize = sizes.iter().sum();
        PartitionStats {
            partitions: count,
            nodes,
            largest,
            mean_size: if count == 0 {
                0.0
            } else {
                nodes as f64 / count as f64
            },
            cut_edges: self.cut_edges(),
        }
    }
}

/// Summary of a partitioning, for reports and the Figure 7 harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionStats {
    pub partitions: usize,
    pub nodes: usize,
    pub largest: usize,
    pub mean_size: f64,
    pub cut_edges: usize,
}

impl fmt::Display for PartitionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} partitions over {} nodes (mean {:.1}, largest {}), {} cut edges",
            self.partitions, self.nodes, self.mean_size, self.largest, self.cut_edges
        )
    }
}

/// Runs the full partitioner: MFFC seed, then merge phases A, B, C.
///
/// `c_p` is the paper's coarsening threshold: partitions smaller than
/// `c_p` nodes are "small" and the merge phases try to eliminate them.
/// The paper selects `C_p = 8` as the host-tuned, design-insensitive
/// default (Figure 6).
pub fn partition(dag: &DagView, c_p: usize) -> Partitioning {
    let mut parts = mffc::mffc_decompose(dag);
    parts.attach(dag);
    merge_single_parent(&mut parts);
    merge_small_siblings(&mut parts, dag, c_p);
    merge_small_into_any_sibling(&mut parts, dag, c_p);
    parts
}

/// Phase A (Figure 4A): a partition whose inputs all come from a single
/// parent partition merges into that parent. Such merges can never induce
/// a cycle: an external path into the child would require a second
/// parent, and a path from the child back to the parent would already be
/// a cycle.
pub fn merge_single_parent(parts: &mut Partitioning) {
    loop {
        let mut merged_any = false;
        let candidates: Vec<usize> = parts.live_partitions().collect();
        for p in candidates {
            if !parts.is_alive(p) {
                continue;
            }
            if parts.preds[p].len() == 1 {
                let parent = *parts.preds[p].iter().next().expect("single parent");
                if parts.is_alive(parent) {
                    parts.merge(parent, p);
                    merged_any = true;
                }
            }
        }
        if !merged_any {
            return;
        }
    }
}

/// Phase B (Figure 4B): merge small partitions with small siblings.
///
/// Candidates are pairs of small partitions sharing at least one parent;
/// each round scores every candidate by the number of partition-level cut
/// edges the merge would eliminate (shared parents + direct edges, which
/// "simultaneously maximizes the number of partitions in a merge as well
/// as the number of common ancestors"), merges greedily in score order,
/// and repeats until no legal merge remains.
pub fn merge_small_siblings(parts: &mut Partitioning, dag: &DagView, c_p: usize) {
    let _ = dag;
    loop {
        let mut candidates = sibling_pairs(parts, c_p, true);
        if candidates.is_empty() {
            return;
        }
        // Highest score first; ties broken by ids for determinism.
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut merged_any = false;
        for (_score, a, b) in candidates {
            if !parts.is_alive(a) || !parts.is_alive(b) {
                continue;
            }
            // Both must still be small: merges grow partitions.
            if parts.members(a).len() >= c_p || parts.members(b).len() >= c_p {
                continue;
            }
            if legality::merge_legal(parts, a, b) {
                parts.merge(a, b);
                merged_any = true;
            }
        }
        if !merged_any {
            return;
        }
    }
}

/// Phase C (Figure 4C): remaining small partitions merge with *any*
/// sibling (small or large), choosing the sibling with the largest
/// fraction of shared input partitions (the paper's "fraction of input
/// signals in common" at the granularity the partition graph retains).
pub fn merge_small_into_any_sibling(parts: &mut Partitioning, dag: &DagView, c_p: usize) {
    let _ = dag;
    loop {
        let mut merged_any = false;
        let smalls: Vec<usize> = parts
            .live_partitions()
            .filter(|&p| parts.members(p).len() < c_p)
            .collect();
        for p in smalls {
            if !parts.is_alive(p) || parts.members(p).len() >= c_p {
                continue;
            }
            // Candidate siblings: co-children of any of p's parents.
            let mut best: Option<(f64, usize)> = None;
            let parents: Vec<usize> = parts.preds[p].iter().copied().collect();
            let p_inputs: BTreeSet<usize> = parents.iter().copied().collect();
            let mut seen = BTreeSet::new();
            for &parent in &parents {
                for &sib in parts.succs[parent].iter() {
                    if sib == p || !parts.is_alive(sib) || !seen.insert(sib) {
                        continue;
                    }
                    let sib_inputs: BTreeSet<usize> = parts.preds[sib].iter().copied().collect();
                    let common = p_inputs.intersection(&sib_inputs).count();
                    let union = p_inputs.union(&sib_inputs).count();
                    let score = if union == 0 {
                        0.0
                    } else {
                        common as f64 / union as f64
                    };
                    match best {
                        Some((best_score, best_sib)) => {
                            if score > best_score || (score == best_score && sib < best_sib) {
                                best = Some((score, sib));
                            }
                        }
                        None => best = Some((score, sib)),
                    }
                }
            }
            if let Some((_score, sib)) = best {
                if legality::merge_legal(parts, sib, p) {
                    parts.merge(sib, p);
                    merged_any = true;
                }
            }
        }
        if !merged_any {
            return;
        }
    }
}

/// Measured (or assumed) per-node activity, the input to the
/// profile-guided merge phase and the parallel level scheduler.
///
/// Rates and costs are indexed by extended-DAG node so the prior
/// survives repartitioning: a profile taken against one plan's schedule
/// units is projected down to the member nodes, and any later
/// partitioning re-aggregates it per partition. `NaN` marks an unknown
/// rate and `0.0` an unknown cost — a prior built by
/// [`ActivityPrior::neutral`] therefore drives no merges at all and
/// leaves cost-model consumers on their static fallback.
#[derive(Debug, Clone)]
pub struct ActivityPrior {
    /// Per node: fraction of cycles the node's owning schedule unit was
    /// evaluated (`evals / (evals + skips)`), in `[0, 1]`; `NaN` =
    /// unknown.
    rate: Vec<f64>,
    /// Per node: estimated eval ticks attributed to the node over the
    /// whole profiled run (the owning unit's estimated time split across
    /// its members); `0.0` = unknown.
    cost: Vec<f64>,
}

impl ActivityPrior {
    /// A prior with no information: all rates unknown, all costs zero.
    pub fn neutral(nodes: usize) -> ActivityPrior {
        ActivityPrior {
            rate: vec![f64::NAN; nodes],
            cost: vec![0.0; nodes],
        }
    }

    /// A prior asserting the same activity rate for every node (the
    /// adversarial all-zero / all-hot corners use this).
    pub fn uniform(nodes: usize, rate: f64) -> ActivityPrior {
        ActivityPrior {
            rate: vec![rate; nodes],
            cost: vec![0.0; nodes],
        }
    }

    /// Number of nodes the prior describes.
    pub fn len(&self) -> usize {
        self.rate.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rate.is_empty()
    }

    /// `true` when no node carries a known rate or cost — feedback with
    /// such a prior is a guaranteed no-op on the partitioning.
    pub fn is_neutral(&self) -> bool {
        self.rate.iter().all(|r| r.is_nan()) && self.cost.iter().all(|&c| c == 0.0)
    }

    /// Records measured activity for one node.
    pub fn set_node(&mut self, node: usize, rate: f64, cost: f64) {
        self.rate[node] = rate;
        self.cost[node] = cost;
    }

    /// The recorded rate of a node (`NaN` if unknown).
    pub fn node_rate(&self, node: usize) -> f64 {
        self.rate[node]
    }

    /// The recorded cost of a node (`0.0` if unknown).
    pub fn node_cost(&self, node: usize) -> f64 {
        self.cost[node]
    }

    /// Aggregate activity rate of a partition: the mean over members
    /// with a known rate, `NaN` when no member has one. An unknown
    /// member does not dilute the mean — a partition is only as hot as
    /// what was actually measured of it.
    pub fn part_rate(&self, parts: &Partitioning, partition: usize) -> f64 {
        let mut sum = 0.0;
        let mut known = 0usize;
        for &node in parts.members(partition) {
            let r = self.rate.get(node).copied().unwrap_or(f64::NAN);
            if !r.is_nan() {
                sum += r;
                known += 1;
            }
        }
        if known == 0 {
            f64::NAN
        } else {
            sum / known as f64
        }
    }

    /// Aggregate estimated cost of a partition (sum of member costs).
    pub fn part_cost(&self, parts: &Partitioning, partition: usize) -> f64 {
        parts
            .members(partition)
            .iter()
            .map(|&n| self.cost.get(n).copied().unwrap_or(0.0))
            .sum()
    }
}

/// Tuning knobs for [`activity_merge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityMergeParams {
    /// Both endpoints of a merge must show at least this activity rate.
    /// Merging anything cooler trades away skippability for nothing.
    pub hot_threshold: f64,
    /// Merged partitions may not exceed this many nodes — always-active
    /// regions must not snowball into one straggler that serializes the
    /// parallel schedule.
    pub max_size: usize,
}

impl ActivityMergeParams {
    /// Defaults scaled from the coarsening threshold: hot means "active
    /// ≥ 90% of cycles", and merged partitions stay within `8 × C_p`
    /// nodes.
    pub fn for_cp(c_p: usize) -> ActivityMergeParams {
        ActivityMergeParams {
            hot_threshold: 0.9,
            max_size: 8 * c_p.max(1),
        }
    }
}

/// One applied activity merge, in application order. The log is the
/// verifier's replay script: starting from the structural partitioning,
/// re-applying each record must reproduce the final assignment with
/// every side condition holding at its point in the sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityMergeRecord {
    /// The surviving partition.
    pub kept: usize,
    /// The partition merged into `kept` (dead afterwards).
    pub absorbed: usize,
    /// Aggregate rates of the two partitions at merge time.
    pub rate_kept: f64,
    pub rate_absorbed: f64,
}

/// Phase D: merge directly-connected partition pairs whose measured
/// activity shows *correlated, near-permanent* activation.
///
/// When producer and consumer are both hot (rate ≥
/// [`ActivityMergeParams::hot_threshold`]), the cut edge between them is
/// pure overhead — the output snapshot, compare, and flag store fire
/// every cycle and never buy a skip — so the pair merges, subject to the
/// same external-path legality test the structural phases use plus a
/// size cap. Pairs with an unknown or cold endpoint are left alone:
/// `NaN` rates (the neutral prior) match no threshold, making the phase
/// a guaranteed no-op without profile data.
///
/// Candidates are scored by `(min endpoint rate, eliminated cut edges)`
/// and applied greedily until a fixpoint, mirroring phase B's loop
/// structure. Returns the applied merges in order.
pub fn activity_merge(
    parts: &mut Partitioning,
    prior: &ActivityPrior,
    params: &ActivityMergeParams,
) -> Vec<ActivityMergeRecord> {
    let mut log = Vec::new();
    loop {
        // Enumerate hot directly-connected pairs. Rates are recomputed
        // each round: a merge changes the aggregate of the survivor.
        // `NaN` rates (unknown) fail the `hot` test by construction.
        let hot = |r: f64| !r.is_nan() && r >= params.hot_threshold;
        let mut candidates: Vec<(f64, usize, usize, usize)> = Vec::new();
        for p in parts.live_partitions() {
            let rate_p = prior.part_rate(parts, p);
            if !hot(rate_p) {
                continue;
            }
            for &q in parts.succs[p].iter() {
                if !parts.is_alive(q) {
                    continue;
                }
                let rate_q = prior.part_rate(parts, q);
                if !hot(rate_q) {
                    continue;
                }
                if parts.members(p).len() + parts.members(q).len() > params.max_size {
                    continue;
                }
                let shared = parts.preds[p].intersection(&parts.preds[q]).count();
                let direct = 1 + parts.succs[q].contains(&p) as usize;
                candidates.push((rate_p.min(rate_q), shared + direct, p, q));
            }
        }
        if candidates.is_empty() {
            return log;
        }
        // Hottest pair first, then most cut edges eliminated; ids break
        // ties so the phase is deterministic.
        candidates.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then(b.1.cmp(&a.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        let mut merged_any = false;
        for (_rate, _score, a, b) in candidates {
            if !parts.is_alive(a) || !parts.is_alive(b) {
                continue;
            }
            // Re-check the side conditions: earlier merges this round may
            // have grown or cooled either endpoint.
            let rate_a = prior.part_rate(parts, a);
            let rate_b = prior.part_rate(parts, b);
            if !hot(rate_a) || !hot(rate_b) {
                continue;
            }
            if parts.members(a).len() + parts.members(b).len() > params.max_size {
                continue;
            }
            if legality::merge_legal(parts, a, b) {
                parts.merge(a, b);
                log.push(ActivityMergeRecord {
                    kept: a,
                    absorbed: b,
                    rate_kept: rate_a,
                    rate_absorbed: rate_b,
                });
                merged_any = true;
            }
        }
        if !merged_any {
            return log;
        }
    }
}

/// Runs the full partitioner including the profile-guided phase D, and
/// returns the replayable merge log alongside the partitioning.
///
/// With a neutral prior the result is identical to [`partition`] and the
/// log is empty.
pub fn partition_with_prior(
    dag: &DagView,
    c_p: usize,
    prior: &ActivityPrior,
    params: &ActivityMergeParams,
) -> (Partitioning, Vec<ActivityMergeRecord>) {
    let mut parts = partition(dag, c_p);
    let log = activity_merge(&mut parts, prior, params);
    (parts, log)
}

/// Enumerates sibling pairs `(score, a, b)` where both are small (and,
/// when `both_small`, both below `c_p`). Score = shared parents + direct
/// partition edges between the two.
fn sibling_pairs(parts: &Partitioning, c_p: usize, both_small: bool) -> Vec<(usize, usize, usize)> {
    let mut pairs = Vec::new();
    let mut seen = BTreeSet::new();
    for parent in parts.live_partitions() {
        let children: Vec<usize> = parts.succs[parent]
            .iter()
            .copied()
            .filter(|&c| parts.is_alive(c) && (!both_small || parts.members(c).len() < c_p))
            .collect();
        for i in 0..children.len() {
            for j in (i + 1)..children.len() {
                let (a, b) = (children[i].min(children[j]), children[i].max(children[j]));
                if !seen.insert((a, b)) {
                    continue;
                }
                let shared = parts.preds[a].intersection(&parts.preds[b]).count();
                let direct =
                    parts.succs[a].contains(&b) as usize + parts.succs[b].contains(&a) as usize;
                pairs.push((shared + direct, a, b));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 graph: A -> B, A -> C, B -> D, C -> D with the
    /// cyclic grouping {A, D} / {B, C} forbidden.
    #[test]
    fn figure2_cyclic_grouping_is_rejected() {
        let dag = DagView::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        // Force the bad assignment {A,D}, {B,C}:
        let mut bad = Partitioning::from_assignment(vec![0, 1, 1, 0], 2);
        assert!(!bad.check(&dag).is_clean());
        bad.attach(&dag);
        // And the alternate {A,B}, {C,D} is fine:
        let good = Partitioning::from_assignment(vec![0, 0, 1, 1], 2);
        assert!(good.check(&dag).is_clean());
    }

    #[test]
    fn phase_a_absorbs_chains() {
        // Two chains joining: 0->1->4, 2->3->4; MFFC makes {0,1},{2,3},{4}?
        // Actually 1 and 3 both feed 4 so 4's cone pulls them in; build a
        // shape where single-parent absorption matters:
        // 0 -> 1, 0 -> 2 (siblings), 1 -> 3, 3 is a sink; 2 is a sink.
        let dag = DagView::from_edges(4, &[(0, 1), (0, 2), (1, 3)]);
        let mut parts = mffc::mffc_decompose(&dag);
        parts.attach(&dag);
        // cones: {1,3} rooted at 3, {2}, {0}.
        assert_eq!(parts.live_partitions().count(), 3);
        merge_single_parent(&mut parts);
        assert!(parts.check(&dag).is_clean());
        // {1,3} and {2} each have the single parent {0}: all merge.
        assert_eq!(parts.live_partitions().count(), 1);
    }

    #[test]
    fn full_partitioner_collapses_small_graph() {
        let dag = DagView::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let parts = partition(&dag, 8);
        assert!(parts.check(&dag).is_clean());
        assert_eq!(parts.live_partitions().count(), 1);
    }

    #[test]
    fn cp_one_disables_small_merging() {
        // With c_p = 1 nothing is "small", so only phase A runs.
        let dag = DagView::from_edges(5, &[(0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 4)]);
        let parts = partition(&dag, 1);
        assert!(parts.check(&dag).is_clean());
        let merged = partition(&dag, 16);
        assert!(merged.live_partitions().count() <= parts.live_partitions().count());
    }

    #[test]
    fn merge_updates_adjacency() {
        let dag = DagView::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut parts = Partitioning::from_assignment(vec![0, 1, 2, 3], 4);
        parts.attach(&dag);
        parts.merge(1, 2);
        assert!(parts.succs[0].contains(&1));
        assert!(parts.succs[1].contains(&3));
        assert!(!parts.is_alive(2));
        assert_eq!(parts.part_of(2), 1);
        assert!(parts.check(&dag).is_clean());
    }

    /// A chain of three singleton partitions, all hot: phase D should
    /// collapse the hot pairs while legality keeps the result acyclic.
    #[test]
    fn activity_merge_collapses_hot_chain() {
        let dag = DagView::from_edges(3, &[(0, 1), (1, 2)]);
        let mut parts = Partitioning::from_assignment(vec![0, 1, 2], 3);
        parts.attach(&dag);
        let prior = ActivityPrior::uniform(3, 1.0);
        let params = ActivityMergeParams {
            hot_threshold: 0.9,
            max_size: 8,
        };
        let log = activity_merge(&mut parts, &prior, &params);
        assert_eq!(parts.live_partitions().count(), 1);
        assert_eq!(log.len(), 2);
        assert!(parts.check(&dag).is_clean());
        for rec in &log {
            assert!(rec.rate_kept >= params.hot_threshold);
            assert!(rec.rate_absorbed >= params.hot_threshold);
        }
    }

    /// A cold endpoint blocks the merge: only the hot-hot edge goes.
    #[test]
    fn activity_merge_keeps_cold_partitions_apart() {
        let dag = DagView::from_edges(3, &[(0, 1), (1, 2)]);
        let mut parts = Partitioning::from_assignment(vec![0, 1, 2], 3);
        parts.attach(&dag);
        let mut prior = ActivityPrior::neutral(3);
        prior.set_node(0, 1.0, 0.0);
        prior.set_node(1, 0.95, 0.0);
        prior.set_node(2, 0.05, 0.0); // rarely active: must stay skippable
        let log = activity_merge(&mut parts, &prior, &ActivityMergeParams::for_cp(8));
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].kept, log[0].absorbed), (0, 1));
        assert!(parts.is_alive(2), "cold partition must survive");
        assert!(parts.check(&dag).is_clean());
    }

    /// Neutral and all-zero priors drive no merges at all.
    #[test]
    fn activity_merge_noop_without_heat() {
        let dag = DagView::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        for prior in [ActivityPrior::neutral(4), ActivityPrior::uniform(4, 0.0)] {
            let (parts, log) =
                partition_with_prior(&dag, 1, &prior, &ActivityMergeParams::for_cp(1));
            assert!(log.is_empty());
            assert_eq!(parts.assignment(), partition(&dag, 1).assignment());
        }
        assert!(ActivityPrior::neutral(4).is_neutral());
        assert!(!ActivityPrior::uniform(4, 0.0).is_neutral());
    }

    /// The size cap stops hot regions from snowballing.
    #[test]
    fn activity_merge_respects_size_cap() {
        // A hot chain of 4 singletons with max_size 2: only disjoint
        // pairs may merge, never a partition of 3+.
        let dag = DagView::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut parts = Partitioning::from_assignment(vec![0, 1, 2, 3], 4);
        parts.attach(&dag);
        let prior = ActivityPrior::uniform(4, 1.0);
        let params = ActivityMergeParams {
            hot_threshold: 0.5,
            max_size: 2,
        };
        activity_merge(&mut parts, &prior, &params);
        for p in parts.live_partitions() {
            assert!(parts.members(p).len() <= 2);
        }
        assert!(parts.check(&dag).is_clean());
    }

    /// Figure 2 shape, everything hot: phase D must not take the
    /// cycle-inducing merge even though the activity score wants it.
    #[test]
    fn activity_merge_refuses_illegal_pairs() {
        let dag = DagView::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut parts = Partitioning::from_assignment(vec![0, 1, 2, 3], 4);
        parts.attach(&dag);
        let prior = ActivityPrior::uniform(4, 1.0);
        let params = ActivityMergeParams {
            hot_threshold: 0.5,
            max_size: 4,
        };
        activity_merge(&mut parts, &prior, &params);
        assert!(parts.check(&dag).is_clean());
    }

    /// Partition aggregates: unknown members don't dilute the mean.
    #[test]
    fn prior_aggregation_ignores_unknowns() {
        let dag = DagView::from_edges(3, &[(0, 1), (0, 2)]);
        let mut parts = Partitioning::from_assignment(vec![0, 0, 0], 1);
        parts.attach(&dag);
        let mut prior = ActivityPrior::neutral(3);
        prior.set_node(0, 0.8, 10.0);
        prior.set_node(2, 0.4, 6.0);
        assert!((prior.part_rate(&parts, 0) - 0.6).abs() < 1e-12);
        assert!((prior.part_cost(&parts, 0) - 16.0).abs() < 1e-12);
        assert!(ActivityPrior::neutral(2).part_rate(&parts, 0).is_nan());
    }

    #[test]
    fn stats_are_coherent() {
        let dag = DagView::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let parts = partition(&dag, 2);
        let stats = parts.stats();
        assert_eq!(stats.nodes, 4);
        assert!(stats.partitions >= 1);
        assert!(stats.largest <= 4);
    }
}
