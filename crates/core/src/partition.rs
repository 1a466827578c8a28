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
    merge_small_siblings(&mut parts, c_p);
    merge_small_into_any_sibling(&mut parts, c_p);
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
/// as the number of common ancestors"), merges greedily in score order
/// (ties by ascending `(a, b)`), and repeats until no legal merge remains.
/// Scores are taken at the start of a round.
pub fn merge_small_siblings(parts: &mut Partitioning, c_p: usize) {
    loop {
        let buckets = sibling_pairs(parts, c_p);
        let mut merged_any = false;
        for &(a, b) in buckets.iter().rev().flatten() {
            let (a, b) = (a as usize, b as usize);
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

/// Phase B's candidates: every pair `a < b` of small partitions with a
/// shared parent, bucketed by score (shared parents + direct edges) and
/// in ascending `(a, b)` order within a bucket.
///
/// Built one row per small `a`: walking the children of `a`'s parents
/// counts, for each small sibling `b > a`, how many parents the two
/// share. That is still Σ k² over each parent's k small children, but
/// with one counter increment per step and no set or sort of pairs.
fn sibling_pairs(parts: &Partitioning, c_p: usize) -> Vec<Vec<(u32, u32)>> {
    let small = |p: usize| parts.members(p).len() < c_p;
    let mut buckets: Vec<Vec<(u32, u32)>> = Vec::new();
    // `score[b]` counts for row `a` while `row[b] == a + 1`.
    let mut row = vec![0; parts.members.len()];
    let mut score = vec![0; parts.members.len()];
    let mut siblings = Vec::new();
    for a in parts.live_partitions().filter(|&a| small(a)) {
        siblings.clear();
        for &parent in &parts.preds[a] {
            for &b in parts.succs[parent].range(a + 1..) {
                if !small(b) {
                    continue;
                }
                if row[b] != a + 1 {
                    row[b] = a + 1;
                    score[b] = 0;
                    siblings.push(b);
                }
                score[b] += 1;
            }
        }
        // A direct edge between the two is one more cut edge removed
        // (the graph is acyclic, so at most one direction exists).
        for &b in parts.preds[a].iter().chain(&parts.succs[a]) {
            if row[b] == a + 1 {
                score[b] += 1;
            }
        }
        siblings.sort_unstable();
        for &b in &siblings {
            if buckets.len() <= score[b] {
                buckets.resize_with(score[b] + 1, Vec::new);
            }
            buckets[score[b]].push((a as u32, b as u32));
        }
    }
    buckets
}

/// Phase C (Figure 4C): remaining small partitions merge with *any*
/// sibling (small or large), choosing the sibling with the largest
/// fraction of shared input partitions (the paper's "fraction of input
/// signals in common" at the granularity the partition graph retains).
pub fn merge_small_into_any_sibling(parts: &mut Partitioning, c_p: usize) {
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
