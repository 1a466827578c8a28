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
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
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
    /// [`legality::MergeCheck::merge_legal`]; this method only performs
    /// the move.
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
///
/// A pair is only tried while both sides are alive and small, and a
/// partition never shrinks, so once `a` has died or grown every later
/// pair `(a, _)` is a no-op. The candidates are therefore never listed
/// whole: each `a`'s row of pairs waits in a heap under a bound on its
/// best score, and is scored from the round-start adjacency only when
/// that bound comes up and `a` is still alive and small; its pairs at a
/// score are taken out only when the row's turn at that score comes.
pub fn merge_small_siblings(parts: &mut Partitioning, c_p: usize) {
    let mut rows = SiblingRows::default();
    let mut check = legality::MergeCheck::default();
    loop {
        rows.start_round(parts, c_p);
        let mut merged_any = false;
        while let Some((a, b)) = rows.next_pair() {
            if check.merge_legal(parts, a, b) {
                parts.merge(a, b);
                rows.merged(a, b, parts.members(a).len() < c_p);
                merged_any = true;
            }
        }
        if !merged_any {
            return;
        }
    }
}

/// Phase B's candidate pairs for one round, in merge order (see
/// [`merge_small_siblings`]).
#[derive(Debug, Default)]
struct SiblingRows {
    /// The round-start adjacency, flat: `preds[pred_at[p]..pred_at[p + 1]]`
    /// are partition `p`'s parents, ascending, and `succs[succ_at[p]..
    /// succ_end[p]]` its children. Scoring prunes children that are no
    /// longer alive and small from the end of a list's range: they stay
    /// so for the rest of the round and count for no row.
    pred_at: Vec<usize>,
    preds: Vec<usize>,
    succ_at: Vec<usize>,
    succ_end: Vec<usize>,
    succs: Vec<usize>,
    /// Per partition: alive and small, kept current through the round's
    /// merges.
    small: Vec<bool>,
    /// Rows waiting, by `(score, Reverse(a))`: the key bounds the best
    /// score among the row's pairs not yet taken out.
    heap: BinaryHeap<(usize, Reverse<usize>)>,
    /// The row whose pairs are being taken out, at its score, and the
    /// next lower score the row has pairs at (0 for none).
    active: Option<(usize, usize, usize)>,
    /// The active row's siblings at its score, descending (taken from
    /// the back).
    level: Vec<usize>,
    /// Row-scoring scratch: `score[b]` counts for the latest scoring
    /// while `owner[b] == scoring`; `siblings` lists those `b`.
    scoring: usize,
    owner: Vec<usize>,
    score: Vec<usize>,
    siblings: Vec<usize>,
    /// Bounding scratch: the wide parents of the row being bounded.
    wide: Vec<usize>,
}

impl SiblingRows {
    /// Snapshots the adjacency and queues one row per small `a`.
    fn start_round(&mut self, parts: &Partitioning, c_p: usize) {
        let n = parts.members.len();
        let flatten = |sets: &[BTreeSet<usize>], at: &mut Vec<usize>, flat: &mut Vec<usize>| {
            at.clear();
            flat.clear();
            at.push(0);
            for set in sets {
                flat.extend(set.iter().copied());
                at.push(flat.len());
            }
        };
        flatten(&parts.preds, &mut self.pred_at, &mut self.preds);
        flatten(&parts.succs, &mut self.succ_at, &mut self.succs);
        self.succ_end.clear();
        self.succ_end.extend_from_slice(&self.succ_at[1..]);
        self.small.clear();
        self.small
            .extend((0..n).map(|p| parts.is_alive(p) && parts.members(p).len() < c_p));
        self.heap.clear();
        self.active = None;
        self.owner.resize(n, 0);
        self.score.resize(n, 0);
        for a in 0..n {
            if !self.small[a] {
                continue;
            }
            if let Some(bound) = self.bound(a) {
                self.heap.push((bound, Reverse(a)));
            }
        }
    }

    /// A bound on the best score in `a`'s row, `None` for an empty row.
    /// The siblings a narrow parent or a direct edge names are scored
    /// exactly; any other sibling shares only wide parents, so it scores
    /// at most the number of wide parents with a child past `a`.
    fn bound(&mut self, a: usize) -> Option<usize> {
        /// Parents with more children than this count as wide.
        const NARROW: usize = 32;
        let SiblingRows {
            pred_at,
            preds,
            succ_at,
            succ_end,
            succs,
            small,
            scoring,
            owner,
            score,
            siblings,
            wide,
            ..
        } = self;
        *scoring += 1;
        siblings.clear();
        wide.clear();
        let mut named = |b: usize, owner: &mut Vec<usize>, score: &mut Vec<usize>| {
            if owner[b] != *scoring {
                owner[b] = *scoring;
                score[b] = 0;
                siblings.push(b);
            }
        };
        let parents = &preds[pred_at[a]..pred_at[a + 1]];
        for &q in parents {
            let children = &succs[succ_at[q]..succ_end[q]];
            let later = children.partition_point(|&b| b <= a);
            if later == children.len() {
                continue;
            }
            if children.len() > NARROW {
                wide.push(q);
                continue;
            }
            for &b in children[later..].iter().filter(|&&b| small[b]) {
                named(b, owner, score);
                score[b] += 1;
            }
        }
        let children = &succs[succ_at[a]..succ_end[a]];
        for &b in parents.iter().chain(children) {
            if b > a && small[b] {
                named(b, owner, score);
            }
        }
        let mut best = wide.len();
        for &b in siblings.iter() {
            let in_wide = wide
                .iter()
                .filter(|&&q| succs[succ_at[q]..succ_end[q]].binary_search(&b).is_ok())
                .count();
            let shared = score[b] + in_wide;
            if shared > 0 {
                let direct =
                    parents.binary_search(&b).is_ok() || children.binary_search(&b).is_ok();
                best = best.max(shared + direct as usize);
            }
        }
        (best > 0).then_some(best)
    }

    /// The next pair `(a, b)` of the round whose sides are both still
    /// alive and small, or `None` when the round is over.
    fn next_pair(&mut self) -> Option<(usize, usize)> {
        loop {
            if let Some((_, a, lower)) = self.active {
                if self.small[a] {
                    while let Some(b) = self.level.pop() {
                        if self.small[b] {
                            return Some((a, b));
                        }
                    }
                    if lower > 0 {
                        self.heap.push((lower, Reverse(a)));
                    }
                }
                self.active = None;
            }
            let (bound, Reverse(a)) = self.heap.pop()?;
            if !self.small[a] {
                continue;
            }
            // Pairs scoring above the bound were taken out at an
            // earlier turn of this row.
            self.score_row(a);
            let scores = self.siblings.iter().map(|&b| self.score[b]);
            match scores.filter(|&s| s <= bound).max() {
                Some(best) if best < bound => self.heap.push((best, Reverse(a))),
                Some(best) => {
                    let scores = self.siblings.iter().map(|&b| self.score[b]);
                    let lower = scores.filter(|&s| s < best).max().unwrap_or(0);
                    self.level.clear();
                    let at_best = self.siblings.iter().filter(|&&b| self.score[b] == best);
                    self.level.extend(at_best);
                    self.level.sort_unstable_by(|x, y| y.cmp(x));
                    self.active = Some((best, a, lower));
                }
                None => {}
            }
        }
    }

    /// Records that `b` merged into `a`, which is still small or not.
    fn merged(&mut self, a: usize, b: usize, a_small: bool) {
        self.small[a] = a_small;
        self.small[b] = false;
    }

    /// Scores `a`'s row from the round-start adjacency: walking the
    /// children of `a`'s parents counts, for each sibling `b > a`, how
    /// many parents the two share. Siblings no longer alive and small
    /// are left out, as every pair with them would be skipped.
    fn score_row(&mut self, a: usize) {
        let SiblingRows {
            pred_at,
            preds,
            succ_at,
            succ_end,
            succs,
            small,
            scoring,
            owner,
            score,
            siblings,
            ..
        } = self;
        *scoring += 1;
        siblings.clear();
        for &parent in &preds[pred_at[a]..pred_at[a + 1]] {
            let (start, end) = (succ_at[parent], succ_end[parent]);
            let later = start + succs[start..end].partition_point(|&b| b <= a);
            let mut kept = later;
            for i in later..end {
                let b = succs[i];
                if !small[b] {
                    continue;
                }
                succs[kept] = b;
                kept += 1;
                if owner[b] != *scoring {
                    owner[b] = *scoring;
                    score[b] = 0;
                    siblings.push(b);
                }
                score[b] += 1;
            }
            succ_end[parent] = kept;
        }
        // A direct edge between the two is one more cut edge removed
        // (the graph is acyclic, so at most one direction exists).
        let neighbors = preds[pred_at[a]..pred_at[a + 1]]
            .iter()
            .chain(&succs[succ_at[a]..succ_end[a]]);
        for &b in neighbors {
            if owner[b] == *scoring {
                score[b] += 1;
            }
        }
    }
}

/// Phase C (Figure 4C): remaining small partitions merge with *any*
/// sibling (small or large), choosing the sibling with the largest
/// fraction of shared input partitions (the paper's "fraction of input
/// signals in common" at the granularity the partition graph retains).
pub fn merge_small_into_any_sibling(parts: &mut Partitioning, c_p: usize) {
    let mut check = legality::MergeCheck::default();
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
                if check.merge_legal(parts, sib, p) {
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
