//! The merge-legality test (paper Section IV, extending Herrmann et al.):
//!
//! > Partitions A and B can be merged if and only if there is no external
//! > path in either direction between them.
//!
//! An *external path* traverses partitions other than A and B. If such a
//! path exists, merging A and B turns it into a cycle in the partition
//! graph, destroying the singular-schedule guarantee. Direct edges
//! between A and B are safe — they are consumed inside the merged
//! partition.

use crate::partition::Partitioning;

/// Returns `true` when merging `a` and `b` keeps the partition graph
/// acyclic.
///
/// Runs a forward search from each side's successors (excluding the other
/// side) looking for the other side; because the partition graph is
/// acyclic, at most one direction can have a path, but both are checked
/// since the pair may have no direct edge.
pub fn merge_legal(parts: &Partitioning, a: usize, b: usize) -> bool {
    debug_assert!(a != b);
    !indirect_path(parts, a, b) && !indirect_path(parts, b, a)
}

/// `true` if a path `from -> X -> ... -> to` exists with every
/// intermediate partition distinct from both endpoints.
fn indirect_path(parts: &Partitioning, from: usize, to: usize) -> bool {
    let mut visited = vec![false; parts.succs.len()];
    let mut stack: Vec<usize> = parts.succs[from]
        .iter()
        .copied()
        .filter(|&s| s != to && s != from)
        .collect();
    for &s in &stack {
        visited[s] = true;
    }
    while let Some(p) = stack.pop() {
        for &s in parts.succs[p].iter() {
            if s == to {
                return true;
            }
            if s != from && !visited[s] {
                visited[s] = true;
                stack.push(s);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagView;

    fn singletons(dag: &DagView) -> Partitioning {
        let n = dag.node_count();
        let mut parts = Partitioning::from_assignment((0..n).collect(), n);
        parts.attach(dag);
        parts
    }

    /// Figure 2: merging {A, D} (ids 0, 3) is illegal because of the
    /// external paths through B and C; merging {A, B} is legal.
    #[test]
    fn figure2_example() {
        let dag = DagView::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let parts = singletons(&dag);
        assert!(!merge_legal(&parts, 0, 3));
        assert!(merge_legal(&parts, 0, 1));
        assert!(merge_legal(&parts, 2, 3));
        // B and C are parallel: no path in either direction, mergeable.
        assert!(merge_legal(&parts, 1, 2));
    }

    #[test]
    fn direct_edge_is_not_external() {
        let dag = DagView::from_edges(2, &[(0, 1)]);
        let parts = singletons(&dag);
        assert!(merge_legal(&parts, 0, 1));
    }

    #[test]
    fn two_hop_path_blocks_merge() {
        // 0 -> 1 -> 2 plus direct 0 -> 2: the path through 1 is external.
        let dag = DagView::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let parts = singletons(&dag);
        assert!(!merge_legal(&parts, 0, 2));
        assert!(merge_legal(&parts, 0, 1));
        assert!(merge_legal(&parts, 1, 2));
    }

    #[test]
    fn long_external_path_detected() {
        // 0 -> 1 -> 2 -> 3 -> 4 and 0 -> 4.
        let dag = DagView::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let parts = singletons(&dag);
        assert!(!merge_legal(&parts, 0, 4));
        // Endpoints of a disjoint region are fine.
        assert!(merge_legal(&parts, 1, 2));
    }

    #[test]
    fn merging_legal_pair_keeps_validity_merging_illegal_breaks_it() {
        let dag = DagView::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        // Legal merge:
        let mut ok = singletons(&dag);
        assert!(merge_legal(&ok, 0, 1));
        ok.merge(0, 1);
        assert!(ok.check(&dag).is_clean());
        // Illegal merge really would create a cycle:
        let mut bad = singletons(&dag);
        bad.merge(0, 3);
        assert!(!bad.check(&dag).is_clean());
    }

    #[test]
    fn unrelated_components_always_merge() {
        let dag = DagView::from_edges(4, &[(0, 1), (2, 3)]);
        let parts = singletons(&dag);
        assert!(merge_legal(&parts, 0, 2));
        assert!(merge_legal(&parts, 1, 3));
        assert!(merge_legal(&parts, 0, 3));
    }
}
