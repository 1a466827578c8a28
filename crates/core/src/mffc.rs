//! Maximum fanout-free cone (MFFC) decomposition — the seed partitioning
//! (paper Section IV, Figure 3).
//!
//! The MFFC of a node `v` is the largest set of ancestors of `v` whose
//! every path toward the sinks passes through `v`. Results computed
//! inside an MFFC are visible only within the cone and at `v`, which is
//! why an MFFC decomposition is guaranteed acyclic (Cong et al.).
//!
//! Following the paper, the decomposition crawls upward from the sink
//! nodes (state-element writes and external outputs): processing nodes in
//! reverse topological order, a node whose fanouts all landed in one
//! partition joins that partition; any node with diverging fanout (or
//! none) roots a new cone.

use crate::dag::DagView;
use crate::partition::Partitioning;

/// Decomposes the graph into MFFCs, returning the seed partitioning.
///
/// # Panics
///
/// Panics if the graph has a cycle (the netlist layer guarantees
/// acyclicity; random-graph tests construct DAGs).
pub fn mffc_decompose(dag: &DagView) -> Partitioning {
    let order = dag.topo_order().expect("MFFC decomposition requires a DAG");
    let n = dag.node_count();
    const UNASSIGNED: usize = usize::MAX;
    let mut part_of = vec![UNASSIGNED; n];
    let mut next_partition = 0;

    // Reverse topological order: every fanout is already assigned when a
    // node is visited.
    for &v in order.iter().rev() {
        let succs = &dag.succs[v];
        let joined = if succs.is_empty() {
            None
        } else {
            let first = part_of[succs[0]];
            debug_assert_ne!(first, UNASSIGNED);
            succs[1..]
                .iter()
                .all(|&s| part_of[s] == first)
                .then_some(first)
        };
        part_of[v] = match joined {
            Some(p) => p,
            None => {
                let p = next_partition;
                next_partition += 1;
                p
            }
        };
    }
    Partitioning::from_assignment(part_of, next_partition)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 3's shape: a chain into a fanout point.
    ///
    /// ```text
    /// 0 -> 1 -> 2 -> 3        (3 fans out to 4 and 5)
    ///                3 -> 4
    ///                3 -> 5
    /// ```
    #[test]
    fn chain_is_one_cone_fanout_roots_new_ones() {
        let dag = DagView::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]);
        let parts = mffc_decompose(&dag);
        assert!(parts.check(&dag).is_clean());
        // 0,1,2,3 form one cone (3's MFFC); 4 and 5 are their own cones.
        let p3 = parts.part_of(3);
        assert_eq!(parts.part_of(0), p3);
        assert_eq!(parts.part_of(1), p3);
        assert_eq!(parts.part_of(2), p3);
        assert_ne!(parts.part_of(4), p3);
        assert_ne!(parts.part_of(5), p3);
        assert_ne!(parts.part_of(4), parts.part_of(5));
    }

    /// A node with siblings (shared parent) roots a trivially small MFFC.
    #[test]
    fn shared_parent_makes_singletons() {
        // 0 feeds both 1 and 2; 1 and 2 feed 3.
        let dag = DagView::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let parts = mffc_decompose(&dag);
        assert!(parts.check(&dag).is_clean());
        // 3 roots a cone containing 1 and 2 (their only fanout is 3); 0
        // fans out to two members of the same cone, so 0 joins it too —
        // the whole diamond is one MFFC.
        let p = parts.part_of(3);
        assert!((0..4).all(|v| parts.part_of(v) == p));
    }

    #[test]
    fn diverging_fanout_to_distinct_cones_splits() {
        // 0 -> 1, 0 -> 2 where 1 and 2 are sinks: 0's fanouts land in two
        // different cones, so 0 is its own cone.
        let dag = DagView::from_edges(3, &[(0, 1), (0, 2)]);
        let parts = mffc_decompose(&dag);
        assert!(parts.check(&dag).is_clean());
        assert_eq!(parts.live_partitions().count(), 3);
    }

    /// The containment property of Figure 3: every node of a cone reaches
    /// the cone's root without leaving the cone.
    #[test]
    fn cone_members_reach_root_internally() {
        let dag = DagView::from_edges(
            8,
            &[
                (0, 2),
                (1, 2),
                (2, 3),
                (2, 4),
                (3, 5),
                (4, 5),
                (5, 6),
                (5, 7),
            ],
        );
        let parts = mffc_decompose(&dag);
        assert!(parts.check(&dag).is_clean());
        for p in parts.live_partitions() {
            let members = parts.members(p);
            // The root is the unique member with no successor inside p.
            let roots: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&v| dag.succs[v].iter().all(|&s| parts.part_of(s) != p))
                .collect();
            assert_eq!(roots.len(), 1, "partition {p} must have one root");
        }
    }

    #[test]
    fn empty_graph() {
        let dag = DagView::from_edges(0, &[]);
        let parts = mffc_decompose(&dag);
        assert_eq!(parts.live_partitions().count(), 0);
    }
}
