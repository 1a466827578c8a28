//! Property tests for the acyclic partitioner: on arbitrary random DAGs,
//! every stage must preserve the two invariants CCSS execution rests on —
//! exact cover (each node in exactly one partition, no replication) and
//! an acyclic partition graph (a singular static schedule exists).

use essent_core::dag::DagView;
use essent_core::mffc::mffc_decompose;
use essent_core::partition::{
    merge_single_parent, merge_small_into_any_sibling, merge_small_siblings, partition,
};
use proptest::prelude::*;

/// Random DAG: edges only go from lower to higher node index, so the
/// graph is acyclic by construction but otherwise arbitrary.
fn arb_dag(max_nodes: usize, density: f64) -> impl Strategy<Value = DagView> {
    (2..max_nodes).prop_flat_map(move |n| {
        let all_pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .collect();
        let take = ((all_pairs.len() as f64) * density).ceil() as usize;
        proptest::sample::subsequence(all_pairs, 0..=take.max(1))
            .prop_map(move |edges| DagView::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn mffc_decomposition_is_valid(dag in arb_dag(40, 0.15)) {
        let parts = mffc_decompose(&dag);
        prop_assert!(parts.check(&dag).is_clean());
    }

    /// Figure 3's containment property: if u is in the cone rooted at v,
    /// all of u's successors are in the same cone or are the root.
    #[test]
    fn mffc_fanout_free_property(dag in arb_dag(40, 0.2)) {
        let parts = mffc_decompose(&dag);
        for p in parts.live_partitions() {
            let members = parts.members(p);
            // Exactly one root: the unique member all of whose successors
            // leave the partition.
            let roots: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&v| dag.succs[v].iter().all(|&s| parts.part_of(s) != p))
                .collect();
            prop_assert_eq!(roots.len(), 1);
            let root = roots[0];
            // Every non-root member's successors stay inside the cone.
            for &v in members {
                if v == root {
                    continue;
                }
                for &s in &dag.succs[v] {
                    prop_assert_eq!(parts.part_of(s), p,
                        "member {}'s fanout {} escapes its cone", v, s);
                }
            }
        }
    }

    #[test]
    fn each_merge_phase_preserves_invariants(dag in arb_dag(35, 0.2), cp in 1usize..12) {
        let mut parts = mffc_decompose(&dag);
        parts.attach(&dag);
        merge_single_parent(&mut parts);
        prop_assert!(parts.check(&dag).is_clean(), "after phase A");
        merge_small_siblings(&mut parts, &dag, cp);
        prop_assert!(parts.check(&dag).is_clean(), "after phase B");
        merge_small_into_any_sibling(&mut parts, &dag, cp);
        prop_assert!(parts.check(&dag).is_clean(), "after phase C");
    }

    #[test]
    fn full_partitioner_valid_across_cp(dag in arb_dag(50, 0.12), cp in 1usize..32) {
        let parts = partition(&dag, cp);
        prop_assert!(parts.check(&dag).is_clean());
    }

    /// Larger C_p never produces (strictly) more partitions on the same
    /// graph than C_p = 1, and the assignment always covers all nodes.
    #[test]
    fn coarsening_monotonicity_in_partition_count(dag in arb_dag(40, 0.15)) {
        let fine = partition(&dag, 1).live_partitions().count();
        let coarse = partition(&dag, 64).live_partitions().count();
        prop_assert!(coarse <= fine, "coarse {} vs fine {}", coarse, fine);
    }

    /// The incremental partition-graph maintenance must agree with a
    /// from-scratch recomputation after arbitrary merging activity.
    #[test]
    fn incremental_adjacency_matches_recompute(dag in arb_dag(30, 0.25), cp in 2usize..10) {
        let parts = partition(&dag, cp);
        let mut fresh = parts.clone();
        fresh.attach(&dag);
        for p in parts.live_partitions() {
            let inc: Vec<usize> = parts.succs_of(p);
            let rec: Vec<usize> = fresh.succs_of(p);
            prop_assert_eq!(inc, rec, "partition {} adjacency drifted", p);
        }
    }
}
