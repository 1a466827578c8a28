//! Property tests for the acyclic partitioner: on arbitrary random DAGs,
//! every stage must preserve the two invariants CCSS execution rests on —
//! exact cover (each node in exactly one partition, no replication) and
//! an acyclic partition graph (a singular static schedule exists).
//! Phase B must also make exactly the merges of its set-and-sort
//! formulation, and the benchmark designs must partition as they always
//! have.

use essent_core::dag::DagView;
use essent_core::legality::MergeCheck;
use essent_core::mffc::mffc_decompose;
use essent_core::partition::{
    merge_single_parent, merge_small_into_any_sibling, merge_small_siblings, partition,
    Partitioning,
};
use essent_core::plan::{extended_dag, CcssPlan, PlanOptions};
use essent_designs::soc::{generate_soc, SocConfig};
use essent_netlist::{opt, Netlist};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

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
        merge_small_siblings(&mut parts, cp);
        prop_assert!(parts.check(&dag).is_clean(), "after phase B");
        merge_small_into_any_sibling(&mut parts, cp);
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

/// Phase B in its original formulation: every sibling pair of small
/// partitions goes through a set, is scored by intersecting parent sets,
/// and each round sorts the whole list. Returns how many rounds merged.
fn reference_phase_b(parts: &mut Partitioning, cp: usize) -> usize {
    let small = |parts: &Partitioning, p: usize| parts.members(p).len() < cp;
    let mut check = MergeCheck::default();
    let mut rounds = 0;
    loop {
        let mut preds: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for p in parts.live_partitions() {
            for s in parts.succs_of(p) {
                preds.entry(s).or_default().insert(p);
            }
        }
        let mut seen = BTreeSet::new();
        let mut pairs = Vec::new();
        for parent in parts.live_partitions() {
            let mut children = parts.succs_of(parent);
            children.retain(|&c| small(parts, c));
            for (i, &a) in children.iter().enumerate() {
                for &b in &children[i + 1..] {
                    if seen.insert((a, b)) {
                        let shared = preds[&a].intersection(&preds[&b]).count();
                        let direct = parts.succs_of(a).contains(&b) as usize
                            + parts.succs_of(b).contains(&a) as usize;
                        pairs.push((shared + direct, a, b));
                    }
                }
            }
        }
        pairs.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
        let mut merged_any = false;
        for (_, a, b) in pairs {
            let live_small = |p| parts.is_alive(p) && small(parts, p);
            if live_small(a) && live_small(b) && check.merge_legal(parts, a, b) {
                parts.merge(a, b);
                merged_any = true;
            }
        }
        if !merged_any {
            return rounds;
        }
        rounds += 1;
    }
}

/// A random DAG of up to 60 nodes; with `giant`, node 0 also feeds
/// almost every other node, so one parent has a huge set of small
/// children and phase B runs many rounds over the same sibling rows.
fn random_dag(rng: &mut StdRng, giant: bool) -> DagView {
    let n = rng.gen_range(2usize..60);
    let density = [0.04, 0.08, 0.15][rng.gen_range(0usize..3)];
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if (giant && a == 0 && rng.gen_bool(0.4)) || rng.gen_bool(density) {
                edges.push((a, b));
            }
        }
    }
    DagView::from_edges(n, &edges)
}

/// A random DAG of 80 to 200 nodes in which nodes 0 and 1 each feed
/// most of the others: two parents share a few dozen small children
/// (more than phase B scores child by child when bounding a row), the
/// shape of a design's clock-enable and reset fan-out.
fn wide_dag(rng: &mut StdRng) -> DagView {
    let n = rng.gen_range(80usize..200);
    let density = [0.01, 0.02, 0.04][rng.gen_range(0usize..3)];
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if (a < 2 && rng.gen_bool(0.7)) || rng.gen_bool(density) {
                edges.push((a, b));
            }
        }
    }
    DagView::from_edges(n, &edges)
}

/// The counted, lazily scored phase B merges exactly what the
/// set-and-sort one does, round for round, including when stale
/// round-start scores, many rounds and wide parents are involved.
#[test]
fn phase_b_matches_the_set_and_sort_reference() {
    let mut rng = StdRng::seed_from_u64(0xB5EED);
    let (mut multi_round, mut giant_multi_round, mut wide_parent) = (0, 0, 0);
    for case in 0..3300 {
        let wide = case >= 3000;
        let giant = !wide && case % 3 == 0;
        let dag = if wide {
            wide_dag(&mut rng)
        } else {
            random_dag(&mut rng, giant)
        };
        let cp = rng.gen_range(1usize..12);
        let mut parts = mffc_decompose(&dag);
        parts.attach(&dag);
        merge_single_parent(&mut parts);
        let small_children = |p: usize| {
            let children = parts.succs_of(p);
            children
                .iter()
                .filter(|&&c| parts.members(c).len() < cp)
                .count()
        };
        wide_parent += parts.live_partitions().any(|p| small_children(p) > 32) as usize;
        let mut reference = parts.clone();
        merge_small_siblings(&mut parts, cp);
        let rounds = reference_phase_b(&mut reference, cp);
        assert_eq!(
            parts.assignment(),
            reference.assignment(),
            "case {case} (cp {cp}, giant {giant}, wide {wide}, {rounds} rounds)"
        );
        if rounds >= 2 {
            multi_round += 1;
            giant_multi_round += giant as usize;
        }
    }
    assert!(
        multi_round >= 100 && giant_multi_round >= 30 && wide_parent >= 100,
        "too few multi-round cases: {multi_round} ({giant_multi_round} with a giant parent), \
         {wide_parent} with a wide one"
    );
}

/// FNV-1a over little-endian `u64`s.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// FNV-1a over the assignment.
fn digest(assignment: &[usize]) -> u64 {
    fnv(assignment.iter().map(|&p| p as u64))
}

/// Partition indices as `u64`s.
fn ids(v: &[u32]) -> impl ExactSizeIterator<Item = u64> + '_ {
    v.iter().map(|&c| u64::from(c))
}

/// Appends a length-prefixed list.
fn push_list(words: &mut Vec<u64>, items: impl ExactSizeIterator<Item = u64>) {
    words.push(items.len() as u64);
    words.extend(items);
}

/// FNV-1a over a canonical dump of a plan, in schedule order: each
/// partition's members, its outputs with their consumers, its elided
/// registers and writes; then every register plan's and write plan's
/// elision and wake list, and the input wakes.
fn plan_digest(plan: &CcssPlan) -> u64 {
    let mut words = vec![plan.partitions.len() as u64];
    for p in &plan.partitions {
        push_list(&mut words, p.members.iter().map(|m| u64::from(m.0)));
        words.push(p.outputs.len() as u64);
        for o in &p.outputs {
            words.push(u64::from(o.signal.0));
            push_list(&mut words, ids(&o.consumers));
        }
        push_list(&mut words, p.elided_regs.iter().map(|&r| r as u64));
        push_list(&mut words, p.elided_writes.iter().map(|&w| w as u64));
    }
    words.push(plan.reg_plans.len() as u64);
    for r in &plan.reg_plans {
        words.extend([u64::from(r.reg.0), u64::from(r.elided)]);
        push_list(&mut words, ids(&r.wake_on_change));
    }
    words.push(plan.mem_write_plans.len() as u64);
    for w in &plan.mem_write_plans {
        words.extend([u64::from(w.mem.0), w.writer as u64, u64::from(w.elided)]);
        push_list(&mut words, ids(&w.wake_on_change));
    }
    words.push(plan.input_wakes.len() as u64);
    for (input, wakes) in &plan.input_wakes {
        words.push(u64::from(input.0));
        push_list(&mut words, ids(wakes));
    }
    fnv(words)
}

/// The default partitioning and plan of three benchmark designs are
/// pinned: any change to the optimizer, a merge phase or the plan's
/// elision and scheduling that moves a single node, reorders a
/// partition or changes a wake list changes these digests.
#[test]
fn soc_partitionings_are_pinned() {
    for (config, nodes, expected, plan_expected) in [
        (
            SocConfig::r16(),
            3_721,
            0x9f15_4ca3_d5ac_3870,
            0x6e78_08ca_2dd8_4706,
        ),
        (
            SocConfig::r18(),
            10_490,
            0xe715_bb4b_f197_2f00,
            0x18d4_8f45_1c1a_fd8f,
        ),
        (
            SocConfig::boom(),
            24_861,
            0x8574_b391_081e_f8eb,
            0xea53_115b_3814_fe67,
        ),
    ] {
        let circuit = essent_firrtl::parse(&generate_soc(&config)).expect("generated FIRRTL");
        let lowered = essent_firrtl::passes::lower(circuit).expect("lowers");
        let mut netlist = Netlist::from_circuit(&lowered).expect("builds");
        opt::optimize(&mut netlist, &opt::OptConfig::default());
        let (dag, writes) = extended_dag(&netlist);
        let parts = partition(&dag, 8);
        let assignment = parts.assignment();
        let plan =
            CcssPlan::from_partitioning(&netlist, &dag, &writes, &parts, PlanOptions::default());
        assert_eq!(
            (assignment.len(), digest(assignment), plan_digest(&plan)),
            (nodes, expected, plan_expected),
            "design `{}`",
            config.name
        );
    }
}
