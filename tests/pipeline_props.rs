//! Pipeline-level property tests over randomly generated circuits:
//! printer round-trips, plan invariants at arbitrary `C_p`, and
//! optimization behavioral equivalence.

use essent::core::partition::partition;
use essent::core::plan::{extended_dag, CcssPlan, PlanOptions};
use essent::prelude::*;
use essent::sim::testgen::gen_circuit;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// print(parse(x)) reparses to the identical AST for arbitrary
    /// generated circuits.
    #[test]
    fn printer_roundtrip_on_random_circuits(seed in any::<u64>()) {
        let circuit = gen_circuit(seed);
        let ast1 = essent::firrtl::parse(&circuit.source).expect("parses");
        let printed = essent::firrtl::print_circuit(&ast1);
        let ast2 = essent::firrtl::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        prop_assert_eq!(ast1, ast2);
    }

    /// The CCSS plan validates on random circuits across C_p, with and
    /// without state elision, on optimized and unoptimized netlists.
    #[test]
    fn plan_invariants_on_random_circuits(seed in any::<u64>(), cp in 1usize..64, elide in any::<bool>(), optimize in any::<bool>()) {
        let circuit = gen_circuit(seed);
        let netlist = if optimize {
            essent::compile(&circuit.source).expect("compiles")
        } else {
            essent::compile_unoptimized(&circuit.source).expect("compiles")
        };
        let (dag, writes) = extended_dag(&netlist);
        let parts = partition(&dag, cp);
        prop_assert!(parts.check(&dag).is_clean());
        let plan = CcssPlan::from_partitioning(
            &netlist,
            &dag,
            &writes,
            &parts,
            PlanOptions { elide_state: elide, elide_mem: elide },
        );
        let report = plan.check(&netlist);
        prop_assert!(
            report.is_clean(),
            "plan invalid (cp={}, elide={}):\n{}",
            cp,
            elide,
            report
        );
    }

    /// The lowered form of a random circuit simulates identically to the
    /// printed-and-relowered form (printer + passes are semantics-
    /// preserving end to end).
    #[test]
    fn reprint_preserves_behavior(seed in 0u64..500) {
        let circuit = gen_circuit(seed);
        let direct = essent::compile(&circuit.source).expect("compiles");
        let reprinted = essent::firrtl::print_circuit(
            &essent::firrtl::parse(&circuit.source).expect("parses"),
        );
        let via_print = essent::compile(&reprinted).expect("compiles after reprint");

        let mut a = FullCycleSim::new(&direct, &EngineConfig::default());
        let mut b = FullCycleSim::new(&via_print, &EngineConfig::default());
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..10u64 {
            for (name, width) in &circuit.inputs {
                let v = Bits::from_limbs(vec![rng.gen(), rng.gen()], *width);
                a.poke(name, v.clone());
                b.poke(name, v);
            }
            a.step(1);
            b.step(1);
            for out in &circuit.outputs {
                prop_assert_eq!(a.peek(out), b.peek(out));
            }
        }
    }
}
