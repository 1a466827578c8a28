//! Property test: everything the real pipeline builds must verify.
//!
//! Random synchronous circuits (the same generator the cross-engine
//! equivalence suite uses) are planned and compiled at several `C_p`
//! values; the full independent verifier stack must find zero errors on
//! all of them, optimized or not. Warnings are allowed — generated
//! circuits routinely contain dead cones.

use essent_core::plan::CcssPlan;
use essent_sim::compile::{compile_plan, Layout};
use essent_sim::testgen::{build, gen_circuit};
use essent_sim::EngineConfig;
use essent_verify::{check_blocks, check_layout, check_plan, lint_netlist};
use proptest::prelude::*;

fn check_generated(seed: u64, optimize: bool) {
    let circuit = gen_circuit(seed);
    let netlist = build(&circuit.source, optimize);
    let lints = lint_netlist(&netlist);
    assert_eq!(
        lints.error_count(),
        0,
        "seed {seed} opt={optimize}: lints\n{lints}\n{}",
        circuit.source
    );
    let layout = Layout::new(&netlist);
    let layout_report = check_layout(&netlist, &layout);
    assert_eq!(
        layout_report.error_count(),
        0,
        "seed {seed} opt={optimize}: layout\n{layout_report}"
    );
    for c_p in [1usize, 4, 8, 64] {
        let plan = CcssPlan::build(&netlist, c_p);
        let report = check_plan(&netlist, &plan);
        assert_eq!(
            report.error_count(),
            0,
            "seed {seed} opt={optimize} c_p={c_p}: plan\n{report}\n{}",
            circuit.source
        );
        for mux_conditional in [false, true] {
            let config = EngineConfig {
                c_p,
                mux_conditional,
                ..EngineConfig::default()
            };
            let blocks = compile_plan(&netlist, &layout, &plan, &config);
            let report = check_blocks(&netlist, &layout, &blocks, Some(&plan));
            assert_eq!(
                report.error_count(),
                0,
                "seed {seed} opt={optimize} c_p={c_p} mux={mux_conditional}: bytecode\n{report}\n{}",
                circuit.source
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_circuits_verify_unoptimized(seed in any::<u64>()) {
        check_generated(seed, false);
    }

    #[test]
    fn generated_circuits_verify_optimized(seed in any::<u64>()) {
        check_generated(seed, true);
    }
}
