//! # essent-verify
//!
//! An independent static verifier for the ESSENT reproduction. Every
//! invariant the simulation pipeline *relies on* is re-derived here
//! *from scratch* — this crate deliberately does not call the builders'
//! own `check`/`validate` paths, so a bug in plan construction and a bug
//! in its self-checks cannot cancel out.
//!
//! Seven layers, each a standalone pass producing a structured
//! [`Report`] of coded [`Diagnostic`]s:
//!
//! | layer | entry point | codes |
//! |---|---|---|
//! | netlist lints | [`lint_netlist`] | `L____` |
//! | schedule verifier | [`check_plan`] | `V____` |
//! | bytecode verifier | [`check_layout`] / [`check_blocks`] | `B____` |
//! | footprint / race freedom | [`check_footprint`] | `R____` |
//! | dependence / dataflow schedule | [`check_cost_model`] / [`check_depgraph`] | `F0403`, `S____` |
//! | native-code (JIT) audit | [`check_jit_plan`] / [`check_jit`] | `J____` |
//! | wake-table audit | [`check_wake_table`] | `X____` |
//!
//! [`verify_design`] chains all of them over the plans the engines run
//! for `config` and the front end's compilation of each, which is what
//! the `verify` binary and the `--verify` bench flag run.
//! [`verify_design_full`] additionally returns the sequential plan it
//! audited and the [`DataflowSchedule`] the dependence layer proved.

pub mod bytecode;
pub mod depgraph;
pub mod footprint;
pub mod jit;
pub mod lint;
pub mod schedule;
pub mod wake;

pub use bytecode::{check_blocks, check_layout, check_tier1};
pub use depgraph::{check_cost_model, check_depgraph};
pub use essent_core::depgraph::DataflowSchedule;
pub use essent_core::diag::{DiagCode, Diagnostic, Report, Severity};
pub use footprint::{check_footprint, Footprint, WordSet};
pub use jit::{check_jit, check_jit_plan};
pub use lint::lint_netlist;
pub use schedule::check_plan;
pub use wake::check_wake_table;

use essent_core::depgraph::{synthesize_dataflow, DepGraph};
use essent_core::plan::CcssPlan;
use essent_netlist::Netlist;
use essent_sim::compile::Layout;
use essent_sim::frontend::{build_plan, out_specs, Frontend};
use essent_sim::jit::JitPlan;
use essent_sim::EngineConfig;

/// Everything a full verification run produces: the merged report, the
/// plan audited for the sequential engine and its fleets, and the dataflow
/// schedule the dependence layer verified (`None` when verification
/// aborted before the respective layer ran).
pub struct VerifyArtifacts {
    pub report: Report,
    pub plan: Option<CcssPlan>,
    pub dataflow: Option<DataflowSchedule>,
}

/// Runs the full verifier stack on a design: lints the netlist, builds
/// the CCSS plan the engines build for `config` and verifies it, then
/// compiles the plan to bytecode and verifies that — including auditing
/// every partition's word-specialized program against an independent
/// re-derivation from the netlist (`B0210`–`B0212`). One merged report;
/// clean iff no layer found an error.
pub fn verify_design(netlist: &Netlist, config: &EngineConfig) -> Report {
    verify_design_full(netlist, config).report
}

/// [`verify_design`] plus the plan and the dataflow schedule it audited.
pub fn verify_design_full(netlist: &Netlist, config: &EngineConfig) -> VerifyArtifacts {
    let mut report = lint_netlist(netlist);
    if report.contains(essent_core::diag::codes::COMB_LOOP) {
        // No schedule exists for a cyclic design; the later layers would
        // panic inside plan construction.
        return VerifyArtifacts {
            report,
            plan: None,
            dataflow: None,
        };
    }
    // The plan `EssentSim` and its fleets run for this config (the
    // dataflow engine's, memory-write elision off, is audited below).
    let plan = build_plan(netlist, config, config.elide_state);
    report.merge(check_plan(netlist, &plan));
    let layout = Layout::new(netlist);
    report.merge(check_layout(netlist, &layout));
    // Compile and lower through the engines' own front end, then audit
    // every artifact it produced.
    let front = Frontend::compile(netlist, &layout, &plan, config, false);
    report.merge(check_blocks(netlist, &layout, &front.blocks, Some(&plan)));
    report.merge(check_wake_table(&layout, &plan, &front));
    for (sched, prog) in front.programs.iter().enumerate() {
        report.merge(check_tier1(
            netlist,
            &layout,
            &front.blocks[sched],
            &out_specs(&plan.partitions[sched]),
            prog,
            config.fuses_triggers(),
            sched,
        ));
    }
    // --- J07: native-code audit layer ---------------------------------
    // The plan `JitParts::build` maps for these programs and costs. The
    // planner is a pure byte generator, so it is generated and audited
    // regardless of the build host (as-if popcnt is available; a host
    // without it would simply not compile Xorr partitions at all).
    let jit_plan = JitPlan::new(&front.programs, &front.cost.costs, true);
    report.merge(check_jit_plan(&front.programs, &jit_plan));

    // --- R05: footprint / race-freedom layer -------------------------
    // Analyzed over the exact plan shape the parallel engine runs:
    // memory-write elision off (all bank writes happen in the serial
    // phase), register elision per config. The dual derivation needs the
    // tier-1 programs lowered the way the engines lower them.
    let par_plan = build_plan(netlist, config, false);
    let par = Frontend::compile(netlist, &layout, &par_plan, config, false);
    report.merge(check_footprint(
        netlist,
        &layout,
        &par_plan,
        &par.blocks,
        Some(&par.programs),
    ));
    report.merge(check_wake_table(&layout, &par_plan, &par));

    // --- S06: dependence / dataflow-schedule layer --------------------
    // Synthesize the schedule exactly as the parallel engine would at 4
    // threads (the runtime's own dependence analysis + cost model), then
    // prove it against obligations re-derived from the word-level
    // footprints alone. The cost table the placement weighs is audited
    // first (F0403).
    report.merge(check_cost_model(&par_plan, &par.cost));
    let graph = DepGraph::derive(netlist, &par_plan);
    let dsched = synthesize_dataflow(&par_plan, &graph, &par.cost.costs, 4);
    report.merge(check_depgraph(
        netlist,
        &layout,
        &par_plan,
        &par.blocks,
        &dsched,
    ));

    VerifyArtifacts {
        report,
        plan: Some(plan),
        dataflow: Some(dsched),
    }
}
