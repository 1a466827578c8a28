//! The front end the three CCSS engines share: netlist → partitioning →
//! plan ([`build_plan`]), then plan → bytecode → tier-1 programs → state
//! table → wake table → cost table → native bodies
//! ([`Frontend::compile`]).
//!
//! [`EssentSim`](crate::EssentSim), [`ParEssentSim`](crate::ParEssentSim)
//! and [`BatchSim`](crate::BatchSim) run from these artifacts — they add
//! storage (arena, snapshots, flags) and a schedule loop, no table of
//! their own — and `essent-verify` audits the same artifacts, so the
//! lowering an engine runs and the lowering the verifier proves cannot
//! drift apart.

use crate::compile::{compile_plan, Block, Item, Layout};
use crate::engine::EngineConfig;
use crate::jit::{self, JitParts};
use crate::machine::MemBank;
use crate::slots::WakeTable;
use crate::state::StateTable;
use crate::step1::{lower_tier1, OutSpec, Tier1Program};
use essent_core::partition::partition;
use essent_core::plan::{extended_dag, CcssPlan, PartitionPlan, PlanOptions};
use essent_netlist::Netlist;

/// Per-partition cost estimates: what the dataflow schedule's EFT worker
/// assignment balances and what the JIT selects hot partitions by.
///
/// A partition's cost is its static step count — single-word steps,
/// roughly a nanosecond each — floored at 1. The unit only weighs
/// partitions against each other and against fixed thresholds.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Estimated cost per scheduled partition (always ≥ 1).
    pub costs: Vec<u64>,
}

impl CostModel {
    /// Builds the cost table for a plan from its compiled blocks.
    ///
    /// `_inert` is inert. It used to carry a measured activity prior;
    /// profile-guided repartitioning is gone, an
    /// [`Infallible`](std::convert::Infallible) has no value, so the only
    /// argument is `None` and nothing reads it. It survives only because
    /// the `bench` package still passes it, and goes when that package
    /// next changes (ROADMAP item 10a).
    pub fn build(
        plan: &CcssPlan,
        blocks: &[Block],
        _inert: Option<std::convert::Infallible>,
    ) -> CostModel {
        let costs = blocks
            .iter()
            .take(plan.partitions.len())
            .map(|block| (block.items.iter().map(Item::step_count).sum::<usize>() as u64).max(1))
            .collect();
        CostModel { costs }
    }
}

/// Partitions the design at `config.c_p` and builds the CCSS plan.
/// Register elision follows `config.elide_state`; the caller decides
/// memory-write elision (the parallel engine keeps every bank write in
/// its serial phase).
pub fn build_plan(netlist: &Netlist, config: &EngineConfig, elide_mem: bool) -> CcssPlan {
    let (dag, writes) = extended_dag(netlist);
    let parts = partition(&dag, config.c_p);
    CcssPlan::from_partitioning(
        netlist,
        &dag,
        &writes,
        &parts,
        PlanOptions {
            elide_state: config.elide_state,
            elide_mem,
        },
    )
}

/// A partition's outputs as the tier-1 lowering takes them.
pub fn out_specs(part: &PartitionPlan) -> Vec<OutSpec> {
    part.outputs
        .iter()
        .map(|o| OutSpec {
            sig: o.signal,
            consumers: o.consumers.clone(),
        })
        .collect()
}

/// Everything compiled from a plan, per scheduled partition.
pub struct Frontend {
    pub blocks: Vec<Block>,
    /// Word-specialized programs (`config.tier1`), triggers fused per
    /// [`EngineConfig::fuses_triggers`]; `None` runs the generic item
    /// interpreter.
    pub programs: Option<Vec<Tier1Program>>,
    /// The state updates the programs did not absorb, and the
    /// end-of-cycle ones, pre-resolved.
    pub state: StateTable,
    /// What a wake does beyond its program: unfused outputs, pull
    /// inputs, the `plain` bits, input wakes.
    pub wake: WakeTable,
    pub cost: CostModel,
    /// Native bodies for the partitions whose cost clears
    /// [`jit::JIT_MIN_COST`]; `None` unless `config.jit` applies.
    pub jit: Option<JitParts>,
}

impl Frontend {
    /// Compiles `plan`. `jit_banks` are the memory banks native bodies
    /// read; pass `None` for a consumer with no native tier (the batch
    /// and dataflow engines, the verifier). The JIT is also skipped
    /// without `tier1`, when profiling (wake attribution needs the
    /// interpreter's flag sinks), under the race sanitizer (the dynamic
    /// oracle instruments the interpreter loop) and on unsupported hosts.
    pub fn compile(
        netlist: &Netlist,
        layout: &Layout,
        plan: &CcssPlan,
        config: &EngineConfig,
        jit_banks: Option<&[MemBank]>,
    ) -> Frontend {
        let blocks = compile_plan(netlist, layout, plan, config);
        let fuse = config.fuses_triggers();
        let programs: Option<Vec<Tier1Program>> = config.tier1.then(|| {
            plan.partitions
                .iter()
                .zip(&blocks)
                .map(|(part, block)| lower_tier1(netlist, block, &out_specs(part), fuse))
                .collect()
        });
        let state = StateTable::build(netlist, layout, plan, programs.as_deref());
        let wake = WakeTable::build(
            netlist,
            layout,
            plan,
            &blocks,
            programs.as_deref(),
            &state,
            config.trigger_push,
        );
        let cost = CostModel::build(plan, &blocks, None);
        let jit = match (&programs, jit_banks) {
            (Some(progs), Some(banks))
                if config.jit
                    && !config.profile
                    && !cfg!(feature = "race-sanitizer")
                    && jit::supported() =>
            {
                Some(JitParts::build(progs, &cost.costs, banks))
            }
            _ => None,
        };
        Frontend {
            blocks,
            programs,
            state,
            wake,
            cost,
            jit,
        }
    }
}
