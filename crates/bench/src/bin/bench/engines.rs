//! Every call the benchmark makes into the program under test that
//! depends on how an engine is configured or constructed lives here, so
//! a reshaping of `EngineConfig` or of the constructors is a change to
//! this one file.

use crate::trace::Tracer;
use crate::workloads::EngineKind;
use essent_bits::Bits;
use essent_core::partition::partition;
use essent_core::plan::{extended_dag, CcssPlan, PlanOptions};
use essent_designs::workloads::RunResult;
use essent_netlist::interp::Interpreter;
use essent_netlist::{opt, Netlist};
use essent_sim::compile::compile_plan;
use essent_sim::jit::JitParts;
use essent_sim::machine::Machine;
use essent_sim::par::CostModel;
use essent_sim::step1::{lower_tier1, OutSpec, Tier1Program, TierStats};
use essent_sim::{
    BatchSim, EngineConfig, EssentSim, FullCycleSim, ParEssentSim, ProfileReport, Simulator,
    WorkCounters,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles per `step` call, as `essent_designs::workloads::run_workload`
/// and `essent-cli` step.
pub const CHUNK: u64 = 8192;

/// The engine configuration of each workload kind.
pub fn config_of(kind: EngineKind) -> EngineConfig {
    match kind {
        EngineKind::Tier1 => EngineConfig::default(),
        EngineKind::Jit => EngineConfig {
            jit: true,
            ..EngineConfig::default()
        },
        EngineKind::Batch(lanes) => EngineConfig {
            lanes,
            ..EngineConfig::default()
        },
    }
}

/// FIRRTL text → optimized netlist: the front half of `setup_s`.
///
/// # Panics
///
/// Panics if the text fails to parse, lower or build; the benchmark only
/// feeds it `generate_soc` output, for which that is a bug.
pub fn netlist_from_firrtl(source: &str) -> Netlist {
    let circuit = essent_firrtl::parse(source).expect("generated FIRRTL parses");
    let lowered = essent_firrtl::passes::lower(circuit).expect("generated FIRRTL lowers");
    let mut netlist = Netlist::from_circuit(&lowered).expect("netlist builds");
    opt::optimize(&mut netlist, &opt::OptConfig::default());
    netlist
}

/// The optimized netlist of a generated SoC (references and tests).
pub fn build_netlist(config: &essent_designs::soc::SocConfig) -> Arc<Netlist> {
    Arc::new(netlist_from_firrtl(&essent_designs::soc::generate_soc(
        config,
    )))
}

/// Partitioning and planning as the engine constructors do them, each
/// under its own span; returns the plan with the mean members and
/// outputs per partition.
pub fn plan_of(netlist: &Netlist, kind: EngineKind, tracer: &mut Tracer) -> (CcssPlan, f64, f64) {
    let config = config_of(kind);
    let (dag, writes, parts) = tracer.span("core.partition", || {
        let (dag, writes) = extended_dag(netlist);
        let parts = partition(&dag, config.c_p);
        (dag, writes, parts)
    });
    let open = tracer.begin("core.plan");
    let plan = CcssPlan::from_partitioning(
        netlist,
        &dag,
        &writes,
        &parts,
        PlanOptions {
            elide_state: config.elide_state,
            elide_mem: config.elide_state,
        },
    );
    let n = plan.partitions.len().max(1) as f64;
    let members = plan
        .partitions
        .iter()
        .map(|p| p.members.len())
        .sum::<usize>() as f64
        / n;
    let outputs = plan
        .partitions
        .iter()
        .map(|p| p.outputs.len())
        .sum::<usize>() as f64
        / n;
    tracer.end_with(
        open,
        [
            ("partitions", plan.partitions.len().into()),
            ("mean_members", members.into()),
            ("mean_outputs", outputs.into()),
        ],
    );
    (plan, members, outputs)
}

/// The stages inside the engine constructor — bytecode, tier-1 lowering,
/// JIT emit — run again one at a time, each under its own span (the
/// constructor does not expose them; this repeats its work). Returns
/// the `Inst1` count and the arena size in words.
pub fn constructor_stages(
    netlist: &Arc<Netlist>,
    plan: &CcssPlan,
    kind: EngineKind,
    tracer: &mut Tracer,
) -> (usize, usize) {
    let config = config_of(kind);
    let (machine, blocks) = tracer.span("sim.compile", || {
        let machine = Machine::from_arc(Arc::clone(netlist));
        let blocks = compile_plan(netlist, &machine.layout, plan, &config);
        (machine, blocks)
    });
    let fuse = config.tier1 && config.fuse_triggers && config.trigger_push;
    let programs = tracer.span("sim.tier1_lower", || -> Vec<Tier1Program> {
        plan.partitions
            .iter()
            .zip(&blocks)
            .map(|(part, block)| {
                let outs: Vec<OutSpec> = part
                    .outputs
                    .iter()
                    .map(|o| OutSpec {
                        sig: o.signal,
                        consumers: o.consumers.clone(),
                    })
                    .collect();
                lower_tier1(netlist, block, &outs, fuse)
            })
            .collect()
    });
    if config.jit {
        let open = tracer.begin("sim.jit_emit");
        let cost = CostModel::build(plan, &blocks, None);
        let parts = JitParts::build(&programs, &cost.costs, &machine.mems);
        tracer.end_with(open, [("parts", parts.compiled_count().into())]);
    }
    (
        programs.iter().map(|p| p.code.len()).sum(),
        machine.layout.total_words(),
    )
}

/// A timed run from reset release to the last lane's `stop`.
#[derive(Debug, Clone)]
pub struct Run {
    pub elapsed: Duration,
    /// Per lane: cycles since reset release, `instret_r`, `tohost_r`.
    pub lanes: Vec<RunResult>,
    /// Work counters since construction, summed over lanes.
    pub counters: WorkCounters,
}

impl Run {
    /// Simulated cycles, summed over lanes.
    pub fn cycles(&self) -> u64 {
        self.lanes.iter().map(|l| l.cycles).sum()
    }
}

/// Facts about a built engine that the reports quote, read once at
/// construction (zero for the engines that do not have them).
#[derive(Debug, Clone, Copy, Default)]
pub struct Facts {
    pub partitions: usize,
    /// Steps a full-cycle evaluation would run per cycle (per lane).
    pub full_steps_per_cycle: usize,
    /// Tier-1 coverage, when the word-specialized tier is on.
    pub tier: Option<TierStats>,
    /// Partitions running native code, and the bytes emitted for them.
    pub jit_parts: usize,
    pub jit_code_bytes: usize,
}

enum Sim {
    Single(Box<dyn Simulator>),
    Batch(Box<BatchSim>),
}

/// An engine under one run protocol: load, reset, step, read results.
pub struct Engine {
    sim: Sim,
    pub facts: Facts,
}

fn bit(v: bool) -> Bits {
    Bits::from_u64(u64::from(v), 1)
}

fn word(w: u32) -> Bits {
    Bits::from_u64(u64::from(w), 32)
}

impl Engine {
    fn essent(sim: EssentSim) -> Engine {
        let parts = sim.jit_parts();
        let facts = Facts {
            partitions: sim.partition_count(),
            full_steps_per_cycle: sim.full_steps_per_cycle(),
            tier: sim.tier_stats(),
            jit_parts: sim.jit_compiled_count(),
            jit_code_bytes: (0..sim.partition_count())
                .filter_map(|p| parts?.part(p))
                .map(|part| part.emitted().bytes.len())
                .sum(),
        };
        Engine {
            sim: Sim::Single(Box::new(sim)),
            facts,
        }
    }

    fn batch(sim: BatchSim) -> Engine {
        let facts = Facts {
            partitions: sim.partition_count(),
            full_steps_per_cycle: sim.full_steps_per_cycle(),
            tier: sim.tier_stats(),
            ..Facts::default()
        };
        Engine {
            sim: Sim::Batch(Box::new(sim)),
            facts,
        }
    }

    /// Partition, plan, bytecode, tier-1 lowering and JIT emit through
    /// the constructor a user would call: the back half of `setup_s`.
    pub fn new(netlist: Arc<Netlist>, kind: EngineKind) -> Engine {
        let config = config_of(kind);
        match kind {
            EngineKind::Batch(_) => Engine::batch(BatchSim::new_shared(netlist, &config)),
            EngineKind::Tier1 | EngineKind::Jit => {
                Engine::essent(EssentSim::new_shared(netlist, &config))
            }
        }
    }

    /// The same engine from an already-built plan (the traced run times
    /// partitioning and planning on their own).
    pub fn from_plan(netlist: Arc<Netlist>, plan: CcssPlan, kind: EngineKind) -> Engine {
        let config = config_of(kind);
        match kind {
            EngineKind::Batch(_) => {
                Engine::batch(BatchSim::from_plan_shared(netlist, plan, &config))
            }
            EngineKind::Tier1 | EngineKind::Jit => {
                Engine::essent(EssentSim::from_plan_shared(netlist, plan, &config))
            }
        }
    }

    /// The default engine with per-partition telemetry on (which keeps
    /// the JIT off).
    pub fn profiled(netlist: Arc<Netlist>, plan: CcssPlan) -> Engine {
        let config = EngineConfig {
            profile: true,
            ..EngineConfig::default()
        };
        Engine::essent(EssentSim::from_plan_shared(netlist, plan, &config))
    }

    /// The barrier-free dataflow engine; also returns its schedule's
    /// exempt partitions and same-cycle / previous-cycle wait edges.
    pub fn dataflow(netlist: Arc<Netlist>, workers: usize) -> (Engine, [usize; 3]) {
        let config = EngineConfig {
            par_dataflow: true,
            ..EngineConfig::default()
        };
        let sim = ParEssentSim::new_shared(netlist, &config, workers);
        let edges = |lists: &[Vec<u32>]| lists.iter().map(Vec::len).sum();
        let shape = sim.dataflow_schedule().map_or([0; 3], |d| {
            [d.exempt_count(), edges(&d.waits_same), edges(&d.waits_prev)]
        });
        let engine = Engine {
            facts: Facts {
                partitions: sim.partition_count(),
                ..Facts::default()
            },
            sim: Sim::Single(Box::new(sim)),
        };
        (engine, shape)
    }

    /// The optimized full-cycle engine (the paper's Verilator row).
    pub fn full_cycle(netlist: Arc<Netlist>) -> Engine {
        let sim = FullCycleSim::new_shared(netlist, &EngineConfig::default());
        Engine {
            facts: Facts {
                full_steps_per_cycle: sim.steps_per_cycle(),
                ..Facts::default()
            },
            sim: Sim::Single(Box::new(sim)),
        }
    }

    fn lanes(&self) -> usize {
        match &self.sim {
            Sim::Single(_) => 1,
            Sim::Batch(sim) => sim.lanes(),
        }
    }

    /// Loads one program image per lane through the memory back door:
    /// the last step of `setup_s`.
    pub fn load(&mut self, programs: &[Vec<u32>]) {
        assert_eq!(programs.len(), self.lanes(), "one program per lane");
        for (lane, words) in programs.iter().enumerate() {
            for (i, &w) in words.iter().enumerate() {
                match &mut self.sim {
                    Sim::Single(sim) => sim.write_mem("imem", i, word(w)),
                    Sim::Batch(sim) => sim.write_mem_lane(lane, "imem", i, &word(w)),
                }
            }
        }
    }

    pub fn poke_reset(&mut self, value: bool) {
        match &mut self.sim {
            Sim::Single(sim) => sim.poke("reset", bit(value)),
            Sim::Batch(sim) => sim.poke("reset", bit(value)),
        }
    }

    /// Runs up to `n` cycles; returns how many ran with a live lane.
    pub fn step(&mut self, n: u64) -> u64 {
        match &mut self.sim {
            Sim::Single(sim) => sim.step(n),
            Sim::Batch(sim) => sim.step(n),
        }
    }

    fn lane_cycles(&self) -> Vec<u64> {
        match &self.sim {
            Sim::Single(sim) => vec![sim.cycle()],
            Sim::Batch(sim) => (0..sim.lanes()).map(|l| sim.cycle_of(l)).collect(),
        }
    }

    /// Work counters since construction, summed over lanes.
    pub fn counters(&self) -> WorkCounters {
        match &self.sim {
            Sim::Single(sim) => sim.counters(),
            Sim::Batch(sim) => (0..sim.lanes()).map(|l| sim.counters_of(l)).fold(
                WorkCounters::default(),
                |a, c| WorkCounters {
                    ops_evaluated: a.ops_evaluated + c.ops_evaluated,
                    static_checks: a.static_checks + c.static_checks,
                    dynamic_checks: a.dynamic_checks + c.dynamic_checks,
                    events: a.events + c.events,
                    cycles: a.cycles + c.cycles,
                },
            ),
        }
    }

    /// Lane compactions so far (batch engine only).
    pub fn compactions(&self) -> u64 {
        match &self.sim {
            Sim::Single(_) => 0,
            Sim::Batch(sim) => sim.compactions(),
        }
    }

    /// The telemetry of a [`Engine::profiled`] engine.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        match &self.sim {
            Sim::Single(sim) => sim.profile_report(),
            Sim::Batch(_) => None,
        }
    }

    /// Holds reset for two cycles and releases it.
    pub fn release_reset(&mut self) {
        self.poke_reset(true);
        self.step(2);
        self.poke_reset(false);
    }

    /// Releases reset and steps in [`CHUNK`]s
    /// until every lane has stopped or `max_cycles` have run; the timed
    /// interval is exactly release → stop. `on_chunk` sees the cycles
    /// each `step` call ran (the traced run times chunks with it).
    pub fn run_to_halt(&mut self, max_cycles: u64, mut on_chunk: impl FnMut(u64)) -> Run {
        self.release_reset();
        let start_cycles = self.lane_cycles();
        let start = Instant::now();
        let mut remaining = max_cycles;
        while remaining > 0 {
            let n = remaining.min(CHUNK);
            let ran = self.step(n);
            on_chunk(ran);
            if ran < n {
                break;
            }
            remaining -= n;
        }
        let elapsed = start.elapsed();
        // The stop fires during the final cycle, so output ports are one
        // cycle stale; read the committed registers.
        let lanes = start_cycles
            .iter()
            .enumerate()
            .map(|(lane, &from)| match &self.sim {
                Sim::Single(sim) => RunResult {
                    cycles: sim.cycle() - from,
                    instret: sim.peek("instret_r").to_u64().unwrap_or(0),
                    tohost: sim.peek("tohost_r").to_u64().unwrap_or(0),
                    finished: sim.halted().is_some(),
                },
                Sim::Batch(sim) => RunResult {
                    cycles: sim.cycle_of(lane) - from,
                    instret: sim.peek_lane(lane, "instret_r").to_u64().unwrap_or(0),
                    tohost: sim.peek_lane(lane, "tohost_r").to_u64().unwrap_or(0),
                    finished: sim.halted_of(lane).is_some(),
                },
            })
            .collect();
        Run {
            elapsed,
            lanes,
            counters: self.counters(),
        }
    }
}

/// One program on the golden netlist interpreter (the second accuracy
/// reference: no engine code at all), with the run protocol of
/// [`Engine::run_to_halt`].
pub fn golden_run(netlist: &Netlist, words: &[u32]) -> RunResult {
    let mut sim = Interpreter::new(netlist);
    for (i, &w) in words.iter().enumerate() {
        sim.write_mem("imem", i, word(w))
            .expect("program fits imem");
    }
    sim.poke("reset", bit(true));
    sim.step(2);
    sim.poke("reset", bit(false));
    let start = sim.cycle();
    // Far beyond any reference-scale program; a design that never stops
    // comes back `finished: false` instead of hanging the benchmark.
    const CAP: u64 = 50_000_000;
    while sim.halted().is_none() && sim.cycle() - start < CAP {
        sim.step(CHUNK);
    }
    // `peek` on a register output reads the pre-commit value of the
    // halting cycle; the committed state is the `next` signal's value.
    let committed = |name: &str| {
        netlist
            .regs()
            .iter()
            .find(|r| r.name == name)
            .and_then(|r| sim.peek_id(r.next).to_u64())
            .unwrap_or(0)
    };
    RunResult {
        cycles: sim.cycle() - start,
        instret: committed("instret_r"),
        tohost: committed("tohost_r"),
        finished: sim.halted().is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essent_designs::soc::SocConfig;
    use essent_designs::workloads::{dhrystone, matmul};

    /// Every engine kind against the golden interpreter on the tiny SoC:
    /// cycles, retired instructions and checksum, per lane.
    #[test]
    fn engines_agree_with_golden_interpreter() {
        let netlist = build_netlist(&SocConfig::tiny());
        let programs = [dhrystone(2).unwrap().words, matmul(2, 3).unwrap().words];
        let want: Vec<RunResult> = programs.iter().map(|p| golden_run(&netlist, p)).collect();
        for kind in [EngineKind::Tier1, EngineKind::Jit] {
            let mut engine = Engine::new(Arc::clone(&netlist), kind);
            engine.load(&programs[..1]);
            let run = engine.run_to_halt(1_000_000, |_| {});
            assert_eq!(run.lanes, want[..1], "{kind:?}");
            assert_eq!(run.cycles(), want[0].cycles);
        }
        let mut batch = Engine::new(Arc::clone(&netlist), EngineKind::Batch(2));
        batch.load(&programs);
        let mut stepped = 0;
        let run = batch.run_to_halt(1_000_000, |n| stepped += n);
        assert_eq!(run.lanes, want);
        assert_eq!(stepped, want.iter().map(|r| r.cycles).max().unwrap());
    }

    #[test]
    fn a_run_that_hits_the_cycle_cap_is_unfinished() {
        let netlist = build_netlist(&SocConfig::tiny());
        let mut engine = Engine::new(netlist, EngineKind::Tier1);
        engine.load(&[dhrystone(50).unwrap().words]);
        let run = engine.run_to_halt(100, |_| {});
        assert!(!run.lanes[0].finished);
        assert_eq!(run.lanes[0].cycles, 100);
    }
}
