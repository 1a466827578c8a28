//! The traced run: one workload once more at a fraction of its length,
//! with a span around every call into a layer and the side measurements
//! that tell the layers apart. Layer names are the crate modules.

use crate::engines::{self, Engine, CHUNK};
use crate::json::{obj, Json};
use crate::measure::Better::{self, Higher, Lower};
use crate::sample;
use crate::stats::{tail, Summary};
use crate::trace::Tracer;
use crate::workloads::{EngineKind, Workload};
use essent_designs::soc::generate_soc;
use essent_netlist::{opt, Netlist};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A per-layer metric: reported, never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric, in report order (`BENCHMARK.json` lists the
/// same names; a test keeps the two in step).
pub const PER_LAYER: [PerLayer; 54] = [
    // Set-up, stage by stage.
    m("firrtl.parse_ms", "ms", Lower),
    m("firrtl.lower_ms", "ms", Lower),
    m("netlist.build_ms", "ms", Lower),
    m("netlist.opt_ms", "ms", Lower),
    m("core.partition_ms", "ms", Lower),
    m("core.plan_ms", "ms", Lower),
    m("sim.engine_build_ms", "ms", Lower),
    m("sim.load_ms", "ms", Lower),
    m("sim.compile_ms", "ms", Lower),
    m("sim.tier1_lower_ms", "ms", Lower),
    m("sim.jit_emit_ms", "ms", Lower),
    m("engine_split_pct", "%", Higher),
    m("stage_coverage_pct", "%", Higher),
    m("trace_overhead_pct", "%", Lower),
    // What each stage produced.
    m("source_bytes", "B", Lower),
    m("lowered_statements", "count", Lower),
    m("signals_before_opt", "count", Lower),
    m("signals_after_opt", "count", Lower),
    m("arena_words", "count", Lower),
    m("partitions", "count", Lower),
    m("mean_members", "count", Higher),
    m("mean_outputs", "count", Lower),
    m("full_steps_per_cycle", "count", Lower),
    m("inst1_count", "count", Lower),
    m("tier1_coverage_pct", "%", Higher),
    m("jit_parts", "count", Higher),
    m("jit_code_bytes", "B", Lower),
    // The cycle.
    m("ns_per_cycle", "ns", Lower),
    m("ns_per_op", "ns", Lower),
    m("idle_ns_per_cycle", "ns", Lower),
    m("activity_factor_pct", "%", Lower),
    m("ops_per_cycle", "count", Lower),
    m("static_checks_per_cycle", "count", Lower),
    m("dynamic_checks_per_cycle", "count", Lower),
    m("chunk_p50_ns_per_cycle", "ns", Lower),
    m("chunk_tail_ns_per_cycle", "ns", Lower),
    m("evals_per_cycle", "count", Lower),
    m("skips_per_cycle", "count", Higher),
    m("wakes_by_output", "count", Lower),
    m("wakes_by_state", "count", Lower),
    m("wakes_by_input", "count", Lower),
    // The other engines over the same design.
    m("lane1_khz", "kHz", Higher),
    m("compactions", "count", Lower),
    m("par2_khz", "kHz", Higher),
    m("par2_min_khz", "kHz", Higher),
    m("par2_max_khz", "kHz", Higher),
    m("par_exempt_partitions", "count", Higher),
    m("par_waits_same_cycle", "count", Lower),
    m("par_waits_prev_cycle", "count", Lower),
    m("fullcycle_khz", "kHz", Higher),
    m("speedup_vs_fullcycle", "x", Higher),
    m("profile_overhead_pct", "%", Lower),
    m("verify.verdict_ms", "ms", Lower),
    m("verify.findings", "count", Lower),
];

/// Cycles the idle measurement holds reset for.
const IDLE_CYCLES: u64 = 200_000;
/// Length of the full-cycle window in cycles (or [`WINDOW`], if sooner).
const FULLCYCLE_CYCLES: u64 = 20_000;
/// Wall-clock bound of each side measurement's window.
const WINDOW: Duration = Duration::from_millis(400);
/// Samples of the two-worker dataflow engine.
const PAR_SAMPLES: usize = 5;

/// The per-layer result of one workload.
pub struct Layers {
    pub workload: &'static Workload,
    /// One value per [`PER_LAYER`] entry, in its order.
    pub values: Vec<f64>,
    /// Findings that do not fit a number (printed under the table).
    pub notes: Vec<String>,
    /// Set when the traced run computed something wrong.
    pub error: Option<String>,
}

impl Layers {
    pub fn to_json(&self) -> Json {
        obj([
            ("name", self.workload.name.into()),
            ("error", self.error.clone().map_or(Json::Null, Json::from)),
            ("notes", self.notes.clone().into()),
            ("metrics", metrics_json(&self.values)),
        ])
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` over [`PER_LAYER`].
pub fn metrics_json(values: &[f64]) -> Json {
    Json::Obj(
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(def, &v)| {
                (
                    def.name.to_string(),
                    obj([("value", v.into()), ("unit", def.unit.into())]),
                )
            })
            .collect(),
    )
}

/// Steps `engine` until `cycles` have run, it stops, or `budget` has
/// passed; returns the rate in kHz and whether the design stopped.
fn window_khz(engine: &mut Engine, cycles: u64, budget: Duration) -> (f64, bool) {
    // Short steps, so a slow engine overshoots the budget by little.
    const STEP: u64 = 1024;
    let start = Instant::now();
    let mut ran = 0;
    let mut stopped = false;
    while !stopped && ran < cycles && start.elapsed() < budget {
        let n = STEP.min(cycles - ran);
        let did = engine.step(n);
        ran += did;
        stopped = did < n;
    }
    (ran as f64 / start.elapsed().as_secs_f64() / 1e3, stopped)
}

fn count_statements(body: &[essent_firrtl::Stmt]) -> usize {
    body.iter()
        .map(|s| match s {
            essent_firrtl::Stmt::When {
                then_body,
                else_body,
                ..
            } => 1 + count_statements(then_body) + count_statements(else_body),
            _ => 1,
        })
        .sum()
}

/// Runs the traced measurement of one workload. Spans go to `tracer`
/// on a track named after the workload.
pub fn traced(
    workload: &'static Workload,
    seed: u64,
    scale_div: u32,
    tracer: &mut Tracer,
) -> Layers {
    let mut notes = Vec::new();
    let mut error = None;
    let mut fail = |e: String| {
        eprintln!("{}: TRACED RUN WRONG: {e}", workload.name);
        error.get_or_insert(e);
    };
    let kind = workload.engine;
    let inputs = workload.inputs(seed, scale_div);
    let expected = sample::expected(&inputs).unwrap_or_else(|e| {
        fail(format!("instruction-set model: {e}"));
        Vec::new()
    });
    let cap = sample::cycle_cap(&inputs, &expected);
    tracer.track(workload.name);
    let root = tracer.begin("traced_run");
    let source = tracer.span("designs.generate_soc", || generate_soc(&inputs.config));

    // --- Set-up, one span per stage.
    let setup = tracer.begin("setup");
    let circuit = tracer.span("firrtl.parse", || {
        essent_firrtl::parse(&source).expect("generated FIRRTL parses")
    });
    let open = tracer.begin("firrtl.lower");
    let lowered = essent_firrtl::passes::lower(circuit).expect("generated FIRRTL lowers");
    let statements: usize = lowered
        .modules
        .iter()
        .map(|m| count_statements(&m.body))
        .sum();
    tracer.end_with(open, [("statements", statements.into())]);
    let mut netlist = tracer.span("netlist.build", || {
        Netlist::from_circuit(&lowered).expect("netlist builds")
    });
    let signals_before = netlist.signal_count();
    let open = tracer.begin("netlist.opt");
    opt::optimize(&mut netlist, &opt::OptConfig::default());
    tracer.end_with(open, [("signals", netlist.signal_count().into())]);
    let netlist = Arc::new(netlist);
    let (plan, mean_members, mean_outputs) = engines::plan_of(&netlist, kind, tracer);
    let plan_for_engine = plan.clone();
    let mut engine = tracer.span("sim.engine_build", || {
        Engine::from_plan(Arc::clone(&netlist), plan_for_engine, kind)
    });
    tracer.span("sim.load", || engine.load(&inputs.programs));
    let setup_traced = tracer.end(setup);
    const STAGES: [&str; 8] = [
        "firrtl.parse",
        "firrtl.lower",
        "netlist.build",
        "netlist.opt",
        "core.partition",
        "core.plan",
        "sim.engine_build",
        "sim.load",
    ];
    let stage_ms: f64 = STAGES.iter().map(|s| tracer.millis(s)).sum();

    // --- The constructor's own stages, one at a time.
    let (inst1_count, arena_words) = engines::constructor_stages(&netlist, &plan, kind, tracer);
    let split_ms = tracer.millis("sim.compile")
        + tracer.millis("sim.tier1_lower")
        + tracer.millis("sim.jit_emit");
    let engine_split_pct = 100.0 * split_ms / tracer.millis("sim.engine_build");
    if !(80.0..=120.0).contains(&engine_split_pct) {
        notes.push(format!(
            "compile + tier1_lower + jit_emit are {engine_split_pct:.0}% of engine_build (expected within 20%)"
        ));
    }

    // --- The run, one span per `step` call.
    let open = tracer.begin("run");
    let mut chunks: Vec<f64> = Vec::new();
    let mut last = Instant::now();
    let run = engine.run_to_halt(cap, |ran| {
        let now = Instant::now();
        tracer.record("sim.step", last, now, [("cycles", ran.into())]);
        if ran == CHUNK {
            chunks.push((now - last).as_nanos() as f64 / ran as f64);
        }
        last = now;
    });
    tracer.end_with(open, [("cycles", run.cycles().into())]);
    if let Err(e) = sample::check(kind, &run.lanes, engine.facts.jit_parts, &expected) {
        fail(e);
    }
    let run_ns = run.elapsed.as_secs_f64() * 1e9;
    let counted = run.counters.cycles as f64;
    let traced_khz = run.cycles() as f64 / run.elapsed.as_secs_f64() / 1e3;
    chunks.sort_by(|a, b| a.partial_cmp(b).expect("chunk times are finite"));
    let (chunk_p50, chunk_tail) = if chunks.is_empty() {
        // Shorter than one chunk: the whole run stands in.
        (run_ns / run.cycles() as f64, run_ns / run.cycles() as f64)
    } else {
        let p50 = Summary::of(&chunks).median;
        // Below the median the "tail" says nothing: use the maximum.
        let (pct, value) = tail(&chunks)
            .filter(|(pct, _)| *pct > 50.0)
            .unwrap_or((100.0, chunks[chunks.len() - 1]));
        notes.push(format!(
            "{} chunks of {CHUNK} cycles: p50 {p50:.1} ns/cycle, p{pct:.1} {value:.1} ns/cycle",
            chunks.len()
        ));
        (p50, value)
    };

    // --- The same set-up and run without spans: the tracing overhead,
    // and the share of an untraced set-up that the stage spans explain.
    let plain = sample::take(kind, &inputs, cap);
    if plain.simulated() != (&run.lanes[..], run.counters) {
        fail("traced and untraced runs simulated different statistics".into());
    }
    let traced_s = setup_traced.as_secs_f64() + run.elapsed.as_secs_f64();
    let trace_overhead_pct = 100.0 * (traced_s / (plain.setup_s + plain.run_s) - 1.0);
    let stage_coverage_pct = 100.0 * stage_ms / (plain.setup_s * 1e3);

    // --- sim::essent idle cost: reset held, so nothing evaluates and a
    // cycle is the flag scan plus the state commit.
    let mut idle = Engine::from_plan(Arc::clone(&netlist), plan.clone(), kind);
    idle.poke_reset(true);
    idle.step(1_000);
    let ops_before = idle.counters().ops_evaluated;
    tracer.span("sim.idle", || idle.step(IDLE_CYCLES));
    let idle_ops = idle.counters().ops_evaluated - ops_before;
    if idle_ops != 0 {
        notes.push(format!("idle window evaluated {idle_ops} ops (expected 0)"));
    }
    drop(idle);

    // --- sim::profile: the default engine with and without telemetry
    // on lane 0's program (telemetry keeps the JIT off).
    let program = &inputs.programs[..1];
    let mut base = Engine::from_plan(Arc::clone(&netlist), plan.clone(), EngineKind::Tier1);
    base.load(program);
    let open = tracer.begin("sim.profile.off");
    let base_run = base.run_to_halt(cap, |_| {});
    tracer.end(open);
    drop(base);
    let mut profiled = Engine::profiled(Arc::clone(&netlist), plan.clone());
    profiled.load(program);
    let open = tracer.begin("sim.profile.on");
    let profiled_run = profiled.run_to_halt(cap, |_| {});
    tracer.end(open);
    if profiled_run.lanes != base_run.lanes {
        fail("profiled and plain runs disagree".into());
    }
    let report = profiled.profile_report().expect("built with profile on");
    let wakes = |f: fn(&essent_sim::profile::UnitProfile) -> u64| -> f64 {
        report.units.iter().map(f).sum::<u64>() as f64
    };
    let report_cycles = report.cycles.max(1) as f64;
    drop(profiled);

    // --- sim::batch with one lane: the strided arena without batching.
    let mut lane1 = Engine::from_plan(Arc::clone(&netlist), plan.clone(), EngineKind::Batch(1));
    lane1.load(program);
    lane1.release_reset();
    let (lane1_khz, _) = tracer.span("sim.batch.lane1", || window_khz(&mut lane1, cap, WINDOW));
    drop(lane1);

    // --- sim::par: the dataflow engine on two workers. Ungated: on a
    // 2-core shared host its rate moves by tens of percent run to run.
    let (mut par, par_shape) = Engine::dataflow(Arc::clone(&netlist), 2);
    par.load(program);
    par.release_reset();
    let open = tracer.begin("sim.par.dataflow2");
    let mut par_khz = Vec::new();
    for _ in 0..PAR_SAMPLES {
        let (khz, stopped) = window_khz(&mut par, cap, WINDOW / 2);
        // A window the program's end cut short only counts when it is
        // all there is.
        if !stopped || par_khz.is_empty() {
            par_khz.push(khz);
        }
        if stopped {
            break;
        }
    }
    tracer.end(open);
    drop(par);
    let par = Summary::of(&par_khz);

    // --- sim::full_cycle: the whole design every cycle.
    let mut full = Engine::full_cycle(Arc::clone(&netlist));
    let fullcycle_steps = full.facts.full_steps_per_cycle;
    full.load(program);
    full.release_reset();
    let (fullcycle_khz, _) = tracer.span("sim.full_cycle", || {
        window_khz(&mut full, FULLCYCLE_CYCLES, WINDOW)
    });
    drop(full);
    notes.push(format!(
        "work per cycle: {:.1} ops (base) + {:.1} static + {:.1} dynamic checks; full-cycle evaluates {fullcycle_steps} steps",
        run.counters.ops_evaluated as f64 / counted,
        run.counters.static_checks as f64 / counted,
        run.counters.dynamic_checks as f64 / counted,
    ));

    // --- verify: off the run path, its own cost.
    let artifacts = tracer.span("verify.verdict", || {
        essent_verify::verify_design_full(&netlist, &engines::config_of(kind))
    });
    if !artifacts.report.is_clean() {
        fail(format!("verifier found errors:\n{}", artifacts.report));
    }
    tracer.end(root);

    let tier = engine.facts.tier.unwrap_or_default();
    let full_steps = engine.facts.full_steps_per_cycle as f64;
    let values = [
        ("firrtl.parse_ms", tracer.millis("firrtl.parse")),
        ("firrtl.lower_ms", tracer.millis("firrtl.lower")),
        ("netlist.build_ms", tracer.millis("netlist.build")),
        ("netlist.opt_ms", tracer.millis("netlist.opt")),
        ("core.partition_ms", tracer.millis("core.partition")),
        ("core.plan_ms", tracer.millis("core.plan")),
        ("sim.engine_build_ms", tracer.millis("sim.engine_build")),
        ("sim.load_ms", tracer.millis("sim.load")),
        ("sim.compile_ms", tracer.millis("sim.compile")),
        ("sim.tier1_lower_ms", tracer.millis("sim.tier1_lower")),
        ("sim.jit_emit_ms", tracer.millis("sim.jit_emit")),
        ("engine_split_pct", engine_split_pct),
        ("stage_coverage_pct", stage_coverage_pct),
        ("trace_overhead_pct", trace_overhead_pct),
        ("source_bytes", source.len() as f64),
        ("lowered_statements", statements as f64),
        ("signals_before_opt", signals_before as f64),
        ("signals_after_opt", netlist.signal_count() as f64),
        ("arena_words", arena_words as f64),
        ("partitions", engine.facts.partitions as f64),
        ("mean_members", mean_members),
        ("mean_outputs", mean_outputs),
        ("full_steps_per_cycle", full_steps),
        ("inst1_count", inst1_count as f64),
        ("tier1_coverage_pct", 100.0 * tier.coverage()),
        ("jit_parts", engine.facts.jit_parts as f64),
        ("jit_code_bytes", engine.facts.jit_code_bytes as f64),
        ("ns_per_cycle", run_ns / run.cycles() as f64),
        ("ns_per_op", run_ns / run.counters.ops_evaluated as f64),
        (
            "idle_ns_per_cycle",
            tracer.millis("sim.idle") * 1e6 / IDLE_CYCLES as f64,
        ),
        (
            "activity_factor_pct",
            100.0 * run.counters.ops_evaluated as f64 / (full_steps * counted),
        ),
        ("ops_per_cycle", run.counters.ops_evaluated as f64 / counted),
        (
            "static_checks_per_cycle",
            run.counters.static_checks as f64 / counted,
        ),
        (
            "dynamic_checks_per_cycle",
            run.counters.dynamic_checks as f64 / counted,
        ),
        ("chunk_p50_ns_per_cycle", chunk_p50),
        ("chunk_tail_ns_per_cycle", chunk_tail),
        (
            "evals_per_cycle",
            report.total_evals() as f64 / report_cycles,
        ),
        (
            "skips_per_cycle",
            report.total_skips() as f64 / report_cycles,
        ),
        ("wakes_by_output", wakes(|u| u.woke_output)),
        ("wakes_by_state", wakes(|u| u.woke_state)),
        ("wakes_by_input", wakes(|u| u.woke_input)),
        ("lane1_khz", lane1_khz),
        ("compactions", engine.compactions() as f64),
        ("par2_khz", par.median),
        ("par2_min_khz", par.min),
        ("par2_max_khz", par.max),
        ("par_exempt_partitions", par_shape[0] as f64),
        ("par_waits_same_cycle", par_shape[1] as f64),
        ("par_waits_prev_cycle", par_shape[2] as f64),
        ("fullcycle_khz", fullcycle_khz),
        ("speedup_vs_fullcycle", traced_khz / fullcycle_khz),
        (
            "profile_overhead_pct",
            100.0 * (profiled_run.elapsed.as_secs_f64() / base_run.elapsed.as_secs_f64() - 1.0),
        ),
        ("verify.verdict_ms", tracer.millis("verify.verdict")),
        ("verify.findings", artifacts.report.len() as f64),
    ];
    assert!(
        values
            .iter()
            .map(|(n, _)| *n)
            .eq(PER_LAYER.iter().map(|d| d.name)),
        "the traced run reports exactly the PER_LAYER metrics, in order"
    );
    Layers {
        workload,
        values: values.iter().map(|(_, v)| *v).collect(),
        notes,
        error,
    }
}

/// The per-layer table: one row per metric, one column per workload.
pub fn print_table(layers: &[Layers]) {
    print!("\n{:<26} {:>6} {:>6}", "per-layer metric", "unit", "better");
    for l in layers {
        print!(" {:>20}", l.workload.name);
    }
    println!();
    for (i, def) in PER_LAYER.iter().enumerate() {
        print!(
            "{:<26} {:>6} {:>6}",
            def.name,
            def.unit,
            def.better.as_str()
        );
        for l in layers {
            print!(" {:>20.3}", l.values[i]);
        }
        println!();
    }
    for l in layers {
        for note in &l.notes {
            println!("  {}: {note}", l.workload.name);
        }
        if let Some(e) = &l.error {
            println!("  {}: WRONG: {e}", l.workload.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::TEST_WORKLOADS;

    #[test]
    fn traced_run_reports_every_layer_metric_and_a_loadable_trace() {
        let mut tracer = Tracer::new();
        let layers: Vec<Layers> = TEST_WORKLOADS
            .iter()
            .map(|w| traced(w, 1, 20, &mut tracer))
            .collect();
        for l in &layers {
            assert_eq!(l.error, None, "{}", l.workload.name);
            assert_eq!(l.values.len(), PER_LAYER.len());
            assert!(l.values.iter().all(|v| v.is_finite()), "{:?}", l.values);
            let value =
                |name: &str| l.values[PER_LAYER.iter().position(|d| d.name == name).unwrap()];
            assert!(value("firrtl.parse_ms") > 0.0);
            assert!(value("partitions") > 1.0);
            assert!(value("idle_ns_per_cycle") > 0.0);
            assert!(value("activity_factor_pct") > 0.0 && value("activity_factor_pct") < 100.0);
            assert!(value("fullcycle_khz") > 0.0 && value("par2_khz") > 0.0);
            let json = l.to_json();
            assert!(json
                .get("metrics")
                .and_then(|m| m.get("verify.verdict_ms"))
                .is_some());
        }
        // The JIT workload compiled something; the batch one has none.
        let jit_parts = PER_LAYER
            .iter()
            .position(|d| d.name == "jit_parts")
            .unwrap();
        if essent_sim::jit::supported() {
            assert!(layers[0].values[jit_parts] > 0.0);
        }
        assert_eq!(layers[1].values[jit_parts], 0.0);
        print_table(&layers);
        let trace = tracer.to_chrome_json();
        let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
        for name in [
            "firrtl.parse",
            "core.partition",
            "sim.step",
            "verify.verdict",
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(Json::as_str) == Some(name)),
                "{name}"
            );
        }
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        for (i, def) in PER_LAYER.iter().enumerate() {
            assert!(
                PER_LAYER[..i].iter().all(|d| d.name != def.name),
                "{}",
                def.name
            );
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
        }
    }
}
