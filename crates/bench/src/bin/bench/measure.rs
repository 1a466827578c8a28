//! The end-to-end measurement: a closed loop with one client. Workloads
//! take turns, one sample at a time, so a slow patch of the host falls
//! on all of them rather than on one; every sample is checked against
//! the instruction-set model, every workload once against the golden
//! netlist interpreter.

use crate::engines::{self, Engine};
use crate::iss::IssResult;
use crate::json::{obj, Json};
use crate::sample::{self, Sample};
use crate::stats::Summary;
use crate::workloads::{Inputs, Workload};
use essent_designs::workloads::RunResult;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which a change may worsen the
    /// metric before it counts as a regression (`BENCHMARK.json` carries
    /// the same numbers; a test keeps the two in step).
    pub bound: f64,
    pub of: fn(&Sample) -> f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "sim_khz",
        unit: "kHz",
        better: Better::Higher,
        bound: 0.15,
        of: Sample::sim_khz,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.2,
        of: |s| s.setup_s,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        of: Sample::peak_rss_mb,
    },
];

/// A column of the end-to-end table: name, unit, value of a sample.
type Column = (&'static str, &'static str, fn(&Sample) -> f64);

/// Derived columns: printed and recorded, never gated.
const DERIVED: [Column; 2] = [
    ("run_s", "s", |s| s.run_s),
    ("total_s", "s", |s| s.setup_s + s.run_s),
];

/// When a workload has been sampled enough.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// A fixed number of samples.
    Repeats(usize),
    /// Samples until their timed runs add up to this many seconds (at
    /// least one).
    Seconds(f64),
}

/// Everything measured and checked for one workload.
pub struct Measured {
    pub workload: &'static Workload,
    /// The instruction-set model's answer for this seed, per lane.
    pub expected: Vec<IssResult>,
    /// Samples that passed every check.
    pub samples: Vec<Sample>,
    pub attempted: usize,
    /// One line per failed run.
    pub failures: Vec<String>,
    /// Set when the golden-interpreter reference disagreed: then every
    /// run of the workload counts as failed.
    pub reference_error: Option<String>,
}

impl Measured {
    pub fn failed(&self) -> usize {
        if self.reference_error.is_some() {
            self.attempted
        } else {
            self.failures.len()
        }
    }

    pub fn summary(&self, of: fn(&Sample) -> f64) -> Option<Summary> {
        let values: Vec<f64> = self.samples.iter().map(of).collect();
        (!values.is_empty()).then(|| Summary::of(&values))
    }

    pub fn to_json(&self) -> Json {
        // A metric's definition in front of its five-number summary.
        let described = |head: Vec<(&str, Json)>, summary: Summary| {
            let Json::Obj(tail) = summary.to_json() else {
                unreachable!("a summary is an object")
            };
            let head = head.into_iter().map(|(k, v)| (k.to_string(), v));
            Json::Obj(head.chain(tail).collect())
        };
        let mut metrics = Vec::new();
        for m in &END_TO_END {
            if let Some(summary) = self.summary(m.of) {
                let head = vec![
                    ("unit", m.unit.into()),
                    ("better", m.better.as_str().into()),
                    ("bound", m.bound.into()),
                ];
                metrics.push((m.name.to_string(), described(head, summary)));
            }
        }
        for (name, unit, of) in DERIVED {
            if let Some(summary) = self.summary(of) {
                let head = vec![("unit", unit.into())];
                metrics.push((name.to_string(), described(head, summary)));
            }
        }
        obj([
            ("name", self.workload.name.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed().into()),
            ("failures", self.failures.clone().into()),
            (
                "reference_error",
                self.reference_error.clone().map_or(Json::Null, Json::from),
            ),
            (
                "simulated",
                self.samples
                    .first()
                    .map_or(Json::Null, |s| Json::Obj(s.simulated_json())),
            ),
            ("metrics", Json::Obj(metrics)),
            (
                "samples",
                Json::Arr(self.samples.iter().map(Sample::to_json).collect()),
            ),
        ])
    }
}

/// The second reference, once per workload: the engine and the golden
/// netlist interpreter on the workload's design and a reference-size
/// program of its family must agree on cycles, retired instructions and
/// checksum for every lane — and both with the instruction-set model.
pub fn golden_check(workload: &Workload) -> Result<(), String> {
    let inputs = workload.reference_inputs();
    let model = sample::expected(&inputs)?;
    let netlist = engines::build_netlist(&inputs.config);
    let mut engine = Engine::new(std::sync::Arc::clone(&netlist), workload.engine);
    engine.load(&inputs.programs);
    let run = engine.run_to_halt(sample::cycle_cap(&inputs, &model), |_| {});
    // Lanes sharing a program share one interpreter run.
    let mut golden: Vec<(&Vec<u32>, RunResult)> = Vec::new();
    for (lane, program) in inputs.programs.iter().enumerate() {
        let want = match golden.iter().find(|(p, _)| *p == program) {
            Some((_, r)) => *r,
            None => {
                let r = engines::golden_run(&netlist, program);
                golden.push((program, r));
                r
            }
        };
        if !want.finished {
            return Err(format!(
                "golden interpreter did not reach stop on lane {lane}"
            ));
        }
        if run.lanes[lane] != want {
            return Err(format!(
                "lane {lane}: engine {:?}, golden interpreter {want:?}",
                run.lanes[lane]
            ));
        }
        if (want.tohost, want.instret) != (u64::from(model[lane].tohost), model[lane].instret) {
            return Err(format!(
                "lane {lane}: golden interpreter {want:?}, instruction-set model {:?}",
                model[lane]
            ));
        }
    }
    Ok(())
}

/// Samples `workloads` round-robin until each meets `stop`. `take`
/// produces one sample (in a child process, or in this one under test)
/// from the workload, its inputs and the cycle budget.
pub fn measure(
    workloads: &[&'static Workload],
    seed: u64,
    scale_div: u32,
    stop: Stop,
    take: &dyn Fn(&Workload, &Inputs, u64) -> Result<Sample, String>,
) -> Vec<Measured> {
    struct Plan {
        inputs: Inputs,
        cap: u64,
        run_s: f64,
        done: bool,
    }
    let mut plans = Vec::new();
    let mut results = Vec::new();
    for &workload in workloads {
        let inputs = workload.inputs(seed, scale_div);
        let (expected, mut reference_error) = match sample::expected(&inputs) {
            Ok(e) => (e, None),
            Err(e) => (Vec::new(), Some(format!("instruction-set model: {e}"))),
        };
        if reference_error.is_none() {
            reference_error = golden_check(workload).err();
        }
        if let Some(e) = &reference_error {
            eprintln!("{}: REFERENCE DISAGREES: {e}", workload.name);
        }
        plans.push(Plan {
            cap: sample::cycle_cap(&inputs, &expected),
            inputs,
            run_s: 0.0,
            done: false,
        });
        results.push(Measured {
            workload,
            expected,
            samples: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            reference_error,
        });
    }
    while plans.iter().any(|p| !p.done) {
        for (plan, m) in plans.iter_mut().zip(&mut results) {
            if plan.done {
                continue;
            }
            m.attempted += 1;
            let taken = take(m.workload, &plan.inputs, plan.cap).and_then(|s| {
                sample::check(m.workload.engine, &s.lanes, s.jit_compiled, &m.expected)?;
                match m.samples.first() {
                    Some(first) if first.simulated() != s.simulated() => {
                        Err("simulated statistics differ from the first run's".into())
                    }
                    _ => Ok(s),
                }
            });
            match taken {
                Ok(s) => {
                    eprintln!(
                        "{}: sample {}: {:.1} kHz, set-up {:.3} s, run {:.2} s, {:.1} MB",
                        m.workload.name,
                        m.attempted,
                        s.sim_khz(),
                        s.setup_s,
                        s.run_s,
                        s.peak_rss_mb()
                    );
                    plan.run_s += s.run_s;
                    m.samples.push(s);
                }
                Err(e) => {
                    eprintln!("{}: sample {} FAILED: {e}", m.workload.name, m.attempted);
                    m.failures.push(format!("run {}: {e}", m.attempted));
                    // A failing workload is not worth its remaining
                    // budget; one failure already fails the benchmark.
                    plan.done = true;
                }
            }
            plan.done |= match stop {
                Stop::Repeats(n) => m.attempted >= n,
                Stop::Seconds(s) => plan.run_s >= s,
            };
        }
    }
    results
}

/// The end-to-end table, one block per metric, one row per workload.
pub fn print_table(results: &[Measured]) {
    for m in &END_TO_END {
        println!(
            "\n{} [{}] ({} is better, regression bound {}%)",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
        print_rows(results, m.of);
    }
    for (name, unit, of) in DERIVED {
        println!("\n{name} [{unit}] (derived, not gated)");
        print_rows(results, of);
    }
    println!("\nruns and simulated statistics (identical across repeats)");
    for r in results {
        let reference = match &r.reference_error {
            None => "instruction-set model and golden interpreter agree".to_string(),
            Some(e) => format!("REFERENCE DISAGREES: {e}"),
        };
        println!(
            "  {:<22} failed {}/{} runs; {reference}",
            r.workload.name,
            r.failed(),
            r.attempted
        );
        for f in &r.failures {
            println!("  {:<22}   {f}", "");
        }
        if let Some(s) = r.samples.first() {
            let list = |f: fn(&RunResult) -> u64| {
                let v: Vec<String> = s.lanes.iter().map(|l| f(l).to_string()).collect();
                v.join(",")
            };
            println!(
                "  {:<22}   cycles {} instret {} tohost {} | ops {} static {} dynamic {}",
                "",
                list(|l| l.cycles),
                list(|l| l.instret),
                list(|l| l.tohost),
                s.counters.ops_evaluated,
                s.counters.static_checks,
                s.counters.dynamic_checks
            );
        }
    }
}

fn print_rows(results: &[Measured], of: fn(&Sample) -> f64) {
    println!(
        "  {:<22} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "workload", "n", "median", "min", "q1", "q3", "max"
    );
    for r in results {
        match r.summary(of) {
            Some(s) => println!(
                "  {:<22} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
                r.workload.name, s.n, s.median, s.min, s.q1, s.q3, s.max
            ),
            None => println!("  {:<22} {:>3} no passing sample", r.workload.name, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::TEST_WORKLOADS;

    fn in_process(w: &Workload, inputs: &Inputs, cap: u64) -> Result<Sample, String> {
        Ok(sample::take(w.engine, inputs, cap))
    }

    #[test]
    fn round_robin_measures_checks_and_summarizes() {
        let workloads: Vec<&'static Workload> = TEST_WORKLOADS.iter().collect();
        let results = measure(&workloads, 1, 20, Stop::Repeats(2), &in_process);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(
                (r.attempted, r.failed(), r.samples.len()),
                (2, 0, 2),
                "{:?}",
                r.failures
            );
            assert_eq!(r.reference_error, None);
            assert_eq!(r.summary(Sample::sim_khz).unwrap().n, 2);
            let json = r.to_json();
            let khz = json.get("metrics").and_then(|m| m.get("sim_khz")).unwrap();
            assert_eq!(khz.get("bound").and_then(Json::as_f64), Some(0.15));
            assert!(Summary::from_json(khz).is_some());
            assert!(json.get("simulated").unwrap().get("run_s").is_none());
        }
        print_table(&results);
    }

    #[test]
    fn seconds_stop_takes_at_least_one_sample() {
        let results = measure(
            &[&TEST_WORKLOADS[0]],
            1,
            20,
            Stop::Seconds(0.0),
            &in_process,
        );
        assert_eq!((results[0].attempted, results[0].samples.len()), (1, 1));
    }

    #[test]
    fn a_corrupted_checksum_fails_the_run_and_stops_the_workload() {
        let corrupt = |w: &Workload, inputs: &Inputs, cap: u64| {
            let mut s = sample::take(w.engine, inputs, cap);
            s.lanes[0].tohost ^= 1;
            Ok(s)
        };
        let results = measure(&[&TEST_WORKLOADS[0]], 1, 20, Stop::Repeats(3), &corrupt);
        assert_eq!((results[0].attempted, results[0].failed()), (1, 1));
        assert!(results[0].samples.is_empty() && results[0].summary(Sample::sim_khz).is_none());
    }

    #[test]
    fn statistics_that_change_between_repeats_fail_the_run() {
        let calls = std::cell::Cell::new(0);
        let drifting = |w: &Workload, inputs: &Inputs, cap: u64| {
            let mut s = sample::take(w.engine, inputs, cap);
            s.counters.ops_evaluated += calls.replace(calls.get() + 1);
            Ok(s)
        };
        let results = measure(&[&TEST_WORKLOADS[0]], 1, 20, Stop::Repeats(3), &drifting);
        assert_eq!((results[0].attempted, results[0].failed()), (2, 1));
    }

    #[test]
    fn golden_check_passes_on_every_engine_kind() {
        for w in &TEST_WORKLOADS {
            assert_eq!(golden_check(w), Ok(()), "{}", w.name);
        }
    }
}
