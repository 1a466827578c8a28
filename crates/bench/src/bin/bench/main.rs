//! **bench** — the repository's one measured trajectory: host time from
//! FIRRTL text to a halted workload on four activity regimes, checked
//! against two independent references, decomposed per pipeline stage and
//! per cycle cost. `README.md` beside this file is the glossary.
//!
//! ```text
//! bench [--seed S] [--repeats N]      all workloads round-robin, then the traced run
//! bench --workload W --seed S --seconds T --trace 0|1
//!                                     one workload; the last line of output is one JSON object
//! bench --traced [--seed S]           the traced (per-layer) run only
//! bench --smoke                       everything at 1/50 length, once
//! bench compare A.json B.json         judge B against A with the benchmark's bounds
//! ```
//!
//! Results go to `target/bench/result.json` and `target/bench/trace.json`
//! under the current directory.

mod compare;
mod engines;
mod host;
mod iss;
mod json;
mod layers;
mod measure;
mod sample;
mod stats;
mod trace;
mod workloads;

use json::{obj, Json};
use layers::Layers;
use measure::{Measured, Stop, END_TO_END};
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_REPEATS: usize = 5;
/// Seconds of timed runs per workload when `--workload` comes without
/// `--seconds` (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;
/// Length divisors: the traced run and `--smoke`.
const TRACED_DIV: u32 = 8;
const SMOKE_DIV: u32 = 50;
const OUT_DIR: &str = "target/bench";

const USAGE: &str = "usage: bench [--seed S] [--repeats N] | --workload W [--seed S] [--seconds T] [--trace 0|1] | --traced [--seed S] | --smoke | compare A.json B.json";

#[derive(Debug, Default, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeats: Option<usize>,
    traced: bool,
    smoke: bool,
    /// `--child W --scale-div D --max-cycles M`: take one sample and
    /// print it (what [`sample::take_in_child`] starts).
    child: Option<String>,
    scale_div: Option<u32>,
    max_cycles: Option<u64>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("`{flag}`: bad value `{text}`"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--child" => cli.child = Some(value()?.clone()),
            "--seed" => cli.seed = Some(num(flag, value()?)?),
            "--seconds" => cli.seconds = Some(num(flag, value()?)?),
            "--repeats" => cli.repeats = Some(num(flag, value()?)?),
            "--scale-div" => cli.scale_div = Some(num(flag, value()?)?),
            "--max-cycles" => cli.max_cycles = Some(num(flag, value()?)?),
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("`--trace` takes 0 or 1, not `{other}`")),
                })
            }
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.seconds.is_some_and(|s| !(s.is_finite() && s >= 0.0)) {
        return Err("`--seconds` must be a non-negative number".into());
    }
    if cli.repeats == Some(0) || cli.scale_div == Some(0) {
        return Err("`--repeats` and `--scale-div` must be at least 1".into());
    }
    Ok(cli)
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (have: {})", names.join(", "))
    })
}

fn write_file(name: &str, json: &Json) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(name);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, json.to_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// One run of the benchmark: which workloads, how long, with what.
struct Session {
    workloads: Vec<&'static Workload>,
    seed: u64,
    /// Length divisor of the end-to-end runs; the traced run divides by
    /// `TRACED_DIV` more.
    scale_div: u32,
    stop: Stop,
    end_to_end: bool,
    per_layer: bool,
}

struct Outcome {
    measured: Vec<Measured>,
    layers: Vec<Layers>,
}

impl Outcome {
    fn attempted(&self) -> usize {
        self.measured.iter().map(|m| m.attempted).sum::<usize>() + self.layers.len()
    }

    fn failed(&self) -> usize {
        self.measured.iter().map(Measured::failed).sum::<usize>()
            + self.layers.iter().filter(|l| l.error.is_some()).count()
    }
}

impl Session {
    /// Measures, prints the tables and writes the result files. `take`
    /// is how a sample is taken: in a child process, except under test.
    fn run(
        &self,
        take: &dyn Fn(&Workload, &workloads::Inputs, u64) -> Result<sample::Sample, String>,
    ) -> Result<Outcome, String> {
        let host = host::fingerprint();
        println!("host: {}", host.to_line());
        for w in &self.workloads {
            println!("workload {}: {}", w.name, w.why);
        }
        let measured = if self.end_to_end {
            measure::measure(&self.workloads, self.seed, self.scale_div, self.stop, take)
        } else {
            Vec::new()
        };
        let mut tracer = Tracer::new();
        let layers: Vec<Layers> = if self.per_layer {
            let div = self.scale_div.max(TRACED_DIV);
            self.workloads
                .iter()
                .map(|w| layers::traced(w, self.seed, div, &mut tracer))
                .collect()
        } else {
            Vec::new()
        };
        if !measured.is_empty() {
            measure::print_table(&measured);
        }
        if !layers.is_empty() {
            layers::print_table(&layers);
            write_file("trace.json", &tracer.to_chrome_json())?;
        }
        let result = obj([
            ("schema", 1u64.into()),
            ("host", host),
            ("seed", self.seed.into()),
            ("scale_div", u64::from(self.scale_div).into()),
            (
                "stop",
                match self.stop {
                    Stop::Repeats(n) => obj([("repeats", n.into())]),
                    Stop::Seconds(s) => obj([("seconds", s.into())]),
                },
            ),
            (
                "workloads",
                Json::Arr(measured.iter().map(Measured::to_json).collect()),
            ),
            (
                "per_layer",
                Json::Arr(layers.iter().map(Layers::to_json).collect()),
            ),
        ]);
        write_file("result.json", &result)?;
        Ok(Outcome { measured, layers })
    }
}

/// The one-line result of a `--workload` run: `--trace 0` carries every
/// end-to-end metric (medians over the run's samples), `--trace 1` every
/// per-layer metric.
fn result_line(outcome: &Outcome) -> Json {
    let metrics = match (outcome.layers.first(), outcome.measured.first()) {
        (Some(l), _) => layers::metrics_json(&l.values),
        (None, Some(m)) => Json::Obj(
            END_TO_END
                .iter()
                .filter_map(|def| {
                    let median = m.summary(def.of)?.median;
                    Some((
                        def.name.to_string(),
                        obj([("value", median.into()), ("unit", def.unit.into())]),
                    ))
                })
                .collect(),
        ),
        (None, None) => Json::Obj(Vec::new()),
    };
    obj([
        ("correct", (outcome.failed() == 0).into()),
        ("attempted", outcome.attempted().into()),
        ("failed", outcome.failed().into()),
        ("metrics", metrics),
    ])
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err("`compare` takes two result files".into());
        };
        let read = |path: &String| -> Result<Json, String> {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        let (report, pass) = compare::compare(&read(a)?, &read(b)?)?;
        print!("{report}");
        return Ok(if pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let cli = parse_cli(args)?;
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    if let Some(name) = &cli.child {
        let workload = find_workload(name)?;
        let inputs = workload.inputs(seed, cli.scale_div.unwrap_or(1));
        let taken = sample::take(workload.engine, &inputs, cli.max_cycles.unwrap_or(u64::MAX));
        println!("{}", taken.to_json().to_line());
        return Ok(ExitCode::SUCCESS);
    }
    let one = cli.workload.as_deref().map(find_workload).transpose()?;
    let scale_div = if cli.smoke { SMOKE_DIV } else { 1 };
    let session = Session {
        workloads: one.map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w]),
        seed,
        scale_div,
        stop: match (one, cli.smoke) {
            (_, true) => Stop::Repeats(1),
            (Some(_), false) => Stop::Seconds(cli.seconds.unwrap_or(DEFAULT_SECONDS)),
            (None, false) => Stop::Repeats(cli.repeats.unwrap_or(DEFAULT_REPEATS)),
        },
        // `--workload` measures one side per run, as `--trace` says.
        end_to_end: !(cli.traced || one.is_some() && cli.trace == Some(true)),
        per_layer: cli.traced || cli.trace.unwrap_or(one.is_none()),
    };
    let outcome = session.run(&|w, _, cap| sample::take_in_child(w, seed, scale_div, cap))?;
    println!("\nfailed {}/{} runs", outcome.failed(), outcome.attempted());
    if one.is_some() {
        println!("{}", result_line(&outcome).to_line());
    }
    Ok(if outcome.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|message| {
        eprintln!("bench: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::TEST_WORKLOADS;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_parses_the_driver_contract_and_rejects_nonsense() {
        let cli = parse_cli(&args(
            "--workload r18.pchase.jit --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cli,
            Cli {
                workload: Some("r18.pchase.jit".into()),
                seed: Some(7),
                seconds: Some(10.0),
                trace: Some(true),
                ..Cli::default()
            }
        );
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--bogus",
            "--repeats 0",
            "--seconds -1",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad}");
        }
        assert!(find_workload("nope")
            .unwrap_err()
            .contains("r16.matmul.batch8"));
        assert_eq!(
            run(&args("compare only-one.json")).unwrap_err(),
            "`compare` takes two result files"
        );
    }

    /// The whole driver on the tiny SoC, in this process: measure, trace,
    /// print, write, and the one-line results for both `--trace` sides.
    /// (`bench --smoke` is the same session over the four real workloads
    /// in child processes; it needs an optimized build.)
    #[test]
    fn smoke_session_runs_end_to_end() {
        let session = |end_to_end, per_layer| Session {
            workloads: TEST_WORKLOADS
                .iter()
                .take(if per_layer { 1 } else { 2 })
                .collect(),
            seed: 3,
            scale_div: 20,
            stop: Stop::Repeats(1),
            end_to_end,
            per_layer,
        };
        let in_process = |w: &Workload, inputs: &workloads::Inputs, cap: u64| {
            Ok(sample::take(w.engine, inputs, cap))
        };
        let outcome = session(true, false).run(&in_process).unwrap();
        assert_eq!((outcome.attempted(), outcome.failed()), (2, 0));
        let line = result_line(&outcome);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = line.get("metrics").unwrap();
        for def in &END_TO_END {
            let v = metrics
                .get(def.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(v.unwrap() > 0.0, "{}", def.name);
        }
        let written = std::fs::read_to_string(Path::new(OUT_DIR).join("result.json")).unwrap();
        let written = Json::parse(&written).unwrap();
        assert_eq!(written.get("seed").and_then(Json::as_u64), Some(3));
        let (report, pass) = compare::compare(&written, &written).unwrap();
        assert!(pass && report.contains("bit-identical"), "{report}");

        let outcome = session(false, true).run(&in_process).unwrap();
        assert_eq!((outcome.attempted(), outcome.failed()), (1, 0));
        let line = result_line(&outcome);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics in {}", line.to_line());
        };
        assert_eq!(metrics.len(), layers::PER_LAYER.len());
        assert!(Path::new(OUT_DIR).join("trace.json").exists());
    }

    /// `BENCHMARK.json` at the repository root restates the tables in
    /// this program; they must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables_in_code() {
        let file = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let list = |key: &str| file.get(key).and_then(Json::as_array).unwrap().to_vec();
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(
                (text(j, "name"), text(j, "why")),
                (w.name.into(), w.why.into())
            );
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (j, def) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), def.name);
            assert_eq!(text(j, "unit"), def.unit);
            assert_eq!(text(j, "better"), def.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), layers::PER_LAYER.len());
        for (j, def) in per_layer.iter().zip(&layers::PER_LAYER) {
            assert_eq!(text(j, "name"), def.name);
            assert_eq!(text(j, "unit"), def.unit);
            assert_eq!(text(j, "better"), def.better.as_str());
        }
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(
            list("paths"),
            vec![Json::from("crates/bench/src/bin/bench")]
        );
    }
}
