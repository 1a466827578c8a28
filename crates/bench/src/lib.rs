//! Shared harness for the table/figure reproduction binaries.
//!
//! Every binary accepts `--quick` (default: small workload scales so the
//! whole suite finishes in minutes) or `--full` (≈10× longer runs with
//! cycle-count ratios closer to the paper's Table II), plus optional
//! design names (`r16 r18 boom`) to restrict the sweep.

use essent_designs::soc::{generate_soc, SocConfig};
use essent_designs::workloads::{dhrystone, matmul, pchase, run_workload, RunResult, Workload};
use essent_netlist::{opt, Netlist};
use essent_sim::{EngineConfig, EssentSim, EventDrivenSim, FullCycleSim, Simulator};
use std::time::{Duration, Instant};

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// 1 for `--quick` (default), 10 for `--full`.
    pub scale: u32,
    /// Which designs to run (default: all three).
    pub designs: Vec<String>,
    /// `--verify`: run the static verifier stack on every built design
    /// before measuring, aborting on error findings.
    pub verify: bool,
}

const USAGE: &str = "usage: [--quick|--full] [--verify] [r16 r18 boom tiny]";

impl Cli {
    /// Parses `std::env::args`; on a bad argument prints the usage line
    /// to stderr and exits with status 2.
    pub fn parse() -> Cli {
        Cli::parse_from(std::env::args().skip(1)).unwrap_or_else(|err| {
            eprintln!("{err}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Names the first argument that is neither a known flag nor a known
    /// design.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            scale: 1,
            designs: Vec::new(),
            verify: false,
        };
        for arg in args {
            match arg.as_str() {
                "--full" => cli.scale = 10,
                "--quick" => cli.scale = 1,
                "--verify" => cli.verify = true,
                "r16" | "r18" | "boom" | "tiny" => cli.designs.push(arg),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if cli.designs.is_empty() {
            cli.designs = vec!["r16".into(), "r18".into(), "boom".into()];
        }
        Ok(cli)
    }

    /// The configured designs.
    pub fn configs(&self) -> Vec<SocConfig> {
        self.designs
            .iter()
            .map(|d| match d.as_str() {
                "tiny" => SocConfig::tiny(),
                "r16" => SocConfig::r16(),
                "r18" => SocConfig::r18(),
                "boom" => SocConfig::boom(),
                other => panic!("unknown design `{other}`"),
            })
            .collect()
    }
}

/// A built design: optimized and baseline (unoptimized) netlists.
pub struct BuiltDesign {
    pub config: SocConfig,
    pub optimized: Netlist,
    pub unoptimized: Netlist,
}

/// Generates and compiles one SoC configuration both ways.
///
/// # Panics
///
/// Panics if the generated FIRRTL fails to build (a bug, covered by
/// tests).
pub fn build_design(config: &SocConfig) -> BuiltDesign {
    let src = generate_soc(config);
    let circuit = essent_firrtl::parse(&src).expect("generated FIRRTL parses");
    let lowered = essent_firrtl::passes::lower(circuit).expect("generated FIRRTL lowers");
    let unoptimized = Netlist::from_circuit(&lowered).expect("netlist builds");
    let mut optimized = unoptimized.clone();
    opt::optimize(&mut optimized, &opt::OptConfig::default());
    BuiltDesign {
        config: config.clone(),
        optimized,
        unoptimized,
    }
}

/// Runs the full `essent-verify` stack on a built design when the
/// `--verify` flag was given; a no-op otherwise.
///
/// # Panics
///
/// Panics with the full report if the verifier finds any error —
/// measuring a design whose schedule or bytecode is broken would produce
/// garbage numbers.
pub fn verify_built(cli: &Cli, design: &BuiltDesign) {
    if !cli.verify {
        return;
    }
    for (label, netlist) in [
        ("optimized", &design.optimized),
        ("unoptimized", &design.unoptimized),
    ] {
        let report = essent_verify::verify_design(netlist, &EngineConfig::default());
        assert!(
            report.is_clean(),
            "design `{}` ({label}) failed verification:\n{report}",
            design.config.name
        );
        eprintln!(
            "verify: `{}` ({label}) ok, {} finding(s), 0 errors",
            design.config.name,
            report.len()
        );
    }
}

/// The three paper workloads at the harness scale.
///
/// `--quick` compresses the cycle-count ratios so the slowest rows stay
/// tractable; `--full` stretches toward the paper's Table II proportions
/// (pchase ≫ matmul > dhrystone).
pub fn workload_set(scale: u32) -> Vec<Workload> {
    vec![
        dhrystone(60 * scale).expect("dhrystone assembles"),
        matmul(8, 2 * scale).expect("matmul assembles"),
        pchase(512, 6_000 * scale).expect("pchase assembles"),
    ]
}

/// The engines of Table III, in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Classic FIFO event-driven on the optimized netlist — the
    /// commercial event-driven simulator's row ("CommVer").
    CommVer,
    /// Optimized full-cycle — the "Verilator" row (the paper notes its
    /// Baseline is performance-comparable to Verilator).
    Verilator,
    /// Unoptimized full-cycle: the paper's Baseline tool flow.
    Baseline,
    /// The CCSS simulator with all optimizations.
    Essent,
}

impl Engine {
    pub const ALL: [Engine; 4] = [
        Engine::CommVer,
        Engine::Verilator,
        Engine::Baseline,
        Engine::Essent,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Engine::CommVer => "CommVer*",
            Engine::Verilator => "Verilator*",
            Engine::Baseline => "Baseline",
            Engine::Essent => "ESSENT",
        }
    }

    /// Instantiates the engine over the appropriate netlist variant.
    pub fn build(self, design: &BuiltDesign) -> Box<dyn Simulator> {
        let quiet = EngineConfig {
            capture_printf: false,
            ..EngineConfig::default()
        };
        match self {
            Engine::CommVer => Box::new(EventDrivenSim::new(
                &design.optimized,
                &EngineConfig {
                    event_levelized: false,
                    ..quiet
                },
            )),
            Engine::Verilator => Box::new(FullCycleSim::new(&design.optimized, &quiet)),
            Engine::Baseline => Box::new(FullCycleSim::new(
                &design.unoptimized,
                &EngineConfig {
                    capture_printf: false,
                    ..EngineConfig::baseline()
                },
            )),
            Engine::Essent => Box::new(EssentSim::new(&design.optimized, &quiet)),
        }
    }
}

/// Outcome of one timed cell.
#[derive(Debug, Clone, Copy)]
pub struct TimedRun {
    pub elapsed: Duration,
    pub result: RunResult,
}

/// Builds the engine, loads the workload, and times the run to
/// completion.
pub fn time_run(engine: Engine, design: &BuiltDesign, workload: &Workload) -> TimedRun {
    let mut sim = engine.build(design);
    let start = Instant::now();
    let result = run_workload(sim.as_mut(), workload, u64::MAX / 2);
    let elapsed = start.elapsed();
    assert!(
        result.finished,
        "{} did not finish {} on {}",
        engine.name(),
        workload.name,
        design.config.name
    );
    TimedRun { elapsed, result }
}

/// Simulation rate in kHz.
pub fn khz(run: &TimedRun) -> f64 {
    run.result.cycles as f64 / run.elapsed.as_secs_f64() / 1e3
}

/// Formats a duration like the paper's seconds columns.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn no_arguments_selects_the_three_paper_designs_at_quick_scale() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.designs, ["r16", "r18", "boom"]);
        assert_eq!((cli.scale, cli.verify), (1, false));
    }

    #[test]
    fn full_scales_by_ten_and_named_designs_replace_the_default() {
        let cli = parse(&["--full", "tiny", "--verify"]).unwrap();
        assert_eq!(cli.designs, ["tiny"]);
        assert_eq!((cli.scale, cli.verify), (10, true));
    }

    #[test]
    fn unknown_flag_is_an_error_not_a_panic() {
        let err = parse(&["r16", "--lanes"]).unwrap_err();
        assert!(err.contains("`--lanes`"), "{err}");
    }
}
