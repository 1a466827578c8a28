//! **Sanitize** — runs the parallel CCSS engine under the shadow-memory
//! race sanitizer on real designs and workloads, as the dynamic
//! counterpart of the static footprint and dependence proofs
//! (`essent-verify` `R0501`–`R0504`, `S0601`–`S0605`): the sanitizer
//! panics on any cross-partition arena conflict the dataflow schedule
//! did not order (ready-flag waits must cover every conflict,
//! cycle-boundary overlap may only pair footprint-independent
//! partitions), so a clean run is a dynamic witness that the proven
//! schedule is the one actually executed.
//!
//! Two engines per design run the same workload — sanitizer on and off —
//! and the binary fails (exit 1 via panic) when their architectural
//! results ([`RunResult`]) or [`WorkCounters`] diverge, i.e. the
//! sanitizer must be a pure observer.
//!
//! Build with `--features race-sanitizer` for the real check; without
//! the feature the binary still runs the twin comparison but says so
//! (the sanitizer hooks compile away).
//!
//! Run: `cargo run --release -p essent-bench --features race-sanitizer
//! --bin sanitize [--cycles N] [--threads T] [tiny r16 r18 boom]`.
//!
//! [`RunResult`]: essent_designs::workloads::RunResult
//! [`WorkCounters`]: essent_sim::WorkCounters

use essent_bench::build_design;
use essent_designs::soc::SocConfig;
use essent_designs::workloads::{dhrystone, run_workload};
use essent_sim::{EngineConfig, ParEssentSim, Simulator};

fn usage_exit(problem: &str) -> ! {
    eprintln!("{problem}\nusage: sanitize [--cycles N] [--threads T] [tiny r16 r18 boom]");
    std::process::exit(2);
}

/// The numeric value following `flag`.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_exit(&format!("`{flag}` takes a number")))
}

fn main() {
    let mut designs: Vec<String> = Vec::new();
    let mut max_cycles: u64 = 50_000;
    let mut threads: usize = 3;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cycles" => max_cycles = value(&mut args, "--cycles"),
            "--threads" => threads = value(&mut args, "--threads"),
            "tiny" | "r16" | "r18" | "boom" => designs.push(arg),
            other => usage_exit(&format!("unknown argument `{other}`")),
        }
    }
    if designs.is_empty() {
        designs = vec!["tiny".to_string()];
    }

    if cfg!(feature = "race-sanitizer") {
        println!("sanitize: race-sanitizer feature ON (shadow memory armed)");
    } else {
        println!("sanitize: race-sanitizer feature OFF (twin comparison only)");
    }
    let workload = dhrystone(20).expect("dhrystone assembles");

    for name in &designs {
        let config = match name.as_str() {
            "tiny" => SocConfig::tiny(),
            "r16" => SocConfig::r16(),
            "r18" => SocConfig::r18(),
            _ => SocConfig::boom(),
        };
        let built = build_design(&config);
        let mut off = ParEssentSim::new(&built.optimized, &EngineConfig::default(), threads);
        let mut on = ParEssentSim::new(
            &built.optimized,
            &EngineConfig {
                race_sanitizer: true,
                ..EngineConfig::default()
            },
            threads,
        );
        let r_off = run_workload(&mut off, &workload, max_cycles);
        let r_on = run_workload(&mut on, &workload, max_cycles);
        assert_eq!(
            (r_on.cycles, r_on.instret, r_on.tohost, r_on.finished),
            (r_off.cycles, r_off.instret, r_off.tohost, r_off.finished),
            "sanitizer changed architectural results on `{name}`"
        );
        assert_eq!(
            on.counters(),
            off.counters(),
            "sanitizer changed work counters on `{name}`"
        );
        println!(
            "sanitize: `{name}` ok — {} cycle(s), {} instruction(s), \
             tohost {:#x}, {} thread(s), no races observed",
            r_on.cycles, r_on.instret, r_on.tohost, threads
        );
    }
}
