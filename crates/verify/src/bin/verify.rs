//! Standalone verifier driver: builds the paper's SoC design points and
//! runs the full `essent-verify` stack on each.
//!
//! ```text
//! cargo run -p essent-verify --bin verify              # r16 r18 boom
//! cargo run -p essent-verify --bin verify -- tiny r16  # chosen designs
//! cargo run -p essent-verify --bin verify -- --cp 12   # partition size
//! ```
//!
//! Exit status is 0 iff every design verifies with no errors (warnings
//! and infos are reported but do not fail the run).

use essent_designs::soc::SocConfig;
use essent_netlist::{opt, Netlist};
use essent_sim::EngineConfig;
use essent_verify::verify_design_full;

fn config_for(name: &str) -> Option<SocConfig> {
    match name {
        "tiny" => Some(SocConfig::tiny()),
        "r16" => Some(SocConfig::r16()),
        "r18" => Some(SocConfig::r18()),
        "boom" => Some(SocConfig::boom()),
        _ => None,
    }
}

fn build_netlist(config: &SocConfig) -> Netlist {
    let src = essent_designs::soc::generate_soc(config);
    let circuit = essent_firrtl::parse(&src).expect("generated FIRRTL parses");
    let lowered = essent_firrtl::passes::lower(circuit).expect("generated FIRRTL lowers");
    let mut netlist = Netlist::from_circuit(&lowered).expect("netlist builds");
    opt::optimize(&mut netlist, &opt::OptConfig::default());
    netlist
}

fn main() {
    let mut designs: Vec<String> = Vec::new();
    let mut c_p: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cp" => {
                let value = args.next().unwrap_or_default();
                match value.parse() {
                    Ok(n) => c_p = Some(n),
                    Err(_) => {
                        eprintln!("verify: --cp needs a number, got `{value}`");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!("usage: verify [--cp N] [tiny|r16|r18|boom ...]");
                return;
            }
            name if config_for(name).is_some() => designs.push(name.to_string()),
            other => {
                eprintln!("verify: unknown design or flag `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    if designs.is_empty() {
        designs = vec!["r16".into(), "r18".into(), "boom".into()];
    }

    let mut engine = EngineConfig::default();
    if let Some(c_p) = c_p {
        engine.c_p = c_p;
    }

    let mut failed = false;
    for name in &designs {
        let config = config_for(name).expect("validated above");
        let netlist = build_netlist(&config);
        let artifacts = verify_design_full(&netlist, &engine);
        let report = artifacts.report;
        let verdict = if report.is_clean() { "ok" } else { "FAIL" };
        println!(
            "{name}: {} signal(s), {} register(s) ... {verdict}",
            netlist.signal_count(),
            netlist.regs().len()
        );
        if let Some(ds) = &artifacts.dataflow {
            println!(
                "{name}: dataflow schedule {} worker(s), {} partition(s), {} exempt, \
                 {} same-cycle wait(s), {} cross-cycle wait(s)",
                ds.worker_count(),
                ds.worker_of.len(),
                ds.exempt_count(),
                ds.waits_same.iter().map(Vec::len).sum::<usize>(),
                ds.waits_prev.iter().map(Vec::len).sum::<usize>(),
            );
        }
        if !report.is_empty() {
            println!("{report}");
        }
        failed |= !report.is_clean();
    }
    if failed {
        std::process::exit(1);
    }
}
