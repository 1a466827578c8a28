//! **Figure 6** — execution time versus the partitioning parameter `C_p`.
//!
//! The paper's claim: the best `C_p` is mostly insensitive to the design
//! and workload (they pick `C_p = 8`), eliminating the design-specific
//! tuning prior work required. Each row prints times normalized to that
//! row's best `C_p` so the convergence is easy to see.
//!
//! Run: `cargo run --release -p essent-bench --bin figure6 [designs...]`

use essent_bench::{build_design, verify_built, workload_set, Cli};
use essent_designs::workloads::run_workload;
use essent_sim::{EngineConfig, EssentSim};
use std::time::Instant;

const CPS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

fn main() {
    let cli = Cli::parse();
    println!("Figure 6: normalized execution time vs partitioning parameter C_p\n");
    print!("{:>6} {:>10} |", "Design", "Workload");
    for cp in CPS {
        print!(" {cp:>6}");
    }
    println!(" | best");
    println!("{}", "-".repeat(84));

    for config in cli.configs() {
        let design = build_design(&config);
        verify_built(&cli, &design);
        for workload in workload_set(cli.scale) {
            let mut times = Vec::new();
            for cp in CPS {
                let mut sim = EssentSim::new(
                    &design.optimized,
                    &EngineConfig {
                        c_p: cp,
                        capture_printf: false,
                        ..EngineConfig::default()
                    },
                );
                let start = Instant::now();
                let run = run_workload(&mut sim, &workload, u64::MAX / 2);
                assert!(run.finished);
                times.push(start.elapsed().as_secs_f64());
            }
            let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let best_cp = CPS[times
                .iter()
                .position(|&t| t == best)
                .expect("best time exists")];
            print!("{:>6} {:>10} |", config.name, workload.name);
            for t in &times {
                print!(" {:>6.2}", t / best);
            }
            println!(" | C_p={best_cp}");
        }
    }
    println!("\n(values are execution time normalized to each row's best C_p;");
    println!(" flat minima across rows = the paper's design-insensitivity claim)");
}
