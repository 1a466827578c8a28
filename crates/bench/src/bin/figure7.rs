//! **Figure 7** — decomposition of simulation work into base work,
//! static overhead, and dynamic overhead, plus the effective activity
//! factor, as `C_p` sweeps (r16 × dhrystone in the paper).
//!
//! The paper computes this by counting host instructions; the
//! interpreter counts the same categories directly and deterministically:
//!
//! * **base work** — operations evaluated (`ops_evaluated`);
//! * **static overhead** — per-cycle activity flag tests and unconditional
//!   commit checks (`static_checks`), proportional to the number of
//!   partitions;
//! * **dynamic overhead** — output change comparisons and consumer
//!   wakeups performed by active partitions (`dynamic_checks`),
//!   proportional to the cut edges of active partitions.
//!
//! Expected shape: increasing `C_p` shrinks static overhead (fewer
//! partitions) while the effective activity factor grows (coarser
//! skipping); dynamic overhead stays roughly constant.
//!
//! Run: `cargo run --release -p essent-bench --bin figure7`

use essent_bench::{build_design, verify_built, workload_set, Cli};
use essent_designs::soc::SocConfig;
use essent_designs::workloads::run_workload;
use essent_sim::{EngineConfig, EssentSim, Simulator};

const CPS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

fn main() {
    let cli = Cli::parse();
    let design = build_design(&SocConfig::r16());
    verify_built(&cli, &design);
    let workload = &workload_set(cli.scale)[0]; // dhrystone

    println!("Figure 7: overhead decomposition vs C_p (r16 x dhrystone)\n");
    println!(
        "{:>5} | {:>10} | {:>11} {:>11} {:>11} | {:>10} | {:>9}",
        "C_p", "partitions", "base/cyc", "static/cyc", "dynamic/cyc", "total/cyc", "eff. act."
    );
    println!("{}", "-".repeat(86));
    for cp in CPS {
        let mut sim = EssentSim::new(
            &design.optimized,
            &EngineConfig {
                c_p: cp,
                capture_printf: false,
                ..EngineConfig::default()
            },
        );
        let full_steps = sim.full_steps_per_cycle();
        let run = run_workload(&mut sim, workload, u64::MAX / 2);
        assert!(run.finished);
        let c = sim.counters();
        let cycles = c.cycles as f64;
        let effective = c.ops_evaluated as f64 / (cycles * full_steps as f64);
        println!(
            "{:>5} | {:>10} | {:>11.1} {:>11.1} {:>11.1} | {:>10.1} | {:>8.2}%",
            cp,
            sim.partition_count(),
            c.ops_evaluated as f64 / cycles,
            c.static_checks as f64 / cycles,
            c.dynamic_checks as f64 / cycles,
            c.total() as f64 / cycles,
            100.0 * effective
        );
    }
    println!("\n(work units per simulated cycle; eff. act. = fraction of the");
    println!(" design evaluated = ops / (cycles x full-cycle steps))");
}
