//! Compare the sequential and thread-parallel CCSS engines on a large
//! SoC.
//!
//! The parallel engine assigns the acyclic partition schedule to workers
//! at construction and synchronizes them per dependence edge, with no
//! barriers — the direction of the follow-on research building on
//! ESSENT. Its speedup depends on having real cores: on a single-CPU
//! machine the workers only take turns, so this example reports what it
//! measures honestly rather than promising a win.
//!
//! Run with: `cargo run --release --example parallel_soc`

use essent::designs::soc::{generate_soc, SocConfig};
use essent::designs::workloads::{dhrystone, run_workload};
use essent::prelude::*;
use essent::sim::ParEssentSim;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");

    let config = SocConfig::boom();
    let netlist = essent::compile(&generate_soc(&config))?;
    println!("design `{}`: {}", config.name, netlist.stats());
    let workload = dhrystone(40)?;
    let quiet = EngineConfig {
        capture_printf: false,
        ..EngineConfig::default()
    };

    let t0 = Instant::now();
    let mut seq = EssentSim::new(&netlist, &quiet);
    let r_seq = run_workload(&mut seq, &workload, 10_000_000);
    let t_seq = t0.elapsed();
    println!(
        "sequential ESSENT : {:>8.1?} for {} cycles",
        t_seq, r_seq.cycles
    );

    let threads = cores.clamp(2, 8);
    let t1 = Instant::now();
    let mut par = ParEssentSim::new(&netlist, &quiet, threads);
    let r_par = run_workload(&mut par, &workload, 10_000_000);
    let t_par = t1.elapsed();
    assert_eq!((r_seq.cycles, r_seq.tohost), (r_par.cycles, r_par.tohost));
    let schedule = par.dataflow_schedule().expect("the engine runs one");
    println!(
        "parallel  ESSENT : {:>8.1?} on {} worker(s), {} of {} partitions \
         overlapping the cycle boundary",
        t_par,
        schedule.worker_count(),
        schedule.exempt_count(),
        par.partition_count()
    );
    let ratio = t_seq.as_secs_f64() / t_par.as_secs_f64();
    println!("speedup: {ratio:.2}x");
    if cores == 1 {
        println!(
            "\n(single-core host: the workers only take turns here — the engines\n\
             agree cycle-for-cycle, which is what this run verifies; run on a\n\
             multi-core machine to see the parallel win)"
        );
    }
    Ok(())
}
