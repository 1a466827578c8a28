//! Profile a design's per-cycle activity factor (the quantity of paper
//! Figure 5) and dump a VCD waveform of a short window.
//!
//! Run with: `cargo run --release --example activity_waves`

use essent::designs::soc::{generate_soc, SocConfig};
use essent::designs::workloads::{pchase, run_workload, Workload};
use essent::prelude::*;
use essent::sim::activity::ActivityProbe;
use essent::sim::vcd::VcdWriter;
use std::fs::File;
use std::io::BufWriter;

fn profile(netlist: &essent::netlist::Netlist, workload: &Workload, cycles: u64) -> ActivityProbe {
    let mut sim = FullCycleSim::new(netlist, &EngineConfig::default());
    for (i, &word) in workload.words.iter().enumerate() {
        sim.write_mem("imem", i, Bits::from_u64(word as u64, 32));
    }
    sim.poke("reset", Bits::from_u64(1, 1));
    sim.step(2);
    sim.poke("reset", Bits::from_u64(0, 1));
    let mut probe = ActivityProbe::new(sim.machine());
    for _ in 0..cycles {
        if sim.halted().is_some() {
            break;
        }
        sim.step(1);
        probe.sample(sim.machine());
    }
    probe
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SocConfig::tiny();
    let netlist = essent::compile(&generate_soc(&config))?;
    println!("design: {}", netlist.stats());

    let workload = pchase(256, 2_000)?;
    let probe = profile(&netlist, &workload, 20_000);
    println!(
        "pchase activity over {} cycles: mean {:.2}% of {} signals",
        probe.samples().len(),
        100.0 * probe.mean(),
        probe.tracked_signals()
    );
    let (edges, counts) = probe.histogram(20, 0.5);
    println!("\nactivity-factor histogram (Figure 5 style):");
    for (edge, count) in edges.iter().zip(&counts) {
        let bar: String =
            std::iter::repeat_n('#', ((*count as f64 + 1.0).log2() as usize).min(60)).collect();
        println!("  <= {:>5.1}% : {:>6} {}", edge * 100.0, count, bar);
    }

    // Dump a short VCD window of the same run.
    let path = std::env::temp_dir().join("essent_soc.vcd");
    let file = BufWriter::new(File::create(&path)?);
    let mut sim = FullCycleSim::new(&netlist, &EngineConfig::default());
    let mut vcd = VcdWriter::new(file, &netlist, "soc")?;
    for (i, &word) in workload.words.iter().enumerate() {
        sim.write_mem("imem", i, Bits::from_u64(word as u64, 32));
    }
    sim.poke("reset", Bits::from_u64(1, 1));
    sim.step(2);
    sim.poke("reset", Bits::from_u64(0, 1));
    for t in 0..500 {
        sim.step(1);
        vcd.sample(&sim, t)?;
    }
    println!(
        "\nwrote a 500-cycle waveform of {} signals to {}",
        vcd.tracked_signals(),
        path.display()
    );

    // The headline check: run the same workload under ESSENT and report
    // the effective activity factor it achieved.
    let mut essent = EssentSim::new(
        &netlist,
        &EngineConfig {
            capture_printf: false,
            ..EngineConfig::default()
        },
    );
    let run = run_workload(&mut essent, &workload, 1_000_000);
    let c = essent.counters();
    let effective =
        c.ops_evaluated as f64 / (c.cycles as f64 * essent.full_steps_per_cycle() as f64);
    println!(
        "ESSENT ran {} cycles evaluating only {:.2}% of the design per cycle (effective activity factor)",
        run.cycles,
        100.0 * effective
    );
    Ok(())
}
