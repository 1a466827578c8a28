//! Explore how the acyclic partitioner coarsens a design as `C_p` sweeps —
//! the structural counterpart of the paper's Figure 6/7 tradeoff.
//!
//! Run with: `cargo run --release --example partition_explorer`

use essent::core::plan::extended_dag;
use essent::core::{partition, CcssPlan};
use essent::designs::soc::{generate_soc, SocConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = essent::compile(&generate_soc(&SocConfig::r16()))?;
    println!("design: {}\n", netlist.stats());
    println!(
        "{:>5} {:>11} {:>10} {:>9} {:>10} {:>9} {:>11}",
        "C_p", "partitions", "mean size", "largest", "cut edges", "triggers", "elided regs"
    );
    let (dag, writes) = extended_dag(&netlist);
    for c_p in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let parts = partition(&dag, c_p);
        assert!(parts.check(&dag).is_clean(), "partitioning invariants");
        let stats = parts.stats();
        let plan = CcssPlan::from_partitioning(&netlist, &dag, &writes, &parts, Default::default());
        let elided = plan.reg_plans.iter().filter(|r| r.elided).count();
        println!(
            "{:>5} {:>11} {:>10.1} {:>9} {:>10} {:>9} {:>8}/{}",
            c_p,
            stats.partitions,
            stats.mean_size,
            stats.largest,
            stats.cut_edges,
            plan.trigger_count(),
            elided,
            plan.reg_plans.len()
        );
    }
    println!(
        "\nLarger C_p merges more aggressively: fewer partitions (lower static\n\
         overhead) but coarser activity tracking (higher effective activity).\n\
         The paper selects C_p = 8 as the host-tuned balance (Figure 6)."
    );
    Ok(())
}
