//! The word-specialized tier must cover the designs it was built for: on
//! the SoCs nearly every step is a single-word operation, and each step
//! the lowering leaves on the generic fallback costs a dispatch through
//! the slow kernels every time its partition wakes. A lowering change
//! that drops an op class shows up here as a coverage regression long
//! before it shows up as a kHz one.

use essent_designs::soc::{generate_soc, SocConfig};
use essent_netlist::{opt, Netlist};
use essent_sim::{EngineConfig, EssentSim};

const COVERAGE_FLOOR: f64 = 0.90;

fn optimized_soc(config: &SocConfig) -> Netlist {
    let circuit = essent_firrtl::parse(&generate_soc(config)).expect("generated FIRRTL parses");
    let lowered = essent_firrtl::passes::lower(circuit).expect("generated FIRRTL lowers");
    let mut netlist = Netlist::from_circuit(&lowered).expect("netlist builds");
    opt::optimize(&mut netlist, &opt::OptConfig::default());
    netlist
}

/// No silent fall-back on the commit path either: on the benchmark's
/// three designs every elided register that fits a word is a `Commit`
/// instruction of its partition's program, and the engine's per-wake
/// state table is left with the wider ones only. The single-word count
/// is taken from the plan and the netlist, not from the lowering.
#[test]
fn every_single_word_elided_register_is_absorbed() {
    for config in [SocConfig::r16(), SocConfig::r18(), SocConfig::boom()] {
        let netlist = optimized_soc(&config);
        let sim = EssentSim::new(&netlist, &EngineConfig::default());
        let elided = sim.plan().reg_plans.iter().filter(|rp| rp.elided);
        let (word, wide): (Vec<_>, Vec<_>) =
            elided.partition(|rp| essent_bits::words(netlist.regs()[rp.reg.index()].width) == 1);
        let stats = sim.tier_stats().expect("default config lowers the tier");
        assert!(
            !word.is_empty(),
            "design `{}` elides registers",
            config.name
        );
        assert_eq!(
            (stats.absorbed_commits, stats.total_commits),
            (word.len(), word.len() + wide.len()),
            "design `{}`",
            config.name
        );
    }
}

#[test]
fn tier1_covers_at_least_90_percent_of_soc_steps() {
    for config in [SocConfig::tiny(), SocConfig::r16()] {
        let netlist = optimized_soc(&config);
        let stats = EssentSim::new(&netlist, &EngineConfig::default())
            .tier_stats()
            .expect("default config lowers the tier");
        assert!(
            stats.coverage() >= COVERAGE_FLOOR,
            "design `{}`: tier coverage {:.1}% ({} of {} steps)",
            config.name,
            stats.coverage() * 100.0,
            stats.tier1_steps,
            stats.total_steps
        );
    }
}
