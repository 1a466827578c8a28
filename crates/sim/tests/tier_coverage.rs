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

#[test]
fn tier1_covers_at_least_90_percent_of_soc_steps() {
    for config in [SocConfig::tiny(), SocConfig::r16()] {
        let circuit =
            essent_firrtl::parse(&generate_soc(&config)).expect("generated FIRRTL parses");
        let lowered = essent_firrtl::passes::lower(circuit).expect("generated FIRRTL lowers");
        let mut netlist = Netlist::from_circuit(&lowered).expect("netlist builds");
        opt::optimize(&mut netlist, &opt::OptConfig::default());
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
