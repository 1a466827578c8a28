//! # essent — essential signal simulation in Rust
//!
//! A from-scratch Rust reproduction of *"Efficiently Exploiting Low
//! Activity Factors to Accelerate RTL Simulation"* (Beamer & Donofrio,
//! DAC 2020): the ESSENT simulator generator, its novel acyclic graph
//! partitioner, and the full evaluation infrastructure.
//!
//! Most signals in a digital design rarely change, yet leading simulators
//! re-evaluate everything every cycle. ESSENT's *essential signal
//! simulation* coarsens the design into acyclic partitions, attaches
//! activation flags, and evaluates — under a static, singular schedule —
//! only the partitions whose inputs changed.
//!
//! This crate is a facade over the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`bits`] | arbitrary-width two's-complement arithmetic |
//! | [`firrtl`] | FIRRTL parser, AST, lowering passes |
//! | [`netlist`] | flat design graph, optimizations, reference interpreter |
//! | [`core`] | **the acyclic partitioner** (MFFC + merge phases) and CCSS plan |
//! | [`sim`] | the engines: full-cycle, event-driven, and three CCSS engines that run tier-1 programs — ESSENT (interpreted or native), thread-parallel, and a fleet of ESSENT lanes over one shared compile; activity probe; VCD |
//! | [`designs`] | RV32IM SoC generator, assembler, the three paper workloads |
//!
//! # Quickstart
//!
//! ```
//! use essent::prelude::*;
//!
//! let src = "circuit C :\n  module C :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    q <= r\n";
//! let netlist = essent::compile(src)?;
//! let mut sim = EssentSim::new(&netlist, &EngineConfig::default());
//! sim.poke("reset", Bits::from_u64(0, 1));
//! sim.step(42);
//! assert_eq!(sim.peek("q").to_u64(), Some(41));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use essent_bits as bits;
pub use essent_core as core;
pub use essent_designs as designs;
pub use essent_firrtl as firrtl;
pub use essent_netlist as netlist;
pub use essent_sim as sim;

use std::error::Error;

/// Parses, lowers, builds, and optimizes a FIRRTL design in one call.
///
/// # Errors
///
/// Propagates parse, lowering, and netlist-construction errors.
pub fn compile(source: &str) -> Result<essent_netlist::Netlist, Box<dyn Error>> {
    let circuit = essent_firrtl::parse(source)?;
    let lowered = essent_firrtl::passes::lower(circuit)?;
    let mut netlist = essent_netlist::Netlist::from_circuit(&lowered)?;
    essent_netlist::opt::optimize(&mut netlist, &essent_netlist::opt::OptConfig::default());
    Ok(netlist)
}

/// Like [`compile`] but without netlist optimizations (the paper's
/// Baseline tool flow).
///
/// # Errors
///
/// Propagates parse, lowering, and netlist-construction errors.
pub fn compile_unoptimized(source: &str) -> Result<essent_netlist::Netlist, Box<dyn Error>> {
    let circuit = essent_firrtl::parse(source)?;
    let lowered = essent_firrtl::passes::lower(circuit)?;
    Ok(essent_netlist::Netlist::from_circuit(&lowered)?)
}

/// The things nearly every user needs.
pub mod prelude {
    pub use essent_bits::Bits;
    pub use essent_netlist::Netlist;
    pub use essent_sim::{
        EngineConfig, EssentSim, EventDrivenSim, FullCycleSim, Simulator, WorkCounters,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn compile_pipeline_roundtrip() {
        let src = "circuit T :\n  module T :\n    input a : UInt<4>\n    output o : UInt<4>\n    o <= not(a)\n";
        let n = crate::compile(src).unwrap();
        let mut sim = FullCycleSim::new(&n, &EngineConfig::default());
        sim.poke("a", Bits::from_u64(0b1010, 4));
        sim.step(1);
        assert_eq!(sim.peek("o").to_u64(), Some(0b0101));
    }
}
