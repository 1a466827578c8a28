//! The full-cycle engine: a single static schedule evaluating the entire
//! design every cycle (paper Section II).
//!
//! With an unoptimized netlist and all [`EngineConfig`] switches off this
//! is the paper's **Baseline**; with optimizations on it corresponds to a
//! leading full-cycle compiled simulator (the "Verilator" row of Table
//! III — the paper observes the two are performance-comparable because
//! both are full-cycle). Either way it runs the tier the CCSS engines
//! run: the whole design is one tier-1 program, and the end-of-cycle
//! state updates are entries resolved once, as in the CCSS engines'
//! [`StateTable`](crate::state::StateTable).

use crate::compile::compile_full;
use crate::engine::{delegate_simulator_basics, EngineConfig, Simulator};
use crate::machine::Machine;
use crate::state::{resolve_state, MemWrite, RegCommit};
use crate::step1::{lower_tier1, run_tier1_raw, NoWake, Tier1Program};
use essent_bits::Bits;
use essent_netlist::Netlist;
use std::sync::Arc;

/// Full-cycle simulator: activity-oblivious, minimum per-cycle overhead.
pub struct FullCycleSim {
    machine: Machine,
    /// The whole design as one tier-1 program; a full-cycle schedule has
    /// no triggers to fuse.
    program: Tier1Program,
    /// Every memory write port and every register, in netlist order.
    writes: Vec<MemWrite>,
    regs: Vec<RegCommit>,
}

impl FullCycleSim {
    /// Compiles the netlist for full-cycle execution.
    pub fn new(netlist: &Netlist, config: &EngineConfig) -> FullCycleSim {
        FullCycleSim::new_shared(Arc::new(netlist.clone()), config)
    }

    /// [`FullCycleSim::new`] over an already-shared netlist (no deep
    /// clone).
    pub fn new_shared(netlist: Arc<Netlist>, config: &EngineConfig) -> FullCycleSim {
        let mut machine = Machine::from_arc(Arc::clone(&netlist));
        machine.capture_printf = config.capture_printf;
        let block = compile_full(&netlist, &machine.layout, config);
        let (writes, regs) = resolve_state(&netlist, &machine.layout);
        FullCycleSim {
            program: lower_tier1(&netlist, &block, &[], false),
            machine,
            writes,
            regs,
        }
    }

    /// The number of bytecode steps evaluated per cycle (for reports):
    /// the definition [`EssentSim::full_steps_per_cycle`] sums over its
    /// partitions.
    ///
    /// [`EssentSim::full_steps_per_cycle`]: crate::EssentSim::full_steps_per_cycle
    pub fn steps_per_cycle(&self) -> usize {
        self.program.stats.total_steps
    }

    /// Borrow of the underlying machine (testing, activity profiling).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

impl Simulator for FullCycleSim {
    fn poke(&mut self, name: &str, value: Bits) {
        self.machine.poke_input(name, &value);
    }

    fn write_mem(&mut self, mem: &str, addr: usize, value: Bits) {
        self.machine.write_mem_backdoor(mem, addr, &value);
    }

    fn step(&mut self, n: u64) -> u64 {
        for i in 0..n {
            let machine = &mut self.machine;
            if machine.halted.is_some() {
                return i;
            }
            let mut dynamic = 0u64;
            // SAFETY: exclusive machine access through &mut self.
            unsafe {
                run_tier1_raw(
                    &self.program,
                    machine.arena.as_mut_ptr(),
                    &machine.mems,
                    &NoWake,
                    &mut machine.counters.ops_evaluated,
                    &mut dynamic,
                )
            }
            machine.side_effects();
            // Commit every memory write, then every register, every
            // cycle. Memory writes go first: a write port's fields can
            // alias a register output after copy forwarding, and the
            // write must observe the value the register held *during*
            // the cycle.
            for w in &self.writes {
                machine.counters.static_checks += 1;
                machine.write_port(w);
            }
            for r in &self.regs {
                machine.counters.static_checks += 1;
                machine.commit(r);
            }
            machine.cycle += 1;
            machine.counters.cycles += 1;
        }
        n
    }

    fn engine_name(&self) -> &'static str {
        "full-cycle"
    }

    delegate_simulator_basics!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_of(src: &str, config: &EngineConfig) -> FullCycleSim {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        let netlist = Netlist::from_circuit(&lowered).unwrap();
        FullCycleSim::new(&netlist, config)
    }

    const COUNTER: &str = "circuit C :\n  module C :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    q <= r\n";

    #[test]
    fn counter_counts() {
        let mut sim = sim_of(COUNTER, &EngineConfig::default());
        sim.poke("reset", Bits::from_u64(1, 1));
        sim.step(3);
        sim.poke("reset", Bits::from_u64(0, 1));
        sim.step(7);
        assert_eq!(sim.peek("q").to_u64(), Some(6));
        assert_eq!(sim.cycle(), 10);
    }

    #[test]
    fn baseline_config_matches_default_behavior() {
        let mut a = sim_of(COUNTER, &EngineConfig::default());
        let mut b = sim_of(COUNTER, &EngineConfig::baseline());
        a.poke("reset", Bits::from_u64(0, 1));
        b.poke("reset", Bits::from_u64(0, 1));
        a.step(20);
        b.step(20);
        assert_eq!(a.peek("q"), b.peek("q"));
    }

    #[test]
    fn stop_halts_and_reports_code() {
        let src = "circuit S :\n  module S :\n    input clock : Clock\n    input reset : UInt<1>\n    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))\n    r <= tail(add(r, UInt<4>(1)), 1)\n    stop(clock, eq(r, UInt<4>(3)), 7)\n";
        let mut sim = sim_of(src, &EngineConfig::default());
        sim.poke("reset", Bits::from_u64(0, 1));
        let ran = sim.step(100);
        assert_eq!(sim.halted(), Some(7));
        assert!(ran < 100);
    }

    #[test]
    fn counters_accumulate() {
        let mut sim = sim_of(COUNTER, &EngineConfig::default());
        sim.poke("reset", Bits::from_u64(0, 1));
        sim.step(5);
        let c = sim.counters();
        assert_eq!(c.cycles, 5);
        assert!(c.ops_evaluated >= 5);
        assert!(c.static_checks >= 5, "one commit check per reg per cycle");
    }
}
