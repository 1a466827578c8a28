//! Batched multi-instance CCSS simulation: a **fleet** of
//! [`EssentSim`]s over one compiled design, stepped on every core.
//!
//! The production workload for an RTL simulator is rarely one run — it
//! is thousands of seeds/stimuli over the same design (fuzzing farms,
//! CI regression matrices, parameter sweeps). [`BatchSim`] runs N
//! instances of one design:
//!
//! - the design is partitioned, planned, lowered and (under
//!   [`EngineConfig::jit`]) compiled to native bodies **once**; every
//!   lane holds that compilation behind one `Arc`;
//! - each lane is a whole [`EssentSim`] with its own arena, memory
//!   banks, activity bits, snapshots, bank table, counters, halt state
//!   and printf log, so lane `i` *is* a single-instance run over its
//!   stimulus — it skips exactly what its own stimulus left idle, and
//!   is bit- and counter-identical to an independently built
//!   `EssentSim` (`tests/batch_props.rs`);
//! - [`BatchSim::step`] runs the lanes on as many scoped threads as the
//!   host has cores (up to one per lane). Lanes share nothing mutable,
//!   so no cycle synchronises with another lane's: each worker pulls
//!   the next lane, runs it `n` cycles or to its `stop`, and pulls
//!   again. A halted lane costs one pull. The threads are spawned anew
//!   on every `step`, which costs tens of microseconds: ≈ 40 µs for a
//!   3-lane `step(1)` on a 2-core x86-64 host, where stepping three idle
//!   single engines takes well under 1 µs. Step the fleet in chunks of
//!   many cycles, or drive a per-cycle testbench through
//!   [`BatchSim::lane_mut`].
//!
//! Every [`EngineConfig`] switch behaves per lane exactly as in
//! [`EssentSim`], `jit` and `profile` included.

use crate::engine::{EngineConfig, Simulator};
use crate::essent::{Compiled, EssentSim};
use crate::frontend::build_plan;
use crate::machine::WorkCounters;
use crate::step1::TierStats;
use essent_bits::Bits;
use essent_core::plan::CcssPlan;
use essent_netlist::Netlist;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::thread;

/// The fleet (see the module docs). Lane arguments index the lanes in
/// construction order.
pub struct BatchSim {
    lanes: Vec<EssentSim>,
    /// Threads a `step` runs the lanes on: the host's available
    /// parallelism, capped at the lane count.
    workers: usize,
}

impl BatchSim {
    /// Partitions the netlist at `config.c_p` and builds a fleet of
    /// `config.lanes` instances over one compilation.
    ///
    /// # Panics
    ///
    /// Panics if `config.lanes` is 0.
    pub fn new(netlist: &Netlist, config: &EngineConfig) -> BatchSim {
        BatchSim::new_shared(Arc::new(netlist.clone()), config)
    }

    /// [`BatchSim::new`] over an already-shared netlist (no deep clone).
    pub fn new_shared(netlist: Arc<Netlist>, config: &EngineConfig) -> BatchSim {
        let plan = build_plan(&netlist, config, config.elide_state);
        BatchSim::from_plan_shared(netlist, plan, config)
    }

    /// Builds the fleet from a pre-computed plan: one compilation, then
    /// `config.lanes` instances of it.
    pub fn from_plan_shared(
        netlist: Arc<Netlist>,
        plan: CcssPlan,
        config: &EngineConfig,
    ) -> BatchSim {
        assert!(config.lanes > 0, "a fleet needs at least one lane");
        let machine = EssentSim::fresh_machine(netlist, config);
        let design = Arc::new(Compiled::new(&machine, plan, config));
        let lanes = (0..config.lanes)
            .map(|_| EssentSim::instance(Arc::clone(&design), machine.clone(), config))
            .collect();
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        BatchSim {
            lanes,
            workers: cores.min(config.lanes),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// One lane, as the single-instance engine it is.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane(&self, lane: usize) -> &EssentSim {
        &self.lanes[lane]
    }

    /// One lane, mutably (per-lane stimulus).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_mut(&mut self, lane: usize) -> &mut EssentSim {
        &mut self.lanes[lane]
    }

    /// Number of partitions in the schedule.
    pub fn partition_count(&self) -> usize {
        self.lanes[0].partition_count()
    }

    /// Steps a full-cycle evaluation would run per cycle per lane.
    pub fn full_steps_per_cycle(&self) -> usize {
        self.lanes[0].full_steps_per_cycle()
    }

    /// Aggregated word-specialization coverage; always `Some`.
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.lanes[0].tier_stats()
    }

    /// Always 0: lanes are independent instances, nothing re-packs them.
    pub fn compactions(&self) -> u64 {
        0
    }

    /// Sets an external input on **every** lane.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not an input signal.
    pub fn poke(&mut self, name: &str, value: Bits) {
        for lane in &mut self.lanes {
            lane.poke(name, value.clone());
        }
    }

    /// Reads any surviving signal on one lane.
    ///
    /// # Panics
    ///
    /// Panics if `name` is unknown or `lane` out of range.
    pub fn peek_lane(&self, lane: usize, name: &str) -> Bits {
        self.lanes[lane].peek(name)
    }

    /// Cycles simulated by one lane (a lane stops when it halts).
    pub fn cycle_of(&self, lane: usize) -> u64 {
        self.lanes[lane].cycle()
    }

    /// One lane's `stop` code, once fired.
    pub fn halted_of(&self, lane: usize) -> Option<u64> {
        self.lanes[lane].halted()
    }

    /// One lane's work counters.
    pub fn counters_of(&self, lane: usize) -> WorkCounters {
        self.lanes[lane].counters()
    }

    /// Back-door memory write on one lane (program loading).
    ///
    /// # Panics
    ///
    /// Panics on unknown memory or out-of-range address.
    pub fn write_mem_lane(&mut self, lane: usize, mem: &str, addr: usize, value: &Bits) {
        self.lanes[lane].write_mem(mem, addr, value.clone());
    }

    /// Runs every lane up to `n` cycles; a lane that halts stops there
    /// while the rest continue. Returns the most cycles any lane ran.
    ///
    /// The lanes run on `workers` threads: `workers − 1` scoped threads
    /// plus the caller, each pulling the next lane until none is left.
    /// The scoped threads are spawned by every call, so a call costs
    /// tens of microseconds before any lane runs (see the module docs):
    /// step many cycles per call, or step lanes one by one through
    /// [`BatchSim::lane_mut`] when the testbench must act every cycle.
    pub fn step(&mut self, n: u64) -> u64 {
        let pull = Mutex::new(self.lanes.iter_mut());
        let work = || {
            let mut most = 0;
            loop {
                // The guard drops at the end of this statement: a lane
                // runs with the pull unlocked.
                let next = pull
                    .lock()
                    .expect("nothing panics while holding the pull")
                    .next();
                let Some(lane) = next else {
                    return most;
                };
                most = most.max(lane.step(n));
            }
        };
        if self.workers == 1 {
            return work();
        }
        thread::scope(|s| {
            let helpers: Vec<_> = (1..self.workers).map(|_| s.spawn(work)).collect();
            let mine = work();
            helpers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .fold(mine, u64::max)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn netlist_of(src: &str) -> Netlist {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        Netlist::from_circuit(&lowered).unwrap()
    }

    const COUNTER: &str = "circuit C :\n  module C :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    q <= r\n";

    #[test]
    fn lanes_count_independently() {
        let n = netlist_of(COUNTER);
        let config = EngineConfig {
            lanes: 4,
            ..EngineConfig::default()
        };
        let mut sim = BatchSim::new(&n, &config);
        sim.poke("reset", Bits::from_u64(1, 1));
        sim.step(2);
        sim.poke("reset", Bits::from_u64(0, 1));
        // Release lane 2 three cycles later than the rest.
        sim.lane_mut(2).poke("reset", Bits::from_u64(1, 1));
        sim.step(3);
        sim.lane_mut(2).poke("reset", Bits::from_u64(0, 1));
        sim.step(10);
        assert_eq!(sim.peek_lane(0, "q").to_u64(), Some(12));
        assert_eq!(sim.peek_lane(1, "q").to_u64(), Some(12));
        assert_eq!(sim.peek_lane(2, "q").to_u64(), Some(9));
        assert_eq!(sim.peek_lane(3, "q").to_u64(), Some(12));
    }

    #[test]
    fn matches_single_instance_per_lane() {
        let n = netlist_of(COUNTER);
        let config = EngineConfig {
            lanes: 3,
            ..EngineConfig::default()
        };
        let mut batch = BatchSim::new(&n, &config);
        let mut singles: Vec<EssentSim> = (0..3).map(|_| EssentSim::new(&n, &config)).collect();
        for cycle in 0..40u64 {
            for (lane, single) in singles.iter_mut().enumerate() {
                // Per-lane stimulus: different reset pulse positions.
                let rst = (cycle < 2 || cycle == 11 + 3 * lane as u64) as u64;
                batch.lane_mut(lane).poke("reset", Bits::from_u64(rst, 1));
                single.poke("reset", Bits::from_u64(rst, 1));
            }
            batch.step(1);
            for s in singles.iter_mut() {
                s.step(1);
            }
            for (lane, single) in singles.iter().enumerate() {
                assert_eq!(
                    batch.peek_lane(lane, "q"),
                    single.peek("q"),
                    "cycle {cycle} lane {lane}"
                );
            }
        }
        for (lane, single) in singles.iter().enumerate() {
            assert_eq!(batch.counters_of(lane), single.counters(), "{lane}");
            assert_eq!(batch.lane(lane).machine().arena, single.machine().arena);
        }
    }
}
