//! A classic levelized event-driven simulator (paper Section II).
//!
//! Change propagation happens at *single-signal* granularity: when a
//! signal's value changes, its fanouts are scheduled. Signals are
//! processed in levelized (topological-depth) order, so each signal is
//! evaluated at most once per cycle — singular execution — but every
//! event pays queue and change-detection overhead at the finest possible
//! granularity. This is exactly the overhead structure the paper argues
//! makes fine-grained activity tracking unprofitable, and it stands in
//! for the commercial event-driven simulator ("CommVer") in the Table III
//! reproduction.
//!
//! Two scheduling modes are provided (selected by
//! [`EngineConfig::event_levelized`]): the default *levelized* mode
//! processes events in topological-depth order so each signal is
//! evaluated at most once per cycle (SSIM/LECSIM style), while the
//! classic *FIFO delta-queue* mode evaluates events in arrival order and
//! pays the "unnecessary repeat evaluations" (paper Section II) of
//! traditional event-driven simulators — a signal whose inputs settle in
//! several waves is evaluated several times.

use crate::compile::{step_for, Step};
use crate::engine::{delegate_simulator_basics, EngineConfig, Simulator};
use crate::machine::Machine;
use crate::state::{resolve_state, MemWrite, RegCommit};
use essent_bits::Bits;
use essent_netlist::{graph, Netlist, SignalId};
use std::sync::Arc;

/// Levelized event-driven simulator.
pub struct EventDrivenSim {
    machine: Machine,
    /// Per signal: its compiled step (None for inputs/constants/regs).
    steps: Vec<Option<Step>>,
    /// Per signal: topological level (edges strictly increase level).
    levels: Vec<u32>,
    /// Per signal: computed fanouts to schedule on change.
    fanouts: Vec<Vec<u32>>,
    /// Bucket queue, one bucket per level.
    buckets: Vec<Vec<u32>>,
    queued: Vec<bool>,
    /// Scratch buffer for old-value snapshots.
    scratch: Vec<u64>,
    /// Levelized (true) or FIFO delta-queue (false) scheduling.
    levelized: bool,
    /// FIFO mode's queue.
    fifo: std::collections::VecDeque<u32>,
    /// Signals to enqueue when a memory's contents change (its read-data
    /// signals), per memory.
    mem_read_sigs: Vec<Vec<u32>>,
    /// Every memory write port and every register, in netlist order.
    writes: Vec<MemWrite>,
    regs: Vec<RegCommit>,
}

impl EventDrivenSim {
    /// Compiles the netlist for event-driven execution.
    pub fn new(netlist: &Netlist, config: &EngineConfig) -> EventDrivenSim {
        EventDrivenSim::new_shared(Arc::new(netlist.clone()), config)
    }

    /// [`EventDrivenSim::new`] over an already-shared netlist (no deep
    /// clone).
    pub fn new_shared(netlist: Arc<Netlist>, config: &EngineConfig) -> EventDrivenSim {
        let mut machine = Machine::from_arc(Arc::clone(&netlist));
        machine.capture_printf = config.capture_printf;
        let netlist: &Netlist = &netlist;
        let layout = machine.layout.clone();
        let n = netlist.signal_count();

        let steps: Vec<Option<Step>> = (0..n)
            .map(|i| step_for(netlist, &layout, SignalId(i as u32)))
            .collect();

        // Levels: longest path from sources.
        let order = graph::topo_order(netlist).expect("netlist is acyclic");
        let mut levels = vec![0u32; n];
        for &sig in &order {
            let lvl = netlist
                .deps(sig)
                .iter()
                .map(|d| levels[d.index()] + 1)
                .max()
                .unwrap_or(0);
            levels[sig.index()] = lvl;
        }
        let max_level = levels.iter().copied().max().unwrap_or(0) as usize;

        // Fanouts restricted to computable signals.
        let mut fanouts = vec![Vec::new(); n];
        for (i, step) in steps.iter().enumerate() {
            if step.is_none() {
                continue;
            }
            for &dep in netlist.deps(SignalId(i as u32)).iter() {
                fanouts[dep.index()].push(i as u32);
            }
        }
        for f in &mut fanouts {
            f.sort_unstable();
            f.dedup();
        }

        let mem_read_sigs = netlist
            .mems()
            .iter()
            .map(|m| m.readers.iter().map(|r| r.data.0).collect())
            .collect();

        let (writes, regs) = resolve_state(netlist, &layout);
        let max_words = (0..n)
            .map(|i| layout.words(SignalId(i as u32)))
            .max()
            .unwrap_or(1);

        let mut sim = EventDrivenSim {
            machine,
            steps,
            levels,
            fanouts,
            buckets: vec![Vec::new(); max_level + 1],
            queued: vec![false; n],
            scratch: vec![0; max_words],
            levelized: config.event_levelized,
            fifo: std::collections::VecDeque::new(),
            mem_read_sigs,
            writes,
            regs,
        };
        // First cycle: everything is an event.
        for i in 0..n {
            if sim.steps[i].is_some() {
                sim.enqueue(i as u32);
            }
        }
        sim
    }

    #[inline]
    fn enqueue(&mut self, sig: u32) {
        if !self.queued[sig as usize] {
            self.queued[sig as usize] = true;
            if self.levelized {
                self.buckets[self.levels[sig as usize] as usize].push(sig);
            } else {
                self.fifo.push_back(sig);
            }
            self.machine.counters.events += 1;
        }
    }

    /// Evaluates one signal; returns `true` when its value changed.
    fn eval_signal(&mut self, sig: u32) -> bool {
        let step = self.steps[sig as usize].take().expect("queued computable");
        let off = step.dst.off as usize;
        let w = step.dst.words as usize;
        self.scratch[..w].copy_from_slice(&self.machine.arena[off..off + w]);
        self.machine.run_step(&step);
        self.machine.counters.dynamic_checks += 1;
        let changed = self.machine.arena[off..off + w] != self.scratch[..w];
        self.steps[sig as usize] = Some(step);
        changed
    }

    fn enqueue_mem_readers(&mut self, mem: usize) {
        let reads = std::mem::take(&mut self.mem_read_sigs[mem]);
        for &d in &reads {
            self.enqueue(d);
        }
        self.mem_read_sigs[mem] = reads;
    }

    fn enqueue_fanouts(&mut self, sig: u32) {
        let fans = std::mem::take(&mut self.fanouts[sig as usize]);
        for &f in &fans {
            self.enqueue(f);
        }
        self.fanouts[sig as usize] = fans;
    }

    fn run_cycle(&mut self) {
        if self.levelized {
            // Levelized sweep: events only ever schedule strictly higher
            // levels, so one ascending pass is singular and complete.
            for lvl in 0..self.buckets.len() {
                if self.buckets[lvl].is_empty() {
                    continue;
                }
                let mut bucket = std::mem::take(&mut self.buckets[lvl]);
                for &sig in &bucket {
                    self.queued[sig as usize] = false;
                    if self.eval_signal(sig) {
                        self.enqueue_fanouts(sig);
                    }
                }
                bucket.clear();
                self.buckets[lvl] = bucket;
            }
        } else {
            // Classic FIFO delta queue: arrival order, with repeat
            // evaluations when inputs settle in waves. Terminates because
            // the graph is acyclic (values reach a fixpoint).
            while let Some(sig) = self.fifo.pop_front() {
                self.queued[sig as usize] = false;
                if self.eval_signal(sig) {
                    self.enqueue_fanouts(sig);
                }
            }
        }

        self.machine.side_effects();

        // Commit state; changes schedule next-cycle events. Memory writes
        // go first — their port fields may alias register outputs after
        // copy forwarding and must see intra-cycle values.
        for i in 0..self.writes.len() {
            self.machine.counters.static_checks += 1;
            let w = self.writes[i];
            if self.machine.write_port(&w) {
                self.enqueue_mem_readers(w.mem as usize);
            }
        }
        for i in 0..self.regs.len() {
            self.machine.counters.static_checks += 1;
            let r = self.regs[i];
            if self.machine.commit(&r) {
                self.enqueue_fanouts(self.machine.netlist.regs()[r.plan as usize].out.0);
            }
        }
        self.machine.cycle += 1;
        self.machine.counters.cycles += 1;
    }
}

impl Simulator for EventDrivenSim {
    fn poke(&mut self, name: &str, value: Bits) {
        if let Some(id) = self.machine.poke_input(name, &value) {
            self.enqueue_fanouts(id.0);
        }
    }

    fn write_mem(&mut self, mem: &str, addr: usize, value: Bits) {
        if let Some(m) = self.machine.write_mem_backdoor(mem, addr, &value) {
            self.enqueue_mem_readers(m);
        }
    }

    fn step(&mut self, n: u64) -> u64 {
        for i in 0..n {
            if self.machine.halted.is_some() {
                return i;
            }
            self.run_cycle();
        }
        n
    }

    fn engine_name(&self) -> &'static str {
        "event-driven"
    }

    delegate_simulator_basics!();
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
    fn counter_counts() {
        let n = netlist_of(COUNTER);
        let mut sim = EventDrivenSim::new(&n, &EngineConfig::default());
        sim.poke("reset", Bits::from_u64(0, 1));
        sim.step(10);
        assert_eq!(sim.peek("q").to_u64(), Some(9));
    }

    #[test]
    fn quiescence_stops_events() {
        let n = netlist_of(COUNTER);
        let mut sim = EventDrivenSim::new(&n, &EngineConfig::default());
        sim.poke("reset", Bits::from_u64(1, 1));
        sim.step(5);
        let before = sim.counters().ops_evaluated;
        sim.step(50);
        assert_eq!(
            sim.counters().ops_evaluated,
            before,
            "no events in a quiescent design"
        );
    }

    #[test]
    fn matches_full_cycle() {
        let src = "circuit X :\n  module X :\n    input clock : Clock\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<8>\n    reg r : UInt<8>, clock\n    r <= xor(a, b)\n    o <= bits(add(r, a), 7, 0)\n";
        let n = netlist_of(src);
        let mut ev = EventDrivenSim::new(&n, &EngineConfig::default());
        let mut fc = crate::FullCycleSim::new(&n, &EngineConfig::default());
        for cycle in 0..25u64 {
            let a = Bits::from_u64(cycle.wrapping_mul(37) & 0xff, 8);
            let b = Bits::from_u64(cycle.wrapping_mul(11) & 0xff, 8);
            ev.poke("a", a.clone());
            fc.poke("a", a);
            ev.poke("b", b.clone());
            fc.poke("b", b);
            ev.step(1);
            fc.step(1);
            assert_eq!(ev.peek("o"), fc.peek("o"), "cycle {cycle}");
        }
    }

    #[test]
    fn memory_change_schedules_readers() {
        let src = "circuit M :\n  module M :\n    input clock : Clock\n    input wen : UInt<1>\n    input wdata : UInt<8>\n    output o : UInt<8>\n    mem m :\n      data-type => UInt<8>\n      depth => 2\n      read-latency => 0\n      write-latency => 1\n      reader => r\n      writer => w\n    m.r.clk <= clock\n    m.r.en <= UInt<1>(1)\n    m.r.addr <= UInt<1>(0)\n    m.w.clk <= clock\n    m.w.en <= wen\n    m.w.addr <= UInt<1>(0)\n    m.w.data <= wdata\n    m.w.mask <= UInt<1>(1)\n    o <= m.r.data\n";
        let n = netlist_of(src);
        let mut sim = EventDrivenSim::new(&n, &EngineConfig::default());
        sim.poke("wen", Bits::from_u64(1, 1));
        sim.poke("wdata", Bits::from_u64(0x5A, 8));
        sim.step(2);
        assert_eq!(sim.peek("o").to_u64(), Some(0x5A));
    }
}
