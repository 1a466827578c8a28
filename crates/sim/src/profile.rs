//! essent-profile: per-partition activity telemetry for the CCSS engine.
//!
//! The paper's speedup argument rests on *measured* activity (Figure 5's
//! per-cycle activity factors, Figure 7's split of a cycle into flag
//! tests, wakes and evaluated work), yet whole-design probes like
//! [`crate::activity::ActivityProbe`] cannot say *which* partition pays
//! for a wake or *who* caused it. This module attributes evals and wake
//! causes to the partitions of [`EssentSim`](crate::EssentSim)'s schedule
//! — the one engine that profiles — so the benchmark's Figure 7 split
//! and the wake-cause breakdown read evidence instead of intuition.
//!
//! Design:
//!
//! * **Monomorphized sink.** The engine threads a `Profiler` generic
//!   through its cycle loop, mirroring the tier's
//!   [`FlagSink`](crate::step1::FlagSink) pattern: the disabled
//!   instantiation (`NoProfile`) is all empty `#[inline(always)]`
//!   methods, so the compiler erases every probe site and the disabled
//!   cost is zero.
//! * **Indexed by the plan.** The enabled instantiation
//!   (`ProfileArena`) keeps flat counters numbered the way the plan
//!   numbers their causes: units and producers by schedule index, state
//!   causes by `reg_plans` index and then `reg_plans.len() + j` for
//!   memory-write plan `j`, input causes by position in
//!   `plan.input_wakes`. There is no slot table to build or audit; names
//!   come from the netlist and plan when a report is made. Wakes fused
//!   into tier-1 instructions are charged through [`ProfCellFlags`].
//!   A back-door memory write between steps wakes the memory's readers
//!   with no cause: the plan numbers no such cause, so those wakes are
//!   in no `woke_*` counter (the partitions' evals still count).
//! * **Skips derived, not counted.** The walk runs or skips every
//!   partition exactly once per cycle, so a unit's skips are
//!   `cycles − evals` at report time, and an idle partition costs the
//!   profiled walk nothing, as it costs the plain one nothing.
//! * **Counts, not time.** An evaluated partition pays one probe, two
//!   counter increments (its evals and its ops); nothing reads a clock.

use crate::machine::MemBank;
use crate::step1::{run_tier1_raw, CellFlags, ProfCellFlags, Tier1Program};
use essent_core::plan::CcssPlan;
use essent_netlist::{Netlist, SignalId};
use std::cell::Cell;

/// The probe interface the engine monomorphizes its cycle loop over.
/// [`NoProfile`] erases every call; [`ProfileArena`] counts.
pub(crate) trait Profiler {
    /// Partition `unit` evaluated; `ops_delta` is the engine's
    /// `ops_evaluated` increase across the evaluation.
    fn evaluated(&mut self, unit: usize, ops_delta: u64);
    /// Partition `producer`'s changed output woke `consumer`.
    fn wake_output(&mut self, producer: usize, consumer: u32);
    /// Register plan `reg_plan`'s commit changed and woke `consumer`.
    fn wake_state_reg(&mut self, reg_plan: usize, consumer: u32);
    /// Memory-write plan `mem_plan` changed the bank and woke `consumer`.
    fn wake_state_mem(&mut self, mem_plan: usize, consumer: u32);

    /// Runs a tier-1 program for `producer`, wiring its fused wakes
    /// through the profiler — output triggers to the producer, register
    /// commits to their plan (the tier-1 dispatch loop's probe point).
    ///
    /// # Safety
    ///
    /// Same contract as [`run_tier1_raw`].
    #[allow(clippy::too_many_arguments)]
    unsafe fn run_tier1(
        &mut self,
        prog: &Tier1Program,
        arena: *mut u64,
        mems: &[MemBank],
        flags: &[Cell<u64>],
        producer: usize,
        ops: &mut u64,
        dynamic: &mut u64,
    );
}

/// The disabled profiler: every probe inlines to nothing.
pub(crate) struct NoProfile;

impl Profiler for NoProfile {
    #[inline(always)]
    fn evaluated(&mut self, _unit: usize, _ops_delta: u64) {}
    #[inline(always)]
    fn wake_output(&mut self, _producer: usize, _consumer: u32) {}
    #[inline(always)]
    fn wake_state_reg(&mut self, _reg_plan: usize, _consumer: u32) {}
    #[inline(always)]
    fn wake_state_mem(&mut self, _mem_plan: usize, _consumer: u32) {}

    #[inline(always)]
    unsafe fn run_tier1(
        &mut self,
        prog: &Tier1Program,
        arena: *mut u64,
        mems: &[MemBank],
        flags: &[Cell<u64>],
        _producer: usize,
        ops: &mut u64,
        dynamic: &mut u64,
    ) {
        // SAFETY: forwards this method's contract (same as
        // `run_tier1_raw`'s) unchanged.
        unsafe { run_tier1_raw(prog, arena, mems, &CellFlags(flags), ops, dynamic) }
    }
}

/// The enabled profiler: flat counters indexed by the plan (module docs).
#[derive(Debug, Clone)]
pub(crate) struct ProfileArena {
    /// Per unit: activations / ops evaluated while active.
    evals: Vec<u64>,
    ops: Vec<u64>,
    /// Per unit: wakes received, by cause kind.
    woke_output: Vec<u64>,
    woke_state: Vec<u64>,
    woke_input: Vec<u64>,
    /// Per unit: wakes this unit's outputs caused (as producer).
    caused: Vec<u64>,
    /// Per register plan, then per memory-write plan: wakes caused.
    state_causes: Vec<u64>,
    /// `plan.reg_plans.len()`: where the memory-write causes start.
    regs: usize,
    /// Per `plan.input_wakes` entry: wakes caused.
    input_causes: Vec<u64>,
}

impl ProfileArena {
    /// Zeroed counters for `plan`'s partitions and wake causes.
    pub(crate) fn new(plan: &CcssPlan) -> ProfileArena {
        let units = vec![0; plan.partitions.len()];
        ProfileArena {
            evals: units.clone(),
            ops: units.clone(),
            woke_output: units.clone(),
            woke_state: units.clone(),
            woke_input: units.clone(),
            caused: units,
            state_causes: vec![0; plan.reg_plans.len() + plan.mem_write_plans.len()],
            regs: plan.reg_plans.len(),
            input_causes: vec![0; plan.input_wakes.len()],
        }
    }

    /// External input `input` changed: charges every reader it wakes to
    /// its entry of `plan.input_wakes`.
    pub(crate) fn wake_input(&mut self, plan: &CcssPlan, input: SignalId) {
        let Some(i) = plan.input_wakes.iter().position(|(s, _)| *s == input) else {
            return;
        };
        for &c in &plan.input_wakes[i].1 {
            self.input_causes[i] += 1;
            self.woke_input[c as usize] += 1;
        }
    }

    /// The counters after `cycles` cycles, named from `netlist` and the
    /// `plan` they were indexed by.
    pub(crate) fn report(&self, netlist: &Netlist, plan: &CcssPlan, cycles: u64) -> ProfileReport {
        let units = (0..self.evals.len())
            .map(|u| UnitProfile {
                name: format!("p{u}"),
                evals: self.evals[u],
                skips: cycles - self.evals[u],
                ops: self.ops[u],
                woke_output: self.woke_output[u],
                woke_state: self.woke_state[u],
                woke_input: self.woke_input[u],
                caused: self.caused[u],
            })
            .collect();
        let regs = plan
            .reg_plans
            .iter()
            .map(|rp| netlist.regs()[rp.reg.index()].name.clone());
        let mems = plan.mem_write_plans.iter().map(|wp| {
            let m = &netlist.mems()[wp.mem.index()];
            format!("{}.w{}", m.name, wp.writer)
        });
        let inputs = plan
            .input_wakes
            .iter()
            .map(|(s, _)| netlist.signal(*s).name.clone());
        ProfileReport {
            cycles,
            units,
            state_causes: regs.chain(mems).zip(self.state_causes.clone()).collect(),
            input_causes: inputs.zip(self.input_causes.clone()).collect(),
        }
    }
}

impl Profiler for ProfileArena {
    #[inline]
    fn evaluated(&mut self, unit: usize, ops_delta: u64) {
        self.evals[unit] += 1;
        self.ops[unit] += ops_delta;
    }

    #[inline]
    fn wake_output(&mut self, producer: usize, consumer: u32) {
        self.caused[producer] += 1;
        self.woke_output[consumer as usize] += 1;
    }

    #[inline]
    fn wake_state_reg(&mut self, reg_plan: usize, consumer: u32) {
        self.state_causes[reg_plan] += 1;
        self.woke_state[consumer as usize] += 1;
    }

    #[inline]
    fn wake_state_mem(&mut self, mem_plan: usize, consumer: u32) {
        self.state_causes[self.regs + mem_plan] += 1;
        self.woke_state[consumer as usize] += 1;
    }

    unsafe fn run_tier1(
        &mut self,
        prog: &Tier1Program,
        arena: *mut u64,
        mems: &[MemBank],
        flags: &[Cell<u64>],
        producer: usize,
        ops: &mut u64,
        dynamic: &mut u64,
    ) {
        fn cells(v: &mut [u64]) -> &[Cell<u64>] {
            Cell::from_mut(v).as_slice_of_cells()
        }
        let sink = ProfCellFlags {
            flags,
            caused: Cell::from_mut(&mut self.caused[producer]),
            woke: cells(&mut self.woke_output),
            state_causes: cells(&mut self.state_causes),
            woke_state: cells(&mut self.woke_state),
        };
        // SAFETY: forwards this method's contract (same as
        // `run_tier1_raw`'s) unchanged.
        unsafe { run_tier1_raw(prog, arena, mems, &sink, ops, dynamic) }
    }
}

/// One partition's profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitProfile {
    /// `p<schedule index>`.
    pub name: String,
    /// Activations (cycles the unit evaluated).
    pub evals: u64,
    /// Cycles the unit slept: the profiled cycles minus `evals`.
    pub skips: u64,
    /// Operations evaluated while this unit was active.
    pub ops: u64,
    /// Wakes received from producer-output triggers.
    pub woke_output: u64,
    /// Wakes received from state (register/memory) changes.
    pub woke_state: u64,
    /// Wakes received from external input pokes.
    pub woke_input: u64,
    /// Wakes this unit's own outputs caused (as producer).
    pub caused: u64,
}

impl UnitProfile {
    /// Fraction of cycles this unit slept.
    pub fn skip_rate(&self) -> f64 {
        let total = self.evals + self.skips;
        if total == 0 {
            0.0
        } else {
            self.skips as f64 / total as f64
        }
    }
}

/// The engine's profile: per-unit counters in schedule order and the
/// wake-cause attributions.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    pub cycles: u64,
    pub units: Vec<UnitProfile>,
    /// (state element name, wakes caused): the register plans, then the
    /// memory-write plans (`<mem>.w<writer>`).
    pub state_causes: Vec<(String, u64)>,
    /// (input name, wakes caused), one per `plan.input_wakes` entry.
    pub input_causes: Vec<(String, u64)>,
}

impl ProfileReport {
    /// Sum of unit activations.
    pub fn total_evals(&self) -> u64 {
        self.units.iter().map(|u| u.evals).sum()
    }

    /// Sum of unit sleeps.
    pub fn total_skips(&self) -> u64 {
        self.units.iter().map(|u| u.skips).sum()
    }

    /// Sum of ops attributed to units.
    pub fn total_ops(&self) -> u64 {
        self.units.iter().map(|u| u.ops).sum()
    }

    /// Mean fraction of units active per cycle — the partition-level
    /// activity factor.
    pub fn activity_factor(&self) -> f64 {
        let total = self.total_evals() + self.total_skips();
        if total == 0 {
            0.0
        } else {
            self.total_evals() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Simulator};
    use crate::essent::EssentSim;
    use essent_bits::Bits;

    fn netlist_of(src: &str) -> Netlist {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        Netlist::from_circuit(&lowered).unwrap()
    }

    /// A register, a memory write port and a memory-writing input: a
    /// cause of every kind.
    const MEMFUL: &str = "circuit memful :\n  module memful :\n    input clock : Clock\n    input a : UInt<8>\n    input we : UInt<1>\n    output o : UInt<8>\n    mem m :\n      data-type => UInt<8>\n      depth => 8\n      read-latency => 0\n      write-latency => 1\n      reader => rd\n      writer => wr\n      read-under-write => undefined\n    reg r : UInt<3>, clock\n    r <= tail(add(r, UInt<3>(1)), 1)\n    m.rd.clk <= clock\n    m.rd.en <= UInt<1>(1)\n    m.rd.addr <= r\n    m.wr.clk <= clock\n    m.wr.en <= we\n    m.wr.addr <= r\n    m.wr.data <= a\n    m.wr.mask <= UInt<1>(1)\n    o <= m.rd.data\n";

    #[test]
    fn counters_accumulate_and_report() {
        let netlist = netlist_of(MEMFUL);
        let plan = CcssPlan::build(&netlist, 1);
        let units = plan.partitions.len() as u64;
        assert!(units >= 2, "c_p=1 must split this design");
        let mut p = ProfileArena::new(&plan);
        for _ in 0..10 {
            p.evaluated(0, 3);
        }
        p.wake_output(0, 1);
        p.wake_state_reg(0, 1);
        p.wake_state_mem(0, 0);
        let a = netlist.expect_signal("a");
        p.wake_input(&plan, a);
        let readers = plan
            .input_wakes
            .iter()
            .find(|(s, _)| *s == a)
            .unwrap()
            .1
            .len() as u64;
        assert!(readers > 0, "`a` feeds the write port");
        let r = p.report(&netlist, &plan, 10);
        assert_eq!(r.cycles, 10);
        assert_eq!(r.units[0].evals, 10);
        assert_eq!(r.units[0].skips, 0);
        assert_eq!(r.units[0].ops, 30);
        assert_eq!(r.units[1].skips, 10, "skips are the cycles not run");
        assert_eq!(r.units[1].woke_output, 1);
        assert_eq!(r.units[1].woke_state, 1);
        assert_eq!(r.units[0].woke_state, 1);
        assert_eq!(r.units[0].caused, 1);
        let woke_input: u64 = r.units.iter().map(|u| u.woke_input).sum();
        assert_eq!(woke_input, readers);
        assert_eq!(r.state_causes, vec![("r".into(), 1), ("m.w0".into(), 1)]);
        assert!(r.input_causes.contains(&("a".into(), readers)));
        assert_eq!(r.total_evals(), 10);
        assert_eq!(r.total_skips(), 10 * units - 10);
        assert!((r.activity_factor() - 1.0 / units as f64).abs() < 1e-9);
    }

    /// The report's per-unit counts must be an exact decomposition of
    /// the engine's own deterministic work counters: every evaluated op
    /// is charged to exactly one unit. And a skip is a cycle the walk
    /// really left a partition asleep: with reset held on a counter,
    /// nothing runs, and every unit's skips grow by the whole window.
    #[test]
    fn report_sums_to_engine_work_counters() {
        let src = "circuit S :\n  module S :\n    input clock : Clock\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<8>\n    reg r1 : UInt<8>, clock\n    reg r2 : UInt<8>, clock\n    node s = xor(r1, a)\n    node t = xor(r2, b)\n    node u = and(s, t)\n    o <= u\n    r1 <= not(s)\n    r2 <= not(t)\n";
        let config = EngineConfig {
            c_p: 1,
            profile: true,
            ..EngineConfig::default()
        };
        let mut sim = EssentSim::new(&netlist_of(src), &config);
        assert!(sim.partition_count() >= 2, "c_p=1 must split this design");
        sim.poke("a", Bits::from_u64(3, 8));
        sim.step(10);
        sim.poke("b", Bits::from_u64(200, 8));
        sim.step(10);
        let counters = sim.counters();
        let report = sim.profile_report().expect("profile is on");
        assert_eq!(report.cycles, counters.cycles);
        assert_eq!(
            report.total_ops(),
            counters.ops_evaluated,
            "every op charges exactly one unit"
        );
        assert!(report.total_skips() > 0, "quiet partitions must skip");
        assert!(
            report.activity_factor() < 1.0,
            "this design is not fully active every cycle"
        );

        let counter = "circuit C :\n  module C :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    q <= r\n";
        let mut sim = EssentSim::new(&netlist_of(counter), &config);
        sim.poke("reset", Bits::from_u64(1, 1));
        sim.step(5);
        let before = sim.profile_report().expect("profile is on");
        sim.step(50);
        let after = sim.profile_report().expect("profile is on");
        for (was, now) in before.units.iter().zip(&after.units) {
            assert_eq!(now.evals, was.evals, "{}: held in reset", now.name);
            assert_eq!(now.skips, was.skips + 50, "{}: slept the window", now.name);
        }
    }
}
