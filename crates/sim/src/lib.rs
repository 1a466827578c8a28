//! The simulation engines: the paper's generated simulators, realized as
//! bytecode and tier-1 interpreters over the netlist, with the CCSS
//! engine's hot partitions lowered to x86-64 machine code ([`jit`]).
//!
//! Five engines share one compiled representation and one set of value
//! kernels, so cross-engine equivalence is a meaningful test and
//! cross-engine *timing* is a meaningful benchmark:
//!
//! * [`FullCycleSim`] — evaluates the entire design every cycle from a
//!   static schedule: one tier-1 program, then every write port and
//!   register from entries resolved once. With netlist optimizations
//!   disabled this is the paper's **Baseline**; with them enabled it
//!   plays the **Verilator** row (the paper notes both are full-cycle and
//!   comparable).
//! * [`EssentSim`] — the paper's contribution: **CCSS execution**
//!   (conditional, coarsened, singular, static). Partitions produced by
//!   `essent-core` carry activation flags; an active partition
//!   deactivates itself, snapshots its outputs, evaluates its members,
//!   updates elided state in place, and wakes the consumers of every
//!   output that changed (push-direction, branchless OR-style flag
//!   writes — Figure 1).
//! * [`EventDrivenSim`] — a classic levelized event-driven simulator
//!   (signal-granularity change propagation), the stand-in for the
//!   commercial event-driven simulator ("CommVer") in Table III.
//! * [`ParEssentSim`] — CCSS across threads: partitions run on workers
//!   over a statically synthesized, verified dataflow schedule (tier-1
//!   only; it runs no native code).
//! * [`BatchSim`] — CCSS over N stimuli of one design: a fleet of
//!   `EssentSim`s sharing one compilation (native bodies included),
//!   stepped on every core.
//!
//! Supporting modules: [`frontend`] (the one partition → plan → bytecode →
//! tier-1 → state and wake tables → cost table → native-code routine the
//! CCSS engines and the verifier share), [`state`] and [`slots`] (those
//! two tables: what a wake does beyond running its program), [`compile`] (bytecode, including the conditional
//! multiplexer-way optimization of Section III-B), [`machine`] (arena,
//! memory banks, commit logic, work counters for the Figure 7 overhead
//! decomposition), [`activity`] (per-cycle activity-factor measurement
//! for Figure 5), [`vcd`] (waveform dumping), and [`jit`] (the native
//! tier: tier-1 programs lowered to x86-64 in-process, this crate's
//! counterpart of ESSENT's emitted C++).
//!
//! # Examples
//!
//! ```
//! use essent_sim::{EngineConfig, EssentSim, Simulator};
//! use essent_bits::Bits;
//!
//! let src = "circuit C :\n  module C :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    q <= r\n";
//! let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src)?)?;
//! let netlist = essent_netlist::Netlist::from_circuit(&lowered)?;
//! let mut sim = EssentSim::new(&netlist, &EngineConfig::default());
//! sim.poke("reset", Bits::from_u64(0, 1));
//! sim.step(10);
//! assert_eq!(sim.peek("q").to_u64(), Some(9));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Unsafe code
//!
//! Every `unsafe` block in this crate is a raw-pointer arena access
//! whose soundness rests on one invariant: **partitions that can run
//! concurrently have disjoint write footprints, and never write what
//! the other reads**. The invariant is not assumed — the `essent-verify`
//! footprint layer (`R0501`, `R0502`, `R0504`) derives every partition's
//! exact footprint and proves each arena word has one writing partition,
//! and the dependence layer (`S0601`–`S0605`) proves per design that the
//! parallel engine's dataflow schedule orders every conflicting pair; the `race-sanitizer` feature (`sanitizer`)
//! cross-checks it dynamically. The fleet's threads need no such proof:
//! its lanes share only the immutable compiled design, and each lane's
//! arena, flags and banks are touched by the one thread stepping it.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod activity;
pub mod batch;
pub mod compile;
pub mod engine;
pub mod essent;
pub mod event;
pub mod frontend;
pub mod full_cycle;
pub mod jit;
pub mod machine;
pub mod par;
pub mod profile;
#[cfg(feature = "race-sanitizer")]
pub mod sanitizer;
pub mod slots;
pub mod state;
pub mod step1;
pub mod testbench;
pub mod testgen;
pub mod vcd;

pub use batch::BatchSim;
pub use engine::{EngineConfig, Simulator};
pub use essent::EssentSim;
pub use event::EventDrivenSim;
pub use frontend::CostModel;
pub use full_cycle::FullCycleSim;
pub use machine::WorkCounters;
pub use par::ParEssentSim;
pub use profile::ProfileReport;
