//! The design graph ("netlist") layer: a flat, signal-level directed
//! acyclic graph extracted from lowered FIRRTL, plus the netlist
//! transformations ESSENT applies before partitioning.
//!
//! Every named signal (port, node, wire, register output, memory read
//! port) becomes one [`Signal`] with a defining [`SignalDef`] in
//! three-address form — compound FIRRTL expressions are flattened into
//! intermediate signals, so graph granularity matches the statement-level
//! graphs the ESSENT paper partitions. State elements are split into two
//! graph roles exactly as Section II of the paper describes: a register's
//! *output* is a source node and its *next-value* is a sink, which makes
//! the combinational graph acyclic for any synchronous design.
//!
//! # Modules
//!
//! * [`build`] — lowered FIRRTL circuit → [`Netlist`];
//! * [`width`] — the FIRRTL width/signedness inference rules;
//! * [`graph`] — topological scheduling, SCC detection, reachability;
//! * [`analysis`] — known-bits + value-range abstract interpretation and
//!   backward demanded-bits, feeding the width-narrowing and folding
//!   passes and the `essent-verify` precision lints;
//! * [`opt`] — constant propagation, common-subexpression elimination,
//!   dead-code elimination, copy forwarding (the "classic compiler
//!   optimizations" of paper Section III-B), and analysis-driven width
//!   narrowing;
//! * [`eval`] — shared op-evaluation kernels used by every engine;
//! * [`interp`] — a slow, allocation-per-value reference interpreter used
//!   as the golden model in cross-engine equivalence tests.
//!
//! # Examples
//!
//! ```
//! use essent_netlist::Netlist;
//!
//! let src = "circuit C :\n  module C :\n    input clock : Clock\n    input a : UInt<8>\n    output b : UInt<9>\n    b <= add(a, a)\n";
//! let circuit = essent_firrtl::passes::lower(essent_firrtl::parse(src)?)?;
//! let netlist = Netlist::from_circuit(&circuit)?;
//! assert!(netlist.signal_count() >= 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analysis;
pub mod build;
pub mod eval;
pub mod graph;
pub mod interp;
pub mod netlist;
pub mod opt;
pub mod width;

pub use build::BuildError;
pub use netlist::{
    Deps, MemId, Memory, Netlist, Op, OpKind, Printf, ReadPort, RegId, Register, Signal, SignalDef,
    SignalId, Stop, WritePort,
};
