//! Dataflow analysis over the netlist: per-signal **known bits** and
//! **value ranges** (forward), plus **demanded bits** (backward).
//!
//! The combinational graph is acyclic, so one topological sweep
//! propagates abstract values from sources (inputs, constants, register
//! outputs, memory reads) to sinks. Cycles exist only through register
//! state: a register's output this cycle is its next-value from the last
//! cycle. [`analyze`] closes those feedback arcs by fixpoint iteration —
//! registers start at their reset value (all engines zero-initialize
//! state), each sweep joins the next-value's abstract value into the
//! register's, and iteration stops when no register changes. Only the
//! first sweep evaluates every signal; each later one re-runs the
//! transfer functions of the outputs of registers that changed and of
//! whatever reads a value that changed in that sweep.
//!
//! Joins only *widen* register values, but the range component can climb
//! long chains (a counter's interval grows by one per sweep), so after
//! [`RANGE_WIDEN_SWEEP`] sweeps any still-changing register has its range
//! widened to the full domain, and after [`TOP_WIDEN_SWEEP`] sweeps it is
//! dropped to ⊤ outright. Both accelerations lose precision, never
//! soundness. [`MAX_SWEEPS`] is a defensive hard cap: past it every
//! register goes to ⊤ and one last sweep runs.
//!
//! Consumers:
//! * `opt::narrow` — shrinks signal widths the analysis proves unused;
//! * `opt::const_prop` — folds ops decided by partially-known bits;
//! * `essent-verify` — surfaces the facts as `L0006`–`L0009` lints.

pub mod absval;
pub mod demand;
pub mod transfer;

pub use absval::AbsVal;

use crate::graph;
use crate::netlist::{Netlist, SignalDef, SignalId};
use essent_bits::Bits;

/// Sweep after which still-changing registers get their range widened.
pub const RANGE_WIDEN_SWEEP: usize = 4;
/// Sweep after which still-changing registers are dropped to ⊤.
pub const TOP_WIDEN_SWEEP: usize = 8;
/// Hard cap on fixpoint sweeps (defensive; widening converges sooner).
pub const MAX_SWEEPS: usize = 16;

/// The result of [`analyze`]: abstract facts for every signal.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-signal abstract value (known bits + range), indexed by
    /// `SignalId::index()`.
    pub values: Vec<AbsVal>,
    /// Per-signal demanded width: how many low bits any observable sink
    /// can distinguish. See [`demand::demanded_widths`].
    pub demanded: Vec<u32>,
    /// Number of forward sweeps the register fixpoint took.
    pub sweeps: usize,
}

impl Analysis {
    /// The abstract value of `id`.
    pub fn value(&self, id: SignalId) -> &AbsVal {
        &self.values[id.index()]
    }

    /// The demanded width of `id`.
    pub fn demanded(&self, id: SignalId) -> u32 {
        self.demanded[id.index()]
    }
}

/// Runs the forward known-bits/range analysis and the backward
/// demanded-bits analysis. `Err` returns the combinational cycle if the
/// graph is not acyclic (impossible for netlists built through
/// `Netlist::from_circuit`, which rejects cycles).
pub fn analyze(netlist: &Netlist) -> Result<Analysis, Vec<SignalId>> {
    let order = graph::topo_order(netlist)?;
    let mut values: Vec<AbsVal> = netlist
        .signals()
        .iter()
        .map(|s| AbsVal::top(s.width, s.signed))
        .collect();
    // Registers start at their reset/zero-initialized state.
    let mut reg_abs: Vec<AbsVal> = netlist
        .regs()
        .iter()
        .map(|r| AbsVal::exact(&Bits::zero(r.width), r.signed))
        .collect();

    // The first sweep evaluates everything; later ones only what changed.
    let mut dirty = Dirty {
        all: true,
        regs: vec![false; reg_abs.len()],
        signals: vec![false; values.len()],
    };
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        sweep(netlist, &order, &reg_abs, &mut values, &mut dirty);
        // An update is a function of the register's value, its next
        // value and the widening step: with all three as its last update
        // saw them, the answer is again "no change".
        let step_moves = sweeps == 1 || sweeps == RANGE_WIDEN_SWEEP || sweeps == TOP_WIDEN_SWEEP;
        let mut changed = false;
        for (i, reg) in netlist.regs().iter().enumerate() {
            if !step_moves && !dirty.regs[i] && !dirty.signals[reg.next.index()] {
                continue;
            }
            dirty.regs[i] = false;
            let next = transfer::cast(&values[reg.next.index()], reg.width, reg.signed);
            let mut joined = reg_abs[i].join(&next);
            if joined != reg_abs[i] {
                if sweeps >= TOP_WIDEN_SWEEP {
                    joined = AbsVal::top(reg.width, reg.signed);
                } else if sweeps >= RANGE_WIDEN_SWEEP {
                    joined.widen_range();
                }
                if joined != reg_abs[i] {
                    reg_abs[i] = joined;
                    dirty.regs[i] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if sweeps >= MAX_SWEEPS {
            // Defensive: give up on precision, stay sound.
            for (i, reg) in netlist.regs().iter().enumerate() {
                reg_abs[i] = AbsVal::top(reg.width, reg.signed);
            }
            dirty.regs.fill(true);
            sweeps += 1;
            sweep(netlist, &order, &reg_abs, &mut values, &mut dirty);
            break;
        }
    }

    let demanded = demand::demanded_widths(netlist, &order);
    Ok(Analysis {
        values,
        demanded,
        sweeps,
    })
}

/// What the next [`sweep`] must re-evaluate.
struct Dirty {
    /// Everything (the first sweep).
    all: bool,
    /// Per register: the last update changed its abstract value.
    regs: Vec<bool>,
    /// Per signal: its value changed in the current sweep.
    signals: Vec<bool>,
}

/// One forward pass in topological order. Transfer functions are pure,
/// so a signal is re-evaluated only if it is a register output whose
/// register changed or an op reading a signal that changed earlier in
/// this pass; every other value is already what a full pass would give.
fn sweep(
    netlist: &Netlist,
    order: &[SignalId],
    reg_abs: &[AbsVal],
    values: &mut [AbsVal],
    dirty: &mut Dirty,
) {
    for &id in order {
        let sig = netlist.signal(id);
        let v = match &sig.def {
            SignalDef::Input if dirty.all => AbsVal::top(sig.width, sig.signed),
            SignalDef::Const(c) if dirty.all => AbsVal::exact(c, sig.signed),
            SignalDef::RegOut(r) if dirty.all || dirty.regs[r.index()] => {
                transfer::cast(&reg_abs[r.index()], sig.width, sig.signed)
            }
            // Memory contents are not tracked; reads are opaque.
            SignalDef::MemRead { .. } if dirty.all => AbsVal::top(sig.width, sig.signed),
            SignalDef::Op(op) if dirty.all || op.args.iter().any(|a| dirty.signals[a.index()]) => {
                // Ops have at most three operands.
                let mut srcs = [&values[id.index()]; 3];
                for (src, a) in srcs.iter_mut().zip(&op.args) {
                    *src = &values[a.index()];
                }
                let srcs = &srcs[..op.args.len()];
                transfer::transfer(op.kind, &op.params, sig.width, sig.signed, srcs)
            }
            _ => {
                dirty.signals[id.index()] = false;
                continue;
            }
        };
        dirty.signals[id.index()] = v != values[id.index()];
        values[id.index()] = v;
    }
    dirty.all = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::build_test_netlist;

    fn analyzed(src: &str) -> (Netlist, Analysis) {
        let n = build_test_netlist(src);
        let a = analyze(&n).expect("acyclic");
        (n, a)
    }

    #[test]
    fn and_mask_pins_upper_bits() {
        let (n, a) = analyzed(
            "circuit M :\n  module M :\n    input x : UInt<8>\n    output o : UInt<8>\n    node m = and(x, UInt<8>(15))\n    o <= m\n",
        );
        let v = a.value(n.expect_signal("m"));
        for i in 4..8 {
            assert_eq!(v.bit(i), Some(false), "bit {i}");
        }
        assert_eq!(v.significant_width(), 4);
    }

    #[test]
    fn counter_register_range_converges() {
        // r <= mux(eq(r, 9), 0, add(r, 1) truncated): r stays in [0, 9].
        let src = "circuit K :\n  module K :\n    input clock : Clock\n    output o : UInt<4>\n    reg r : UInt<4>, clock\n    node wrap = eq(r, UInt<4>(9))\n    node inc = bits(add(r, UInt<4>(1)), 3, 0)\n    r <= mux(wrap, UInt<4>(0), inc)\n    o <= r\n";
        let (n, a) = analyzed(src);
        let v = a.value(n.regs()[0].out);
        // With widening the range may blow to the domain, but the value
        // must at least stay sound and the fixpoint must terminate.
        assert!(a.sweeps <= MAX_SWEEPS + 1);
        assert!(v.contains(&Bits::from_u64(9, 4)));
        assert!(v.contains(&Bits::from_u64(0, 4)));
    }

    #[test]
    fn stuck_register_stays_exact_zero() {
        let src = "circuit Z :\n  module Z :\n    input clock : Clock\n    output o : UInt<8>\n    reg r : UInt<8>, clock\n    r <= r\n    o <= r\n";
        let (n, a) = analyzed(src);
        let v = a.value(n.regs()[0].out);
        assert_eq!(v.as_singleton(), Some(Bits::zero(8)));
        assert_eq!(a.sweeps, 1);
    }

    #[test]
    fn constant_comparison_is_decided() {
        let (n, a) = analyzed(
            "circuit C :\n  module C :\n    input x : UInt<8>\n    output o : UInt<1>\n    node low = and(x, UInt<8>(15))\n    node c = lt(low, UInt<8>(200))\n    o <= c\n",
        );
        let v = a.value(n.expect_signal("c"));
        assert_eq!(v.as_singleton(), Some(Bits::from_u64(1, 1)));
    }
}
