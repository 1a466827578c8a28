//! Constant propagation and folding, driven by the known-bits/range
//! facts of [`crate::analysis`]. An op whose operands are all constants
//! is the simplest case: the transfer functions evaluate singleton
//! operands exactly, so its result is a singleton too. The same facts
//! fold ops whose *result* is proven constant though their operands are
//! not (a comparison decided by disjoint ranges, a mux whose selector bit
//! is pinned by a mask), and prune the unreachable way out of a mux
//! whose selector is decided, constant or not.

use crate::analysis::Analysis;
use crate::netlist::{Netlist, Op, OpKind, SignalDef};

/// Folds operations the dataflow analysis decides; returns the number of
/// definitions rewritten. `analysis` must come from [`crate::analysis::analyze`]
/// on this netlist.
///
/// Only computed signals ([`SignalDef::Op`]) are rewritten: a register
/// output proven constant is a *finding* (lint `L0008`), not a fold —
/// rewriting it would detach the register from its feedback cone.
pub fn run_analysis(netlist: &mut Netlist, analysis: &Analysis) -> usize {
    debug_assert_eq!(
        analysis.values.len(),
        netlist.signal_count(),
        "stale analysis"
    );
    let mut folded = 0;
    for i in 0..netlist.signal_count() {
        let sig = &netlist.signals[i];
        let SignalDef::Op(op) = &sig.def else {
            continue;
        };
        let facts = &analysis.values[i];

        // The whole result is decided (comparisons with disjoint ranges,
        // masked values, reductions of pinned bits, ...).
        if let Some(value) = facts.as_singleton() {
            netlist.signals[i].def = SignalDef::Const(value);
            folded += 1;
            continue;
        }

        // Mux whose selector bit is pinned: the dead way is unreachable.
        if op.kind == OpKind::Mux {
            let sel = &analysis.values[op.args[0].index()];
            let decided = if sel.width == 0 {
                Some(false)
            } else {
                sel.bit(0)
            };
            if let Some(bit) = decided {
                let pick = if bit { op.args[1] } else { op.args[2] };
                netlist.signals[i].def = SignalDef::Op(Op {
                    kind: OpKind::Copy,
                    args: vec![pick],
                    params: vec![],
                });
                folded += 1;
            }
        }
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::build_test_netlist;

    /// One analysis and one fold, as a round of `optimize` runs them.
    fn fold(n: &mut Netlist) -> usize {
        let facts = crate::analysis::analyze(n).unwrap();
        run_analysis(n, &facts)
    }

    #[test]
    fn folds_constant_trees() {
        let mut n = build_test_netlist(
            "circuit F :\n  module F :\n    output o : UInt<8>\n    node a = UInt<8>(2)\n    node b = UInt<8>(3)\n    node c = bits(mul(a, b), 7, 0)\n    o <= c\n",
        );
        fold(&mut n);
        let o = n.find("o").unwrap();
        // o is Copy of something; chase one level.
        let val = match &n.signal(o).def {
            SignalDef::Const(c) => c.clone(),
            SignalDef::Op(op) if op.kind == OpKind::Copy => match &n.signal(op.args[0]).def {
                SignalDef::Const(c) => c.clone(),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        };
        assert_eq!(val.to_u64(), Some(6));
    }

    #[test]
    fn collapses_constant_mux_selector() {
        let mut n = build_test_netlist(
            "circuit M :\n  module M :\n    input a : UInt<4>\n    input b : UInt<4>\n    output o : UInt<4>\n    o <= mux(UInt<1>(1), a, b)\n",
        );
        fold(&mut n);
        let muxes = n
            .signals()
            .iter()
            .filter(|s| matches!(&s.def, SignalDef::Op(op) if op.kind == OpKind::Mux))
            .count();
        assert_eq!(muxes, 0, "constant-select mux must collapse");
    }

    #[test]
    fn analysis_folds_decided_comparison() {
        // lt(and(a, 15), 200) is always true though `a` is free.
        let mut n = build_test_netlist(
            "circuit A :\n  module A :\n    input a : UInt<8>\n    output o : UInt<1>\n    node low = and(a, UInt<8>(15))\n    node c = lt(low, UInt<8>(200))\n    o <= c\n",
        );
        assert!(fold(&mut n) > 0);
        let c = n.expect_signal("c");
        // `c` names a copy of the interned comparison; chase one level.
        let val = match &n.signal(c).def {
            SignalDef::Const(b) => b.clone(),
            SignalDef::Op(op) if op.kind == OpKind::Copy => match &n.signal(op.args[0]).def {
                SignalDef::Const(b) => b.clone(),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        };
        assert!(val.bit(0), "lt(low, 200) is always true");
    }

    #[test]
    fn analysis_prunes_unreachable_mux_way() {
        // The selector geq(x, 0) is always 1 for unsigned x.
        let mut n = build_test_netlist(
            "circuit U :\n  module U :\n    input x : UInt<8>\n    input t : UInt<8>\n    input f : UInt<8>\n    output o : UInt<8>\n    node sel = geq(x, UInt<8>(0))\n    o <= mux(sel, t, f)\n",
        );
        assert!(fold(&mut n) > 0);
        let muxes = n
            .signals()
            .iter()
            .filter(|s| matches!(&s.def, SignalDef::Op(op) if op.kind == OpKind::Mux))
            .count();
        assert_eq!(muxes, 0, "decided mux must collapse to the live way");
    }

    #[test]
    fn leaves_dynamic_ops_alone() {
        let mut n = build_test_netlist(
            "circuit D :\n  module D :\n    input a : UInt<4>\n    output o : UInt<5>\n    o <= add(a, UInt<4>(1))\n",
        );
        assert_eq!(fold(&mut n), 0);
    }
}
