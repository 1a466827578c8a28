//! Common-subexpression elimination.
//!
//! The builder already interns identical temporaries structurally, but
//! constant propagation and copy forwarding expose new duplicates (two
//! different named nodes that now compute the same op over the same
//! operands). This pass hashes every definition and redirects consumers
//! of duplicates to one representative; the dead duplicates are collected
//! by DCE.

use crate::netlist::{Netlist, SignalDef, SignalId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Key identifying a definition's value, borrowed from the netlist.
#[derive(Debug, PartialEq, Eq, Hash)]
enum DefKey<'a> {
    Const(&'a [u64], u32, bool),
    Op(crate::netlist::OpKind, &'a [SignalId], &'a [u64], u32, bool),
}

/// Runs one round; returns the number of duplicate definitions redirected.
pub fn run(netlist: &mut Netlist) -> usize {
    let n = netlist.signal_count();
    let mut replace: Vec<SignalId> = (0..n).map(|i| SignalId(i as u32)).collect();
    let mut deduped = 0;
    let mut table: HashMap<DefKey, SignalId> = HashMap::with_capacity(n);
    for (i, sig) in netlist.signals.iter().enumerate() {
        let key = match &sig.def {
            SignalDef::Const(c) => DefKey::Const(c.limbs(), sig.width, sig.signed),
            SignalDef::Op(op) => DefKey::Op(op.kind, &op.args, &op.params, sig.width, sig.signed),
            // Inputs, register outputs, and memory reads are unique values.
            _ => continue,
        };
        match table.entry(key) {
            Entry::Occupied(rep) => {
                replace[i] = *rep.get();
                deduped += 1;
            }
            Entry::Vacant(slot) => {
                slot.insert(SignalId(i as u32));
            }
        }
    }
    drop(table);
    if deduped == 0 {
        return 0;
    }

    // Redirect all consumers.
    let map = |id: SignalId| replace[id.index()];
    for i in 0..n {
        if let SignalDef::Op(op) = &mut netlist.signals[i].def {
            for a in &mut op.args {
                *a = map(*a);
            }
        }
    }
    for m in &mut netlist.mems {
        for r in &mut m.readers {
            r.addr = map(r.addr);
            r.en = map(r.en);
        }
        for w in &mut m.writers {
            w.addr = map(w.addr);
            w.en = map(w.en);
            w.mask = map(w.mask);
            w.data = map(w.data);
        }
    }
    for s in &mut netlist.stops {
        s.en = map(s.en);
    }
    for p in &mut netlist.printfs {
        p.en = map(p.en);
        for a in &mut p.args {
            *a = map(*a);
        }
    }
    for o in &mut netlist.outputs {
        // Keep output ports themselves (their identity is the interface),
        // but their defs were redirected above.
        let _ = o;
    }
    deduped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::OpKind;
    use crate::opt::build_test_netlist;

    #[test]
    fn dedups_equal_named_nodes() {
        let mut n = build_test_netlist(
            "circuit C :\n  module C :\n    input a : UInt<4>\n    input b : UInt<4>\n    output x : UInt<1>\n    output y : UInt<1>\n    node p = eq(a, b)\n    node q = eq(a, b)\n    x <= p\n    y <= orr(q)\n",
        );
        // Builder interning already shares the eq; p and q are two Copy
        // signals of the same temp — CSE dedups the copies.
        let d = run(&mut n);
        assert!(d >= 1, "the two copy nodes must dedup");
        // After dedup, x's and y's chains converge on one signal.
        let x = n.find("x").unwrap();
        let chase = |mut id: crate::netlist::SignalId| loop {
            match &n.signal(id).def {
                SignalDef::Op(op) if op.kind == OpKind::Copy => id = op.args[0],
                _ => return id,
            }
        };
        let eq_sig = chase(x);
        assert!(matches!(
            &n.signal(eq_sig).def,
            SignalDef::Op(op) if op.kind == OpKind::Eq
        ));
    }

    #[test]
    fn distinct_ops_stay_distinct() {
        let mut n = build_test_netlist(
            "circuit D :\n  module D :\n    input a : UInt<4>\n    output x : UInt<1>\n    output y : UInt<1>\n    x <= orr(a)\n    y <= andr(a)\n",
        );
        let before: Vec<_> = n.signals().iter().map(|s| s.def.clone()).collect();
        run(&mut n);
        // orr and andr must not merge (different kinds).
        let orrs = n
            .signals()
            .iter()
            .filter(|s| matches!(&s.def, SignalDef::Op(op) if op.kind == OpKind::Orr))
            .count();
        let andrs = n
            .signals()
            .iter()
            .filter(|s| matches!(&s.def, SignalDef::Op(op) if op.kind == OpKind::Andr))
            .count();
        assert_eq!((orrs, andrs), (1, 1));
        let _ = before;
    }
}
