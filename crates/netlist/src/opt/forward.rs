//! Copy forwarding: operand references that point at a *pure alias* — a
//! [`OpKind::Copy`] whose result type equals its operand's type — are
//! redirected to the operand. Width-changing copies (extensions and
//! truncations) are real work and stay.
//!
//! This undoes the builder's convention of naming every wire/node as a
//! copy of an interned temp, leaving the named signal dead for DCE to
//! collect.

use crate::netlist::{Netlist, OpKind, SignalDef, SignalId};

/// Runs one round; returns the number of operand references redirected.
pub fn run(netlist: &mut Netlist) -> usize {
    // alias[i] = the signal `i` forwards to (transitively compressed).
    let n = netlist.signal_count();
    let mut alias: Vec<SignalId> = (0..n).map(|i| SignalId(i as u32)).collect();
    // `netlist.signals` cannot be iterated directly while `alias` is
    // written through the same index.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let sig = &netlist.signals[i];
        if let SignalDef::Op(op) = &sig.def {
            if op.kind == OpKind::Copy {
                let src = &netlist.signals[op.args[0].index()];
                if src.width == sig.width && src.signed == sig.signed {
                    alias[i] = op.args[0];
                }
            }
        }
    }
    // Path compression.
    fn root(alias: &mut [SignalId], i: SignalId) -> SignalId {
        let mut r = i;
        while alias[r.index()] != r {
            r = alias[r.index()];
        }
        let mut cur = i;
        while alias[cur.index()] != r {
            let next = alias[cur.index()];
            alias[cur.index()] = r;
            cur = next;
        }
        r
    }

    let mut forwarded = 0;
    let redirect = |id: &mut SignalId, alias: &mut Vec<SignalId>, forwarded: &mut usize| {
        let r = root(alias, *id);
        if r != *id {
            *id = r;
            *forwarded += 1;
        }
    };

    for i in 0..n {
        // A Copy's own operand is intentionally left alone when it IS the
        // alias (redirecting `x = Copy(y)` to `x = Copy(root(y))` is fine
        // and is what we do).
        if let SignalDef::Op(op) = &mut netlist.signals[i].def {
            for a in &mut op.args {
                redirect(a, &mut alias, &mut forwarded);
            }
        }
    }
    for r in 0..netlist.regs.len() {
        // `next` points at the named next-signal; its def was redirected
        // above. The register's own link stays (it names the sink).
        let _ = r;
    }
    for m in 0..netlist.mems.len() {
        for rp in 0..netlist.mems[m].readers.len() {
            let mut addr = netlist.mems[m].readers[rp].addr;
            let mut en = netlist.mems[m].readers[rp].en;
            redirect(&mut addr, &mut alias, &mut forwarded);
            redirect(&mut en, &mut alias, &mut forwarded);
            netlist.mems[m].readers[rp].addr = addr;
            netlist.mems[m].readers[rp].en = en;
        }
        for wp in 0..netlist.mems[m].writers.len() {
            let port = netlist.mems[m].writers[wp].clone();
            let (mut a, mut e, mut k, mut d) = (port.addr, port.en, port.mask, port.data);
            redirect(&mut a, &mut alias, &mut forwarded);
            redirect(&mut e, &mut alias, &mut forwarded);
            redirect(&mut k, &mut alias, &mut forwarded);
            redirect(&mut d, &mut alias, &mut forwarded);
            let w = &mut netlist.mems[m].writers[wp];
            w.addr = a;
            w.en = e;
            w.mask = k;
            w.data = d;
        }
    }
    for s in 0..netlist.stops.len() {
        let mut en = netlist.stops[s].en;
        redirect(&mut en, &mut alias, &mut forwarded);
        netlist.stops[s].en = en;
    }
    for p in 0..netlist.printfs.len() {
        let mut en = netlist.printfs[p].en;
        redirect(&mut en, &mut alias, &mut forwarded);
        netlist.printfs[p].en = en;
        for a in &mut netlist.printfs[p].args {
            redirect(a, &mut alias, &mut forwarded);
        }
    }
    // Register next links: keep pointing at the named `$next` signal so the
    // register sink stays identifiable; its def was already redirected.
    forwarded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::build_test_netlist;

    #[test]
    fn forwards_through_alias_chains() {
        let mut n = build_test_netlist(
            "circuit F :\n  module F :\n    input a : UInt<4>\n    output o : UInt<4>\n    node x = a\n    node y = x\n    node z = y\n    o <= z\n",
        );
        run(&mut n);
        let o = n.find("o").unwrap();
        let a = n.find("a").unwrap();
        match &n.signal(o).def {
            SignalDef::Op(op) => {
                assert_eq!(op.kind, OpKind::Copy);
                assert_eq!(op.args[0], a, "chain must compress to the input");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn keeps_width_changing_copies() {
        let mut n = build_test_netlist(
            "circuit W :\n  module W :\n    input a : UInt<4>\n    output o : UInt<8>\n    o <= pad(a, 8)\n",
        );
        run(&mut n);
        let o = n.find("o").unwrap();
        // o (8 bits) ultimately reads a widening Copy; the 4->8 extension
        // cannot be forwarded away.
        match &n.signal(o).def {
            SignalDef::Op(op) => {
                assert_eq!(op.kind, OpKind::Copy);
                let src = n.signal(op.args[0]);
                assert!(src.width == 8 || op.args[0] == n.find("a").unwrap());
            }
            other => panic!("{other:?}"),
        }
    }
}
