//! Backward demanded-bits: how many low bits of each signal any
//! observer can actually distinguish.
//!
//! `demanded[s] = d` means no sink's observable value changes if bits
//! `[d, width)` of `s` are replaced by anything — the dual of the
//! forward known-bits facts, and the license `opt::narrow` uses to
//! truncate unsigned signals.
//!
//! The per-operation rules follow bit dependence under the kernels'
//! operand-extension semantics:
//!
//! * modular arithmetic (`add`/`sub`/`mul`/`neg`) and bitwise ops only
//!   let operand bit `i` influence result bits `>= i` — operands need
//!   `d` bits when the result needs `d`;
//! * numeric ops (comparisons, `div`/`rem`, reductions, `dshr`) read the
//!   whole value;
//! * `cat` is positional (operand widths define the layout) — full;
//! * sign-extension reads the operand's top bit wherever the result is
//!   read, so any signed-extended operand is demanded in full.
//!
//! Register feedback (`out` demanded ⇒ `next` demanded) makes the
//! problem cyclic; demands grow monotonically from zero and are bounded
//! by the widths, so rounds of propagation reach the fixpoint. A round
//! hands a register's output demand to its next-value, then carries every
//! raised demand to its operands in reverse topological position — only
//! signals whose demand rose are visited, and their operands are visited
//! later in the same round. A defensive round cap falls back to full
//! demand (which disables narrowing, never breaks it).

use crate::netlist::{Netlist, OpKind, Signal, SignalDef, SignalId};
use std::collections::BinaryHeap;

/// Round cap; demands saturate to declared widths if ever exceeded.
const MAX_SWEEPS: usize = 64;

/// Computes the demanded width of every signal. `order` must be a
/// topological order of the combinational graph.
pub fn demanded_widths(netlist: &Netlist, order: &[SignalId]) -> Vec<u32> {
    let mut d = Demand {
        netlist,
        order,
        demand: vec![0; netlist.signal_count()],
        pos: vec![0; netlist.signal_count()],
        heap: BinaryHeap::new(),
        queued: vec![false; netlist.signal_count()],
        raised_regs: Vec::new(),
        changed: false,
    };
    for (p, id) in order.iter().enumerate() {
        d.pos[id.index()] = p as u32;
    }

    // Externally observable sinks need every declared bit. Register
    // next-values are *not* seeded here: they are only observed through
    // the register, which forwards exactly the demand on its output.
    for &o in netlist.outputs() {
        d.bump(o, u32::MAX);
    }
    for s in netlist.stops() {
        d.bump(s.en, u32::MAX);
    }
    for p in netlist.printfs() {
        d.bump(p.en, u32::MAX);
        for &a in &p.args {
            d.bump(a, u32::MAX);
        }
    }
    for m in netlist.mems() {
        for r in &m.readers {
            d.bump(r.addr, u32::MAX);
            d.bump(r.en, u32::MAX);
        }
        for w in &m.writers {
            d.bump(w.addr, u32::MAX);
            d.bump(w.en, u32::MAX);
            d.bump(w.mask, u32::MAX);
            d.bump(w.data, u32::MAX);
        }
    }

    // The first round hands every register's demand on; later ones only
    // those of registers whose output demand rose.
    let mut regs: Vec<usize> = (0..netlist.regs().len()).collect();
    d.raised_regs.clear();
    let mut saturate = true;
    'rounds: for _ in 0..MAX_SWEEPS {
        d.changed = false;
        for &r in &regs {
            let reg = &netlist.regs()[r];
            let want = d.demand[reg.out.index()];
            if d.demand[reg.next.index()] < want {
                d.changed = true;
                d.bump(reg.next, want);
                if d.demand[reg.next.index()] < want {
                    // A next-value narrower than the demand on its
                    // register never catches up: every round from here
                    // on changes, so the cap is certain to be hit.
                    break 'rounds;
                }
            }
        }
        d.propagate();
        if !d.changed {
            saturate = false;
            break;
        }
        regs.clear();
        regs.append(&mut d.raised_regs);
    }
    if saturate {
        // Defensive: saturate everything (sound — disables narrowing).
        for (i, s) in netlist.signals().iter().enumerate() {
            d.demand[i] = s.width;
        }
    }

    debug_assert!(netlist
        .signals()
        .iter()
        .zip(&d.demand)
        .all(|(s, &d): (&Signal, _)| d <= s.width));
    d.demand
}

/// The demand propagation state.
struct Demand<'n> {
    netlist: &'n Netlist,
    /// The topological order, indexed by position.
    order: &'n [SignalId],
    demand: Vec<u32>,
    /// Topological position of every signal.
    pos: Vec<u32>,
    /// Positions of signals whose demand rose and whose operands have not
    /// seen it yet (a max-heap: reverse topological order).
    heap: BinaryHeap<u32>,
    /// Per signal: waiting in `heap`.
    queued: Vec<bool>,
    /// Registers whose output demand rose in this round.
    raised_regs: Vec<usize>,
    /// Some demand rose in this round.
    changed: bool,
}

impl Demand<'_> {
    /// Raises the demand of `id` to `want` (capped at its width) and
    /// queues it when that is a rise.
    fn bump(&mut self, id: SignalId, want: u32) {
        let sig = self.netlist.signal(id);
        let want = want.min(sig.width);
        if self.demand[id.index()] >= want {
            return;
        }
        self.demand[id.index()] = want;
        self.changed = true;
        match sig.def {
            SignalDef::Op(_) if !self.queued[id.index()] => {
                self.queued[id.index()] = true;
                self.heap.push(self.pos[id.index()]);
            }
            SignalDef::RegOut(r) => self.raised_regs.push(r.index()),
            _ => {}
        }
    }

    /// Carries every queued demand to the operands, in reverse
    /// topological position, until nothing is queued.
    fn propagate(&mut self) {
        let netlist = self.netlist;
        while let Some(p) = self.heap.pop() {
            let id = self.order[p as usize];
            self.queued[id.index()] = false;
            let d = self.demand[id.index()];
            let SignalDef::Op(op) = &netlist.signal(id).def else {
                continue;
            };
            let signed = |a: SignalId| netlist.signal(a).signed;
            use OpKind::*;
            match op.kind {
                Add | Sub | Mul | Neg | Not | And | Or | Xor => {
                    // These extend operands with the first operand's
                    // signedness; sign extension reads the top bit.
                    let w = if signed(op.args[0]) { u32::MAX } else { d };
                    for &a in &op.args {
                        self.bump(a, w);
                    }
                }
                Shl => self.bump(op.args[0], d.saturating_sub(op.params[0] as u32)),
                Shr => {
                    let w = if signed(op.args[0]) {
                        u32::MAX
                    } else {
                        d.saturating_add(op.params[0].min(u32::MAX as u64) as u32)
                    };
                    self.bump(op.args[0], w);
                }
                Dshl => {
                    self.bump(op.args[0], d);
                    self.bump(op.args[1], u32::MAX);
                }
                Bits => {
                    let lo = op.params[1] as u32;
                    let hi = op.params[0] as u32;
                    self.bump(op.args[0], (lo + d).min(hi + 1));
                }
                Mux => {
                    self.bump(op.args[0], 1);
                    for &way in &op.args[1..] {
                        self.bump(way, if signed(way) { u32::MAX } else { d });
                    }
                }
                Copy => {
                    let w = if signed(op.args[0]) { u32::MAX } else { d };
                    self.bump(op.args[0], w);
                }
                // Numeric and positional readers: the whole value.
                Lt | Leq | Gt | Geq | Eq | Neq | Div | Rem | Dshr | Cat | Andr | Orr | Xorr => {
                    for &a in &op.args {
                        self.bump(a, u32::MAX);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;
    use crate::opt::build_test_netlist;

    fn demands(src: &str) -> (Netlist, Vec<u32>) {
        let n = build_test_netlist(src);
        let order = graph::topo_order(&n).unwrap();
        let d = demanded_widths(&n, &order);
        (n, d)
    }

    #[test]
    fn truncation_limits_upstream_demand() {
        // add at 33 bits immediately truncated to 32: only 32 demanded.
        let (n, d) = demands(
            "circuit T :\n  module T :\n    input a : UInt<32>\n    output o : UInt<32>\n    node wide = add(a, UInt<32>(1))\n    o <= bits(wide, 31, 0)\n",
        );
        let wide = n.expect_signal("wide");
        assert_eq!(n.signal(wide).width, 33);
        assert_eq!(d[wide.index()], 32);
    }

    #[test]
    fn comparisons_demand_everything() {
        let (n, d) = demands(
            "circuit C :\n  module C :\n    input a : UInt<16>\n    output o : UInt<1>\n    node t = add(a, a)\n    o <= lt(t, UInt<8>(3))\n",
        );
        let t = n.expect_signal("t");
        assert_eq!(d[t.index()], n.signal(t).width);
    }

    #[test]
    fn register_feedback_propagates_demand() {
        // Register output feeds a 4-bit extraction only; the next-value
        // cone needs just 4 bits.
        let (n, d) = demands(
            "circuit R :\n  module R :\n    input clock : Clock\n    input a : UInt<8>\n    output o : UInt<4>\n    reg r : UInt<8>, clock\n    r <= a\n    o <= bits(r, 3, 0)\n",
        );
        let r = n.regs()[0].out;
        assert_eq!(d[r.index()], 4);
        let next = n.regs()[0].next;
        assert_eq!(d[next.index()], 4);
    }
}
