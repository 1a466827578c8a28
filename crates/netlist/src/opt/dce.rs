//! Dead-code elimination: removes every signal not transitively required
//! by a sink (external output, register next-value, memory port, stop, or
//! printf), then compacts signal ids.
//!
//! Inputs are always preserved — the testbench interface is part of the
//! design's contract even when an input is unused.

use crate::netlist::{Netlist, SignalDef, SignalId};

/// Runs one round; returns the number of signals removed.
pub fn run(netlist: &mut Netlist) -> usize {
    // Liveness in one worklist pass: a register is live only if its
    // *output* is observed; a memory is live only if some read data is
    // observed. State becoming live adds its roots to the same walk (the
    // register's next-value; the memory's write port fields and every
    // read port, whose address and enable a kept port still reads),
    // which can make more state live.
    let mut live = vec![false; netlist.signal_count()];
    let mut live_regs = vec![false; netlist.regs.len()];
    let mut live_mems = vec![false; netlist.mems.len()];
    let mut stack: Vec<SignalId> = Vec::new();
    fn mark(id: SignalId, live: &mut [bool], stack: &mut Vec<SignalId>) {
        if !live[id.index()] {
            live[id.index()] = true;
            stack.push(id);
        }
    }
    for &id in netlist.outputs.iter().chain(&netlist.inputs) {
        mark(id, &mut live, &mut stack);
    }
    for s in &netlist.stops {
        mark(s.en, &mut live, &mut stack);
    }
    for p in &netlist.printfs {
        for &id in std::iter::once(&p.en).chain(&p.args) {
            mark(id, &mut live, &mut stack);
        }
    }
    while let Some(id) = stack.pop() {
        for &dep in netlist.deps(id).iter() {
            mark(dep, &mut live, &mut stack);
        }
        match netlist.signal(id).def {
            SignalDef::RegOut(r) if !live_regs[r.index()] => {
                live_regs[r.index()] = true;
                mark(netlist.regs[r.index()].next, &mut live, &mut stack);
            }
            SignalDef::MemRead { mem, .. } if !live_mems[mem.index()] => {
                live_mems[mem.index()] = true;
                let m = &netlist.mems[mem.index()];
                for r in &m.readers {
                    mark(r.data, &mut live, &mut stack);
                }
                for w in &m.writers {
                    for field in [w.addr, w.en, w.mask, w.data] {
                        mark(field, &mut live, &mut stack);
                    }
                }
            }
            _ => {}
        }
    }

    let dead = live.iter().filter(|&&l| !l).count();
    if dead == 0 {
        return 0;
    }

    // Build the compaction map.
    let mut remap: Vec<Option<SignalId>> = vec![None; netlist.signal_count()];
    let mut next = 0u32;
    for (i, &is_live) in live.iter().enumerate() {
        if is_live {
            remap[i] = Some(SignalId(next));
            next += 1;
        }
    }
    let map = |id: SignalId| remap[id.index()].expect("live signal referenced a dead one");

    // Compact the signal table.
    let old_signals = std::mem::take(&mut netlist.signals);
    for (i, mut sig) in old_signals.into_iter().enumerate() {
        if !live[i] {
            continue;
        }
        if let SignalDef::Op(op) = &mut sig.def {
            for a in &mut op.args {
                *a = map(*a);
            }
        }
        netlist.signals.push(sig);
    }

    // Registers: drop registers whose output is unobserved, remap the
    // rest and renumber RegOut defs. The criterion must be the fixpoint's
    // own verdict, not next-value liveness: `next` may alias a signal
    // that is live for unrelated reasons (e.g. `r <= n` next to
    // `out <= n`) while the register's output is dead.
    let old_regs = std::mem::take(&mut netlist.regs);
    for (ri, mut reg) in old_regs.into_iter().enumerate() {
        if !live_regs[ri] {
            continue;
        }
        reg.out = map(reg.out);
        reg.next = map(reg.next);
        let new_id = crate::netlist::RegId(netlist.regs.len() as u32);
        netlist.signals[reg.out.index()].def = SignalDef::RegOut(new_id);
        netlist.regs.push(reg);
    }

    // Memories: drop dead ones, remap the ports of the survivors.
    let old_mems = std::mem::take(&mut netlist.mems);
    for (mi, mut m) in old_mems.into_iter().enumerate() {
        if !live_mems[mi] {
            continue;
        }
        let new_id = crate::netlist::MemId(netlist.mems.len() as u32);
        for (pi, r) in m.readers.iter_mut().enumerate() {
            r.addr = map(r.addr);
            r.en = map(r.en);
            r.data = map(r.data);
            netlist.signals[r.data.index()].def = SignalDef::MemRead {
                mem: new_id,
                port: pi,
            };
        }
        for w in &mut m.writers {
            w.addr = map(w.addr);
            w.en = map(w.en);
            w.mask = map(w.mask);
            w.data = map(w.data);
        }
        netlist.mems.push(m);
    }

    for i in &mut netlist.inputs {
        *i = map(*i);
    }
    for o in &mut netlist.outputs {
        *o = map(*o);
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
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::build_test_netlist;

    #[test]
    fn removes_dead_logic_keeps_live() {
        let mut n = build_test_netlist(
            "circuit D :\n  module D :\n    input a : UInt<4>\n    output o : UInt<4>\n    node dead1 = not(a)\n    node dead2 = xor(dead1, a)\n    o <= a\n",
        );
        let removed = run(&mut n);
        assert!(removed >= 2, "dead chain must go (removed {removed})");
        assert!(n.find("dead1").is_none());
        assert!(n.find("o").is_some());
        assert!(n.find("a").is_some(), "inputs always survive");
    }

    #[test]
    fn keeps_register_feedback() {
        let mut n = build_test_netlist(
            "circuit R :\n  module R :\n    input clock : Clock\n    output q : UInt<4>\n    reg r : UInt<4>, clock\n    r <= tail(add(r, UInt<4>(1)), 1)\n    q <= r\n",
        );
        run(&mut n);
        assert_eq!(n.regs().len(), 1);
        assert!(n.find("r").is_some());
    }

    #[test]
    fn drops_fully_dead_register() {
        let mut n = build_test_netlist(
            "circuit Z :\n  module Z :\n    input clock : Clock\n    input a : UInt<4>\n    output o : UInt<4>\n    reg unused : UInt<4>, clock\n    unused <= a\n    o <= a\n",
        );
        run(&mut n);
        assert_eq!(n.regs().len(), 0, "unobserved register is dead");
        assert!(n.find("unused").is_none());
    }

    /// A live memory keeps every read port, including one whose data
    /// nobody reads: the port's address and enable cones stay too.
    #[test]
    fn unread_port_of_a_live_memory_keeps_its_address() {
        let mut n = build_test_netlist(
            "circuit M :\n  module M :\n    input clock : Clock\n    input a : UInt<2>\n    output o : UInt<8>\n    mem m :\n      data-type => UInt<8>\n      depth => 4\n      read-latency => 0\n      write-latency => 1\n      reader => used\n      reader => unused\n    m.used.clk <= clock\n    m.used.en <= UInt<1>(1)\n    m.used.addr <= a\n    m.unused.clk <= clock\n    m.unused.en <= UInt<1>(1)\n    m.unused.addr <= not(a)\n    o <= m.used.data\n",
        );
        run(&mut n);
        assert_eq!(n.mems().len(), 1);
        assert_eq!(n.mems()[0].readers.len(), 2);
        for s in n.signals() {
            for d in n.deps_of(s).iter() {
                assert!(d.index() < n.signal_count());
            }
        }
    }

    #[test]
    fn mem_ports_stay_live() {
        let mut n = build_test_netlist(
            "circuit M :\n  module M :\n    input clock : Clock\n    input addr : UInt<2>\n    output o : UInt<8>\n    mem m :\n      data-type => UInt<8>\n      depth => 4\n      read-latency => 0\n      write-latency => 1\n      reader => r\n      writer => w\n    m.r.clk <= clock\n    m.r.en <= UInt<1>(1)\n    m.r.addr <= addr\n    m.w.clk <= clock\n    m.w.en <= UInt<1>(1)\n    m.w.addr <= addr\n    m.w.data <= m.r.data\n    m.w.mask <= UInt<1>(1)\n    o <= m.r.data\n",
        );
        run(&mut n);
        assert_eq!(n.mems().len(), 1);
        let m = &n.mems()[0];
        // Ids were remapped but stay coherent.
        assert!(matches!(
            n.signal(m.readers[0].data).def,
            SignalDef::MemRead { .. }
        ));
        // The clk fields are dead (nothing reads them).
        assert!(n.find("m.r.clk").is_none());
    }

    #[test]
    fn validates_after_compaction() {
        let mut n = build_test_netlist(
            "circuit V :\n  module V :\n    input clock : Clock\n    input a : UInt<8>\n    output o : UInt<8>\n    node t1 = not(a)\n    node t2 = not(t1)\n    reg r : UInt<8>, clock\n    r <= t2\n    node dead = add(t1, a)\n    o <= r\n",
        );
        run(&mut n);
        // Every operand reference must be in range after compaction.
        for s in n.signals() {
            for &d in n.deps_of(s).iter() {
                assert!(d.index() < n.signal_count());
            }
        }
        // And the graph is still acyclic.
        assert!(crate::graph::topo_order(&n).is_ok());
    }
}
