//! Pre-resolved state updates: every register commit and memory-port
//! write a CCSS engine performs *itself*, flattened once at construction
//! into arena offsets, word counts and a consumer range — so the cycle
//! loop touches no netlist, layout or plan structure.
//!
//! Two groups share the one table:
//!
//! * **in place**, per scheduled partition, run right after the
//!   partition's program: its elided memory writes and the elided
//!   register commits the program did not absorb as
//!   [`Op1::Commit`](crate::step1::Op1::Commit) instructions (registers
//!   wider than a word; every elided register with trigger fusion off —
//!   [`Tier1Program::unabsorbed`]);
//! * **end of cycle**: the non-elided writes and registers, with change
//!   detection.
//!
//! Within a group writes come before registers. That order is
//! conventional, not load-bearing: the plan never elides a register into
//! the partition holding an elided write that reads it, nor any register
//! a non-elided write reads (`V0106`), so no write here can observe a
//! commit that precedes it.

use crate::compile::Layout;
use crate::step1::Tier1Program;
use essent_core::plan::CcssPlan;
use essent_netlist::Netlist;

/// One register commit: copy `words` words from `next` to `out`.
#[derive(Debug, Clone, Copy)]
pub struct RegCommit {
    pub next: u32,
    pub out: u32,
    pub words: u32,
    /// Index into [`CcssPlan::reg_plans`] (wake attribution).
    pub plan: u32,
    /// Consumers to wake on change ([`StateTable::woken`]).
    pub wake: (u32, u32),
}

impl RegCommit {
    /// Resolves register `reg_index` against the layout (no consumers).
    pub fn resolve(netlist: &Netlist, layout: &Layout, reg_index: usize) -> RegCommit {
        let reg = &netlist.regs()[reg_index];
        RegCommit {
            next: layout.offset(reg.next) as u32,
            out: layout.offset(reg.out) as u32,
            words: layout.words(reg.out) as u32,
            plan: reg_index as u32,
            wake: (0, 0),
        }
    }
}

/// One memory write port: `if en & mask & addr < depth { bank[addr] =
/// extend(data) }`, the data signal width-adapted to the bank.
#[derive(Debug, Clone, Copy)]
pub struct MemWrite {
    /// Bank index.
    pub mem: u32,
    /// One-word field slots.
    pub en: u32,
    pub mask: u32,
    pub addr: u32,
    /// The data slot and its signal's type (it may differ from the
    /// bank's after optimization).
    pub data: u32,
    pub data_words: u32,
    pub data_width: u32,
    pub data_signed: bool,
    /// Index into [`CcssPlan::mem_write_plans`] (wake attribution).
    pub plan: u32,
    /// Consumers to wake on change ([`StateTable::woken`]).
    pub wake: (u32, u32),
}

impl MemWrite {
    /// Resolves writer `writer` of memory `mem` against the layout (no
    /// consumers, no plan index).
    pub fn resolve(netlist: &Netlist, layout: &Layout, mem: usize, writer: usize) -> MemWrite {
        let port = &netlist.mems()[mem].writers[writer];
        let data = netlist.signal(port.data);
        MemWrite {
            mem: mem as u32,
            en: layout.offset(port.en) as u32,
            mask: layout.offset(port.mask) as u32,
            addr: layout.offset(port.addr) as u32,
            data: layout.offset(port.data) as u32,
            data_words: layout.words(port.data) as u32,
            data_width: data.width,
            data_signed: data.signed,
            plan: 0,
            wake: (0, 0),
        }
    }
}

/// Every memory write port and every register of `netlist`, resolved
/// in netlist order: the end-of-cycle updates of an engine without a
/// plan, writes then registers.
pub fn resolve_state(netlist: &Netlist, layout: &Layout) -> (Vec<MemWrite>, Vec<RegCommit>) {
    let writes = netlist
        .mems()
        .iter()
        .enumerate()
        .flat_map(|(m, mem)| {
            (0..mem.writers.len()).map(move |w| MemWrite::resolve(netlist, layout, m, w))
        })
        .collect();
    let regs = (0..netlist.regs().len())
        .map(|r| RegCommit::resolve(netlist, layout, r))
        .collect();
    (writes, regs)
}

/// The flat table (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct StateTable {
    /// Partition 0's in-place entries, partition 1's, …, then the
    /// end-of-cycle entries.
    regs: Vec<RegCommit>,
    writes: Vec<MemWrite>,
    consumers: Vec<u32>,
    /// `partitions + 1` prefix bounds into `regs` / `writes`: partition
    /// `s` owns `[bound[s], bound[s + 1])`, the end-of-cycle group the
    /// rest.
    reg_bound: Vec<u32>,
    write_bound: Vec<u32>,
}

impl StateTable {
    /// Flattens `plan`'s state updates. `programs` are the tier-1
    /// programs the engine will run: their
    /// [`unabsorbed`](Tier1Program::unabsorbed) lists index each
    /// partition's `elided_regs`.
    pub fn build(
        netlist: &Netlist,
        layout: &Layout,
        plan: &CcssPlan,
        programs: &[Tier1Program],
    ) -> StateTable {
        let mut t = StateTable::default();
        let reg = |t: &mut StateTable, ri: usize| {
            let wake = t.push_consumers(&plan.reg_plans[ri].wake_on_change);
            t.regs.push(RegCommit {
                wake,
                ..RegCommit::resolve(netlist, layout, ri)
            });
        };
        let write = |t: &mut StateTable, wi: usize| {
            let wp = &plan.mem_write_plans[wi];
            let wake = t.push_consumers(&wp.wake_on_change);
            t.writes.push(MemWrite {
                plan: wi as u32,
                wake,
                ..MemWrite::resolve(netlist, layout, wp.mem.index(), wp.writer)
            });
        };
        for (sched, part) in plan.partitions.iter().enumerate() {
            t.reg_bound.push(t.regs.len() as u32);
            t.write_bound.push(t.writes.len() as u32);
            for &wi in &part.elided_writes {
                write(&mut t, wi);
            }
            for &ci in &programs[sched].unabsorbed {
                reg(&mut t, part.elided_regs[ci]);
            }
        }
        t.reg_bound.push(t.regs.len() as u32);
        t.write_bound.push(t.writes.len() as u32);
        for (wi, wp) in plan.mem_write_plans.iter().enumerate() {
            if !wp.elided {
                write(&mut t, wi);
            }
        }
        for (ri, rp) in plan.reg_plans.iter().enumerate() {
            if !rp.elided {
                reg(&mut t, ri);
            }
        }
        t
    }

    fn push_consumers(&mut self, list: &[u32]) -> (u32, u32) {
        let start = self.consumers.len() as u32;
        self.consumers.extend_from_slice(list);
        (start, self.consumers.len() as u32)
    }

    /// Partition `sched`'s in-place updates, writes then registers.
    #[inline]
    pub fn in_place(&self, sched: usize) -> (&[MemWrite], &[RegCommit]) {
        let (w0, w1) = (self.write_bound[sched], self.write_bound[sched + 1]);
        let (r0, r1) = (self.reg_bound[sched], self.reg_bound[sched + 1]);
        (
            &self.writes[w0 as usize..w1 as usize],
            &self.regs[r0 as usize..r1 as usize],
        )
    }

    /// Whether partition `sched` has any in-place update (the wake-slot
    /// table's `plain` bit needs none).
    pub fn has_in_place(&self, sched: usize) -> bool {
        let (writes, regs) = self.in_place(sched);
        !writes.is_empty() || !regs.is_empty()
    }

    /// The end-of-cycle updates, writes then registers.
    #[inline]
    pub fn end_of_cycle(&self) -> (&[MemWrite], &[RegCommit]) {
        let w = *self.write_bound.last().expect("bounds end with a total") as usize;
        let r = *self.reg_bound.last().expect("bounds end with a total") as usize;
        (&self.writes[w..], &self.regs[r..])
    }

    /// The consumers an entry's `wake` range names.
    #[inline]
    pub fn woken(&self, wake: (u32, u32)) -> &[u32] {
        &self.consumers[wake.0 as usize..wake.1 as usize]
    }
}
