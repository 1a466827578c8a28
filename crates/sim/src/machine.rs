//! Shared execution state for all engines: the value arena, memory banks,
//! halt/printf side effects, and the work counters that feed the paper's
//! Figure 7 overhead decomposition.

use crate::compile::{ArgRef, Item, Layout, Step, StepKind};
use crate::state::{MemWrite, RegCommit};
use essent_bits::{kernels, words, Bits};
use essent_netlist::interp::{format_printf, MemRefError};
use essent_netlist::{eval::Operand, Netlist, SignalDef, SignalId};
use std::sync::Arc;

/// Deterministic work counters, in the categories the paper separates:
/// base simulation work, activity-agnostic *static* overhead, and
/// activity-dependent *dynamic* overhead (Section V, Figure 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Base work: operations actually evaluated.
    pub ops_evaluated: u64,
    /// Static overhead: per-cycle partition activity flag tests plus
    /// per-cycle state commit checks that run regardless of activity.
    pub static_checks: u64,
    /// Dynamic overhead: output change comparisons and consumer flag
    /// writes performed because a partition was active.
    pub dynamic_checks: u64,
    /// Scheduling events (event-driven engine: queue pushes/pops).
    pub events: u64,
    /// Cycles simulated.
    pub cycles: u64,
}

impl WorkCounters {
    /// Total accounted work units.
    pub fn total(&self) -> u64 {
        self.ops_evaluated + self.static_checks + self.dynamic_checks + self.events
    }
}

/// One memory bank's simulation storage.
#[derive(Debug, Clone)]
pub struct MemBank {
    pub words_per: usize,
    pub depth: usize,
    pub width: u32,
    pub data: Vec<u64>,
}

impl MemBank {
    fn new(width: u32, depth: usize) -> MemBank {
        let words_per = words(width);
        MemBank {
            words_per,
            depth,
            width,
            data: vec![0; words_per * depth],
        }
    }

    /// The word slice of entry `addr`.
    #[inline]
    pub fn entry(&self, addr: usize) -> &[u64] {
        &self.data[addr * self.words_per..(addr + 1) * self.words_per]
    }

    /// Mutable word slice of entry `addr`.
    #[inline]
    pub fn entry_mut(&mut self, addr: usize) -> &mut [u64] {
        &mut self.data[addr * self.words_per..(addr + 1) * self.words_per]
    }
}

/// The shared engine state: one flat `u64` arena holding every signal
/// value, plus memory banks and side-effect bookkeeping.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Shared, immutable netlist: engines over the same design share one
    /// allocation instead of deep-cloning the graph per instance.
    pub netlist: Arc<Netlist>,
    pub layout: Layout,
    pub arena: Vec<u64>,
    pub mems: Vec<MemBank>,
    pub cycle: u64,
    pub halted: Option<u64>,
    /// Capture printf output (disable for benchmarking hot loops).
    pub capture_printf: bool,
    pub printf_log: Vec<String>,
    pub counters: WorkCounters,
}

impl Machine {
    /// Builds a machine with zero-initialized state and constants
    /// materialized into the arena. Clones the netlist once; engines
    /// sharing a design should prefer [`Machine::from_arc`].
    pub fn new(netlist: &Netlist) -> Machine {
        Machine::from_arc(Arc::new(netlist.clone()))
    }

    /// Builds a machine over an already-shared netlist (no deep clone).
    pub fn from_arc(netlist: Arc<Netlist>) -> Machine {
        let layout = Layout::new(&netlist);
        let mut arena = vec![0u64; layout.total_words()];
        for (i, s) in netlist.signals().iter().enumerate() {
            if let SignalDef::Const(c) = &s.def {
                let sig = SignalId(i as u32);
                let off = layout.offset(sig);
                arena[off..off + layout.words(sig)].copy_from_slice(c.limbs());
            }
        }
        let mems = netlist
            .mems()
            .iter()
            .map(|m| MemBank::new(m.width, m.depth))
            .collect();
        Machine {
            netlist,
            layout,
            arena,
            mems,
            cycle: 0,
            halted: None,
            capture_printf: true,
            printf_log: Vec::new(),
            counters: WorkCounters::default(),
        }
    }

    /// Reads a signal's current words.
    #[inline]
    pub fn slot(&self, sig: SignalId) -> &[u64] {
        let off = self.layout.offset(sig);
        &self.arena[off..off + self.layout.words(sig)]
    }

    /// Reads a signal as an owned [`Bits`].
    pub fn value(&self, sig: SignalId) -> Bits {
        Bits::from_limbs(self.slot(sig).to_vec(), self.netlist.signal(sig).width)
    }

    /// Writes a signal slot from a [`Bits`] (width-adapted); returns
    /// `true` if the stored value changed.
    pub fn set_value(&mut self, sig: SignalId, value: &Bits) -> bool {
        let width = self.netlist.signal(sig).width;
        let adapted = value.extend(width, false);
        let off = self.layout.offset(sig);
        let w = self.layout.words(sig);
        let slot = &mut self.arena[off..off + w];
        if slot == adapted.limbs() {
            false
        } else {
            slot.copy_from_slice(adapted.limbs());
            true
        }
    }

    /// Executes one step against the arena.
    ///
    /// Uses raw-pointer slices because the destination and source slots of
    /// a step are always disjoint (the netlist is acyclic, so a signal
    /// never reads itself, and the layout gives every signal a unique
    /// range).
    #[inline]
    pub fn run_step(&mut self, step: &Step) {
        // SAFETY: exclusive access to the arena through &mut self.
        unsafe {
            run_step_raw(
                step,
                self.arena.as_mut_ptr(),
                &self.mems,
                &mut self.counters.ops_evaluated,
            )
        }
    }

    /// Executes a block of items, honoring conditional mux ways.
    pub fn run_items(&mut self, items: &[Item]) {
        // SAFETY: exclusive access to the arena through &mut self.
        unsafe {
            run_items_raw(
                items,
                self.arena.as_mut_ptr(),
                &self.mems,
                &mut self.counters.ops_evaluated,
            )
        }
    }

    /// Reads a slot's low 64 bits (addresses, enables).
    #[inline]
    pub fn slot_u64(&self, sig: SignalId) -> u64 {
        self.arena[self.layout.offset(sig)]
    }

    /// Evaluates `stop`s and `printf`s against current values; returns
    /// `true` if a stop fired (halting at the current cycle).
    pub fn side_effects(&mut self) -> bool {
        // This runs every cycle on every engine, so it borrows the
        // netlist in place (no `Arc` clone) and a design without printfs
        // skips their walk outright.
        if self.capture_printf && !self.netlist.printfs().is_empty() {
            let lines: Vec<String> = self
                .netlist
                .printfs()
                .iter()
                .filter(|p| self.slot_u64(p.en) & 1 == 1)
                .map(|p| {
                    let args: Vec<Bits> = p.args.iter().map(|&a| self.value(a)).collect();
                    format_printf(&p.fmt, &args)
                })
                .collect();
            self.printf_log.extend(lines);
        }
        if self.halted.is_some() {
            return false;
        }
        let stops = self.netlist.stops();
        self.halted = stops
            .iter()
            .find(|s| self.slot_u64(s.en) & 1 == 1)
            .map(|s| s.code);
        self.halted.is_some()
    }

    /// Commits one register (copy next → out); returns `true` on change.
    #[inline]
    pub fn commit_reg(&mut self, reg_index: usize) -> bool {
        self.commit(&RegCommit::resolve(&self.netlist, &self.layout, reg_index))
    }

    /// Runs one pre-resolved register commit; `true` on change.
    #[inline]
    pub fn commit(&mut self, reg: &RegCommit) -> bool {
        // SAFETY: exclusive access through &mut self; `next` and `out`
        // are distinct signals and so occupy disjoint ranges.
        unsafe {
            commit_state_raw(
                self.arena.as_mut_ptr(),
                reg.next as usize,
                reg.out as usize,
                reg.words as usize,
            )
        }
    }

    /// Executes one memory write port if enabled; returns `true` when the
    /// stored contents changed.
    pub fn run_mem_write(&mut self, mem_index: usize, writer: usize) -> bool {
        self.write_port(&MemWrite::resolve(
            &self.netlist,
            &self.layout,
            mem_index,
            writer,
        ))
    }

    /// Runs one pre-resolved memory write port; `true` when the stored
    /// contents changed. The data signal is width-adapted to the bank
    /// width (they may diverge after optimization), allocation-free.
    #[inline]
    pub fn write_port(&mut self, port: &MemWrite) -> bool {
        // SAFETY: exclusive access through &mut self; the port's arena
        // slots and the bank storage are disjoint.
        unsafe {
            run_mem_write_raw(
                self.arena.as_mut_ptr(),
                &mut self.mems[port.mem as usize],
                port,
            )
        }
    }

    /// Back-door memory write (program loading), with a structured error
    /// for bad references — the same [`MemRefError`] the golden
    /// interpreter returns, liftable into a coded
    /// `essent_core::diag::Diagnostic` via `From`.
    pub fn try_write_mem_backdoor(
        &mut self,
        mem: &str,
        addr: usize,
        value: &Bits,
    ) -> Result<(), MemRefError> {
        let id = self
            .netlist
            .find_mem(mem)
            .ok_or_else(|| MemRefError::NoSuchMem {
                mem: mem.to_string(),
            })?;
        let bank = &mut self.mems[id.index()];
        if addr >= bank.depth {
            return Err(MemRefError::AddrOutOfRange {
                mem: mem.to_string(),
                addr,
                depth: bank.depth,
            });
        }
        let width = bank.width;
        let adapted = value.extend(width, false);
        bank.entry_mut(addr).copy_from_slice(adapted.limbs());
        Ok(())
    }

    /// Back-door memory read, with a structured error for bad references.
    pub fn try_read_mem_backdoor(&self, mem: &str, addr: usize) -> Result<Bits, MemRefError> {
        let id = self
            .netlist
            .find_mem(mem)
            .ok_or_else(|| MemRefError::NoSuchMem {
                mem: mem.to_string(),
            })?;
        let bank = &self.mems[id.index()];
        if addr >= bank.depth {
            return Err(MemRefError::AddrOutOfRange {
                mem: mem.to_string(),
                addr,
                depth: bank.depth,
            });
        }
        Ok(Bits::from_limbs(bank.entry(addr).to_vec(), bank.width))
    }

    /// Back-door memory write (program loading).
    ///
    /// # Panics
    ///
    /// Panics on unknown memory or out-of-range address, rendering the
    /// structured diagnostic (`M0001`/`M0002`). Use
    /// [`Machine::try_write_mem_backdoor`] to handle the error instead.
    pub fn write_mem_backdoor(&mut self, mem: &str, addr: usize, value: &Bits) {
        self.try_write_mem_backdoor(mem, addr, value)
            .unwrap_or_else(|e| panic!("{}", essent_core::diag::Diagnostic::from(e)));
    }

    /// Back-door memory read.
    ///
    /// # Panics
    ///
    /// Panics on unknown memory or out-of-range address; see
    /// [`Machine::try_read_mem_backdoor`].
    pub fn read_mem_backdoor(&self, mem: &str, addr: usize) -> Bits {
        self.try_read_mem_backdoor(mem, addr)
            .unwrap_or_else(|e| panic!("{}", essent_core::diag::Diagnostic::from(e)))
    }
}

/// Raw step execution over a shared arena pointer.
///
/// # Safety
///
/// `arena` must point at the machine's arena; the caller must guarantee no
/// other thread concurrently accesses the destination slot of `step`, and
/// that all source slots are not concurrently written. The engines uphold
/// this with disjoint partition memberships and the dataflow schedule's
/// wait edges.
pub(crate) unsafe fn run_step_raw(step: &Step, arena: *mut u64, mems: &[MemBank], ops: &mut u64) {
    *ops += 1;
    let base = arena;
    #[cfg(feature = "race-sanitizer")]
    {
        for a in &step.args {
            crate::sanitizer::note_read(a.off, a.words as u32);
        }
        crate::sanitizer::note_write(step.dst.off, step.dst.words as u32);
    }
    // SAFETY: `arena` covers the layout (caller contract) and nothing
    // else touches the destination slot while this step runs — the
    // verifier's footprint layer (R0504) proves every compiled write
    // stays inside the partition's declared range (its own members), and
    // S0601 proves every other partition whose footprint overlaps that
    // word — reader or writer — is ordered against this one by a wait
    // edge of the dataflow schedule, the only thing that runs
    // partitions concurrently.
    let dst = unsafe {
        std::slice::from_raw_parts_mut(base.add(step.dst.off as usize), step.dst.words as usize)
    };
    match &step.kind {
        StepKind::Op(kind) => {
            let mut operands: [Operand; 3] = [
                Operand::new(&[], 0, false),
                Operand::new(&[], 0, false),
                Operand::new(&[], 0, false),
            ];
            for (i, a) in step.args.iter().enumerate() {
                // SAFETY: source slots are in-bounds distinct layout
                // ranges (a signal never reads itself — the netlist is
                // acyclic) and not concurrently written (S0601: the
                // writer of every word this partition reads is ordered
                // before or after it by the schedule's wait graph; S0604
                // does the same across the cycle boundary).
                let src = unsafe {
                    std::slice::from_raw_parts(base.add(a.off as usize), a.words as usize)
                };
                operands[i] = Operand::new(src, a.width, a.signed);
            }
            essent_netlist::eval::eval_op(
                *kind,
                &step.params,
                dst,
                step.dst.width,
                &operands[..step.args.len()],
            );
        }
        StepKind::MemRead { mem, port: _ } => {
            let addr_ref = &step.args[0];
            let en_ref = &step.args[1];
            // SAFETY: one-word read of the enable slot; same read
            // contract as above (S0601).
            let en = unsafe { *base.add(en_ref.off as usize) } & 1 == 1;
            let bank = &mems[*mem as usize];
            if en {
                // SAFETY: one-word read of the address slot (S0601).
                let addr = unsafe { read_u64(base, addr_ref) };
                if (addr as usize) < bank.depth {
                    dst.copy_from_slice(bank.entry(addr as usize));
                    return;
                }
            }
            dst.iter_mut().for_each(|w| *w = 0);
        }
    }
}

/// Raw block execution (see [`run_step_raw`] for the safety contract).
///
/// # Safety
///
/// Same as [`run_step_raw`], extended to every step in `items`.
pub(crate) unsafe fn run_items_raw(
    items: &[Item],
    arena: *mut u64,
    mems: &[MemBank],
    ops: &mut u64,
) {
    for item in items {
        match item {
            // SAFETY: forwards the caller's contract unchanged.
            Item::Step(step) => unsafe { run_step_raw(step, arena, mems, ops) },
            Item::CondMux {
                sel,
                dst,
                high_items,
                high,
                low_items,
                low,
                ..
            } => {
                *ops += 1;
                #[cfg(feature = "race-sanitizer")]
                crate::sanitizer::note_read(sel.off, sel.words as u32);
                // SAFETY: one-word read of the selector slot, whose
                // writer the schedule orders against this partition
                // (S0601).
                let take_high = unsafe { *arena.add(sel.off as usize) } & 1 == 1;
                let (way_items, way) = if take_high {
                    (high_items, high)
                } else {
                    (low_items, low)
                };
                // SAFETY: forwards the caller's contract unchanged.
                unsafe { run_items_raw(way_items, arena, mems, ops) };
                #[cfg(feature = "race-sanitizer")]
                {
                    crate::sanitizer::note_read(way.off, way.words as u32);
                    crate::sanitizer::note_write(dst.off, dst.words as u32);
                }
                // SAFETY: the mux destination is a declared write of this
                // partition (R0504) and the taken way's slot one of its
                // reads; every other partition touching either word is
                // ordered against this one by a wait edge (S0601).
                let (d, s) = unsafe {
                    (
                        std::slice::from_raw_parts_mut(
                            arena.add(dst.off as usize),
                            dst.words as usize,
                        ),
                        std::slice::from_raw_parts(arena.add(way.off as usize), way.words as usize),
                    )
                };
                kernels::extend(d, dst.width, s, way.width, way.signed);
            }
        }
    }
}

/// Raw state commit: copy `next` into `out`; returns `true` on change.
///
/// # Safety
///
/// `arena` must be the machine's arena and the two `words`-sized ranges at
/// `next_off`/`out_off` must not be concurrently accessed.
pub(crate) unsafe fn commit_state_raw(
    arena: *mut u64,
    next_off: usize,
    out_off: usize,
    words: usize,
) -> bool {
    #[cfg(feature = "race-sanitizer")]
    {
        crate::sanitizer::note_read(next_off as u32, words as u32);
        crate::sanitizer::note_write(out_off as u32, words as u32);
    }
    // SAFETY: `next` and `out` are distinct signals, hence disjoint
    // layout ranges. An elided in-partition commit reaches here only
    // when the partition's program did not absorb it (an `Op1::Commit`
    // makes the same two accesses inside `run_tier1_raw` or the native
    // body); either way the block's closing commits put the `out` slot
    // in the partition's write footprint and the `next` slot in its
    // read footprint, R0501 holds the tier-1 side — instructions plus
    // the commits it reports unabsorbed — to exactly that, R0504 admits
    // `out` as declared, and S0601 proves every reader of `out` this
    // cycle is ordered before this writer by the wait graph (S0604: and
    // cannot start the next cycle early), so neither range is
    // concurrently accessed. Serial-phase commits overlap only exempt
    // partitions, footprint-disjoint from everything the serial phase
    // touches (S0602).
    let (next, out) = unsafe {
        (
            std::slice::from_raw_parts(arena.add(next_off), words),
            std::slice::from_raw_parts_mut(arena.add(out_off), words),
        )
    };
    if next == out {
        false
    } else {
        out.copy_from_slice(next);
        true
    }
}

/// Raw memory-write execution: the one implementation behind
/// [`Machine::write_port`] and the parallel engine's serial phase, over
/// raw arena/bank pointers so the caller can hold no Rust borrows of the
/// machine.
///
/// # Safety
///
/// `arena` must be the machine's arena pointer, `port` resolved against
/// its layout, and `bank` the port's exclusively-accessed memory bank;
/// no other thread may touch either.
pub(crate) unsafe fn run_mem_write_raw(
    arena: *mut u64,
    bank: &mut MemBank,
    port: &MemWrite,
) -> bool {
    // SAFETY: one-word reads of the port's en/mask/addr slots; the
    // caller holds the only thread touching the arena (serial phase or
    // &mut Machine).
    let (en, mask) = unsafe {
        (
            *arena.add(port.en as usize) & 1 == 1,
            *arena.add(port.mask as usize) & 1 == 1,
        )
    };
    if !en || !mask {
        return false;
    }
    // SAFETY: as above.
    let addr = unsafe { *arena.add(port.addr as usize) } as usize;
    if addr >= bank.depth {
        return false;
    }
    // SAFETY: the data slot is a valid layout range, unaliased by the
    // exclusive `bank` borrow.
    let src = unsafe {
        std::slice::from_raw_parts(arena.add(port.data as usize), port.data_words as usize)
    };
    let width = bank.width;
    let entry = bank.entry_mut(addr);
    // Change detection against the adapted value.
    let mut scratch = [0u64; 8];
    let adapted: &mut [u64] = if entry.len() <= scratch.len() {
        &mut scratch[..entry.len()]
    } else {
        return {
            // Wide fallback (rare): allocate.
            let mut v = vec![0u64; entry.len()];
            kernels::extend(&mut v, width, src, port.data_width, port.data_signed);
            if entry != v.as_slice() {
                entry.copy_from_slice(&v);
                true
            } else {
                false
            }
        };
    };
    kernels::extend(adapted, width, src, port.data_width, port.data_signed);
    if entry != &*adapted {
        entry.copy_from_slice(adapted);
        true
    } else {
        false
    }
}

/// Reads the low word of an argument slot.
///
/// # Safety
///
/// `base` must be the machine's arena pointer and `arg.off` an
/// in-bounds slot no other thread concurrently writes — guaranteed for
/// partition evaluation by the slot's single writing partition (R0502,
/// plan-wide; R0504 keeps every write inside its partition's declared
/// range) being ordered before this read by a wait edge (S0601), and
/// for the sequential engines by `&mut Machine`.
#[inline]
unsafe fn read_u64(base: *mut u64, arg: &ArgRef) -> u64 {
    // SAFETY: forwarded from the function's contract.
    unsafe { *base.add(arg.off as usize) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_full;
    use crate::engine::EngineConfig;

    fn netlist_of(src: &str) -> Netlist {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        Netlist::from_circuit(&lowered).unwrap()
    }

    #[test]
    fn constants_materialize_in_arena() {
        let n = netlist_of(
            "circuit C :\n  module C :\n    output o : UInt<8>\n    o <= UInt<8>(\"hab\")\n",
        );
        let mut m = Machine::new(&n);
        let block = compile_full(&n, &m.layout.clone(), &EngineConfig::default());
        m.run_items(&block.items);
        assert_eq!(m.value(n.find("o").unwrap()).to_u64(), Some(0xab));
    }

    #[test]
    fn run_step_evaluates_adds() {
        let n = netlist_of("circuit A :\n  module A :\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<9>\n    o <= add(a, b)\n");
        let mut m = Machine::new(&n);
        m.set_value(n.find("a").unwrap(), &Bits::from_u64(200, 8));
        m.set_value(n.find("b").unwrap(), &Bits::from_u64(100, 8));
        let block = compile_full(&n, &m.layout.clone(), &EngineConfig::default());
        m.run_items(&block.items);
        assert_eq!(m.value(n.find("o").unwrap()).to_u64(), Some(300));
        assert!(m.counters.ops_evaluated >= 1);
    }

    #[test]
    fn commit_reg_detects_change() {
        let n = netlist_of("circuit R :\n  module R :\n    input clock : Clock\n    input d : UInt<4>\n    output q : UInt<4>\n    reg r : UInt<4>, clock\n    r <= d\n    q <= r\n");
        let mut m = Machine::new(&n);
        m.set_value(n.find("d").unwrap(), &Bits::from_u64(5, 4));
        let block = compile_full(&n, &m.layout.clone(), &EngineConfig::default());
        m.run_items(&block.items);
        assert!(m.commit_reg(0), "first commit changes 0 -> 5");
        assert!(!m.commit_reg(0), "second commit is idempotent");
        assert_eq!(m.value(n.find("r").unwrap()).to_u64(), Some(5));
    }

    /// A memory with one write port whose data signal can be re-declared
    /// to a width different from the bank's.
    fn write_port_netlist() -> Netlist {
        netlist_of(
            "circuit W :\n  module W :\n    input clock : Clock\n    input waddr : UInt<3>\n    input wdata : UInt<8>\n    input wen : UInt<1>\n    output o : UInt<8>\n    mem m :\n      data-type => UInt<8>\n      depth => 8\n      read-latency => 0\n      write-latency => 1\n      reader => r\n      writer => w\n    m.r.clk <= clock\n    m.r.en <= UInt<1>(1)\n    m.r.addr <= waddr\n    o <= m.r.data\n    m.w.clk <= clock\n    m.w.en <= wen\n    m.w.addr <= waddr\n    m.w.mask <= UInt<1>(1)\n    m.w.data <= wdata\n",
        )
    }

    fn drive_write(m: &mut Machine, port: &essent_netlist::WritePort, addr: u64) {
        m.set_value(port.addr, &Bits::from_u64(addr, 3));
        m.set_value(port.en, &Bits::from_u64(1, 1));
        m.set_value(port.mask, &Bits::from_u64(1, 1));
    }

    #[test]
    fn mem_write_zero_extends_narrow_unsigned_data() {
        let mut n = write_port_netlist();
        let port = n.mems()[0].writers[0].clone();
        // Narrow the data signal below the bank width (8), as the width
        // narrowing pass may after optimization.
        n.signal_mut(port.data).width = 4;
        let mut m = Machine::new(&n);
        drive_write(&mut m, &port, 2);
        m.set_value(port.data, &Bits::from_u64(0xb, 4));
        assert!(m.run_mem_write(0, 0), "first write changes the entry");
        assert_eq!(m.read_mem_backdoor("m", 2).to_u64(), Some(0x0b));
        assert!(
            !m.run_mem_write(0, 0),
            "re-writing the same value is a no-op"
        );
    }

    #[test]
    fn mem_write_sign_extends_narrow_signed_data() {
        let mut n = write_port_netlist();
        let port = n.mems()[0].writers[0].clone();
        {
            let s = n.signal_mut(port.data);
            s.width = 4;
            s.signed = true;
        }
        let mut m = Machine::new(&n);
        drive_write(&mut m, &port, 3);
        m.set_value(port.data, &Bits::from_u64(0xb, 4)); // -5 as SInt<4>
        assert!(m.run_mem_write(0, 0));
        assert_eq!(m.read_mem_backdoor("m", 3).to_u64(), Some(0xfb));
    }

    #[test]
    fn mem_write_truncates_wide_data() {
        let mut n = write_port_netlist();
        let port = n.mems()[0].writers[0].clone();
        n.signal_mut(port.data).width = 16;
        let mut m = Machine::new(&n);
        drive_write(&mut m, &port, 1);
        m.set_value(port.data, &Bits::from_u64(0x1ab, 16));
        assert!(m.run_mem_write(0, 0));
        assert_eq!(m.read_mem_backdoor("m", 1).to_u64(), Some(0xab));
        assert!(!m.run_mem_write(0, 0), "idempotent after truncation");
    }

    #[test]
    fn mem_backdoor_roundtrip() {
        let n = netlist_of("circuit M :\n  module M :\n    input clock : Clock\n    input addr : UInt<3>\n    output o : UInt<8>\n    mem m :\n      data-type => UInt<8>\n      depth => 8\n      read-latency => 0\n      write-latency => 1\n      reader => r\n    m.r.clk <= clock\n    m.r.en <= UInt<1>(1)\n    m.r.addr <= addr\n    o <= m.r.data\n");
        let mut m = Machine::new(&n);
        m.write_mem_backdoor("m", 5, &Bits::from_u64(99, 8));
        assert_eq!(m.read_mem_backdoor("m", 5).to_u64(), Some(99));
        m.set_value(n.find("addr").unwrap(), &Bits::from_u64(5, 3));
        let block = compile_full(&n, &m.layout.clone(), &EngineConfig::default());
        m.run_items(&block.items);
        assert_eq!(m.value(n.find("o").unwrap()).to_u64(), Some(99));
    }
}
