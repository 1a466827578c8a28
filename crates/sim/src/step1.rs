//! The word-specialized tier of the two-tier bytecode backend.
//!
//! After dataflow narrowing, the overwhelming majority of signals fit a
//! single `u64` word, yet the generic interpreter still dispatches every
//! step through width-generic multi-word kernels. This module lowers
//! every step whose operands and result are all single-word into a dense
//! one-word ISA ([`Inst1`]) with pre-resolved arena offsets, pre-computed
//! sign-extension shifts, and pre-computed result masks — no `Bits`
//! values, no slice bounds checks, no per-operand `Operand` construction
//! in the hot loop. Multi-word steps fall back to the generic path via
//! [`Op1::Generic`] so semantics are untouched.
//!
//! The lowering also *fuses* the CCSS tail sequence: when a lowered
//! instruction defines a partition output, the instruction carries the
//! output's consumer list, and the kernel performs
//! *evaluate → compare-against-previous-value → conditionally write and
//! wake consumers* in one dispatch. This is sound because a partition
//! output is written by exactly one instruction per evaluation (outputs
//! are never absorbed into conditional mux ways), so the arena value
//! *before* the write is exactly the value the generic engine snapshots
//! at partition entry.
//!
//! Conditional mux ways compile to a forward-jump diamond:
//!
//! ```text
//!     JmpIf0 sel -> L
//!     ...high way...
//!     Ext dst <- high      ; counts as the mux's one op
//!     Jmp -> E
//! L:  ...low way...
//!     Ext dst <- low
//! E:
//! ```
//!
//! All jumps are strictly forward, so every program trivially terminates —
//! a property `essent-verify` re-proves (`B0212`).

use crate::compile::{ArgRef, Block, DstRef, Item, Step, StepKind};
use crate::machine::{run_items_raw, MemBank, WorkCounters};
use essent_bits::top_mask;
use essent_netlist::{Netlist, OpKind, SignalId};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// One-word opcodes. Binary operations read `a` and `b`, unary ones read
/// `a`; `sxa`/`sxb`/`sxc` are sign-extension shift counts (`64 - width`
/// for signed operands, `0` for unsigned), `mask` clears bits at and
/// above the destination width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op1 {
    /// `dst = (sext(a) + sext(b)) & mask`
    Add,
    /// `dst = (sext(a) - sext(b)) & mask`
    Sub,
    /// `dst = (sext(a) * sext(b)) & mask`
    Mul,
    /// `dst = b == 0 ? 0 : a / b` (unsigned)
    DivU,
    /// Signed division via `i128` (truncating; `MIN / -1` cannot overflow)
    DivS,
    /// `dst = b == 0 ? a & mask : a % b` (unsigned)
    RemU,
    /// Signed remainder (sign of the dividend)
    RemS,
    /// `dst = a < b` (unsigned)
    LtU,
    /// `dst = sext(a) < sext(b)` (signed)
    LtS,
    /// `dst = a <= b` (unsigned)
    LeqU,
    /// `dst = sext(a) <= sext(b)` (signed)
    LeqS,
    /// `dst = sext(a) == sext(b)`
    Eq,
    /// `dst = sext(a) != sext(b)`
    Neq,
    /// `dst = sh >= dst_w ? 0 : (a << sh) & mask`; `sh = imm`, `dst_w = sxc`
    Shl,
    /// `dst = sh >= 64 ? 0 : (a >> sh) & mask`; `sh = imm`
    ShrU,
    /// `dst = (sext(a) >> min(sh, 63)) & mask`; `sh = imm`
    ShrS,
    /// Dynamic [`Op1::Shl`]: `sh` read from slot `b`
    Dshl,
    /// Dynamic [`Op1::ShrU`]: `sh` read from slot `b`
    DshrU,
    /// Dynamic [`Op1::ShrS`]: `sh` read from slot `b`
    DshrS,
    /// `dst = (-sext(a)) & mask`
    Neg,
    /// `dst = !sext(a) & mask`
    Not,
    /// `dst = (sext(a) & sext(b)) & mask`
    And,
    /// `dst = (sext(a) | sext(b)) & mask`
    Or,
    /// `dst = (sext(a) ^ sext(b)) & mask`
    Xor,
    /// `dst = a == imm` (`imm` = the operand's full-width mask)
    Andr,
    /// `dst = a != 0`
    Orr,
    /// `dst = popcount(a) & 1`
    Xorr,
    /// `dst = ((a << imm) | b) & mask` (`imm` = width of `b`)
    Cat,
    /// `dst = (a >> imm) & mask` (`imm` = the extract's low bit)
    Bits,
    /// `dst = sext(a) & mask` (copy / pad / reinterpret)
    Ext,
    /// `dst = (a & 1 ? sext(b) : sext(c)) & mask` (`sxb`/`sxc` per way)
    Mux,
    /// `dst = en && addr < depth ? mem[addr] : 0`; `a` = addr slot,
    /// `b` = en slot, `c` = bank index, `imm` = depth
    MemRead,
    /// Unconditional forward jump to instruction `a`
    Jmp,
    /// Jump to instruction `a` when `arena[b] & 1 == 0`
    JmpIf0,
    /// Fall back to the generic interpreter for item `generic[a]`
    Generic,
}

/// Sentinel for the fused-trigger range: "this instruction wakes nobody".
pub const NO_FUSE: u32 = u32::MAX;

/// One decoded instruction (fixed-size, cache-friendly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inst1 {
    pub op: Op1,
    /// Sign-extension shift for operand `a` (0 = unsigned / raw).
    pub sxa: u8,
    /// Sign-extension shift for operand `b` (Mux: the high way).
    pub sxb: u8,
    /// Sign-extension shift for operand `c` (Mux: the low way); shift
    /// opcodes reuse this slot for the destination width.
    pub sxc: u8,
    /// First operand arena offset; jump target for `Jmp`/`JmpIf0`;
    /// generic item index for `Generic`.
    pub a: u32,
    /// Second operand arena offset; selector slot for `JmpIf0`.
    pub b: u32,
    /// Third operand arena offset; bank index for `MemRead`.
    pub c: u32,
    /// Destination arena offset.
    pub dst: u32,
    /// Static parameter (shift amount, extract low bit, cat low width,
    /// and-reduce mask, memory depth).
    pub imm: u64,
    /// Result mask: `top_mask(dst_width)`.
    pub mask: u64,
    /// Fused-trigger consumer range `[ws..we)` into
    /// [`Tier1Program::consumers`]; [`NO_FUSE`] when unfused.
    pub ws: u32,
    pub we: u32,
}

/// A partition output eligible for trigger fusion.
#[derive(Debug, Clone)]
pub struct OutSpec {
    pub sig: SignalId,
    /// Scheduled indices of the partitions reading this output.
    pub consumers: Vec<u32>,
}

/// Tier coverage statistics for one lowered block.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierStats {
    /// Steps in the source block (counting nested mux ways).
    pub total_steps: usize,
    /// Steps lowered into the one-word tier.
    pub tier1_steps: usize,
    /// Partition outputs with fused trigger writes.
    pub fused_outputs: usize,
    /// Partition outputs overall.
    pub total_outputs: usize,
}

impl TierStats {
    /// Component-wise sum (whole-design aggregation).
    pub fn merged(&self, other: &TierStats) -> TierStats {
        TierStats {
            total_steps: self.total_steps + other.total_steps,
            tier1_steps: self.tier1_steps + other.tier1_steps,
            fused_outputs: self.fused_outputs + other.fused_outputs,
            total_outputs: self.total_outputs + other.total_outputs,
        }
    }

    /// Fraction of steps executing in the one-word tier.
    pub fn coverage(&self) -> f64 {
        if self.total_steps == 0 {
            1.0
        } else {
            self.tier1_steps as f64 / self.total_steps as f64
        }
    }
}

/// A lowered block: the specialized instruction stream plus the generic
/// items it falls back to.
#[derive(Debug, Clone)]
pub struct Tier1Program {
    pub code: Vec<Inst1>,
    /// Defined signal per instruction (`u32::MAX` for `Jmp`/`JmpIf0`);
    /// diagnostics and verification only.
    pub sigs: Vec<u32>,
    /// Fallback items referenced by [`Op1::Generic`].
    pub generic: Vec<Item>,
    /// Flattened fused-trigger consumer lists.
    pub consumers: Vec<u32>,
    /// Indices into the `outs` passed to [`lower_tier1`] whose triggers
    /// were *not* fused (the engine must keep snapshot-compare for them).
    pub unfused: Vec<usize>,
    pub stats: TierStats,
}

/// Where fused trigger writes land. The sequential engine passes interior-
/// mutable flag cells, the parallel engine atomics, and the full-cycle
/// engine (no triggers) a sink that ignores wakes.
pub trait FlagSink {
    fn wake(&self, consumer: u32);
}

/// No-op sink for engines without activity flags.
pub struct NoWake;

impl FlagSink for NoWake {
    #[inline(always)]
    fn wake(&self, _consumer: u32) {}
}

/// Single-threaded flag writes through `Cell`s.
pub struct CellFlags<'a>(pub &'a [Cell<bool>]);

impl FlagSink for CellFlags<'_> {
    #[inline(always)]
    fn wake(&self, consumer: u32) {
        self.0[consumer as usize].set(true);
    }
}

/// Cross-thread flag writes with relaxed atomics (the flags are only
/// consumed at the next level/cycle boundary, which synchronizes).
pub struct AtomicFlags<'a>(pub &'a [AtomicBool]);

impl FlagSink for AtomicFlags<'_> {
    #[inline(always)]
    fn wake(&self, consumer: u32) {
        self.0[consumer as usize].store(true, Ordering::Relaxed);
    }
}

/// [`CellFlags`] plus wake attribution: charges each fused wake to the
/// producing partition (`caused`) and the woken consumer (`woke`). The
/// enabled arm of the profiler's monomorphized tier dispatch.
pub struct ProfCellFlags<'a> {
    pub flags: &'a [Cell<bool>],
    pub caused: &'a Cell<u64>,
    pub woke: &'a [Cell<u64>],
}

impl FlagSink for ProfCellFlags<'_> {
    #[inline(always)]
    fn wake(&self, consumer: u32) {
        self.flags[consumer as usize].set(true);
        self.caused.set(self.caused.get() + 1);
        let w = &self.woke[consumer as usize];
        w.set(w.get() + 1);
    }
}

/// [`AtomicFlags`] plus wake attribution, for the parallel engine's
/// profiled tier path.
pub struct ProfAtomicFlags<'a> {
    pub flags: &'a [AtomicBool],
    pub caused: &'a std::sync::atomic::AtomicU64,
    pub woke: &'a [std::sync::atomic::AtomicU64],
}

impl FlagSink for ProfAtomicFlags<'_> {
    #[inline(always)]
    fn wake(&self, consumer: u32) {
        self.flags[consumer as usize].store(true, Ordering::Relaxed);
        self.caused.fetch_add(1, Ordering::Relaxed);
        self.woke[consumer as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Sign-extension shift for an operand reference (0 when unsigned).
#[inline]
fn sx_of(width: u32, signed: bool) -> u8 {
    if signed {
        (64 - width) as u8
    } else {
        0
    }
}

/// A reference the one-word tier can load directly: exactly one arena
/// word holding a 1..=64-bit value (zero-width signals keep the generic
/// path — their `64 - width` shift would be undefined).
#[inline]
fn one_word(r: &ArgRef) -> bool {
    r.words == 1 && r.width >= 1
}

#[inline]
fn one_word_dst(r: &DstRef) -> bool {
    r.words == 1 && r.width >= 1
}

/// Lowers a single step into a one-word instruction; `None` when any
/// operand or the result needs the generic path.
fn lower_step(netlist: &Netlist, step: &Step) -> Option<Inst1> {
    if !one_word_dst(&step.dst) || !step.args.iter().all(one_word) {
        return None;
    }
    let mask = top_mask(step.dst.width);
    let mut inst = Inst1 {
        op: Op1::Ext,
        sxa: 0,
        sxb: 0,
        sxc: 0,
        a: 0,
        b: 0,
        c: 0,
        dst: step.dst.off,
        imm: 0,
        mask,
        ws: NO_FUSE,
        we: NO_FUSE,
    };
    match &step.kind {
        StepKind::MemRead { mem, .. } => {
            let bank = &netlist.mems()[*mem as usize];
            if essent_bits::words(bank.width) != 1 {
                return None;
            }
            inst.op = Op1::MemRead;
            inst.a = step.args[0].off; // addr
            inst.b = step.args[1].off; // en
            inst.c = *mem;
            inst.imm = bank.depth as u64;
            // The generic path copies the raw entry without re-masking.
            inst.mask = u64::MAX;
        }
        StepKind::Op(kind) => {
            use OpKind::*;
            let a = &step.args[0];
            // Binary ops share the first operand's signedness (the
            // builder guarantees matching operand types).
            let s = a.signed;
            let set_ab = |inst: &mut Inst1, x: &ArgRef, y: &ArgRef, signed: bool| {
                inst.a = x.off;
                inst.b = y.off;
                inst.sxa = sx_of(x.width, signed);
                inst.sxb = sx_of(y.width, signed);
            };
            match kind {
                Add | Sub | Mul | Div | Rem | And | Or | Xor | Eq | Neq | Lt | Leq => {
                    set_ab(&mut inst, a, &step.args[1], s);
                    inst.op = match (kind, s) {
                        (Add, _) => Op1::Add,
                        (Sub, _) => Op1::Sub,
                        (Mul, _) => Op1::Mul,
                        (Div, false) => Op1::DivU,
                        (Div, true) => Op1::DivS,
                        (Rem, false) => Op1::RemU,
                        (Rem, true) => Op1::RemS,
                        (And, _) => Op1::And,
                        (Or, _) => Op1::Or,
                        (Xor, _) => Op1::Xor,
                        (Eq, _) => Op1::Eq,
                        (Neq, _) => Op1::Neq,
                        (Lt, false) => Op1::LtU,
                        (Lt, true) => Op1::LtS,
                        (Leq, false) => Op1::LeqU,
                        (Leq, true) => Op1::LeqS,
                        _ => unreachable!(),
                    };
                }
                Gt | Geq => {
                    // a > b  <=>  b < a (swap operands, keep the shared
                    // signedness of the *original* first operand).
                    set_ab(&mut inst, &step.args[1], a, s);
                    inst.op = match (kind, s) {
                        (Gt, false) => Op1::LtU,
                        (Gt, true) => Op1::LtS,
                        (Geq, false) => Op1::LeqU,
                        (Geq, true) => Op1::LeqS,
                        _ => unreachable!(),
                    };
                }
                Shl => {
                    inst.op = Op1::Shl;
                    inst.a = a.off;
                    inst.imm = step.params[0];
                    inst.sxc = step.dst.width as u8;
                }
                Shr => {
                    inst.op = if s { Op1::ShrS } else { Op1::ShrU };
                    inst.a = a.off;
                    inst.sxa = sx_of(a.width, s);
                    inst.imm = step.params[0];
                }
                Dshl => {
                    inst.op = Op1::Dshl;
                    inst.a = a.off;
                    inst.b = step.args[1].off;
                    inst.sxc = step.dst.width as u8;
                }
                Dshr => {
                    inst.op = if s { Op1::DshrS } else { Op1::DshrU };
                    inst.a = a.off;
                    inst.b = step.args[1].off;
                    inst.sxa = sx_of(a.width, s);
                }
                Neg => {
                    inst.op = Op1::Neg;
                    inst.a = a.off;
                    inst.sxa = sx_of(a.width, s);
                }
                Not => {
                    inst.op = Op1::Not;
                    inst.a = a.off;
                    inst.sxa = sx_of(a.width, s);
                }
                Andr => {
                    inst.op = Op1::Andr;
                    inst.a = a.off;
                    inst.imm = top_mask(a.width);
                }
                Orr => {
                    inst.op = Op1::Orr;
                    inst.a = a.off;
                }
                Xorr => {
                    inst.op = Op1::Xorr;
                    inst.a = a.off;
                }
                Cat => {
                    let b = &step.args[1];
                    debug_assert_eq!(step.dst.width, a.width + b.width);
                    inst.op = Op1::Cat;
                    inst.a = a.off;
                    inst.b = b.off;
                    inst.imm = b.width as u64;
                }
                Bits => {
                    inst.op = Op1::Bits;
                    inst.a = a.off;
                    inst.imm = step.params[1];
                }
                Mux => {
                    let (high, low) = (&step.args[1], &step.args[2]);
                    inst.op = Op1::Mux;
                    inst.a = a.off;
                    inst.b = high.off;
                    inst.c = low.off;
                    // The generic mux extends the *picked way* by that
                    // way's own signedness.
                    inst.sxb = sx_of(high.width, high.signed);
                    inst.sxc = sx_of(low.width, low.signed);
                }
                Copy => {
                    inst.op = Op1::Ext;
                    inst.a = a.off;
                    inst.sxa = sx_of(a.width, a.signed);
                }
            }
        }
    }
    Some(inst)
}

struct Lowerer<'a> {
    netlist: &'a Netlist,
    fuse: bool,
    code: Vec<Inst1>,
    sigs: Vec<u32>,
    generic: Vec<Item>,
    consumers: Vec<u32>,
    out_index: HashMap<SignalId, usize>,
    fuse_range: HashMap<SignalId, (u32, u32)>,
    fused: Vec<bool>,
}

impl Lowerer<'_> {
    /// Attaches the fused consumer range when `sig` is a fusable output;
    /// both arms of a mux diamond reuse the same range.
    fn attach_fuse(&mut self, inst: &mut Inst1, sig: SignalId, outs: &[OutSpec]) {
        if !self.fuse {
            return;
        }
        let Some(&oi) = self.out_index.get(&sig) else {
            return;
        };
        let (ws, we) = *self.fuse_range.entry(sig).or_insert_with(|| {
            let ws = self.consumers.len() as u32;
            self.consumers.extend(outs[oi].consumers.iter().copied());
            (ws, self.consumers.len() as u32)
        });
        inst.ws = ws;
        inst.we = we;
        self.fused[oi] = true;
    }

    fn push(&mut self, inst: Inst1, sig: Option<SignalId>) -> usize {
        let at = self.code.len();
        self.code.push(inst);
        self.sigs.push(sig.map_or(u32::MAX, |s| s.0));
        at
    }

    fn emit_generic(&mut self, item: &Item, sig: SignalId) {
        let idx = self.generic.len() as u32;
        self.generic.push(item.clone());
        let inst = Inst1 {
            op: Op1::Generic,
            sxa: 0,
            sxb: 0,
            sxc: 0,
            a: idx,
            b: 0,
            c: 0,
            dst: 0,
            imm: 0,
            mask: 0,
            ws: NO_FUSE,
            we: NO_FUSE,
        };
        self.push(inst, Some(sig));
    }

    fn emit_items(&mut self, items: &[Item], outs: &[OutSpec]) {
        for item in items {
            match item {
                Item::Step(step) => match lower_step(self.netlist, step) {
                    Some(mut inst) => {
                        self.attach_fuse(&mut inst, step.sig, outs);
                        self.push(inst, Some(step.sig));
                    }
                    None => self.emit_generic(item, step.sig),
                },
                Item::CondMux {
                    sel,
                    dst,
                    high_items,
                    high,
                    low_items,
                    low,
                    sig,
                } => {
                    if !one_word(sel) || !one_word_dst(dst) || !one_word(high) || !one_word(low) {
                        self.emit_generic(item, *sig);
                        continue;
                    }
                    let blank = Inst1 {
                        op: Op1::JmpIf0,
                        sxa: 0,
                        sxb: 0,
                        sxc: 0,
                        a: 0,
                        b: sel.off,
                        c: 0,
                        dst: 0,
                        imm: 0,
                        mask: 0,
                        ws: NO_FUSE,
                        we: NO_FUSE,
                    };
                    let jif = self.push(blank, None);
                    self.emit_items(high_items, outs);
                    let mut ext_hi = Inst1 {
                        op: Op1::Ext,
                        sxa: sx_of(high.width, high.signed),
                        a: high.off,
                        b: 0,
                        dst: dst.off,
                        mask: top_mask(dst.width),
                        ..blank
                    };
                    self.attach_fuse(&mut ext_hi, *sig, outs);
                    self.push(ext_hi, Some(*sig));
                    let jmp = self.push(
                        Inst1 {
                            op: Op1::Jmp,
                            b: 0,
                            ..blank
                        },
                        None,
                    );
                    self.code[jif].a = self.code.len() as u32;
                    self.emit_items(low_items, outs);
                    let mut ext_lo = Inst1 {
                        op: Op1::Ext,
                        sxa: sx_of(low.width, low.signed),
                        a: low.off,
                        b: 0,
                        dst: dst.off,
                        mask: top_mask(dst.width),
                        ..blank
                    };
                    self.attach_fuse(&mut ext_lo, *sig, outs);
                    self.push(ext_lo, Some(*sig));
                    self.code[jmp].a = self.code.len() as u32;
                }
            }
        }
    }
}

/// Lowers a compiled block into a [`Tier1Program`].
///
/// `outs` lists the block's partition outputs with their trigger
/// consumers; when `fuse` is set, outputs defined by specialized
/// instructions get fused compare-and-wake tails (the rest are reported
/// via [`Tier1Program::unfused`] and must keep the engine's
/// snapshot-compare path). Pass an empty `outs` / `fuse = false` for
/// engines without triggers.
pub fn lower_tier1(netlist: &Netlist, block: &Block, outs: &[OutSpec], fuse: bool) -> Tier1Program {
    let mut low = Lowerer {
        netlist,
        fuse,
        code: Vec::new(),
        sigs: Vec::new(),
        generic: Vec::new(),
        consumers: Vec::new(),
        out_index: outs.iter().enumerate().map(|(i, o)| (o.sig, i)).collect(),
        fuse_range: HashMap::new(),
        fused: vec![false; outs.len()],
    };
    low.emit_items(&block.items, outs);
    let total_steps: usize = block.items.iter().map(Item::step_count).sum();
    let generic_steps: usize = low.generic.iter().map(Item::step_count).sum();
    let unfused: Vec<usize> = low
        .fused
        .iter()
        .enumerate()
        .filter(|(_, &f)| !f)
        .map(|(i, _)| i)
        .collect();
    let stats = TierStats {
        total_steps,
        tier1_steps: total_steps - generic_steps,
        fused_outputs: outs.len() - unfused.len(),
        total_outputs: outs.len(),
    };
    Tier1Program {
        code: low.code,
        sigs: low.sigs,
        generic: low.generic,
        consumers: low.consumers,
        unfused,
        stats,
    }
}

/// Sign-extends a normalized one-word value by shift `s` (0 = identity).
#[inline(always)]
fn sext(v: u64, s: u8) -> u64 {
    (((v << s) as i64) >> s) as u64
}

/// Arena word footprint of one generic-fallback [`Item`]: the batched
/// engine gathers these strided words into a scalar scratch arena, runs
/// the item through [`run_items_raw`] per lane, and scatters the writes
/// back. Writes are gathered too: a `CondMux` way not taken this cycle
/// leaves its destination untouched, and the scatter must not smear a
/// stale scratch word over a live lane value.
#[derive(Debug, Clone, Default)]
pub struct ItemRw {
    /// `(offset, words)` ranges the item may read.
    pub reads: Vec<(u32, u16)>,
    /// `(offset, words)` ranges the item may write.
    pub writes: Vec<(u32, u16)>,
}

impl ItemRw {
    /// Accumulates `item`'s accesses (recursing into mux ways).
    pub fn absorb(&mut self, item: &Item) {
        match item {
            Item::Step(step) => {
                for a in &step.args {
                    self.reads.push((a.off, a.words));
                }
                self.writes.push((step.dst.off, step.dst.words));
            }
            Item::CondMux {
                sel,
                dst,
                high_items,
                high,
                low_items,
                low,
                ..
            } => {
                self.reads.push((sel.off, sel.words));
                self.reads.push((high.off, high.words));
                self.reads.push((low.off, low.words));
                self.writes.push((dst.off, dst.words));
                for it in high_items.iter().chain(low_items.iter()) {
                    self.absorb(it);
                }
            }
        }
    }
}

/// The word footprint of a single item (see [`ItemRw`]).
pub fn item_rw(item: &Item) -> ItemRw {
    let mut rw = ItemRw::default();
    rw.absorb(item);
    rw
}

/// Executes a lowered program over every lane in `eval_mask` of an
/// N-lane batched arena (word-major SoA: word `w` of lane `l` lives at
/// `w * lanes + l`, so one instruction's operand values for all lanes
/// are contiguous and the dense lane loops auto-vectorize; hot
/// unsigned ALU/mux ops additionally take an explicit AVX2 path when
/// the host supports it).
///
/// Control-flow divergence uses per-lane resume points: lane `l`
/// executes instruction `pc` iff `resume[l] <= pc`, which is sound
/// because every jump is strictly forward (re-proven by `B0212`) — a
/// diverged lane simply waits for `pc` to reach its target, and
/// `next_join`, the nearest pending target, is the only pc where the
/// active mask can grow back.
///
/// Work accounting per lane matches [`run_tier1_raw`] exactly: one
/// `ops_evaluated` per value-producing instruction a lane executes
/// (jumps free, the taken `Ext` stands in for a mux diamond), one
/// `dynamic_checks` per fused trigger compare. Fused trigger wakes set
/// the lane's bit in the consumers' wake masks.
///
/// # Safety
///
/// `arena` must point at the batched strided arena sized
/// `layout.total_words() * lanes` for the layout `prog` was lowered
/// from, with no concurrent access; `scratch` must be a scalar arena of
/// `layout.total_words()` words; `generic_rw` must parallel
/// `prog.generic`; `lane_mems` and `counters` must have at least
/// `lanes` entries; `eval_mask` must be non-zero with no bit at or
/// above `lanes`, and `lanes` in `1..=64`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn run_tier1_lanes(
    prog: &Tier1Program,
    generic_rw: &[ItemRw],
    arena: *mut u64,
    lanes: usize,
    eval_mask: u64,
    lane_mems: &[Vec<MemBank>],
    scratch: &mut [u64],
    flags: &[Cell<u64>],
    counters: &mut [WorkCounters],
) {
    debug_assert!(eval_mask != 0 && (1..=64).contains(&lanes));
    let code = prog.code.as_slice();
    // SAFETY (both closures): `off` is an in-bounds layout slot — the
    // same B0210/R05xx-audited offsets `run_tier1_raw` dereferences —
    // and `lane < lanes`, so `off * lanes + lane` stays inside the
    // strided arena; the caller holds exclusive arena access.
    let ld = move |off: u32, lane: usize| -> u64 {
        // SAFETY: see above.
        unsafe { *arena.add(off as usize * lanes + lane) }
    };
    let st = move |off: u32, lane: usize, v: u64| {
        // SAFETY: see above.
        unsafe { *arena.add(off as usize * lanes + lane) = v }
    };

    #[cfg(target_arch = "x86_64")]
    let avx2 = lanes >= 4 && std::arch::is_x86_feature_detected!("avx2");

    let mut resume = [0u32; 64];
    let mut active = eval_mask;
    let mut next_join = u32::MAX;
    // Specialized instructions executed since the active mask last
    // changed; each is worth one `ops_evaluated` for every active lane.
    let mut seg: u64 = 0;

    macro_rules! flush_seg {
        () => {
            if seg != 0 {
                let mut m = active;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    counters[l].ops_evaluated += seg;
                }
                // The final flush's reset is dead by construction; kept
                // so every flush leaves the counter consistent.
                #[allow(unused_assignments)]
                {
                    seg = 0;
                }
            }
        };
    }

    /// Dense-prefix-aware lane loop with the fused-tail branch: the
    /// plain store path runs a contiguous `0..n` loop whenever the
    /// active lanes form a prefix (the shape compaction maintains).
    macro_rules! lanes_op {
        ($inst:expr, |$l:ident| $val:expr) => {{
            seg += 1;
            if $inst.ws == NO_FUSE {
                if active & active.wrapping_add(1) == 0 {
                    let n = active.count_ones() as usize;
                    for $l in 0..n {
                        let v = $val;
                        st($inst.dst, $l, v & $inst.mask);
                    }
                } else {
                    let mut m = active;
                    while m != 0 {
                        let $l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let v = $val;
                        st($inst.dst, $l, v & $inst.mask);
                    }
                }
            } else {
                // Fused CCSS tail, per lane: the pre-write slot value is
                // last cycle's output, so the compare is exactly the
                // engine's snapshot compare; wakes set the lane's bit.
                let mut m = active;
                while m != 0 {
                    let $l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let v = ($val) & $inst.mask;
                    counters[$l].dynamic_checks += 1;
                    if ld($inst.dst, $l) != v {
                        st($inst.dst, $l, v);
                        for &c in &prog.consumers[$inst.ws as usize..$inst.we as usize] {
                            let f = &flags[c as usize];
                            f.set(f.get() | (1u64 << $l));
                        }
                    }
                }
            }
        }};
    }

    let mut pc = 0usize;
    while pc < code.len() {
        if pc as u32 == next_join {
            // Reconvergence: rejoin every waiting lane whose resume pc
            // has arrived.
            flush_seg!();
            active = 0;
            next_join = u32::MAX;
            let mut m = eval_mask;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                if resume[l] <= pc as u32 {
                    active |= 1 << l;
                } else {
                    next_join = next_join.min(resume[l]);
                }
            }
        }
        // SAFETY: the loop condition bounds `pc` on every iteration,
        // including after jump fast-forwards.
        let inst = unsafe { code.get_unchecked(pc) };
        pc += 1;

        match inst.op {
            Op1::Jmp => {
                flush_seg!();
                let mut m = active;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    resume[l] = inst.a;
                }
                next_join = next_join.min(inst.a);
                active = 0;
                // Every lane is waiting; skip straight to the nearest
                // resume point.
                pc = next_join as usize;
                continue;
            }
            Op1::JmpIf0 => {
                let mut taken = 0u64;
                let mut m = active;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if ld(inst.b, l) & 1 == 0 {
                        taken |= 1 << l;
                        resume[l] = inst.a;
                    }
                }
                if taken != 0 {
                    flush_seg!();
                    active &= !taken;
                    next_join = next_join.min(inst.a);
                    if active == 0 {
                        pc = next_join as usize;
                    }
                }
                continue;
            }
            Op1::Generic => {
                // Gather → scalar interpreter → scatter, per lane. The
                // gather covers writes too: a mux way not taken leaves
                // its destination untouched, and the scatter must not
                // smear a stale scratch word over a live lane value.
                let item = &prog.generic[inst.a as usize];
                let rw = &generic_rw[inst.a as usize];
                let sp = scratch.as_mut_ptr();
                let mut m = active;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    for &(off, w) in rw.reads.iter().chain(rw.writes.iter()) {
                        for k in 0..w as u32 {
                            // SAFETY: `off + k` is an in-bounds layout
                            // slot (B02xx), hence inside the
                            // `total_words`-sized scratch.
                            unsafe { *sp.add((off + k) as usize) = ld(off + k, lane) };
                        }
                    }
                    // SAFETY: `scratch` is an exclusively-borrowed
                    // scalar arena covering the layout; every word the
                    // item touches was just gathered, and `inst.a`
                    // indexes `prog.generic` by construction (B0210).
                    unsafe {
                        run_items_raw(
                            std::slice::from_ref(item),
                            sp,
                            &lane_mems[lane],
                            &mut counters[lane].ops_evaluated,
                        );
                    }
                    for &(off, w) in &rw.writes {
                        for k in 0..w as u32 {
                            // SAFETY: in-bounds as above.
                            st(off + k, lane, unsafe { *sp.add((off + k) as usize) });
                        }
                    }
                }
                continue;
            }
            _ => {}
        }

        #[cfg(target_arch = "x86_64")]
        if avx2 && inst.ws == NO_FUSE && active & active.wrapping_add(1) == 0 {
            let n = active.count_ones() as usize;
            if n >= 4 {
                // SAFETY: AVX2 detected above; `inst` offsets and the
                // strided arena satisfy this function's contract, and
                // `n <= lanes` because `active ⊆ eval_mask`.
                if unsafe { lanes_simd::dispatch(inst, arena, lanes, n) } {
                    seg += 1;
                    continue;
                }
            }
        }

        match inst.op {
            Op1::Add => {
                lanes_op!(inst, |l| sext(ld(inst.a, l), inst.sxa)
                    .wrapping_add(sext(ld(inst.b, l), inst.sxb)))
            }
            Op1::Sub => {
                lanes_op!(inst, |l| sext(ld(inst.a, l), inst.sxa)
                    .wrapping_sub(sext(ld(inst.b, l), inst.sxb)))
            }
            Op1::Mul => {
                lanes_op!(inst, |l| sext(ld(inst.a, l), inst.sxa)
                    .wrapping_mul(sext(ld(inst.b, l), inst.sxb)))
            }
            Op1::DivU => lanes_op!(inst, |l| ld(inst.a, l)
                .checked_div(ld(inst.b, l))
                .unwrap_or(0)),
            Op1::DivS => lanes_op!(inst, |l| {
                let b = ld(inst.b, l);
                if b == 0 {
                    0
                } else {
                    let x = sext(ld(inst.a, l), inst.sxa) as i64 as i128;
                    let y = sext(b, inst.sxb) as i64 as i128;
                    (x / y) as u64
                }
            }),
            Op1::RemU => lanes_op!(inst, |l| {
                let a = ld(inst.a, l);
                a.checked_rem(ld(inst.b, l)).unwrap_or(a)
            }),
            Op1::RemS => lanes_op!(inst, |l| {
                let b = ld(inst.b, l);
                if b == 0 {
                    sext(ld(inst.a, l), inst.sxa)
                } else {
                    let x = sext(ld(inst.a, l), inst.sxa) as i64 as i128;
                    let y = sext(b, inst.sxb) as i64 as i128;
                    (x % y) as u64
                }
            }),
            Op1::LtU => lanes_op!(inst, |l| (ld(inst.a, l) < ld(inst.b, l)) as u64),
            Op1::LtS => lanes_op!(inst, |l| ((sext(ld(inst.a, l), inst.sxa) as i64)
                < (sext(ld(inst.b, l), inst.sxb) as i64))
                as u64),
            Op1::LeqU => lanes_op!(inst, |l| (ld(inst.a, l) <= ld(inst.b, l)) as u64),
            Op1::LeqS => lanes_op!(inst, |l| ((sext(ld(inst.a, l), inst.sxa) as i64)
                <= (sext(ld(inst.b, l), inst.sxb) as i64))
                as u64),
            Op1::Eq => {
                lanes_op!(
                    inst,
                    |l| (sext(ld(inst.a, l), inst.sxa) == sext(ld(inst.b, l), inst.sxb)) as u64
                )
            }
            Op1::Neq => {
                lanes_op!(
                    inst,
                    |l| (sext(ld(inst.a, l), inst.sxa) != sext(ld(inst.b, l), inst.sxb)) as u64
                )
            }
            Op1::Shl => lanes_op!(inst, |l| {
                if inst.imm >= inst.sxc as u64 {
                    0
                } else {
                    ld(inst.a, l) << inst.imm
                }
            }),
            Op1::ShrU => lanes_op!(inst, |l| {
                if inst.imm >= 64 {
                    0
                } else {
                    ld(inst.a, l) >> inst.imm
                }
            }),
            Op1::ShrS => lanes_op!(inst, |l| {
                let sh = inst.imm.min(63);
                ((sext(ld(inst.a, l), inst.sxa) as i64) >> sh) as u64
            }),
            Op1::Dshl => lanes_op!(inst, |l| {
                let sh = ld(inst.b, l);
                if sh >= inst.sxc as u64 {
                    0
                } else {
                    ld(inst.a, l) << sh
                }
            }),
            Op1::DshrU => lanes_op!(inst, |l| {
                let sh = ld(inst.b, l);
                if sh >= 64 {
                    0
                } else {
                    ld(inst.a, l) >> sh
                }
            }),
            Op1::DshrS => lanes_op!(inst, |l| {
                let sh = ld(inst.b, l).min(63);
                ((sext(ld(inst.a, l), inst.sxa) as i64) >> sh) as u64
            }),
            Op1::Neg => lanes_op!(inst, |l| sext(ld(inst.a, l), inst.sxa).wrapping_neg()),
            Op1::Not => lanes_op!(inst, |l| !sext(ld(inst.a, l), inst.sxa)),
            Op1::And => {
                lanes_op!(inst, |l| sext(ld(inst.a, l), inst.sxa)
                    & sext(ld(inst.b, l), inst.sxb))
            }
            Op1::Or => {
                lanes_op!(inst, |l| sext(ld(inst.a, l), inst.sxa)
                    | sext(ld(inst.b, l), inst.sxb))
            }
            Op1::Xor => {
                lanes_op!(inst, |l| sext(ld(inst.a, l), inst.sxa)
                    ^ sext(ld(inst.b, l), inst.sxb))
            }
            Op1::Andr => lanes_op!(inst, |l| (ld(inst.a, l) == inst.imm) as u64),
            Op1::Orr => lanes_op!(inst, |l| (ld(inst.a, l) != 0) as u64),
            Op1::Xorr => lanes_op!(inst, |l| (ld(inst.a, l).count_ones() & 1) as u64),
            Op1::Cat => lanes_op!(inst, |l| (ld(inst.a, l) << inst.imm) | ld(inst.b, l)),
            Op1::Bits => lanes_op!(inst, |l| ld(inst.a, l) >> inst.imm),
            Op1::Ext => lanes_op!(inst, |l| sext(ld(inst.a, l), inst.sxa)),
            Op1::Mux => lanes_op!(inst, |l| {
                if ld(inst.a, l) & 1 == 1 {
                    sext(ld(inst.b, l), inst.sxb)
                } else {
                    sext(ld(inst.c, l), inst.sxc)
                }
            }),
            Op1::MemRead => lanes_op!(inst, |l| {
                let bank = &lane_mems[l][inst.c as usize];
                let addr = ld(inst.a, l);
                if ld(inst.b, l) & 1 == 1 && addr < inst.imm {
                    bank.data[addr as usize]
                } else {
                    0
                }
            }),
            // Handled above.
            Op1::Jmp | Op1::JmpIf0 | Op1::Generic => unreachable!(),
        }
    }
    flush_seg!();
}

/// AVX2 lane kernels for the hot unsigned single-word ops: four lanes
/// per vector over the contiguous per-word lane stripes of the batched
/// arena. Anything signed, fused, or exotic falls back to the scalar
/// lane loop (which the compiler auto-vectorizes anyway — this path
/// pins the vector shape for the ops that dominate ALU-heavy designs).
#[cfg(target_arch = "x86_64")]
mod lanes_simd {
    use super::{Inst1, Op1};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Evaluates `inst` across dense lanes `0..n`; returns `false` when
    /// the op/operand shape has no vector form (caller falls back to
    /// the scalar lane loop, which must then execute the instruction).
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2 is available, `arena` is the exclusively
    /// accessed strided batch arena, `inst` carries in-bounds layout
    /// offsets, and `n <= lanes`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dispatch(inst: &Inst1, arena: *mut u64, lanes: usize, n: usize) -> bool {
        // SAFETY: `off * lanes .. off * lanes + n` is inside the strided
        // arena for every operand offset (caller contract); unaligned
        // vector loads/stores are used throughout.
        unsafe {
            let pa = arena.add(inst.a as usize * lanes).cast_const();
            let pb = arena.add(inst.b as usize * lanes).cast_const();
            let pc_ = arena.add(inst.c as usize * lanes).cast_const();
            let pd = arena.add(inst.dst as usize * lanes);
            let vmask = _mm256_set1_epi64x(inst.mask as i64);
            let mut i = 0usize;
            macro_rules! bin {
                ($f:ident, $scalar:expr) => {{
                    if inst.sxa != 0 || inst.sxb != 0 {
                        return false;
                    }
                    while i + 4 <= n {
                        let va = _mm256_loadu_si256(pa.add(i).cast());
                        let vb = _mm256_loadu_si256(pb.add(i).cast());
                        let v = _mm256_and_si256($f(va, vb), vmask);
                        _mm256_storeu_si256(pd.add(i).cast(), v);
                        i += 4;
                    }
                    while i < n {
                        let f: fn(u64, u64) -> u64 = $scalar;
                        *pd.add(i) = f(*pa.add(i), *pb.add(i)) & inst.mask;
                        i += 1;
                    }
                }};
            }
            // 0/1 predicate results from a lane-wide compare mask.
            macro_rules! pred {
                (|$va:ident, $vb:ident| $vec:expr, |$a:ident, $b:ident| $scalar:expr) => {{
                    if inst.sxa != 0 || inst.sxb != 0 {
                        return false;
                    }
                    let one = _mm256_set1_epi64x(1);
                    while i + 4 <= n {
                        let $va = _mm256_loadu_si256(pa.add(i).cast());
                        let $vb = _mm256_loadu_si256(pb.add(i).cast());
                        let full: __m256i = $vec;
                        _mm256_storeu_si256(pd.add(i).cast(), _mm256_and_si256(full, one));
                        i += 4;
                    }
                    while i < n {
                        let $a = *pa.add(i);
                        let $b = *pb.add(i);
                        *pd.add(i) = ($scalar) as u64;
                        i += 1;
                    }
                }};
            }
            // Uniform-count shifts: the count comes from the instruction,
            // not the lanes, so the `_mm256_sll/srl_epi64` forms (count in
            // the low xmm lane) apply. Callers guard `count < 64`.
            let vcount = |c: u64| _mm_cvtsi64_si128(c as i64);
            match inst.op {
                Op1::Add => bin!(_mm256_add_epi64, u64::wrapping_add),
                Op1::Sub => bin!(_mm256_sub_epi64, u64::wrapping_sub),
                Op1::And => bin!(_mm256_and_si256, |a, b| a & b),
                Op1::Or => bin!(_mm256_or_si256, |a, b| a | b),
                Op1::Xor => bin!(_mm256_xor_si256, |a, b| a ^ b),
                Op1::Eq => pred!(|va, vb| _mm256_cmpeq_epi64(va, vb), |a, b| a == b),
                Op1::Neq => pred!(
                    |va, vb| {
                        let ones = _mm256_set1_epi64x(-1);
                        _mm256_xor_si256(_mm256_cmpeq_epi64(va, vb), ones)
                    },
                    |a, b| a != b
                ),
                Op1::LtU => pred!(
                    |va, vb| {
                        let flip = _mm256_set1_epi64x(i64::MIN);
                        _mm256_cmpgt_epi64(_mm256_xor_si256(vb, flip), _mm256_xor_si256(va, flip))
                    },
                    |a, b| a < b
                ),
                Op1::LeqU => pred!(
                    |va, vb| {
                        let flip = _mm256_set1_epi64x(i64::MIN);
                        let gt = _mm256_cmpgt_epi64(
                            _mm256_xor_si256(va, flip),
                            _mm256_xor_si256(vb, flip),
                        );
                        _mm256_xor_si256(gt, _mm256_set1_epi64x(-1))
                    },
                    |a, b| a <= b
                ),
                Op1::Orr => {
                    let one = _mm256_set1_epi64x(1);
                    let zero = _mm256_setzero_si256();
                    while i + 4 <= n {
                        let va = _mm256_loadu_si256(pa.add(i).cast());
                        let nz = _mm256_andnot_si256(_mm256_cmpeq_epi64(va, zero), one);
                        _mm256_storeu_si256(pd.add(i).cast(), nz);
                        i += 4;
                    }
                    while i < n {
                        *pd.add(i) = (*pa.add(i) != 0) as u64;
                        i += 1;
                    }
                }
                Op1::Andr => {
                    let one = _mm256_set1_epi64x(1);
                    let all = _mm256_set1_epi64x(inst.imm as i64);
                    while i + 4 <= n {
                        let va = _mm256_loadu_si256(pa.add(i).cast());
                        let eq = _mm256_and_si256(_mm256_cmpeq_epi64(va, all), one);
                        _mm256_storeu_si256(pd.add(i).cast(), eq);
                        i += 4;
                    }
                    while i < n {
                        *pd.add(i) = (*pa.add(i) == inst.imm) as u64;
                        i += 1;
                    }
                }
                Op1::Bits => {
                    if inst.imm >= 64 {
                        return false;
                    }
                    let c = vcount(inst.imm);
                    while i + 4 <= n {
                        let va = _mm256_loadu_si256(pa.add(i).cast());
                        let v = _mm256_and_si256(_mm256_srl_epi64(va, c), vmask);
                        _mm256_storeu_si256(pd.add(i).cast(), v);
                        i += 4;
                    }
                    while i < n {
                        *pd.add(i) = (*pa.add(i) >> inst.imm) & inst.mask;
                        i += 1;
                    }
                }
                Op1::ShrU => {
                    if inst.imm >= 64 {
                        // Scalar path stores a masked zero; mirror it here.
                        while i < n {
                            *pd.add(i) = 0;
                            i += 1;
                        }
                        return true;
                    }
                    let c = vcount(inst.imm);
                    while i + 4 <= n {
                        let va = _mm256_loadu_si256(pa.add(i).cast());
                        let v = _mm256_and_si256(_mm256_srl_epi64(va, c), vmask);
                        _mm256_storeu_si256(pd.add(i).cast(), v);
                        i += 4;
                    }
                    while i < n {
                        *pd.add(i) = (*pa.add(i) >> inst.imm) & inst.mask;
                        i += 1;
                    }
                }
                Op1::Shl => {
                    if inst.imm >= inst.sxc as u64 {
                        while i < n {
                            *pd.add(i) = 0;
                            i += 1;
                        }
                        return true;
                    }
                    if inst.imm >= 64 {
                        return false;
                    }
                    let c = vcount(inst.imm);
                    while i + 4 <= n {
                        let va = _mm256_loadu_si256(pa.add(i).cast());
                        let v = _mm256_and_si256(_mm256_sll_epi64(va, c), vmask);
                        _mm256_storeu_si256(pd.add(i).cast(), v);
                        i += 4;
                    }
                    while i < n {
                        *pd.add(i) = (*pa.add(i) << inst.imm) & inst.mask;
                        i += 1;
                    }
                }
                Op1::Cat => {
                    if inst.imm >= 64 {
                        return false;
                    }
                    let c = vcount(inst.imm);
                    while i + 4 <= n {
                        let va = _mm256_loadu_si256(pa.add(i).cast());
                        let vb = _mm256_loadu_si256(pb.add(i).cast());
                        let v = _mm256_or_si256(_mm256_sll_epi64(va, c), vb);
                        _mm256_storeu_si256(pd.add(i).cast(), _mm256_and_si256(v, vmask));
                        i += 4;
                    }
                    while i < n {
                        *pd.add(i) = ((*pa.add(i) << inst.imm) | *pb.add(i)) & inst.mask;
                        i += 1;
                    }
                }
                Op1::Ext => {
                    if inst.sxa != 0 {
                        return false;
                    }
                    while i + 4 <= n {
                        let va = _mm256_loadu_si256(pa.add(i).cast());
                        _mm256_storeu_si256(pd.add(i).cast(), _mm256_and_si256(va, vmask));
                        i += 4;
                    }
                    while i < n {
                        *pd.add(i) = *pa.add(i) & inst.mask;
                        i += 1;
                    }
                }
                Op1::Mux => {
                    // `a` is the selector, `b`/`c` the high/low ways.
                    if inst.sxb != 0 || inst.sxc != 0 {
                        return false;
                    }
                    let one = _mm256_set1_epi64x(1);
                    while i + 4 <= n {
                        let vs = _mm256_and_si256(_mm256_loadu_si256(pa.add(i).cast()), one);
                        let hi = _mm256_cmpeq_epi64(vs, one);
                        let vb = _mm256_loadu_si256(pb.add(i).cast());
                        let vc = _mm256_loadu_si256(pc_.add(i).cast());
                        let v = _mm256_and_si256(_mm256_blendv_epi8(vc, vb, hi), vmask);
                        _mm256_storeu_si256(pd.add(i).cast(), v);
                        i += 4;
                    }
                    while i < n {
                        let v = if *pa.add(i) & 1 == 1 {
                            *pb.add(i)
                        } else {
                            *pc_.add(i)
                        };
                        *pd.add(i) = v & inst.mask;
                        i += 1;
                    }
                }
                _ => return false,
            }
            true
        }
    }
}

/// Executes a lowered program over the arena.
///
/// Work accounting matches the generic interpreter exactly: every
/// value-producing instruction adds one to `ops` (jumps are free; a mux
/// diamond's taken `Ext` stands in for the `CondMux` item), and every
/// fused trigger adds one to `dynamic` (standing in for the engine's
/// per-output snapshot compare).
///
/// # Safety
///
/// `arena` must point at the machine's arena, sized per the layout the
/// program was lowered from; no other thread may concurrently access any
/// slot this program writes, nor write any slot it reads. The engines
/// uphold this with exclusive borrows (sequential) or disjoint partition
/// memberships plus the dataflow schedule's wait edges (parallel).
pub(crate) unsafe fn run_tier1_raw<F: FlagSink>(
    prog: &Tier1Program,
    arena: *mut u64,
    mems: &[MemBank],
    flags: &F,
    ops: &mut u64,
    dynamic: &mut u64,
) {
    let code = prog.code.as_slice();
    let mut pc = 0usize;
    while pc < code.len() {
        // SAFETY: the loop condition bounds `pc` on every iteration,
        // including after jumps.
        let inst = unsafe { code.get_unchecked(pc) };
        pc += 1;
        #[cfg(feature = "race-sanitizer")]
        crate::sanitizer::note_inst1(inst);
        // SAFETY: operand offsets are in-bounds layout slots that no
        // other thread concurrently writes — the footprint layer proves
        // the lowered operand offsets match the generic block's reads
        // (R0501) and that no co-leveled partition writes them (R0503).
        let ld = |off: u32| unsafe { *arena.add(off as usize) };
        let val = match inst.op {
            Op1::Add => sext(ld(inst.a), inst.sxa).wrapping_add(sext(ld(inst.b), inst.sxb)),
            Op1::Sub => sext(ld(inst.a), inst.sxa).wrapping_sub(sext(ld(inst.b), inst.sxb)),
            Op1::Mul => sext(ld(inst.a), inst.sxa).wrapping_mul(sext(ld(inst.b), inst.sxb)),
            Op1::DivU => ld(inst.a).checked_div(ld(inst.b)).unwrap_or(0),
            Op1::DivS => {
                let b = ld(inst.b);
                if b == 0 {
                    0
                } else {
                    let x = sext(ld(inst.a), inst.sxa) as i64 as i128;
                    let y = sext(b, inst.sxb) as i64 as i128;
                    (x / y) as u64
                }
            }
            Op1::RemU => {
                let a = ld(inst.a);
                a.checked_rem(ld(inst.b)).unwrap_or(a)
            }
            Op1::RemS => {
                let b = ld(inst.b);
                if b == 0 {
                    sext(ld(inst.a), inst.sxa)
                } else {
                    let x = sext(ld(inst.a), inst.sxa) as i64 as i128;
                    let y = sext(b, inst.sxb) as i64 as i128;
                    (x % y) as u64
                }
            }
            Op1::LtU => (ld(inst.a) < ld(inst.b)) as u64,
            Op1::LtS => {
                ((sext(ld(inst.a), inst.sxa) as i64) < (sext(ld(inst.b), inst.sxb) as i64)) as u64
            }
            Op1::LeqU => (ld(inst.a) <= ld(inst.b)) as u64,
            Op1::LeqS => {
                ((sext(ld(inst.a), inst.sxa) as i64) <= (sext(ld(inst.b), inst.sxb) as i64)) as u64
            }
            Op1::Eq => (sext(ld(inst.a), inst.sxa) == sext(ld(inst.b), inst.sxb)) as u64,
            Op1::Neq => (sext(ld(inst.a), inst.sxa) != sext(ld(inst.b), inst.sxb)) as u64,
            Op1::Shl => {
                if inst.imm >= inst.sxc as u64 {
                    0
                } else {
                    ld(inst.a) << inst.imm
                }
            }
            Op1::ShrU => {
                if inst.imm >= 64 {
                    0
                } else {
                    ld(inst.a) >> inst.imm
                }
            }
            Op1::ShrS => {
                let sh = inst.imm.min(63);
                ((sext(ld(inst.a), inst.sxa) as i64) >> sh) as u64
            }
            Op1::Dshl => {
                let sh = ld(inst.b);
                if sh >= inst.sxc as u64 {
                    0
                } else {
                    ld(inst.a) << sh
                }
            }
            Op1::DshrU => {
                let sh = ld(inst.b);
                if sh >= 64 {
                    0
                } else {
                    ld(inst.a) >> sh
                }
            }
            Op1::DshrS => {
                let sh = ld(inst.b).min(63);
                ((sext(ld(inst.a), inst.sxa) as i64) >> sh) as u64
            }
            Op1::Neg => sext(ld(inst.a), inst.sxa).wrapping_neg(),
            Op1::Not => !sext(ld(inst.a), inst.sxa),
            Op1::And => sext(ld(inst.a), inst.sxa) & sext(ld(inst.b), inst.sxb),
            Op1::Or => sext(ld(inst.a), inst.sxa) | sext(ld(inst.b), inst.sxb),
            Op1::Xor => sext(ld(inst.a), inst.sxa) ^ sext(ld(inst.b), inst.sxb),
            Op1::Andr => (ld(inst.a) == inst.imm) as u64,
            Op1::Orr => (ld(inst.a) != 0) as u64,
            Op1::Xorr => (ld(inst.a).count_ones() & 1) as u64,
            Op1::Cat => (ld(inst.a) << inst.imm) | ld(inst.b),
            Op1::Bits => ld(inst.a) >> inst.imm,
            Op1::Ext => sext(ld(inst.a), inst.sxa),
            Op1::Mux => {
                if ld(inst.a) & 1 == 1 {
                    sext(ld(inst.b), inst.sxb)
                } else {
                    sext(ld(inst.c), inst.sxc)
                }
            }
            Op1::MemRead => {
                // SAFETY: `inst.c` indexes a lowered bank (B0210 audits
                // it against the netlist) and `addr < imm = depth`
                // bounds the entry; single-word banks store one word
                // per entry.
                unsafe {
                    let bank = mems.get_unchecked(inst.c as usize);
                    let addr = ld(inst.a);
                    if ld(inst.b) & 1 == 1 && addr < inst.imm {
                        *bank.data.get_unchecked(addr as usize)
                    } else {
                        0
                    }
                }
            }
            Op1::Jmp => {
                pc = inst.a as usize;
                continue;
            }
            Op1::JmpIf0 => {
                if ld(inst.b) & 1 == 0 {
                    pc = inst.a as usize;
                }
                continue;
            }
            Op1::Generic => {
                // SAFETY: `inst.a` indexes `prog.generic` by
                // construction (audited by B0210); the recursive call
                // forwards this function's contract.
                unsafe {
                    let item = prog.generic.get_unchecked(inst.a as usize);
                    run_items_raw(std::slice::from_ref(item), arena, mems, ops);
                }
                continue;
            }
        };
        *ops += 1;
        let val = val & inst.mask;
        // SAFETY: `inst.dst` is a declared write of this partition
        // (R0501 proves it equals the generic block's write set, R0504
        // bounds it, R0502 proves no co-leveled partition shares it);
        // the fused-tail pre-write read touches the same exclusive slot.
        unsafe {
            let slot = arena.add(inst.dst as usize);
            if inst.ws == NO_FUSE {
                *slot = val;
            } else {
                // Fused CCSS tail: the pre-write slot value is last cycle's
                // output (single writer), so this compare is exactly the
                // engine's snapshot compare.
                *dynamic += 1;
                if *slot != val {
                    *slot = val;
                    for &c in prog
                        .consumers
                        .get_unchecked(inst.ws as usize..inst.we as usize)
                    {
                        flags.wake(c);
                    }
                }
            }
        }
    }
}
