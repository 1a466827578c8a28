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
//!
//! A partition's program ends with its **elided register commits**
//! (Section III-B1's in-place state update): each single-word one is an
//! [`Op1::Commit`] — a raw copy of the `next` slot into the `out` slot
//! under the same compare-store-wake tail, charged as one dynamic check
//! and no op — so the commit runs wherever the program runs (scalar
//! loop, lane loop, native body) and the engines have no state epilogue.
//! Registers wider than a word, and every commit when fusion is off,
//! are reported in [`Tier1Program::unabsorbed`] for the engine's
//! [`StateTable`](crate::state::StateTable).

use crate::compile::{ArgRef, Block, Commit, DstRef, Item, Step, StepKind};
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
    /// An elided register commit: `dst = a` (raw, `mask` all ones), always
    /// under the fused compare-store-wake tail. Counts one dynamic check
    /// and no op; `imm` = the register-plan index its wakes are
    /// attributed to
    Commit,
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

impl Inst1 {
    /// An unfused `op` writing `dst` under `mask`; every operand field,
    /// shift and immediate starts at zero for the lowering to fill in.
    pub fn new(op: Op1, dst: u32, mask: u64) -> Inst1 {
        Inst1 {
            op,
            sxa: 0,
            sxb: 0,
            sxc: 0,
            a: 0,
            b: 0,
            c: 0,
            dst,
            imm: 0,
            mask,
            ws: NO_FUSE,
            we: NO_FUSE,
        }
    }

    /// What this instruction's operand fields *are* — the one table the
    /// footprint layer, the JIT audit and the x86-64 eligibility check
    /// read instead of enumerating opcodes themselves. `reads` is an
    /// upper bound on what `op1_match!` loads (`Mux` reads only the
    /// taken way; the unit tests pin the bound against the definition).
    pub fn roles(&self) -> Roles {
        use Op1::*;
        let (reads, n_reads) = match self.op {
            Jmp | Generic => ([0; 3], 0),
            JmpIf0 => ([self.b, 0, 0], 1),
            Neg | Not | Andr | Orr | Xorr | Bits | Ext | Shl | ShrU | ShrS | Commit => {
                ([self.a, 0, 0], 1)
            }
            Add | Sub | Mul | DivU | DivS | RemU | RemS | LtU | LtS | LeqU | LeqS | Eq | Neq
            | And | Or | Xor | Cat | Dshl | DshrU | DshrS | MemRead => ([self.a, self.b, 0], 2),
            Mux => ([self.a, self.b, self.c], 3),
        };
        Roles {
            reads,
            n_reads,
            writes_dst: !matches!(self.op, Jmp | JmpIf0 | Generic),
            counts_op: !matches!(self.op, Jmp | JmpIf0 | Generic | Commit),
            bank: (self.op == MemRead).then_some(self.c),
            jumps: matches!(self.op, Jmp | JmpIf0),
        }
    }
}

/// Operand roles of one [`Inst1`] (see [`Inst1::roles`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Roles {
    reads: [u32; 3],
    n_reads: usize,
    /// The instruction stores a value to `dst`.
    pub writes_dst: bool,
    /// Executing it adds one to `ops_evaluated` (every value producer
    /// but the state commit).
    pub counts_op: bool,
    /// The memory bank read, when `c` is a bank index rather than a slot.
    pub bank: Option<u32>,
    /// `a` is an instruction index to jump to, not an arena slot.
    pub jumps: bool,
}

impl Roles {
    /// The arena slots the instruction may load (at most three).
    pub fn reads(&self) -> &[u32] {
        &self.reads[..self.n_reads]
    }
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
    /// Elided register commits lowered to [`Op1::Commit`].
    pub absorbed_commits: usize,
    /// Elided register commits in the source block.
    pub total_commits: usize,
}

impl TierStats {
    /// Component-wise sum (whole-design aggregation).
    pub fn merged(&self, other: &TierStats) -> TierStats {
        TierStats {
            total_steps: self.total_steps + other.total_steps,
            tier1_steps: self.tier1_steps + other.tier1_steps,
            fused_outputs: self.fused_outputs + other.fused_outputs,
            total_outputs: self.total_outputs + other.total_outputs,
            absorbed_commits: self.absorbed_commits + other.absorbed_commits,
            total_commits: self.total_commits + other.total_commits,
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
    /// Indices into the block's `commits` that did *not* become an
    /// [`Op1::Commit`] (the engine must run them from its state table).
    pub unabsorbed: Vec<usize>,
    pub stats: TierStats,
}

/// Where fused trigger writes land. The sequential engine passes interior-
/// mutable activity bits, the parallel engine atomics, and the full-cycle
/// engine (no triggers) a sink that ignores wakes.
pub trait FlagSink {
    /// A changed partition output wakes `consumer`.
    fn wake(&self, consumer: u32);

    /// A changed register (plan index `reg_plan`) wakes `consumer`; the
    /// same flag write, attributed to the state element by the
    /// profiling sink.
    #[inline(always)]
    fn wake_state(&self, _reg_plan: u32, consumer: u32) {
        self.wake(consumer);
    }
}

/// No-op sink for engines without activity flags.
pub struct NoWake;

impl FlagSink for NoWake {
    #[inline(always)]
    fn wake(&self, _consumer: u32) {}
}

/// Sets partition `consumer`'s activity bit: bit `consumer % 64` of word
/// `consumer / 64`. The one encoding of a sequential wake — x86-64 is
/// little-endian, so the native tail's `or byte [flags + c/8], 1 << c%8`
/// sets the same bit.
#[inline(always)]
pub(crate) fn wake_bit(flags: &[Cell<u64>], consumer: u32) {
    let word = &flags[consumer as usize / 64];
    word.set(word.get() | 1 << (consumer % 64));
}

/// Single-threaded wakes into the sequential engine's activity bits.
pub struct CellFlags<'a>(pub &'a [Cell<u64>]);

impl FlagSink for CellFlags<'_> {
    #[inline(always)]
    fn wake(&self, consumer: u32) {
        wake_bit(self.0, consumer);
    }
}

/// Cross-thread flag writes with relaxed atomics. The flag itself
/// orders nothing: every (waker, consumer) pair is a wake pair S0601
/// requires the wait graph to order, and the wait — a `Release` store
/// of the waker's `done` counter, `Acquire`-loaded by the consumer's
/// worker (`par.rs`) — publishes the flag with the waker's arena writes.
pub struct AtomicFlags<'a>(pub &'a [AtomicBool]);

impl FlagSink for AtomicFlags<'_> {
    #[inline(always)]
    fn wake(&self, consumer: u32) {
        self.0[consumer as usize].store(true, Ordering::Relaxed);
    }
}

/// [`CellFlags`] plus wake attribution: charges each fused output wake
/// to the producing partition (`caused`) and the woken consumer
/// (`woke`), and each commit wake to the register's plan (`state_causes`
/// is indexed by register-plan index) and the consumer's `woke_state`.
/// The enabled arm of the profiler's monomorphized tier dispatch.
pub struct ProfCellFlags<'a> {
    pub flags: &'a [Cell<u64>],
    pub caused: &'a Cell<u64>,
    pub woke: &'a [Cell<u64>],
    pub state_causes: &'a [Cell<u64>],
    pub woke_state: &'a [Cell<u64>],
}

#[inline(always)]
fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

impl FlagSink for ProfCellFlags<'_> {
    #[inline(always)]
    fn wake(&self, consumer: u32) {
        wake_bit(self.flags, consumer);
        bump(self.caused);
        bump(&self.woke[consumer as usize]);
    }

    #[inline(always)]
    fn wake_state(&self, reg_plan: u32, consumer: u32) {
        wake_bit(self.flags, consumer);
        bump(&self.state_causes[reg_plan as usize]);
        bump(&self.woke_state[consumer as usize]);
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
    let mut inst = Inst1::new(Op1::Ext, step.dst.off, mask);
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
            a: idx,
            ..Inst1::new(Op1::Generic, 0, 0)
        };
        self.push(inst, Some(sig));
    }

    /// Appends one [`Op1::Commit`] per single-word commit when fusing;
    /// returns the indices left to the engine.
    fn emit_commits(&mut self, commits: &[Commit]) -> Vec<usize> {
        let mut unabsorbed = Vec::new();
        for (ci, commit) in commits.iter().enumerate() {
            if !self.fuse || commit.words != 1 {
                unabsorbed.push(ci);
                continue;
            }
            let ws = self.consumers.len() as u32;
            self.consumers.extend(commit.consumers.iter().copied());
            let inst = Inst1 {
                a: commit.next,
                imm: commit.reg_plan as u64,
                ws,
                we: self.consumers.len() as u32,
                ..Inst1::new(Op1::Commit, commit.out, u64::MAX)
            };
            self.push(inst, Some(commit.sig));
        }
        unabsorbed
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
                    let jif = Inst1 {
                        b: sel.off,
                        ..Inst1::new(Op1::JmpIf0, 0, 0)
                    };
                    let jif = self.push(jif, None);
                    // Each way ends in the `Ext` that stands in for the mux.
                    let ext_of = |way: &ArgRef| Inst1 {
                        sxa: sx_of(way.width, way.signed),
                        a: way.off,
                        ..Inst1::new(Op1::Ext, dst.off, top_mask(dst.width))
                    };
                    self.emit_items(high_items, outs);
                    let mut ext_hi = ext_of(high);
                    self.attach_fuse(&mut ext_hi, *sig, outs);
                    self.push(ext_hi, Some(*sig));
                    let jmp = self.push(Inst1::new(Op1::Jmp, 0, 0), None);
                    self.code[jif].a = self.code.len() as u32;
                    self.emit_items(low_items, outs);
                    let mut ext_lo = ext_of(low);
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
/// snapshot-compare path), and the block's single-word register commits
/// become [`Op1::Commit`] instructions (the rest are reported via
/// [`Tier1Program::unabsorbed`]). Pass an empty `outs` / `fuse = false`
/// for engines without triggers.
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
    let unabsorbed = low.emit_commits(&block.commits);
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
        absorbed_commits: block.commits.len() - unabsorbed.len(),
        total_commits: block.commits.len(),
    };
    Tier1Program {
        code: low.code,
        sigs: low.sigs,
        generic: low.generic,
        consumers: low.consumers,
        unfused,
        unabsorbed,
        stats,
    }
}

/// Sign-extends a normalized one-word value by shift `s` (0 = identity).
#[inline(always)]
fn sext(v: u64, s: u8) -> u64 {
    (((v << s) as i64) >> s) as u64
}

/// `MemRead`'s value: `en && addr < depth ? mem[addr] : 0`.
///
/// # Safety
///
/// `inst.c` must index `mems` and that bank must hold at least
/// `inst.imm` one-word entries — both hold for any lowered program
/// (`lower_step` takes `c` and `imm = depth` from the netlist bank and
/// rejects multi-word banks; B0210 re-checks `c`, `imm` against it).
#[inline(always)]
unsafe fn mem_read(mems: &[MemBank], inst: &Inst1, addr: u64, en: u64) -> u64 {
    if en & 1 == 1 && addr < inst.imm {
        // SAFETY: the function contract bounds `c`; `addr < imm` was
        // just checked.
        unsafe {
            *mems
                .get_unchecked(inst.c as usize)
                .data
                .get_unchecked(addr as usize)
        }
    } else {
        0
    }
}

/// The value semantics of the one-word ISA — the only place an opcode's
/// result is spelled out. Expands to one `match $inst.op` whose 33
/// value arms each hand the opcode's *unmasked* result expression to
/// the callback as `$k!($ka.. expr)`, so the caller decides what
/// surrounds the expression (the scalar executor takes it as is; the
/// lane executor wraps it in its three per-lane loop shapes) while the
/// opcode dispatch stays outside that loop. `$ld` is how an arena slot
/// is loaded (`$ld(off) -> u64`), `$mems` the `&[MemBank]` in effect;
/// `$ctl` are the caller's arms for `Jmp`, `JmpIf0` and `Generic`,
/// which produce no value.
///
/// The loads an arm performs are bounded by [`Inst1::roles`]; the unit
/// tests hold the two together.
macro_rules! op1_match {
    ($inst:ident, $ld:expr, $mems:expr, $k:ident!($($ka:tt)*), { $($ctl:tt)* }) => {
        match $inst.op {
            Op1::Add => $k!($($ka)*
                sext($ld($inst.a), $inst.sxa).wrapping_add(sext($ld($inst.b), $inst.sxb))),
            Op1::Sub => $k!($($ka)*
                sext($ld($inst.a), $inst.sxa).wrapping_sub(sext($ld($inst.b), $inst.sxb))),
            Op1::Mul => $k!($($ka)*
                sext($ld($inst.a), $inst.sxa).wrapping_mul(sext($ld($inst.b), $inst.sxb))),
            Op1::DivU => $k!($($ka)* $ld($inst.a).checked_div($ld($inst.b)).unwrap_or(0)),
            Op1::DivS => $k!($($ka)* {
                let b = $ld($inst.b);
                if b == 0 {
                    0
                } else {
                    let x = sext($ld($inst.a), $inst.sxa) as i64 as i128;
                    let y = sext(b, $inst.sxb) as i64 as i128;
                    (x / y) as u64
                }
            }),
            Op1::RemU => $k!($($ka)* {
                let a = $ld($inst.a);
                a.checked_rem($ld($inst.b)).unwrap_or(a)
            }),
            Op1::RemS => $k!($($ka)* {
                let b = $ld($inst.b);
                if b == 0 {
                    sext($ld($inst.a), $inst.sxa)
                } else {
                    let x = sext($ld($inst.a), $inst.sxa) as i64 as i128;
                    let y = sext(b, $inst.sxb) as i64 as i128;
                    (x % y) as u64
                }
            }),
            Op1::LtU => $k!($($ka)* ($ld($inst.a) < $ld($inst.b)) as u64),
            Op1::LtS => $k!($($ka)* ((sext($ld($inst.a), $inst.sxa) as i64)
                < (sext($ld($inst.b), $inst.sxb) as i64)) as u64),
            Op1::LeqU => $k!($($ka)* ($ld($inst.a) <= $ld($inst.b)) as u64),
            Op1::LeqS => $k!($($ka)* ((sext($ld($inst.a), $inst.sxa) as i64)
                <= (sext($ld($inst.b), $inst.sxb) as i64)) as u64),
            Op1::Eq => $k!($($ka)*
                (sext($ld($inst.a), $inst.sxa) == sext($ld($inst.b), $inst.sxb)) as u64),
            Op1::Neq => $k!($($ka)*
                (sext($ld($inst.a), $inst.sxa) != sext($ld($inst.b), $inst.sxb)) as u64),
            Op1::Shl => $k!($($ka)* {
                if $inst.imm >= $inst.sxc as u64 {
                    0
                } else {
                    $ld($inst.a) << $inst.imm
                }
            }),
            Op1::ShrU => $k!($($ka)* {
                if $inst.imm >= 64 {
                    0
                } else {
                    $ld($inst.a) >> $inst.imm
                }
            }),
            Op1::ShrS => $k!($($ka)* {
                let sh = $inst.imm.min(63);
                ((sext($ld($inst.a), $inst.sxa) as i64) >> sh) as u64
            }),
            Op1::Dshl => $k!($($ka)* {
                let sh = $ld($inst.b);
                if sh >= $inst.sxc as u64 {
                    0
                } else {
                    $ld($inst.a) << sh
                }
            }),
            Op1::DshrU => $k!($($ka)* {
                let sh = $ld($inst.b);
                if sh >= 64 {
                    0
                } else {
                    $ld($inst.a) >> sh
                }
            }),
            Op1::DshrS => $k!($($ka)* {
                let sh = $ld($inst.b).min(63);
                ((sext($ld($inst.a), $inst.sxa) as i64) >> sh) as u64
            }),
            Op1::Neg => $k!($($ka)* sext($ld($inst.a), $inst.sxa).wrapping_neg()),
            Op1::Not => $k!($($ka)* !sext($ld($inst.a), $inst.sxa)),
            Op1::And => $k!($($ka)*
                sext($ld($inst.a), $inst.sxa) & sext($ld($inst.b), $inst.sxb)),
            Op1::Or => $k!($($ka)*
                sext($ld($inst.a), $inst.sxa) | sext($ld($inst.b), $inst.sxb)),
            Op1::Xor => $k!($($ka)*
                sext($ld($inst.a), $inst.sxa) ^ sext($ld($inst.b), $inst.sxb)),
            Op1::Andr => $k!($($ka)* ($ld($inst.a) == $inst.imm) as u64),
            Op1::Orr => $k!($($ka)* ($ld($inst.a) != 0) as u64),
            Op1::Xorr => $k!($($ka)* ($ld($inst.a).count_ones() & 1) as u64),
            Op1::Cat => $k!($($ka)* ($ld($inst.a) << $inst.imm) | $ld($inst.b)),
            Op1::Bits => $k!($($ka)* $ld($inst.a) >> $inst.imm),
            Op1::Ext => $k!($($ka)* sext($ld($inst.a), $inst.sxa)),
            Op1::Mux => $k!($($ka)* {
                if $ld($inst.a) & 1 == 1 {
                    sext($ld($inst.b), $inst.sxb)
                } else {
                    sext($ld($inst.c), $inst.sxc)
                }
            }),
            Op1::MemRead => $k!($($ka)* {
                // SAFETY: every caller runs a lowered program against the
                // banks of the netlist it was lowered from, which is
                // `mem_read`'s contract.
                unsafe { mem_read($mems, $inst, $ld($inst.a), $ld($inst.b)) }
            }),
            Op1::Commit => $k!($($ka)* $ld($inst.a)),
            $($ctl)*
        }
    };
}

/// Arena word footprint of one generic-fallback [`Item`]: the batched
/// engine gathers these strided words into a scalar scratch arena, runs
/// the item through `run_items_raw` per lane, and scatters the writes
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
/// (jumps and commits free, the taken `Ext` stands in for a mux
/// diamond), one `dynamic_checks` per fused trigger or commit compare.
/// Fused wakes set the lane's bit in the consumers' wake masks.
///
/// # Safety
///
/// `arena` must point at the batched strided arena sized
/// `layout.total_words() * lanes` for the layout `prog` was lowered
/// from, with no concurrent access; `scratch` must be a scalar arena of
/// `layout.total_words()` words; `generic_rw` must parallel
/// `prog.generic`; `lane_mems` and `counters` must have at least
/// `lanes` entries; `eval_mask` must be non-zero with no bit at or
/// above `lanes`, and `lanes` in `1..=64`. `simd` only *permits* the
/// AVX2 kernels (they still need a host that has them); the engine
/// passes `true`, the unit tests pass `false` to reach the scalar lane
/// loops an AVX2 host otherwise never runs.
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
    simd: bool,
) {
    debug_assert!(eval_mask != 0 && (1..=64).contains(&lanes));
    #[cfg(target_arch = "x86_64")]
    let avx2 = simd && lanes >= 4 && std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd; // no vector kernels on this target
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

    /// The three per-lane loop shapes around one opcode's value `$val`
    /// (an expression over lane `$l`, from `op1_match!`): a contiguous
    /// `$done..n` loop whenever the active lanes form a prefix (the shape
    /// compaction maintains, and the one that auto-vectorizes), a
    /// bit-scan over a sparse mask, and the fused-tail loop.
    macro_rules! lanes_op {
        ($inst:ident, $l:ident, $done:ident, $val:expr) => {{
            seg += ($inst.op != Op1::Commit) as u64;
            if $inst.ws == NO_FUSE {
                if active & active.wrapping_add(1) == 0 {
                    let n = active.count_ones() as usize;
                    for $l in $done..n {
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

        // Dense unfused prefixes go four lanes at a time where the op has
        // a vector form; `done` is how many lanes that finished.
        #[cfg(target_arch = "x86_64")]
        let done = if avx2
            && inst.ws == NO_FUSE
            && active & active.wrapping_add(1) == 0
            && active.count_ones() >= 4
        {
            let n = active.count_ones() as usize;
            // SAFETY: AVX2 detected above; `inst` offsets and the strided
            // arena satisfy this function's contract, and `n <= lanes`
            // because `active ⊆ eval_mask`.
            let done = unsafe { lanes_simd::dispatch(inst, arena, lanes, n) };
            if done == n {
                seg += 1;
                continue;
            }
            done
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;

        op1_match!(inst, |off| ld(off, l), &lane_mems[l], lanes_op!(inst, l, done,), {
            // The control opcodes, handled above (the scalar executor's
            // expansion is the one that keeps the arms exhaustive).
            _ => unreachable!(),
        });
    }
    flush_seg!();
}

/// AVX2 lane kernels for the hot unsigned single-word ops: four lanes
/// per vector over the contiguous per-word lane stripes of the batched
/// arena. Anything signed, fused, or exotic — and the last `n % 4` lanes
/// of everything — is left to the scalar lane loop (which the compiler
/// auto-vectorizes anyway — this path pins the vector shape for the ops
/// that dominate ALU-heavy designs).
#[cfg(target_arch = "x86_64")]
mod lanes_simd {
    use super::{Inst1, Op1};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Evaluates `inst` across dense lanes `0..done` and returns `done`:
    /// `n` rounded down to a multiple of four, or `0` when the op/operand
    /// shape has no vector form. The caller's scalar lane loop executes
    /// lanes `done..n`.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2 is available, `arena` is the exclusively
    /// accessed strided batch arena, `inst` carries in-bounds layout
    /// offsets, and `n <= lanes`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dispatch(inst: &Inst1, arena: *mut u64, lanes: usize, n: usize) -> usize {
        // SAFETY: `off * lanes .. off * lanes + n` is inside the strided
        // arena for every operand offset (caller contract); unaligned
        // vector loads/stores are used throughout.
        unsafe {
            let pa = arena.add(inst.a as usize * lanes).cast_const();
            let pb = arena.add(inst.b as usize * lanes).cast_const();
            let pc_ = arena.add(inst.c as usize * lanes).cast_const();
            let pd = arena.add(inst.dst as usize * lanes);
            let vmask = _mm256_set1_epi64x(inst.mask as i64);
            let one = _mm256_set1_epi64x(1);
            let mut i = 0usize;
            // `dst[i..i+4] = $vec & $and` over whole vectors of lanes, with
            // `$va`/`$vb` bound to the `a`/`b` operand vectors.
            macro_rules! lanes4 {
                (|$va:ident, $vb:ident| $vec:expr, $and:expr) => {
                    while i + 4 <= n {
                        let $va = _mm256_loadu_si256(pa.add(i).cast());
                        let $vb = _mm256_loadu_si256(pb.add(i).cast());
                        let v: __m256i = $vec;
                        _mm256_storeu_si256(pd.add(i).cast(), _mm256_and_si256(v, $and));
                        i += 4;
                    }
                };
            }
            // Uniform-count shifts: the count comes from the instruction,
            // not the lanes, so the `_mm256_sll/srl_epi64` forms (count in
            // the low xmm lane) apply.
            let vcount = _mm_cvtsi64_si128(inst.imm as i64);
            let flip = _mm256_set1_epi64x(i64::MIN);
            let ones = _mm256_set1_epi64x(-1);
            // Each guard is where the vector form stops matching the scalar
            // definition: sign-extended operands, and static shift counts
            // the definition special-cases (or `sll`/`srl` cannot take).
            let plain = inst.sxa == 0 && inst.sxb == 0;
            match inst.op {
                Op1::Add if plain => lanes4!(|va, vb| _mm256_add_epi64(va, vb), vmask),
                Op1::Sub if plain => lanes4!(|va, vb| _mm256_sub_epi64(va, vb), vmask),
                Op1::And if plain => lanes4!(|va, vb| _mm256_and_si256(va, vb), vmask),
                Op1::Or if plain => lanes4!(|va, vb| _mm256_or_si256(va, vb), vmask),
                Op1::Xor if plain => lanes4!(|va, vb| _mm256_xor_si256(va, vb), vmask),
                // 0/1 predicate results from a lane-wide compare mask.
                Op1::Eq if plain => lanes4!(|va, vb| _mm256_cmpeq_epi64(va, vb), one),
                Op1::Neq if plain => {
                    lanes4!(
                        |va, vb| _mm256_xor_si256(_mm256_cmpeq_epi64(va, vb), ones),
                        one
                    )
                }
                Op1::LtU => lanes4!(
                    |va, vb| _mm256_cmpgt_epi64(
                        _mm256_xor_si256(vb, flip),
                        _mm256_xor_si256(va, flip)
                    ),
                    one
                ),
                Op1::LeqU => lanes4!(
                    |va, vb| {
                        let gt = _mm256_cmpgt_epi64(
                            _mm256_xor_si256(va, flip),
                            _mm256_xor_si256(vb, flip),
                        );
                        _mm256_xor_si256(gt, ones)
                    },
                    one
                ),
                Op1::Orr => lanes4!(
                    |va, _vb| _mm256_xor_si256(
                        _mm256_cmpeq_epi64(va, _mm256_setzero_si256()),
                        ones
                    ),
                    one
                ),
                Op1::Andr => lanes4!(
                    |va, _vb| _mm256_cmpeq_epi64(va, _mm256_set1_epi64x(inst.imm as i64)),
                    one
                ),
                Op1::Bits | Op1::ShrU if inst.imm < 64 => {
                    lanes4!(|va, _vb| _mm256_srl_epi64(va, vcount), vmask)
                }
                Op1::Shl if inst.imm < 64.min(inst.sxc as u64) => {
                    lanes4!(|va, _vb| _mm256_sll_epi64(va, vcount), vmask)
                }
                Op1::Cat if inst.imm < 64 => {
                    lanes4!(
                        |va, vb| _mm256_or_si256(_mm256_sll_epi64(va, vcount), vb),
                        vmask
                    )
                }
                Op1::Ext if inst.sxa == 0 => lanes4!(|va, _vb| va, vmask),
                // `a` is the selector, `b`/`c` the high/low ways.
                Op1::Mux if inst.sxb == 0 && inst.sxc == 0 => lanes4!(
                    |va, vb| {
                        let hi = _mm256_cmpeq_epi64(_mm256_and_si256(va, one), one);
                        let vc = _mm256_loadu_si256(pc_.add(i).cast());
                        _mm256_blendv_epi8(vc, vb, hi)
                    },
                    vmask
                ),
                _ => {}
            }
            i
        }
    }
}

/// Executes a lowered program over the arena.
///
/// Work accounting matches the generic interpreter exactly: every
/// value-producing instruction adds one to `ops` (jumps are free; a mux
/// diamond's taken `Ext` stands in for the `CondMux` item), and every
/// fused trigger adds one to `dynamic` (standing in for the engine's
/// per-output snapshot compare). An [`Op1::Commit`] adds one to
/// `dynamic` and nothing to `ops`, as the engines' in-place register
/// commit does.
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
    // Under `race-sanitizer` each load the definition actually performs
    // is recorded (an untaken mux way is not).
    let ld = |off: u32| {
        #[cfg(feature = "race-sanitizer")]
        crate::sanitizer::note_read(off, 1);
        // SAFETY: operand offsets are in-bounds layout slots that no
        // other thread concurrently writes — the footprint layer proves
        // the lowered operand offsets match the generic block's reads
        // (R0501), and every cross-partition write/read overlap of those
        // footprints is ordered by a wait edge of the dataflow schedule
        // (S0601), which is all that runs partitions concurrently.
        unsafe { *arena.add(off as usize) }
    };
    macro_rules! value {
        ($val:expr) => {
            $val
        };
    }
    let mut pc = 0usize;
    while pc < code.len() {
        // SAFETY: the loop condition bounds `pc` on every iteration,
        // including after jumps.
        let inst = unsafe { code.get_unchecked(pc) };
        pc += 1;
        let val = op1_match!(inst, ld, mems, value!(), {
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
        });
        let commit = inst.op == Op1::Commit;
        *ops += !commit as u64;
        let val = val & inst.mask;
        #[cfg(feature = "race-sanitizer")]
        crate::sanitizer::note_write(inst.dst, 1);
        // SAFETY: `inst.dst` is a declared write of this partition
        // (R0501 proves it equals the generic block's write set, R0504
        // bounds it to the partition's own member slots and — for a
        // `Commit` — the out-slots of the registers it elides, and every
        // word has one writing partition — R0502 over the whole plan);
        // any other partition's read of it is ordered by a schedule edge
        // (S0601). The fused-tail pre-write read touches the same slot.
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
                    let woken = prog
                        .consumers
                        .get_unchecked(inst.ws as usize..inst.we as usize);
                    if commit {
                        woken
                            .iter()
                            .for_each(|&c| flags.wake_state(inst.imm as u32, c));
                    } else {
                        woken.iter().for_each(|&c| flags.wake(c));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Explicit, so that `Commit` names the opcode here and not the
    // block-level `compile::Commit` that `super::*` also brings in.
    use super::Op1::Commit;
    use super::Op1::*;
    use super::*;
    use crate::machine::{commit_state_raw, run_step_raw};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    const ALL: [Op1; 36] = [
        Add, Sub, Mul, DivU, DivS, RemU, RemS, LtU, LtS, LeqU, LeqS, Eq, Neq, Shl, ShrU, ShrS,
        Dshl, DshrU, DshrS, Neg, Not, And, Or, Xor, Andr, Orr, Xorr, Cat, Bits, Ext, Mux, MemRead,
        Commit, Jmp, JmpIf0, Generic,
    ];
    /// Scalar arena size of every test: operands live in `0..16`,
    /// destinations in `16..WORDS`.
    const WORDS: usize = 40;
    /// Bank depth; bank `k` entry `j` holds `bank_word(k, j)`.
    const DEPTH: usize = 6;
    /// Trials per opcode / program (Miri interprets ~1000x slower).
    const TRIALS: usize = if cfg!(miri) { 6 } else { 200 };

    fn bank_word(bank: usize, addr: usize, salt: u64) -> u64 {
        ((bank as u64 + 1) << 40) | ((addr as u64) << 8) | salt
    }

    fn banks(salt: u64) -> Vec<MemBank> {
        (0..2)
            .map(|k| MemBank {
                words_per: 1,
                depth: DEPTH,
                width: 64,
                data: (0..DEPTH).map(|j| bank_word(k, j, salt)).collect(),
            })
            .collect()
    }

    /// A value with the edge cases (0, 1, all-ones, small, shift counts
    /// around the word size) over-represented.
    fn rand_word(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..7u32) {
            0 => 0,
            1 => 1,
            2 => u64::MAX,
            3 => rng.gen_range(0..8u64),
            4 => rng.gen_range(62..=65u64),
            _ => rng.gen(),
        }
    }

    fn rand_sx(rng: &mut StdRng) -> u8 {
        if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(1..=63u32) as u8
        }
    }

    fn rand_mask(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..4u32) {
            0 => u64::MAX,
            1 => 1,
            _ => top_mask(rng.gen_range(1..=64u32)),
        }
    }

    /// Fills every field but the operand offsets with values the
    /// lowering can produce (shift counts the definition's `<<`/`>>`
    /// accept, `sxc` a destination width for the shifts), edge cases
    /// included: static shifts at and past 64 and past the destination
    /// width, masks of one bit and of all 64.
    fn rand_fields(inst: &mut Inst1, rng: &mut StdRng) {
        inst.sxa = rand_sx(rng);
        // A zero-extended divisor: `sext` of a value wider than its
        // shift claims could turn a non-zero divisor into zero.
        inst.sxb = if matches!(inst.op, DivS | RemS) {
            0
        } else {
            rand_sx(rng)
        };
        inst.mask = rand_mask(rng);
        inst.sxc = match inst.op {
            Shl | Dshl => rng.gen_range(1..=64u32) as u8,
            _ => rand_sx(rng),
        };
        inst.imm = match inst.op {
            Shl | ShrU | ShrS => rng.gen_range(0..=70u64),
            Cat | Bits => rng.gen_range(0..=63u64),
            Andr => top_mask(rng.gen_range(1..=64u32)),
            MemRead => DEPTH as u64,
            _ => rng.gen(),
        };
    }

    /// The definition, run once with a recording `ld`: the masked value
    /// (`None` for the control opcodes) and every offset it loaded.
    /// `JmpIf0`'s selector load is the executors' own, mirrored here.
    fn eval(inst: &Inst1, arena: &[u64], mems: &[MemBank]) -> (Option<u64>, Vec<u32>) {
        let loads = RefCell::new(Vec::new());
        let ld = |off: u32| {
            loads.borrow_mut().push(off);
            arena[off as usize]
        };
        macro_rules! masked {
            ($val:expr) => {
                Some($val & inst.mask)
            };
        }
        let val = op1_match!(inst, ld, mems, masked!(), {
            Jmp | Generic => None,
            JmpIf0 => {
                ld(inst.b);
                None
            }
        });
        (val, loads.into_inner())
    }

    /// Runs `prog` through the scalar executor; returns `(ops, dynamic)`.
    fn run_scalar(
        prog: &Tier1Program,
        arena: &mut [u64],
        mems: &[MemBank],
        flags: &[Cell<u64>],
    ) -> (u64, u64) {
        let (mut ops, mut dynamic) = (0, 0);
        // SAFETY: every test program keeps its offsets below `WORDS`,
        // the arena length, and is run single-threaded.
        unsafe {
            run_tier1_raw(
                prog,
                arena.as_mut_ptr(),
                mems,
                &CellFlags(flags),
                &mut ops,
                &mut dynamic,
            );
        }
        (ops, dynamic)
    }

    fn program(code: Vec<Inst1>, generic: Vec<Item>, consumers: Vec<u32>) -> Tier1Program {
        Tier1Program {
            sigs: vec![u32::MAX; code.len()],
            code,
            generic,
            consumers,
            unfused: Vec::new(),
            unabsorbed: Vec::new(),
            stats: TierStats::default(),
        }
    }

    /// (a) The operand-role table against the definition: whatever an
    /// arm loads is one of `roles().reads()`, every listed read is
    /// loaded (always, for branch-free arms; on some input, for the six
    /// arms that branch before loading), and a value comes out exactly
    /// when the table says `dst` is written.
    #[test]
    fn role_table_bounds_what_the_definition_loads() {
        let mut rng = StdRng::seed_from_u64(0x15A);
        let mems = banks(0);
        for op in ALL {
            let mut inst = Inst1::new(op, 16, 0);
            (inst.a, inst.b, inst.c) = (3, 7, 11);
            if op == MemRead {
                inst.c = 1;
            }
            let roles = inst.roles();
            let allowed: BTreeSet<u32> = roles.reads().iter().copied().collect();
            assert_eq!(allowed.len(), roles.reads().len(), "{op:?}: duplicate read");
            let mut union = BTreeSet::new();
            for _ in 0..TRIALS.max(64) {
                rand_fields(&mut inst, &mut rng);
                let arena: Vec<u64> = (0..WORDS).map(|_| rand_word(&mut rng)).collect();
                let (val, loads) = eval(&inst, &arena, &mems);
                let loaded: BTreeSet<u32> = loads.into_iter().collect();
                assert!(loaded.is_subset(&allowed), "{op:?} loaded {loaded:?}");
                if !matches!(op, Mux | DivS | Shl | ShrU | Dshl | DshrU) {
                    assert_eq!(loaded, allowed, "{op:?} is branch-free");
                }
                assert_eq!(val.is_some(), roles.writes_dst, "{op:?}");
                union.extend(loaded);
            }
            assert_eq!(union, allowed, "{op:?}: a listed read is never loaded");
        }
    }

    /// The table's other three columns, derived from what the scalar
    /// executor does: `a` is a jump target exactly when the instruction
    /// can skip its successor, `dst` is stored exactly when
    /// `writes_dst`, and the bank read is bank `c`.
    #[test]
    fn role_table_matches_executor_control_and_banks() {
        let mems = banks(0);
        for op in ALL {
            if op == Generic {
                let roles = Inst1::new(op, 0, 0).roles();
                assert!(roles.reads().is_empty() && !roles.writes_dst && !roles.jumps);
                assert_eq!(roles.bank, None);
                continue;
            }
            // Slot 2 holds 5, slot 4 (the `JmpIf0` selector, a zero
            // divisor, a shift count, a clear enable) holds 0.
            let mut first = Inst1::new(op, 16, 0xFF);
            (first.a, first.b, first.c, first.sxc) = (2, 4, 1, 8);
            first.imm = if op == MemRead { DEPTH as u64 } else { 1 };
            let marker = Inst1 {
                a: 2,
                ..Inst1::new(Ext, 17, u64::MAX)
            };
            let last = Inst1 { dst: 18, ..marker };
            let prog = program(vec![first, marker, last], Vec::new(), Vec::new());
            let mut arena = vec![0u64; WORDS];
            (arena[2], arena[16], arena[17]) = (5, 0xDEAD, 0xDEAD);
            run_scalar(&prog, &mut arena, &mems, &[]);
            let roles = first.roles();
            assert_eq!(arena[17] == 0xDEAD, roles.jumps, "{op:?}: jump column");
            assert_eq!(arena[16] != 0xDEAD, roles.writes_dst, "{op:?}: dst column");
        }
        for bank in 0..2u32 {
            let mut inst = Inst1::new(MemRead, 16, u64::MAX);
            (inst.a, inst.b, inst.c, inst.imm) = (2, 3, bank, DEPTH as u64);
            let mut arena = vec![0u64; WORDS];
            (arena[2], arena[3]) = (4, 1);
            let (val, _) = eval(&inst, &arena, &mems);
            assert_eq!(val, Some(bank_word(bank as usize, 4, 0)));
            assert_eq!(inst.roles().bank, Some(bank));
        }
    }

    /// Under `race-sanitizer` the scalar executor's own `ld` and store
    /// are the shadow-memory hooks: a load of a word another partition
    /// wrote this cycle, with no schedule edge, panics — and a mux way
    /// that was not taken was not loaded, so it is not reported.
    #[cfg(feature = "race-sanitizer")]
    #[test]
    fn sanitizer_sees_exactly_the_loads_performed() {
        use crate::sanitizer::{enter_at, ShadowMem};
        let run = |sel: u64| {
            let shadow = ShadowMem::new(WORDS, Default::default());
            let epoch = shadow.advance_base(2) + 1;
            let mut arena = vec![0u64; WORDS];
            arena[1] = sel;
            // Partition 1 writes slot 16; partition 2 muxes slot 2
            // (taken when `sel` = 1) against slot 16.
            let writer = Inst1 {
                a: 3,
                ..Inst1::new(Ext, 16, u64::MAX)
            };
            let mut reader = Inst1::new(Mux, 17, u64::MAX);
            (reader.a, reader.b, reader.c) = (1, 2, 16);
            {
                let _scope = enter_at(&shadow, 1, epoch);
                run_scalar(&program(vec![writer], vec![], vec![]), &mut arena, &[], &[]);
            }
            let _scope = enter_at(&shadow, 2, epoch);
            run_scalar(&program(vec![reader], vec![], vec![]), &mut arena, &[], &[]);
        };
        run(1);
        let raced =
            std::panic::catch_unwind(|| run(0)).expect_err("taking the low way loads slot 16");
        let msg = raced.downcast_ref::<String>().expect("panic message");
        assert!(
            msg.contains("read arena word 16 written by partition p1"),
            "{msg}"
        );
    }

    // ---- the definition against the generic kernels ----

    fn netlist_of(src: &str) -> Netlist {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        Netlist::from_circuit(&lowered).unwrap()
    }

    fn arg(off: u32, width: u32, signed: bool) -> ArgRef {
        ArgRef {
            off,
            words: 1,
            width,
            signed,
        }
    }

    /// A well-typed one-word step of `kind` over operand slots 1, 2, 3
    /// and destination slot 16 (FIRRTL result widths, everything ≤ 64
    /// bits; `Copy` takes any destination width).
    fn typed_step(kind: OpKind, rng: &mut StdRng) -> Step {
        use OpKind as K;
        let s = rng.gen_bool(0.5);
        // Widths lean on the widest case, where sign handling bites.
        let w = |rng: &mut StdRng, hi: u32| {
            if rng.gen_bool(0.25) {
                hi
            } else {
                rng.gen_range(1..=hi)
            }
        };
        let (args, params, dst_w) = match kind {
            K::Add | K::Sub => {
                let (wa, wb) = (w(rng, 63), w(rng, 63));
                (vec![arg(1, wa, s), arg(2, wb, s)], vec![], wa.max(wb) + 1)
            }
            K::Mul | K::Cat => {
                let (wa, wb) = (w(rng, 32), w(rng, 32));
                let s = s && kind == K::Mul;
                (vec![arg(1, wa, s), arg(2, wb, s)], vec![], wa + wb)
            }
            K::Div => {
                let (wa, wb) = (w(rng, 63), w(rng, 63));
                (vec![arg(1, wa, s), arg(2, wb, s)], vec![], wa + s as u32)
            }
            K::Rem => {
                let (wa, wb) = (w(rng, 64), w(rng, 64));
                (vec![arg(1, wa, s), arg(2, wb, s)], vec![], wa.min(wb))
            }
            K::Lt | K::Leq | K::Gt | K::Geq | K::Eq | K::Neq => (
                vec![arg(1, w(rng, 64), s), arg(2, w(rng, 64), s)],
                vec![],
                1,
            ),
            K::And | K::Or | K::Xor => {
                let (wa, wb) = (w(rng, 64), w(rng, 64));
                (vec![arg(1, wa, s), arg(2, wb, s)], vec![], wa.max(wb))
            }
            K::Shl => {
                let wa = w(rng, 40);
                let n = rng.gen_range(0..=64 - wa);
                (vec![arg(1, wa, s)], vec![n as u64], wa + n)
            }
            K::Shr => {
                let wa = w(rng, 64);
                // Counts straddle the word size, where the definition clamps.
                let near = rng.gen_bool(0.3);
                let n = rng.gen_range(if near { 61..=66u32 } else { 0..=70 });
                (
                    vec![arg(1, wa, s)],
                    vec![n as u64],
                    wa.saturating_sub(n).max(1),
                )
            }
            K::Dshl => {
                let (wa, wb) = (w(rng, 32), w(rng, 5));
                (
                    vec![arg(1, wa, s), arg(2, wb, false)],
                    vec![],
                    wa + (1 << wb) - 1,
                )
            }
            K::Dshr => {
                let wa = w(rng, 64);
                (vec![arg(1, wa, s), arg(2, w(rng, 64), false)], vec![], wa)
            }
            K::Neg => {
                let wa = w(rng, 63);
                (vec![arg(1, wa, s)], vec![], wa + 1)
            }
            K::Not => {
                let wa = w(rng, 64);
                (vec![arg(1, wa, s)], vec![], wa)
            }
            K::Andr | K::Orr | K::Xorr => (vec![arg(1, w(rng, 64), false)], vec![], 1),
            K::Bits => {
                let wa = w(rng, 64);
                let lo = rng.gen_range(0..wa);
                let hi = rng.gen_range(lo..wa);
                (vec![arg(1, wa, s)], vec![hi as u64, lo as u64], hi - lo + 1)
            }
            K::Mux => {
                let (wh, wl) = (w(rng, 64), w(rng, 64));
                let ways = vec![arg(1, 1, false), arg(2, wh, s), arg(3, wl, s)];
                (ways, vec![], wh.max(wl))
            }
            K::Copy => (vec![arg(1, w(rng, 64), s)], vec![], w(rng, 64)),
        };
        // Dataflow narrowing may leave a destination narrower than its
        // FIRRTL type (the `cat`/`bits` kernels insist on theirs).
        let dst_w = if !matches!(kind, K::Cat | K::Bits) && rng.gen_bool(0.3) {
            rng.gen_range(1..=dst_w)
        } else {
            dst_w
        };
        Step {
            kind: StepKind::Op(kind),
            dst: DstRef {
                off: 16,
                words: 1,
                width: dst_w,
            },
            args,
            params,
            sig: SignalId(0),
        }
    }

    /// An arena whose operand slots hold values normalized to `args`'
    /// widths (what every engine maintains), and a stale destination.
    fn arena_for(args: &[ArgRef], rng: &mut StdRng) -> Vec<u64> {
        let mut arena = vec![0u64; WORDS];
        for a in args {
            arena[a.off as usize] = rand_word(rng) & top_mask(a.width);
        }
        arena[16] = rng.gen();
        arena
    }

    const KINDS: [OpKind; 27] = {
        use OpKind::*;
        [
            Add, Sub, Mul, Div, Rem, Lt, Leq, Gt, Geq, Eq, Neq, Shl, Shr, Dshl, Dshr, Neg, Not,
            And, Or, Xor, Andr, Orr, Xorr, Cat, Bits, Mux, Copy,
        ]
    };

    /// Every `OpKind`, lowered and run through the definition, leaves the
    /// arena exactly as the generic kernel (`eval_op`, the golden
    /// interpreter's) does — the per-opcode oracle that makes a mutated
    /// arm of `op1_match!` fail here, not only in a whole-design
    /// differential. `MemRead` and the `Jmp`/`JmpIf0` diamond follow.
    #[test]
    fn definition_matches_generic_kernels() {
        let netlist = netlist_of(
            "circuit T :\n  module T :\n    input a : UInt<1>\n    output o : UInt<1>\n    o <= a\n",
        );
        let mut rng = StdRng::seed_from_u64(0x0DD5);
        let mems = banks(0);
        let mut seen = BTreeSet::new();
        for kind in KINDS {
            for _ in 0..TRIALS {
                let step = typed_step(kind, &mut rng);
                let inst = lower_step(&netlist, &step).expect("one-word step lowers");
                seen.insert(format!("{:?}", inst.op));
                let mut generic = arena_for(&step.args, &mut rng);
                let mut tier1 = generic.clone();
                let mut ops = 0;
                // SAFETY: offsets 1, 2, 3 and 16 are inside the arena.
                unsafe { run_step_raw(&step, generic.as_mut_ptr(), &mems, &mut ops) };
                let prog = program(vec![inst], Vec::new(), Vec::new());
                assert_eq!(run_scalar(&prog, &mut tier1, &mems, &[]), (1, 0));
                assert_eq!(tier1, generic, "{step:?} lowered to {inst:?}");
            }
        }
        // (`Commit` comes from a block's commits, not from an `OpKind`;
        // `commit_instruction_is_the_register_commit` is its oracle.)
        let value_ops = ALL
            .iter()
            .filter(|op| !matches!(op, MemRead | Commit | Jmp | JmpIf0 | Generic));
        let expected: BTreeSet<String> = value_ops.map(|op| format!("{op:?}")).collect();
        assert_eq!(seen, expected, "an opcode no OpKind lowered to");

        // MemRead: enabled/disabled, in and out of range, both banks.
        for _ in 0..TRIALS {
            let bank = rng.gen_range(0..2u32);
            let step = Step {
                kind: StepKind::MemRead { mem: bank, port: 0 },
                dst: DstRef {
                    off: 16,
                    words: 1,
                    width: 64,
                },
                args: vec![arg(1, 4, false), arg(2, 1, false)],
                params: vec![],
                sig: SignalId(0),
            };
            let mut inst = Inst1::new(MemRead, 16, u64::MAX);
            (inst.a, inst.b, inst.c, inst.imm) = (1, 2, bank, DEPTH as u64);
            let mut generic = arena_for(&step.args, &mut rng);
            let mut tier1 = generic.clone();
            let mut ops = 0;
            // SAFETY: as above.
            unsafe { run_step_raw(&step, generic.as_mut_ptr(), &mems, &mut ops) };
            run_scalar(
                &program(vec![inst], Vec::new(), Vec::new()),
                &mut tier1,
                &mems,
                &[],
            );
            assert_eq!(tier1, generic, "MemRead bank {bank}");
        }

        // The forward-jump diamond against the generic lazy mux.
        for _ in 0..TRIALS {
            // The ways: an add into slot 17, a subtract of the same
            // operands into slot 18.
            let mut hi = typed_step(OpKind::Add, &mut rng);
            hi.dst.off = 17;
            let mut lo = hi.clone();
            (lo.kind, lo.dst.off) = (StepKind::Op(OpKind::Sub), 18);
            let item = Item::CondMux {
                sel: arg(3, 1, false),
                dst: DstRef {
                    off: 16,
                    words: 1,
                    width: 64,
                },
                high: arg(17, hi.dst.width, hi.args[0].signed),
                low: arg(18, lo.dst.width, lo.args[0].signed),
                high_items: vec![Item::Step(hi.clone())],
                low_items: vec![Item::Step(lo)],
                sig: SignalId(0),
            };
            let block = Block {
                items: vec![item.clone()],
                commits: Vec::new(),
            };
            let prog = lower_tier1(&netlist, &block, &[], false);
            assert!(prog.generic.is_empty() && prog.code.len() == 6);
            let mut generic = arena_for(&[hi.args[0], hi.args[1], arg(3, 1, false)], &mut rng);
            let mut tier1 = generic.clone();
            let mut ops = 0;
            // SAFETY: as above.
            unsafe { run_items_raw(&[item], generic.as_mut_ptr(), &mems, &mut ops) };
            assert_eq!(run_scalar(&prog, &mut tier1, &mems, &[]), (ops, 0));
            assert_eq!(tier1, generic);
        }
    }

    /// `lower_tier1` turns a block's single-word commits into `Commit`
    /// instructions (under fusion only) and reports the rest; the
    /// instruction leaves the arena as `commit_state_raw` does, counts
    /// one dynamic check and no op, and wakes through `wake_state` with
    /// its register-plan index.
    #[test]
    fn commit_instruction_is_the_register_commit() {
        struct Recorder(RefCell<Vec<(Option<u32>, u32)>>);
        impl FlagSink for Recorder {
            fn wake(&self, consumer: u32) {
                self.0.borrow_mut().push((None, consumer));
            }
            fn wake_state(&self, reg_plan: u32, consumer: u32) {
                self.0.borrow_mut().push((Some(reg_plan), consumer));
            }
        }
        let netlist = netlist_of(
            "circuit T :\n  module T :\n    input a : UInt<1>\n    output o : UInt<1>\n    o <= a\n",
        );
        let commit = |next, out, words, reg_plan| crate::compile::Commit {
            next,
            out,
            words,
            reg_plan,
            consumers: vec![2, 0],
            sig: SignalId(0),
        };
        let block = Block {
            items: Vec::new(),
            commits: vec![commit(3, 16, 1, 7), commit(4, 18, 2, 9)],
        };
        let unfused = lower_tier1(&netlist, &block, &[], false);
        assert!(unfused.code.is_empty());
        assert_eq!(unfused.unabsorbed, vec![0, 1]);
        let prog = lower_tier1(&netlist, &block, &[], true);
        assert_eq!(prog.unabsorbed, vec![1], "two words stay with the engine");
        assert_eq!(
            (prog.stats.absorbed_commits, prog.stats.total_commits),
            (1, 2)
        );
        let [inst] = prog.code[..] else {
            panic!("one instruction, got {:?}", prog.code)
        };
        assert_eq!((inst.op, inst.a, inst.dst, inst.imm), (Commit, 3, 16, 7));
        assert_eq!(inst.mask, u64::MAX);
        assert_eq!(&prog.consumers[inst.ws as usize..inst.we as usize], [2, 0]);

        let mut rng = StdRng::seed_from_u64(0xC0);
        for _ in 0..TRIALS {
            let mut arena: Vec<u64> = (0..WORDS).map(|_| rand_word(&mut rng)).collect();
            if rng.gen_bool(0.3) {
                arena[16] = arena[3];
            }
            let mut want = arena.clone();
            // SAFETY: slots 3 and 16 are distinct words inside the arena.
            let changed = unsafe { commit_state_raw(want.as_mut_ptr(), 3, 16, 1) };
            let sink = Recorder(RefCell::new(Vec::new()));
            let (mut ops, mut dynamic) = (0, 0);
            // SAFETY: the program touches slots 3 and 16 of a
            // `WORDS`-word arena, single-threaded.
            unsafe {
                run_tier1_raw(
                    &prog,
                    arena.as_mut_ptr(),
                    &[],
                    &sink,
                    &mut ops,
                    &mut dynamic,
                );
            }
            assert_eq!(arena, want);
            assert_eq!((ops, dynamic), (0, 1));
            let woken = if changed {
                vec![(Some(7), 2), (Some(7), 0)]
            } else {
                Vec::new()
            };
            assert_eq!(sink.0.into_inner(), woken);
        }
    }

    // ---- the lane executor ----

    /// A random forward-jumping program over operand slots `0..16`:
    /// value instructions (about a third fused), a mux diamond, a
    /// `MemRead` and one `Generic` fallback item. Every instruction has
    /// its own destination, as lowered programs do.
    fn rand_program(rng: &mut StdRng) -> Tier1Program {
        // `ALL` lists the 31 slot-to-slot value opcodes first.
        const VALUE: &[Op1] = ALL.split_at(31).0;
        let mut code = Vec::new();
        let mut consumers = Vec::new();
        let mut next_dst = 16;
        let mut value_inst = |code: &mut Vec<Inst1>, op: Op1, rng: &mut StdRng| {
            let mut inst = Inst1::new(op, next_dst, 0);
            next_dst += 1;
            rand_fields(&mut inst, rng);
            // Operands: inputs, or an earlier result.
            let mut slot = || rng.gen_range(0..inst.dst);
            (inst.a, inst.b, inst.c) = (slot(), slot(), slot());
            if rng.gen_bool(0.35) {
                inst.ws = consumers.len() as u32;
                consumers.extend((0..rng.gen_range(0..3u32)).map(|_| rng.gen_range(0..4u32)));
                inst.we = consumers.len() as u32;
            }
            code.push(inst);
        };
        for _ in 0..6 {
            let op = VALUE[rng.gen_range(0..VALUE.len())];
            value_inst(&mut code, op, rng);
        }
        let mut mem = Inst1::new(MemRead, 38, u64::MAX);
        (mem.a, mem.b, mem.c, mem.imm) = (0, 1, rng.gen_range(0..2), DEPTH as u64);
        code.push(mem);
        // Diamond: both ways end in an `Ext` to the same destination.
        let jif = code.len();
        code.push(Inst1 {
            b: rng.gen_range(0..16),
            ..Inst1::new(JmpIf0, 0, 0)
        });
        value_inst(&mut code, VALUE[rng.gen_range(0..VALUE.len())], rng);
        let join = Inst1 {
            a: rng.gen_range(0..16),
            ..Inst1::new(Ext, 39, u64::MAX)
        };
        code.push(join);
        let jmp = code.len();
        code.push(Inst1::new(Jmp, 0, 0));
        code[jif].a = code.len() as u32;
        value_inst(&mut code, VALUE[rng.gen_range(0..VALUE.len())], rng);
        code.push(Inst1 {
            a: rng.gen_range(0..16),
            ..join
        });
        code[jmp].a = code.len() as u32;
        code.push(Inst1::new(Generic, 0, 0));
        for _ in 0..3 {
            let op = VALUE[rng.gen_range(0..VALUE.len())];
            value_inst(&mut code, op, rng);
        }
        // The program's tail: a register commit of an earlier result.
        let ws = consumers.len() as u32;
        consumers.push(rng.gen_range(0..4u32));
        code.push(Inst1 {
            a: rng.gen_range(16..20),
            ws,
            we: ws + 1,
            ..Inst1::new(Commit, 36, u64::MAX)
        });
        let mut fallback = typed_step(OpKind::Add, rng);
        (fallback.dst.off, fallback.dst.width) = (37, 64);
        program(code, vec![Item::Step(fallback)], consumers)
    }

    /// (c) The lane executor ≡ the scalar executor run once per awake
    /// lane — arena image, both work counters and the wake masks — on
    /// sparse and dense masks, fused tails, divergent diamonds and the
    /// gather/scatter fallback. `simd = false` is the scalar lane path
    /// an AVX2 host otherwise never reaches (and the only one Miri sees);
    /// `simd = true` adds the vector kernels where the host has them.
    #[test]
    fn lane_executor_matches_per_lane_scalar() {
        let mut rng = StdRng::seed_from_u64(0x1A7E5);
        for trial in 0..TRIALS {
            let prog = rand_program(&mut rng);
            let generic_rw: Vec<ItemRw> = prog.generic.iter().map(item_rw).collect();
            let lanes = [1, 3, 5, 8, 12, 64][trial % 6];
            let all = u64::MAX >> (64 - lanes);
            let eval_mask = match trial % 3 {
                0 => all,                                         // dense: the prefix loops
                1 => (rng.gen::<u64>() & all) | 1 << (lanes - 1), // sparse
                _ => all >> rng.gen_range(0..lanes),              // shorter prefix
            };
            let lane_mems: Vec<Vec<MemBank>> = (0..lanes).map(|l| banks(l as u64)).collect();
            let before: Vec<u64> = (0..WORDS * lanes).map(|_| rand_word(&mut rng)).collect();
            for simd in [false, true] {
                let mut strided = before.clone();
                let mut scratch = vec![0u64; WORDS];
                let flags: Vec<Cell<u64>> = (0..4).map(|_| Cell::new(0)).collect();
                let mut counters = vec![WorkCounters::default(); lanes];
                // SAFETY: the arena is `WORDS * lanes` words for programs
                // confined to `0..WORDS`, `scratch` is `WORDS` words,
                // `generic_rw` parallels `prog.generic`, there is one
                // bank set and one counter per lane, and the mask is
                // non-zero inside `lanes`.
                unsafe {
                    run_tier1_lanes(
                        &prog,
                        &generic_rw,
                        strided.as_mut_ptr(),
                        lanes,
                        eval_mask,
                        &lane_mems,
                        &mut scratch,
                        &flags,
                        &mut counters,
                        simd,
                    );
                }
                for l in 0..lanes {
                    let lane = |img: &[u64]| -> Vec<u64> {
                        (0..WORDS).map(|w| img[w * lanes + l]).collect()
                    };
                    let mut scalar = lane(&before);
                    let woken = [Cell::new(0u64)];
                    let mut expect = WorkCounters::default();
                    if eval_mask >> l & 1 == 1 {
                        (expect.ops_evaluated, expect.dynamic_checks) =
                            run_scalar(&prog, &mut scalar, &lane_mems[l], &woken);
                    }
                    let ctx = format!("trial {trial} lane {l}/{lanes} simd {simd}");
                    assert_eq!(lane(&strided), scalar, "{ctx}: arena");
                    assert_eq!(counters[l], expect, "{ctx}: counters");
                    for (c, flag) in flags.iter().enumerate() {
                        let bit = woken[0].get() >> c & 1;
                        assert_eq!(flag.get() >> l & 1, bit, "{ctx}: wake {c}");
                    }
                }
            }
        }
    }

    /// (b) `lanes_simd::dispatch` plus the scalar remainder ≡ the
    /// definition, for every opcode with a vector form, `n` in `4..=11`:
    /// the returned count is a multiple of four no larger than `n`, zero
    /// where the vector form must decline (sign-extended operands, shift
    /// counts the definition special-cases), lanes `0..done` hold the
    /// definition's value and no lane at or past `done` is touched.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_dispatch_matches_the_definition() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        const VECTOR: [Op1; 17] = [
            Add, Sub, And, Or, Xor, Eq, Neq, LtU, LeqU, Orr, Andr, Bits, ShrU, Shl, Cat, Ext, Mux,
        ];
        const LANES: usize = 12;
        let mut rng = StdRng::seed_from_u64(0xA2);
        let mems = banks(0);
        let mut vectorized = BTreeSet::new();
        for op in VECTOR {
            for trial in 0..TRIALS {
                let n = 4 + trial % 8;
                let mut inst = Inst1::new(op, 16, 0);
                (inst.a, inst.b, inst.c) = (3, 7, 11);
                rand_fields(&mut inst, &mut rng);
                if trial % 2 == 0 {
                    // The shapes lowering emits for unsigned operands.
                    (inst.sxa, inst.sxb) = (0, 0);
                    if op == Mux {
                        inst.sxc = 0;
                    }
                }
                let before: Vec<u64> = (0..WORDS * LANES).map(|_| rand_word(&mut rng)).collect();
                let mut strided = before.clone();
                // SAFETY: AVX2 checked above; offsets 3, 7, 11, 16 are
                // inside the `WORDS * LANES` arena and `n <= LANES`.
                let done = unsafe { lanes_simd::dispatch(&inst, strided.as_mut_ptr(), LANES, n) };
                assert!(done == 0 || done == n & !3, "{inst:?}: done {done} of {n}");
                let must_decline = match op {
                    Add | Sub | And | Or | Xor | Eq | Neq => inst.sxa != 0 || inst.sxb != 0,
                    Ext => inst.sxa != 0,
                    Mux => inst.sxb != 0 || inst.sxc != 0,
                    Shl => inst.imm >= 64 || inst.imm >= inst.sxc as u64,
                    ShrU => inst.imm >= 64,
                    _ => false,
                };
                assert_eq!(done == 0, must_decline, "{inst:?}");
                if done != 0 {
                    vectorized.insert(format!("{op:?}"));
                }
                for l in 0..LANES {
                    let lane: Vec<u64> = (0..WORDS).map(|w| before[w * LANES + l]).collect();
                    let got = strided[16 * LANES + l];
                    if l < done {
                        assert_eq!(Some(got), eval(&inst, &lane, &mems).0, "{inst:?} lane {l}");
                    } else {
                        assert_eq!(got, lane[16], "{inst:?}: lane {l} is past `done`");
                    }
                }
            }
        }
        assert_eq!(
            vectorized.len(),
            VECTOR.len(),
            "vector forms hit: {vectorized:?}"
        );
    }
}
