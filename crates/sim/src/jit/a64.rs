//! AArch64 emitter for [`Tier1Program`]s (AAPCS64).
//!
//! Register plan (fixed for the whole body):
//!
//! | register | role                                   |
//! |----------|----------------------------------------|
//! | `x0`     | arena base (argument 1)                |
//! | `x1`     | activity flags base (argument 2)       |
//! | `x2`     | bank table base (argument 3)           |
//! | `x9`     | accumulator (instruction result)       |
//! | `x10`    | second operand / scratch               |
//! | `x11`    | shift amounts / division quotient      |
//! | `x12`    | the constant 1 (fused flag stores)     |
//! | `x13`    | `ops` counter                          |
//! | `x14`    | `dynamic` counter                      |
//! | `x15`    | arena/flag offsets (`movz`/`movk`)     |
//!
//! Arena accesses materialize the word offset in `x15` and use the
//! register-offset form `ldr/str Xt, [x0, x15, lsl #3]`; fused wakes are
//! `strb w12, [x1, x15]`; bank pointers load from the per-call table at
//! `[x2, x15, lsl #3]` with `x15 = c * 2` (16-byte entries). These
//! uniform shapes keep the J07xx auditor's decoder small.
//!
//! AArch64's division semantics line up with the interpreter's edge
//! cases without any branching: `udiv`/`sdiv` return 0 for a zero
//! divisor (and `MIN` for `MIN / -1`, matching the interpreter's `i128`
//! math truncated to a word), and `msub` then reproduces the remainder
//! rules, so `DivU`/`DivS`/`RemU`/`RemS` are all straight-line.

use super::{EmittedCode, JitArch};
use crate::step1::{Inst1, Op1, Tier1Program, NO_FUSE};

const ARENA: u32 = 0;
const FLAGS: u32 = 1;
const BANKS: u32 = 2;
const ACC: u32 = 9;
const SEC: u32 = 10;
const TMP: u32 = 11;
const ONE: u32 = 12;
const OPS: u32 = 13;
const DYN: u32 = 14;
const OFF: u32 = 15;
const XZR: u32 = 31;

// Condition codes.
const EQ: u32 = 0;
const NE: u32 = 1;
const HS: u32 = 2;
const LO: u32 = 3;
const LS: u32 = 9;
const LT: u32 = 11;
const LE: u32 = 13;

/// Branch fixup kinds (differ in immediate field width/position).
#[derive(Clone, Copy)]
enum Fix {
    /// `b` — imm26.
    B,
    /// `b.cond` / `cbz` — imm19 at bit 5.
    Imm19,
    /// `tbz` — imm14 at bit 5.
    Imm14,
}

struct Asm {
    words: Vec<u32>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, usize, Fix)>,
}

impl Asm {
    fn new() -> Asm {
        Asm {
            words: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    fn w(&mut self, word: u32) {
        self.words.push(word);
    }

    fn label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind(&mut self, l: usize) {
        debug_assert!(self.labels[l].is_none(), "label bound twice");
        self.labels[l] = Some(self.words.len());
    }

    /// `movz rd, #imm16, lsl #(hw*16)`.
    fn movz(&mut self, rd: u32, imm16: u32, hw: u32) {
        self.w(0xD280_0000 | (hw << 21) | (imm16 << 5) | rd);
    }

    /// `movk rd, #imm16, lsl #(hw*16)`.
    fn movk(&mut self, rd: u32, imm16: u32, hw: u32) {
        self.w(0xF280_0000 | (hw << 21) | (imm16 << 5) | rd);
    }

    /// Materializes a 32-bit offset (arena word index, flag byte index,
    /// or bank table word index) in `OFF`.
    fn mov_off(&mut self, off: u32) {
        self.movz(OFF, off & 0xFFFF, 0);
        if off >> 16 != 0 {
            self.movk(OFF, off >> 16, 1);
        }
    }

    /// Materializes an arbitrary 64-bit immediate in `rd`.
    fn mov_imm64(&mut self, rd: u32, imm: u64) {
        self.movz(rd, (imm & 0xFFFF) as u32, 0);
        for hw in 1..4 {
            let part = ((imm >> (16 * hw)) & 0xFFFF) as u32;
            if part != 0 {
                self.movk(rd, part, hw);
            }
        }
    }

    /// `ldr rt, [rn, rm, lsl #3]`.
    fn ldr_idx(&mut self, rt: u32, rn: u32, rm: u32) {
        self.w(0xF860_7800 | (rm << 16) | (rn << 5) | rt);
    }

    /// `str rt, [rn, rm, lsl #3]`.
    fn str_idx(&mut self, rt: u32, rn: u32, rm: u32) {
        self.w(0xF820_7800 | (rm << 16) | (rn << 5) | rt);
    }

    /// Arena word load: `x15 = off; ldr rt, [x0, x15, lsl #3]`.
    fn ld_arena(&mut self, rt: u32, off: u32) {
        self.mov_off(off);
        self.ldr_idx(rt, ARENA, OFF);
    }

    /// Arena word store: `x15 = off; str rt, [x0, x15, lsl #3]`.
    fn st_arena(&mut self, rt: u32, off: u32) {
        self.mov_off(off);
        self.str_idx(rt, ARENA, OFF);
    }

    /// Sign-extension by shift count `s` (`sbfm rt, rt, #0, #(63-s)`,
    /// replicating `step1::sext`); no-op for `s == 0`.
    fn sext(&mut self, rt: u32, s: u8) {
        if s == 0 {
            return;
        }
        self.w(0x9340_0000 | ((63 - s as u32) << 10) | (rt << 5) | rt);
    }

    /// `cmp rn, rm`.
    fn cmp_rr(&mut self, rn: u32, rm: u32) {
        self.w(0xEB00_001F | (rm << 16) | (rn << 5));
    }

    /// `cmp rn, #imm12`.
    fn cmp_imm(&mut self, rn: u32, imm12: u32) {
        self.w(0xF100_001F | (imm12 << 10) | (rn << 5));
    }

    /// `cset rd, cond` (`csinc rd, xzr, xzr, !cond`).
    fn cset(&mut self, rd: u32, cond: u32) {
        self.w(0x9A9F_07E0 | ((cond ^ 1) << 12) | rd);
    }

    /// `csel rd, rn, rm, cond`.
    fn csel(&mut self, rd: u32, rn: u32, rm: u32, cond: u32) {
        self.w(0x9A80_0000 | (rm << 16) | (cond << 12) | (rn << 5) | rd);
    }

    /// `and rd, rn, #((1 << width) - 1)` (contiguous low mask,
    /// `width` in 1..=63).
    fn and_mask(&mut self, rd: u32, rn: u32, width: u32) {
        self.w(0x9240_0000 | ((width - 1) << 10) | (rn << 5) | rd);
    }

    /// `eor rd, rn, rm, lsr #sh` (the parity fold).
    fn eor_lsr(&mut self, rd: u32, rn: u32, rm: u32, sh: u32) {
        self.w(0xCA40_0000 | (rm << 16) | (sh << 10) | (rn << 5) | rd);
    }

    /// `add rd, rd, #1` (counter increment).
    fn inc(&mut self, rd: u32) {
        self.w(0x9100_0400 | (rd << 5) | rd);
    }

    fn b(&mut self, l: usize) {
        self.fixups.push((self.words.len(), l, Fix::B));
        self.w(0x1400_0000);
    }

    fn bcond(&mut self, cond: u32, l: usize) {
        self.fixups.push((self.words.len(), l, Fix::Imm19));
        self.w(0x5400_0000 | cond);
    }

    fn cbz(&mut self, rt: u32, l: usize) {
        self.fixups.push((self.words.len(), l, Fix::Imm19));
        self.w(0xB400_0000 | rt);
    }

    /// `tbz rt, #0, l`.
    fn tbz0(&mut self, rt: u32, l: usize) {
        self.fixups.push((self.words.len(), l, Fix::Imm14));
        self.w(0x3600_0000 | rt);
    }

    /// Patches branches; `None` when a displacement overflows its field.
    fn finish(mut self) -> Option<Vec<u8>> {
        for (pos, l, fix) in std::mem::take(&mut self.fixups) {
            let target = self.labels[l].expect("unbound label");
            let rel = target as i64 - pos as i64;
            let (bits, shift, mask) = match fix {
                Fix::B => (26, 0, 0x03FF_FFFF),
                Fix::Imm19 => (19, 5, 0x7FFFF),
                Fix::Imm14 => (14, 5, 0x3FFF),
            };
            if rel < -(1 << (bits - 1)) || rel >= (1 << (bits - 1)) {
                return None;
            }
            self.words[pos] |= ((rel as u32) & mask) << shift;
        }
        Some(self.words.iter().flat_map(|w| w.to_le_bytes()).collect())
    }
}

/// Emits the full AArch64 stream for `prog`; `None` when the program
/// contains a generic fallback or a branch overflows its range.
pub fn emit(prog: &Tier1Program) -> Option<EmittedCode> {
    if prog.code.iter().any(|i| i.op == Op1::Generic) {
        return None;
    }
    let mut a = Asm::new();
    let inst_labels: Vec<usize> = (0..=prog.code.len()).map(|_| a.label()).collect();

    // Prologue: zero the counters, materialize the flag-store constant.
    a.movz(OPS, 0, 0);
    a.movz(DYN, 0, 0);
    a.movz(ONE, 1, 0);

    let mut marks = Vec::with_capacity(prog.code.len());
    for (pc, inst) in prog.code.iter().enumerate() {
        a.bind(inst_labels[pc]);
        let start = (a.words.len() * 4) as u32;
        emit_inst(&mut a, prog, inst, &inst_labels);
        marks.push((start, (a.words.len() * 4) as u32));
    }
    a.bind(inst_labels[prog.code.len()]);

    // Epilogue: x0 = ops | (dynamic << 32); ret.
    a.w(0xAA00_0000 | (DYN << 16) | (32 << 10) | (OPS << 5)); // orr x0, x13, x14, lsl #32
    a.w(0xD65F_03C0); // ret

    Some(EmittedCode {
        arch: JitArch::A64,
        bytes: a.finish()?,
        marks,
    })
}

fn emit_inst(a: &mut Asm, prog: &Tier1Program, inst: &Inst1, inst_labels: &[usize]) {
    /// Loads both operands with their sign extensions.
    fn load_ab(a: &mut Asm, inst: &Inst1) {
        a.ld_arena(ACC, inst.a);
        a.sext(ACC, inst.sxa);
        a.ld_arena(SEC, inst.b);
        a.sext(SEC, inst.sxb);
    }

    match inst.op {
        Op1::Add => {
            load_ab(a, inst);
            a.w(0x8B00_0000 | (SEC << 16) | (ACC << 5) | ACC); // add
        }
        Op1::Sub => {
            load_ab(a, inst);
            a.w(0xCB00_0000 | (SEC << 16) | (ACC << 5) | ACC); // sub
        }
        Op1::Mul => {
            load_ab(a, inst);
            a.w(0x9B00_7C00 | (SEC << 16) | (ACC << 5) | ACC); // mul
        }
        Op1::DivU | Op1::DivS => {
            // udiv/sdiv already return 0 for b == 0, and sdiv MIN / -1
            // wraps to MIN — both exactly the interpreter's results.
            load_ab(a, inst);
            let op = if inst.op == Op1::DivU { 0x0800 } else { 0x0C00 };
            a.w(0x9AC0_0000 | op | (SEC << 16) | (ACC << 5) | ACC);
        }
        Op1::RemU | Op1::RemS => {
            // q = a / b (0 when b == 0); r = a - q*b, which yields `a`
            // for b == 0 and 0 for b == -1 — the interpreter's rules.
            load_ab(a, inst);
            let op = if inst.op == Op1::RemU { 0x0800 } else { 0x0C00 };
            a.w(0x9AC0_0000 | op | (SEC << 16) | (ACC << 5) | TMP);
            // msub acc, tmp, sec, acc
            a.w(0x9B00_8000 | (SEC << 16) | (ACC << 10) | (TMP << 5) | ACC);
        }
        Op1::LtU | Op1::LtS | Op1::LeqU | Op1::LeqS | Op1::Eq | Op1::Neq => {
            load_ab(a, inst);
            a.cmp_rr(ACC, SEC);
            a.cset(
                ACC,
                match inst.op {
                    Op1::LtU => LO,
                    Op1::LtS => LT,
                    Op1::LeqU => LS,
                    Op1::LeqS => LE,
                    Op1::Eq => EQ,
                    _ => NE,
                },
            );
        }
        Op1::Shl => {
            if inst.imm >= inst.sxc as u64 {
                a.movz(ACC, 0, 0);
            } else {
                a.ld_arena(ACC, inst.a);
                if inst.imm > 0 {
                    a.movz(TMP, inst.imm as u32, 0);
                    a.w(0x9AC0_2000 | (TMP << 16) | (ACC << 5) | ACC); // lslv
                }
            }
        }
        Op1::ShrU => {
            if inst.imm >= 64 {
                a.movz(ACC, 0, 0);
            } else {
                a.ld_arena(ACC, inst.a);
                if inst.imm > 0 {
                    a.movz(TMP, inst.imm as u32, 0);
                    a.w(0x9AC0_2400 | (TMP << 16) | (ACC << 5) | ACC); // lsrv
                }
            }
        }
        Op1::ShrS => {
            a.ld_arena(ACC, inst.a);
            a.sext(ACC, inst.sxa);
            let sh = inst.imm.min(63) as u32;
            if sh > 0 {
                a.movz(TMP, sh, 0);
                a.w(0x9AC0_2800 | (TMP << 16) | (ACC << 5) | ACC); // asrv
            }
        }
        Op1::Dshl | Op1::DshrU => {
            // Shift unconditionally (lslv/lsrv wrap mod 64), then select
            // zero for out-of-range counts — branchless.
            a.ld_arena(SEC, inst.b);
            a.ld_arena(ACC, inst.a);
            let (op, bound) = if inst.op == Op1::Dshl {
                (0x2000, inst.sxc as u32) // destination width
            } else {
                (0x2400, 64)
            };
            a.w(0x9AC0_0000 | op | (SEC << 16) | (ACC << 5) | ACC);
            a.cmp_imm(SEC, bound);
            a.csel(ACC, ACC, XZR, LO);
        }
        Op1::DshrS => {
            a.ld_arena(SEC, inst.b);
            a.movz(TMP, 63, 0);
            a.cmp_rr(SEC, TMP);
            a.csel(SEC, SEC, TMP, LS); // sh = min(sh, 63)
            a.ld_arena(ACC, inst.a);
            a.sext(ACC, inst.sxa);
            a.w(0x9AC0_2800 | (SEC << 16) | (ACC << 5) | ACC); // asrv
        }
        Op1::Neg => {
            a.ld_arena(ACC, inst.a);
            a.sext(ACC, inst.sxa);
            a.w(0xCB00_0000 | (ACC << 16) | (XZR << 5) | ACC); // neg
        }
        Op1::Not => {
            a.ld_arena(ACC, inst.a);
            a.sext(ACC, inst.sxa);
            a.w(0xAA20_0000 | (ACC << 16) | (XZR << 5) | ACC); // mvn
        }
        Op1::And | Op1::Or | Op1::Xor => {
            load_ab(a, inst);
            let op = match inst.op {
                Op1::And => 0x8A00_0000,
                Op1::Or => 0xAA00_0000,
                _ => 0xCA00_0000,
            };
            a.w(op | (SEC << 16) | (ACC << 5) | ACC);
        }
        Op1::Andr => {
            a.ld_arena(ACC, inst.a);
            a.mov_imm64(SEC, inst.imm);
            a.cmp_rr(ACC, SEC);
            a.cset(ACC, EQ);
        }
        Op1::Orr => {
            a.ld_arena(ACC, inst.a);
            a.cmp_imm(ACC, 0);
            a.cset(ACC, NE);
        }
        Op1::Xorr => {
            // Parity by xor-folding (no scalar popcount on base AArch64).
            a.ld_arena(ACC, inst.a);
            for sh in [32, 16, 8, 4, 2, 1] {
                a.eor_lsr(ACC, ACC, ACC, sh);
            }
            a.and_mask(ACC, ACC, 1);
        }
        Op1::Cat => {
            a.ld_arena(ACC, inst.a);
            a.movz(TMP, inst.imm as u32, 0);
            a.w(0x9AC0_2000 | (TMP << 16) | (ACC << 5) | ACC); // lslv
            a.ld_arena(SEC, inst.b);
            a.w(0xAA00_0000 | (SEC << 16) | (ACC << 5) | ACC); // orr
        }
        Op1::Bits => {
            a.ld_arena(ACC, inst.a);
            if inst.imm > 0 {
                a.movz(TMP, inst.imm as u32, 0);
                a.w(0x9AC0_2400 | (TMP << 16) | (ACC << 5) | ACC); // lsrv
            }
        }
        Op1::Ext => {
            a.ld_arena(ACC, inst.a);
            a.sext(ACC, inst.sxa);
        }
        Op1::Commit => a.ld_arena(ACC, inst.a),
        Op1::Mux => {
            let (low, done) = (a.label(), a.label());
            a.ld_arena(ACC, inst.a);
            a.tbz0(ACC, low);
            a.ld_arena(ACC, inst.b);
            a.sext(ACC, inst.sxb);
            a.b(done);
            a.bind(low);
            a.ld_arena(ACC, inst.c);
            a.sext(ACC, inst.sxc);
            a.bind(done);
        }
        Op1::MemRead => {
            let (zero, done) = (a.label(), a.label());
            a.ld_arena(ACC, inst.b); // en
            a.tbz0(ACC, zero);
            a.ld_arena(ACC, inst.a); // addr
            a.mov_imm64(SEC, inst.imm); // depth
            a.cmp_rr(ACC, SEC);
            a.bcond(HS, zero);
            a.mov_off(inst.c * 2); // 16-byte table entries
            a.ldr_idx(SEC, BANKS, OFF); // bank data pointer
            a.ldr_idx(ACC, SEC, ACC); // bank[addr]
            a.b(done);
            a.bind(zero);
            a.movz(ACC, 0, 0);
            a.bind(done);
        }
        Op1::Jmp => {
            a.b(inst_labels[inst.a as usize]);
            return;
        }
        Op1::JmpIf0 => {
            a.ld_arena(ACC, inst.b);
            a.and_mask(ACC, ACC, 1);
            a.cbz(ACC, inst_labels[inst.a as usize]);
            return;
        }
        Op1::Generic => unreachable!("emit rejects Generic programs"),
    }

    // Tail: count the op (a commit is not one), mask, store (with the
    // fused CCSS compare-and-wake when this instruction defines a fused
    // output or commits a register).
    if inst.op != Op1::Commit {
        a.inc(OPS);
    }
    if inst.mask != u64::MAX {
        // Result masks are contiguous low-bit masks by construction.
        debug_assert_eq!(inst.mask, essent_bits::top_mask(inst.mask.count_ones()));
        a.and_mask(ACC, ACC, inst.mask.count_ones());
    }
    if inst.ws == NO_FUSE {
        a.st_arena(ACC, inst.dst);
    } else {
        let skip = a.label();
        a.inc(DYN);
        a.mov_off(inst.dst);
        a.ldr_idx(SEC, ARENA, OFF);
        a.cmp_rr(ACC, SEC);
        a.bcond(EQ, skip);
        a.str_idx(ACC, ARENA, OFF); // x15 still holds dst
        for &c in &prog.consumers[inst.ws as usize..inst.we as usize] {
            a.mov_off(c);
            // strb w12, [x1, x15]
            a.w(0x3820_6800 | (OFF << 16) | (FLAGS << 5) | ONE);
        }
        a.bind(skip);
    }
}
