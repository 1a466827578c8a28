//! x86-64 emitter for [`Tier1Program`]s (System V AMD64 ABI).
//!
//! Register plan (fixed for the whole body, which keeps both the emitter
//! and the verify-layer decoder small):
//!
//! | register | role                                      |
//! |----------|-------------------------------------------|
//! | `rdi`    | arena base (`*mut u64`, argument 1)       |
//! | `rsi`    | activity flags base (`*mut u8`, arg 2)    |
//! | `rbx`    | bank table base (saved from `rdx`, arg 3) |
//! | `rax`    | accumulator (instruction result)          |
//! | `rcx`    | second operand / shift count / scratch    |
//! | `rdx`    | div/idiv high half                        |
//! | `r8`     | `ops` counter                             |
//! | `r9`     | `dynamic` counter                         |
//!
//! Every arena access is `mov r64, [rdi + disp32]` / `mov [rdi + disp32],
//! rax` — or, for the fused tail's change test, `cmp [rdi + disp32], rax`
//! — with an always-32-bit displacement (`off * 8`), every fused wake is
//! `mov byte [rsi + disp32], 1`, and every bank access goes through
//! the per-call [`JitBank`](super::JitBank) table at `[rbx + c * 16]` —
//! uniform shapes the J07xx auditor pattern-matches exactly.
//!
//! Division avoids the two `div`/`idiv` traps by construction: a zero
//! divisor branches to the interpreter-defined result, and signed
//! division by `-1` is rewritten as negation (`i64::MIN / -1` then wraps
//! to `i64::MIN`, matching the interpreter's `i128` math truncated to a
//! word).

use super::{EmittedCode, JitArch};
use crate::step1::{Inst1, Op1, Tier1Program, NO_FUSE};

// Register numbers (REX extension handled by the helpers).
const RAX: u8 = 0;
const RCX: u8 = 1;

/// Maximum arena word offset whose byte displacement (`off * 8`) still
/// fits a signed 32-bit displacement.
const MAX_ARENA_OFF: u32 = (i32::MAX as u32) / 8;

struct Asm {
    buf: Vec<u8>,
    /// Resolved byte offsets per label (`None` until bound).
    labels: Vec<Option<usize>>,
    /// Pending branch patches: (offset of the displacement field, label,
    /// field width in bytes — 4, or 1 for [`Asm::je_short`]).
    fixups: Vec<(usize, usize, usize)>,
}

impl Asm {
    fn new() -> Asm {
        Asm {
            buf: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind(&mut self, l: usize) {
        debug_assert!(self.labels[l].is_none(), "label bound twice");
        self.labels[l] = Some(self.buf.len());
    }

    /// `mov reg, [rdi + off*8]`.
    fn load_arena(&mut self, reg: u8, off: u32) {
        let rex = 0x48 | ((reg >> 3) << 2);
        self.put(&[rex, 0x8B, 0x80 | ((reg & 7) << 3) | 7]);
        self.put(&(off.wrapping_mul(8) as i32).to_le_bytes());
    }

    /// `mov [rdi + off*8], reg`.
    fn store_arena(&mut self, reg: u8, off: u32) {
        let rex = 0x48 | ((reg >> 3) << 2);
        self.put(&[rex, 0x89, 0x80 | ((reg & 7) << 3) | 7]);
        self.put(&(off.wrapping_mul(8) as i32).to_le_bytes());
    }

    /// `cmp [rdi + off*8], reg` — the fused tail's compare against the
    /// stored value, without a load into a scratch register.
    fn cmp_arena(&mut self, reg: u8, off: u32) {
        let rex = 0x48 | ((reg >> 3) << 2);
        self.put(&[rex, 0x39, 0x80 | ((reg & 7) << 3) | 7]);
        self.put(&(off.wrapping_mul(8) as i32).to_le_bytes());
    }

    /// `mov byte [rsi + consumer], 1` — a fused trigger wake.
    fn flag_store(&mut self, consumer: u32) {
        self.put(&[0xC6, 0x86]);
        self.put(&(consumer as i32).to_le_bytes());
        self.put(&[0x01]);
    }

    /// `movabs reg, imm` (always the 10-byte form).
    fn mov_imm64(&mut self, reg: u8, imm: u64) {
        let rex = 0x48 | (reg >> 3);
        self.put(&[rex, 0xB8 + (reg & 7)]);
        self.put(&imm.to_le_bytes());
    }

    /// Sign-extension by shift pair: `shl reg, s; sar reg, s` (no-op for
    /// `s == 0`), replicating `step1::sext`.
    fn sext(&mut self, reg: u8, s: u8) {
        if s == 0 {
            return;
        }
        let rex = 0x48 | (reg >> 3);
        self.put(&[rex, 0xC1, 0xE0 | (reg & 7), s]); // shl
        self.put(&[rex, 0xC1, 0xF8 | (reg & 7), s]); // sar
    }

    /// `shl/shr/sar rax, imm8` (`ext` = 4/5/7).
    fn shift_imm(&mut self, ext: u8, imm: u8) {
        if imm == 0 {
            return;
        }
        self.put(&[0x48, 0xC1, 0xC0 | (ext << 3), imm]);
    }

    /// `jmp rel32` to a label.
    fn jmp(&mut self, l: usize) {
        self.put(&[0xE9]);
        self.fixups.push((self.buf.len(), l, 4));
        self.put(&[0; 4]);
    }

    /// `jcc rel32` to a label (`cc` = the 0F-prefixed condition byte:
    /// 0x84 jz/je, 0x85 jnz/jne, 0x82 jb, 0x83 jae, 0x86 jbe).
    fn jcc(&mut self, cc: u8, l: usize) {
        self.put(&[0x0F, cc]);
        self.fixups.push((self.buf.len(), l, 4));
        self.put(&[0; 4]);
    }

    /// `je rel8` to a label the caller knows is bound within 127 bytes
    /// (the fused tail's skip over its own store and wakes: a third the
    /// size of the rel32 form, on the most repeated sequence in a body).
    fn je_short(&mut self, l: usize) {
        self.put(&[0x74]);
        self.fixups.push((self.buf.len(), l, 1));
        self.put(&[0]);
    }

    /// Patches every pending branch displacement.
    fn finish(mut self) -> Vec<u8> {
        for (pos, l, width) in std::mem::take(&mut self.fixups) {
            let target = self.labels[l].expect("unbound label");
            let rel = target as i64 - (pos + width) as i64;
            if width == 1 {
                self.buf[pos] = i8::try_from(rel).expect("short branch in range") as u8;
            } else {
                self.buf[pos..pos + 4].copy_from_slice(&(rel as i32).to_le_bytes());
            }
        }
        self.buf
    }
}

/// Whether every encodable limit holds for this program; `false` routes
/// the partition back to the interpreter.
fn eligible(prog: &Tier1Program, have_popcnt: bool) -> bool {
    prog.code.iter().all(|inst| {
        if inst.op == Op1::Generic {
            return false;
        }
        if inst.op == Op1::Xorr && !have_popcnt {
            return false;
        }
        let roles = inst.roles();
        let offs_ok = roles.reads().iter().all(|&off| off <= MAX_ARENA_OFF)
            && (!roles.writes_dst || inst.dst <= MAX_ARENA_OFF);
        // Bank table entries are 16 bytes; consumer indices are byte
        // displacements off the flag base.
        let aux_ok = roles.bank.is_none_or(|bank| bank <= (i32::MAX as u32) / 16);
        let fuse_ok = inst.ws == NO_FUSE
            || prog.consumers[inst.ws as usize..inst.we as usize]
                .iter()
                .all(|&c| c <= i32::MAX as u32);
        offs_ok && aux_ok && fuse_ok
    })
}

/// Emits the full x86-64 stream for `prog`; `None` when ineligible.
pub fn emit(prog: &Tier1Program, have_popcnt: bool) -> Option<EmittedCode> {
    if !eligible(prog, have_popcnt) {
        return None;
    }
    let mut a = Asm::new();
    // Labels 0..=n: instruction starts plus the epilogue (jump targets).
    let inst_labels: Vec<usize> = (0..=prog.code.len()).map(|_| a.label()).collect();

    // Prologue: save rbx, move the bank table out of rdx (div clobbers
    // it), zero the counters.
    a.put(&[0x53]); // push rbx
    a.put(&[0x48, 0x89, 0xD3]); // mov rbx, rdx
    a.put(&[0x45, 0x31, 0xC0]); // xor r8d, r8d   (ops)
    a.put(&[0x45, 0x31, 0xC9]); // xor r9d, r9d   (dynamic)

    let mut marks = Vec::with_capacity(prog.code.len());
    for (pc, inst) in prog.code.iter().enumerate() {
        a.bind(inst_labels[pc]);
        let start = a.buf.len() as u32;
        emit_inst(&mut a, prog, inst, &inst_labels);
        marks.push((start, a.buf.len() as u32));
    }
    a.bind(inst_labels[prog.code.len()]);

    // Epilogue: rax = ops | (dynamic << 32).
    a.put(&[0x4C, 0x89, 0xC8]); // mov rax, r9
    a.put(&[0x48, 0xC1, 0xE0, 0x20]); // shl rax, 32
    a.put(&[0x4C, 0x09, 0xC0]); // or rax, r8
    a.put(&[0x5B]); // pop rbx
    a.put(&[0xC3]); // ret

    Some(EmittedCode {
        arch: JitArch::X64,
        bytes: a.finish(),
        marks,
    })
}

/// Emits one instruction body plus (for value producers) the counting /
/// masking / store / fused-trigger tail.
fn emit_inst(a: &mut Asm, prog: &Tier1Program, inst: &Inst1, inst_labels: &[usize]) {
    const ADD: &[u8] = &[0x48, 0x01, 0xC8]; // add rax, rcx
    const SUB: &[u8] = &[0x48, 0x29, 0xC8]; // sub rax, rcx
    const IMUL: &[u8] = &[0x48, 0x0F, 0xAF, 0xC1]; // imul rax, rcx
    const AND: &[u8] = &[0x48, 0x21, 0xC8]; // and rax, rcx
    const OR: &[u8] = &[0x48, 0x09, 0xC8]; // or rax, rcx
    const XOR: &[u8] = &[0x48, 0x31, 0xC8]; // xor rax, rcx
    const CMP_AX_CX: &[u8] = &[0x48, 0x39, 0xC8]; // cmp rax, rcx
    const TEST_CX: &[u8] = &[0x48, 0x85, 0xC9]; // test rcx, rcx
    const TEST_AX: &[u8] = &[0x48, 0x85, 0xC0]; // test rax, rax
    const TEST_AL1: &[u8] = &[0xA8, 0x01]; // test al, 1
    const ZERO_AX: &[u8] = &[0x31, 0xC0]; // xor eax, eax
    const ZERO_DX: &[u8] = &[0x31, 0xD2]; // xor edx, edx
    const DIV_CX: &[u8] = &[0x48, 0xF7, 0xF1]; // div rcx
    const IDIV_CX: &[u8] = &[0x48, 0xF7, 0xF9]; // idiv rcx
    const CQO: &[u8] = &[0x48, 0x99]; // cqo
    const NEG_AX: &[u8] = &[0x48, 0xF7, 0xD8]; // neg rax
    const NOT_AX: &[u8] = &[0x48, 0xF7, 0xD0]; // not rax
    const MOV_AX_DX: &[u8] = &[0x48, 0x89, 0xD0]; // mov rax, rdx
    const MOVZX_AL: &[u8] = &[0x0F, 0xB6, 0xC0]; // movzx eax, al
    const POPCNT: &[u8] = &[0xF3, 0x48, 0x0F, 0xB8, 0xC0]; // popcnt rax, rax
    const AND_AX_1: &[u8] = &[0x83, 0xE0, 0x01]; // and eax, 1
    const SHL_CL: &[u8] = &[0x48, 0xD3, 0xE0]; // shl rax, cl
    const SHR_CL: &[u8] = &[0x48, 0xD3, 0xE8]; // shr rax, cl
    const SAR_CL: &[u8] = &[0x48, 0xD3, 0xF8]; // sar rax, cl

    /// `setcc al; movzx eax, al`.
    fn set_bool(a: &mut Asm, setcc: u8) {
        a.put(&[0x0F, setcc, 0xC0]);
        a.put(MOVZX_AL);
    }
    /// Loads both operands with their sign extensions.
    fn load_ab(a: &mut Asm, inst: &Inst1) {
        a.load_arena(RAX, inst.a);
        a.sext(RAX, inst.sxa);
        a.load_arena(RCX, inst.b);
        a.sext(RCX, inst.sxb);
    }

    match inst.op {
        Op1::Add => {
            load_ab(a, inst);
            a.put(ADD);
        }
        Op1::Sub => {
            load_ab(a, inst);
            a.put(SUB);
        }
        Op1::Mul => {
            load_ab(a, inst);
            a.put(IMUL);
        }
        Op1::DivU => {
            let (zero, done) = (a.label(), a.label());
            a.load_arena(RAX, inst.a);
            a.load_arena(RCX, inst.b);
            a.put(TEST_CX);
            a.jcc(0x84, zero);
            a.put(ZERO_DX);
            a.put(DIV_CX);
            a.jmp(done);
            a.bind(zero);
            a.put(ZERO_AX);
            a.bind(done);
        }
        Op1::DivS => {
            let (zero, div, done) = (a.label(), a.label(), a.label());
            a.load_arena(RCX, inst.b);
            a.sext(RCX, inst.sxb);
            a.put(TEST_CX);
            a.jcc(0x84, zero);
            a.load_arena(RAX, inst.a);
            a.sext(RAX, inst.sxa);
            a.put(&[0x48, 0x83, 0xF9, 0xFF]); // cmp rcx, -1
            a.jcc(0x85, div);
            a.put(NEG_AX); // a / -1 = -a (MIN wraps, matching i128 math)
            a.jmp(done);
            a.bind(div);
            a.put(CQO);
            a.put(IDIV_CX);
            a.jmp(done);
            a.bind(zero);
            a.put(ZERO_AX);
            a.bind(done);
        }
        Op1::RemU => {
            let done = a.label();
            a.load_arena(RAX, inst.a);
            a.load_arena(RCX, inst.b);
            a.put(TEST_CX);
            a.jcc(0x84, done); // b == 0 -> a (already in rax)
            a.put(ZERO_DX);
            a.put(DIV_CX);
            a.put(MOV_AX_DX);
            a.bind(done);
        }
        Op1::RemS => {
            let (rem, done) = (a.label(), a.label());
            a.load_arena(RAX, inst.a);
            a.sext(RAX, inst.sxa);
            a.load_arena(RCX, inst.b);
            a.sext(RCX, inst.sxb);
            a.put(TEST_CX);
            a.jcc(0x84, done); // b == 0 -> sext(a) (already in rax)
            a.put(&[0x48, 0x83, 0xF9, 0xFF]); // cmp rcx, -1
            a.jcc(0x85, rem);
            a.put(ZERO_AX); // a % -1 = 0 (idiv would trap on MIN)
            a.jmp(done);
            a.bind(rem);
            a.put(CQO);
            a.put(IDIV_CX);
            a.put(MOV_AX_DX);
            a.bind(done);
        }
        Op1::LtU | Op1::LtS | Op1::LeqU | Op1::LeqS | Op1::Eq | Op1::Neq => {
            load_ab(a, inst);
            a.put(CMP_AX_CX);
            set_bool(
                a,
                match inst.op {
                    Op1::LtU => 0x92,  // setb
                    Op1::LtS => 0x9C,  // setl
                    Op1::LeqU => 0x96, // setbe
                    Op1::LeqS => 0x9E, // setle
                    Op1::Eq => 0x94,   // sete
                    _ => 0x95,         // setne
                },
            );
        }
        Op1::Shl => {
            if inst.imm >= inst.sxc as u64 {
                a.put(ZERO_AX);
            } else {
                a.load_arena(RAX, inst.a);
                a.shift_imm(4, inst.imm as u8);
            }
        }
        Op1::ShrU => {
            if inst.imm >= 64 {
                a.put(ZERO_AX);
            } else {
                a.load_arena(RAX, inst.a);
                a.shift_imm(5, inst.imm as u8);
            }
        }
        Op1::ShrS => {
            a.load_arena(RAX, inst.a);
            a.sext(RAX, inst.sxa);
            a.shift_imm(7, inst.imm.min(63) as u8);
        }
        Op1::Dshl | Op1::DshrU => {
            let (ok, done) = (a.label(), a.label());
            let bound = if inst.op == Op1::Dshl {
                inst.sxc // destination width
            } else {
                64
            };
            a.load_arena(RCX, inst.b);
            a.load_arena(RAX, inst.a);
            a.put(&[0x48, 0x83, 0xF9, bound]); // cmp rcx, bound
            a.jcc(0x82, ok); // jb
            a.put(ZERO_AX);
            a.jmp(done);
            a.bind(ok);
            a.put(if inst.op == Op1::Dshl { SHL_CL } else { SHR_CL });
            a.bind(done);
        }
        Op1::DshrS => {
            let ok = a.label();
            a.load_arena(RCX, inst.b);
            a.put(&[0x48, 0x83, 0xF9, 0x3F]); // cmp rcx, 63
            a.jcc(0x86, ok); // jbe
            a.put(&[0xB9, 0x3F, 0x00, 0x00, 0x00]); // mov ecx, 63
            a.bind(ok);
            a.load_arena(RAX, inst.a);
            a.sext(RAX, inst.sxa);
            a.put(SAR_CL);
        }
        Op1::Neg => {
            a.load_arena(RAX, inst.a);
            a.sext(RAX, inst.sxa);
            a.put(NEG_AX);
        }
        Op1::Not => {
            a.load_arena(RAX, inst.a);
            a.sext(RAX, inst.sxa);
            a.put(NOT_AX);
        }
        Op1::And | Op1::Or | Op1::Xor => {
            load_ab(a, inst);
            a.put(match inst.op {
                Op1::And => AND,
                Op1::Or => OR,
                _ => XOR,
            });
        }
        Op1::Andr => {
            a.load_arena(RAX, inst.a);
            a.mov_imm64(RCX, inst.imm);
            a.put(CMP_AX_CX);
            set_bool(a, 0x94); // sete
        }
        Op1::Orr => {
            a.load_arena(RAX, inst.a);
            a.put(TEST_AX);
            set_bool(a, 0x95); // setne
        }
        Op1::Xorr => {
            a.load_arena(RAX, inst.a);
            a.put(POPCNT);
            a.put(AND_AX_1);
        }
        Op1::Cat => {
            a.load_arena(RAX, inst.a);
            a.shift_imm(4, inst.imm as u8);
            a.load_arena(RCX, inst.b);
            a.put(OR);
        }
        Op1::Bits => {
            a.load_arena(RAX, inst.a);
            a.shift_imm(5, inst.imm as u8);
        }
        Op1::Ext => {
            a.load_arena(RAX, inst.a);
            a.sext(RAX, inst.sxa);
        }
        Op1::Commit => a.load_arena(RAX, inst.a),
        Op1::Mux => {
            let (low, done) = (a.label(), a.label());
            a.load_arena(RAX, inst.a);
            a.put(TEST_AL1);
            a.jcc(0x84, low);
            a.load_arena(RAX, inst.b);
            a.sext(RAX, inst.sxb);
            a.jmp(done);
            a.bind(low);
            a.load_arena(RAX, inst.c);
            a.sext(RAX, inst.sxc);
            a.bind(done);
        }
        Op1::MemRead => {
            let (zero, done) = (a.label(), a.label());
            a.load_arena(RAX, inst.b); // en
            a.put(TEST_AL1);
            a.jcc(0x84, zero);
            a.load_arena(RAX, inst.a); // addr
            a.mov_imm64(RCX, inst.imm); // depth
            a.put(CMP_AX_CX);
            a.jcc(0x83, zero); // jae
                               // mov rcx, [rbx + c*16] (bank data pointer)
            a.put(&[0x48, 0x8B, 0x8B]);
            a.put(&(inst.c.wrapping_mul(16) as i32).to_le_bytes());
            // mov rax, [rcx + rax*8]
            a.put(&[0x48, 0x8B, 0x04, 0xC1]);
            a.jmp(done);
            a.bind(zero);
            a.put(ZERO_AX);
            a.bind(done);
        }
        Op1::Jmp => {
            a.jmp(inst_labels[inst.a as usize]);
            return;
        }
        Op1::JmpIf0 => {
            a.load_arena(RAX, inst.b);
            a.put(TEST_AL1);
            a.jcc(0x84, inst_labels[inst.a as usize]);
            return;
        }
        Op1::Generic => unreachable!("eligibility rejects Generic"),
    }

    // Tail: count the op (a commit is not one), mask, store (with the
    // fused CCSS compare-and-wake when this instruction defines a fused
    // output or commits a register).
    if inst.op != Op1::Commit {
        a.put(&[0x49, 0xFF, 0xC0]); // inc r8 (ops)
    }
    if inst.mask != u64::MAX {
        a.mov_imm64(RCX, inst.mask);
        a.put(AND);
    }
    if inst.ws == NO_FUSE {
        a.store_arena(RAX, inst.dst);
    } else {
        let skip = a.label();
        let woken = &prog.consumers[inst.ws as usize..inst.we as usize];
        a.put(&[0x49, 0xFF, 0xC1]); // inc r9 (dynamic)
        a.cmp_arena(RAX, inst.dst);
        // je: unchanged, no store, no wakes. The skipped store and flag
        // stores are 7 bytes each.
        if 7 * (1 + woken.len()) <= i8::MAX as usize {
            a.je_short(skip);
        } else {
            a.jcc(0x84, skip);
        }
        a.store_arena(RAX, inst.dst);
        for &c in woken {
            a.flag_store(c);
        }
        a.bind(skip);
    }
}
