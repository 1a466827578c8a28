//! x86-64 emitter for [`Tier1Program`]s (System V AMD64 ABI).
//!
//! Register plan (fixed for the whole body, which keeps both the emitter
//! and the verify-layer decoder small):
//!
//! | register | role                                      |
//! |----------|-------------------------------------------|
//! | `rdi`    | arena base (`*mut u64`, argument 1)       |
//! | `rsi`    | activity bits base (`*mut u8`, arg 2)     |
//! | `rbx`    | bank table base (saved from `rdx`, arg 3) |
//! | `rax`    | accumulator (instruction result)          |
//! | `rcx`    | second operand / shift count / scratch    |
//! | `rdx`    | div/idiv high half                        |
//! | `r8`     | `ops` counter                             |
//! | `r9`     | `dynamic` counter                         |
//! | `r10`    | operand record (saved from `rcx`, arg 4)  |
//! | `r11`    | record form: the slot just loaded         |
//!
//! Every arena access is `mov r64, [rdi + disp32]` / `mov [rdi + disp32],
//! rax` — or, for the fused tail's change test, `cmp [rdi + disp32], rax`
//! — with an always-32-bit displacement (`off * 8`), every fused wake of
//! consumer `c` is `or byte [rsi + disp32], imm8` with `disp32 = c / 8`
//! and `imm8 = 1 << c % 8` (the engine's activity bit `c`, in the byte
//! that holds it; 7 bytes, like the store), and every bank access goes
//! through the per-call [`JitBank`](super::JitBank) table at
//! `[rbx + c * 16]` — uniform shapes the J07xx auditor pattern-matches
//! exactly.
//!
//! **Record form.** [`emit_record`] names the same words and wakes
//! through a per-partition `u32` *operand record* instead: slot `j` is
//! the next entry, filled in access order. An arena access is `mov r11d,
//! [r10 + 4j]` (the byte offset `off * 8`) then `op reg, [rdi + r11]`; a
//! wake is `mov r11d, [r10 + 4j]` (the byte `c / 8`), `mov edx, [r10 +
//! 4j + 4]` (the bit `1 << c % 8`), then `or [rsi + r11], dl`; the
//! prologue adds `mov r10, rcx`. Nothing that differs between
//! partitions whose programs differ only in arena offsets and wake
//! targets is left in the bytes, so record-form bodies of equal bytes are
//! interchangeable: one mapped body serves every member, each with its
//! own record. The displacement form stays for a body nothing shares —
//! it is shorter and loads nothing extra.
//!
//! **Accumulator forwarding.** After an instruction's tail `rax` holds
//! exactly the word it stored to `dst`, and the emitter remembers that
//! (`Asm::acc`): when the next instruction of the same straight-line
//! run reads that word, its load is skipped (operand in `rax`) or becomes
//! `mov rcx, rax` (operand in `rcx`). The knowledge dies at every bound
//! label — a jump target may be reached with a different `rax` — after
//! every jump instruction, and at the first emitted instruction that
//! writes `rax`, so a `Cat` whose two operands are the same word still
//! loads the second one after its shift.
//!
//! **Result masks** use the shortest form that clears the same bits:
//! nothing for all ones, `mov eax, eax` for the low 32, `and eax, imm8` /
//! `and eax, imm32` below that (a 32-bit operation zero-extends), and
//! `movabs rcx, m; and rax, rcx` only above 32 bits.
//!
//! **Work counters** are static per straight-line run — every path
//! through an instruction counts the same — so they are added once per
//! run (`add r8, imm8` / `add r9, imm8`): before each jump, before each
//! jump target, and before the epilogue.
//!
//! Division avoids the two `div`/`idiv` traps by construction: a zero
//! divisor branches to the interpreter-defined result, and signed
//! division by `-1` is rewritten as negation (`i64::MIN / -1` then wraps
//! to `i64::MIN`, matching the interpreter's `i128` math truncated to a
//! word).

use super::EmittedCode;
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
    /// The arena word whose current value `rax` is known to hold.
    /// [`Asm::put`] — the default way to emit — forgets it; only the
    /// helpers that provably leave `rax` alone go through
    /// [`Asm::put_keep`].
    acc: Option<u32>,
    /// `ops` and `dynamic` counted since the last [`Asm::flush_counts`].
    ops: u32,
    dynamic: u32,
    /// Record form: the operand record filled so far (see the module
    /// docs); `None` emits displacements.
    record: Option<Vec<u32>>,
}

/// `mov r11d, [r10 + disp]` / `mov edx, [r10 + disp]`: (REX, ModRM `reg`).
const R11D: (u8, u8) = (0x45, 3);
const EDX: (u8, u8) = (0x41, 2);

/// Bytes of a record-slot load of slot `j`: disp8 up to slot 31.
fn slot_load_len(j: usize) -> usize {
    if 4 * j <= i8::MAX as usize {
        4
    } else {
        7
    }
}

impl Asm {
    fn new(record: bool) -> Asm {
        Asm {
            buf: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            acc: None,
            ops: 0,
            dynamic: 0,
            record: record.then(Vec::new),
        }
    }

    /// Emits bytes that may write `rax`.
    fn put(&mut self, bytes: &[u8]) {
        self.acc = None;
        self.buf.extend_from_slice(bytes);
    }

    /// Emits bytes that do not write `rax`.
    fn put_keep(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    /// Binds a label here. Control may arrive from its jumps with a
    /// different `rax`, so the accumulator knowledge ends.
    fn bind(&mut self, l: usize) {
        debug_assert!(self.labels[l].is_none(), "label bound twice");
        self.labels[l] = Some(self.buf.len());
        self.acc = None;
    }

    /// Record form: appends `value` to the record and loads it into
    /// `dst` ([`R11D`] or [`EDX`]) from its slot, `mov dst, [r10 + 4j]`.
    /// Leaves `rax` alone.
    fn slot_load(&mut self, (rex, reg): (u8, u8), value: u32) {
        let record = self.record.as_mut().expect("record form");
        let disp = 4 * record.len();
        record.push(value);
        if slot_load_len(record.len() - 1) == 4 {
            self.put_keep(&[rex, 0x8B, 0x40 | (reg << 3) | 2, disp as u8]);
        } else {
            self.put_keep(&[rex, 0x8B, 0x80 | (reg << 3) | 2]);
            self.put_keep(&(disp as u32).to_le_bytes());
        }
    }

    /// `op reg, [rdi + off*8]` / `op [rdi + off*8], reg` — in record
    /// form `mov r11d, [r10 + 4j]; op reg, [rdi + r11]`.
    fn arena_op(&mut self, opcode: u8, reg: u8, off: u32) {
        let rex = 0x48 | ((reg >> 3) << 2);
        let disp = off.wrapping_mul(8);
        if self.record.is_some() {
            self.slot_load(R11D, disp);
            // REX.X names r11 as the SIB index; base rdi, scale 1.
            self.put_keep(&[rex | 0x02, opcode, ((reg & 7) << 3) | 4, 0x1F]);
        } else {
            self.put_keep(&[rex, opcode, 0x80 | ((reg & 7) << 3) | 7]);
            self.put_keep(&(disp as i32).to_le_bytes());
        }
    }

    /// Brings arena word `off` into `rax` or `rcx`: nothing (`rax`) or
    /// `mov rcx, rax` when the accumulator already holds it, `mov reg,
    /// [rdi + off*8]` otherwise.
    fn load_arena(&mut self, reg: u8, off: u32) {
        match (self.acc == Some(off), reg) {
            (true, RAX) => {}
            (true, _) => self.put_keep(&[0x48, 0x89, 0xC1]), // mov rcx, rax
            (false, _) => {
                self.arena_op(0x8B, reg, off);
                if reg == RAX {
                    self.acc = Some(off);
                }
            }
        }
    }

    /// `mov [rdi + off*8], rax`.
    fn store_arena(&mut self, off: u32) {
        self.arena_op(0x89, RAX, off);
    }

    /// `cmp [rdi + off*8], rax` — the fused tail's compare against the
    /// stored value, without a load into a scratch register.
    fn cmp_arena(&mut self, off: u32) {
        self.arena_op(0x39, RAX, off);
    }

    /// `or byte [rsi + consumer/8], 1 << consumer%8` — a fused trigger
    /// wake: the consumer's activity bit, in the byte that holds it. In
    /// record form both come from the record: `mov r11d, [r10 + 4j]; mov
    /// edx, [r10 + 4j + 4]; or [rsi + r11], dl` (`rdx` is free outside a
    /// division).
    fn wake(&mut self, consumer: u32) {
        if self.record.is_some() {
            self.slot_load(R11D, consumer / 8);
            self.slot_load(EDX, 1 << (consumer % 8));
            self.put_keep(&[0x42, 0x08, 0x14, 0x1E]);
        } else {
            self.put_keep(&[0x80, 0x8E]);
            self.put_keep(&(consumer / 8).to_le_bytes());
            self.put_keep(&[1 << (consumer % 8)]);
        }
    }

    /// Bytes of a fused tail's store and `wakes` wakes, emitted next —
    /// what its `je` skips. A displacement store or wake is 7 bytes; in
    /// record form each slot load is 4 or 7 by its slot.
    fn skip_len(&self, wakes: usize) -> usize {
        match &self.record {
            None => 7 * (1 + wakes),
            Some(record) => {
                let j = record.len();
                let wake_len =
                    |k: usize| slot_load_len(j + 1 + 2 * k) + slot_load_len(j + 2 + 2 * k) + 4;
                slot_load_len(j) + 4 + (0..wakes).map(wake_len).sum::<usize>()
            }
        }
    }

    /// `movabs rcx, imm` (always the 10-byte form).
    fn mov_rcx_imm64(&mut self, imm: u64) {
        self.put_keep(&[0x48, 0xB9]);
        self.put_keep(&imm.to_le_bytes());
    }

    /// Sign-extension by shift pair: `shl reg, s; sar reg, s` (no-op for
    /// `s == 0`), replicating `step1::sext`.
    fn sext(&mut self, reg: u8, s: u8) {
        if s == 0 {
            return;
        }
        let pair = [
            0x48,
            0xC1,
            0xE0 | reg,
            s, // shl
            0x48,
            0xC1,
            0xF8 | reg,
            s, // sar
        ];
        if reg == RAX {
            self.put(&pair);
        } else {
            self.put_keep(&pair);
        }
    }

    /// `shl/shr/sar rax, imm8` (`ext` = 4/5/7).
    fn shift_imm(&mut self, ext: u8, imm: u8) {
        if imm == 0 {
            return;
        }
        self.put(&[0x48, 0xC1, 0xC0 | (ext << 3), imm]);
    }

    /// `rax &= mask`, in the shortest form that clears the same bits.
    fn mask(&mut self, mask: u64) {
        match mask {
            u64::MAX => {}
            0xFFFF_FFFF => self.put(&[0x89, 0xC0]), // mov eax, eax
            0..=0x7F => self.put(&[0x83, 0xE0, mask as u8]), // and eax, imm8
            0x80..=0xFFFF_FFFE => {
                self.put(&[0x25]); // and eax, imm32
                self.put(&(mask as u32).to_le_bytes());
            }
            _ => {
                self.mov_rcx_imm64(mask);
                self.put(&[0x48, 0x21, 0xC8]); // and rax, rcx
            }
        }
    }

    /// Adds what the run has counted so far to `r8` (`ops`) and `r9`
    /// (`dynamic`). `add r64, imm8` sign-extends, so a run of more than
    /// 127 splits. Clobbers the flags, never `rax`.
    fn flush_counts(&mut self) {
        for (modrm, pending) in [(0xC0, &mut self.ops), (0xC1, &mut self.dynamic)] {
            while *pending > 0 {
                let step = (*pending).min(i8::MAX as u32);
                self.buf.extend_from_slice(&[0x49, 0x83, modrm, step as u8]);
                *pending -= step;
            }
        }
    }

    /// `jmp rel32` to a label.
    fn jmp(&mut self, l: usize) {
        self.put_keep(&[0xE9]);
        self.fixups.push((self.buf.len(), l, 4));
        self.put_keep(&[0; 4]);
    }

    /// `jcc rel32` to a label (`cc` = the 0F-prefixed condition byte:
    /// 0x84 jz/je, 0x85 jnz/jne, 0x82 jb, 0x83 jae, 0x86 jbe).
    fn jcc(&mut self, cc: u8, l: usize) {
        self.put_keep(&[0x0F, cc]);
        self.fixups.push((self.buf.len(), l, 4));
        self.put_keep(&[0; 4]);
    }

    /// `je rel8` to a label the caller knows is bound within 127 bytes
    /// (the fused tail's skip over its own store and wakes: a third the
    /// size of the rel32 form, on the most repeated sequence in a body).
    fn je_short(&mut self, l: usize) {
        self.put_keep(&[0x74]);
        self.fixups.push((self.buf.len(), l, 1));
        self.put_keep(&[0]);
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
        // Bank table entries are 16 bytes. (A wake's displacement,
        // `consumer / 8`, always fits.)
        offs_ok && roles.bank.is_none_or(|bank| bank <= (i32::MAX as u32) / 16)
    })
}

/// Emits the full x86-64 stream for `prog` in displacement form; `None`
/// when ineligible.
pub fn emit(prog: &Tier1Program, have_popcnt: bool) -> Option<EmittedCode> {
    emit_form(prog, have_popcnt, false).map(|(code, _)| code)
}

/// Emits `prog` in record form: the stream and the operand record it
/// reads (see the module docs); `None` when ineligible.
pub fn emit_record(prog: &Tier1Program, have_popcnt: bool) -> Option<(EmittedCode, Vec<u32>)> {
    emit_form(prog, have_popcnt, true)
}

fn emit_form(
    prog: &Tier1Program,
    have_popcnt: bool,
    record: bool,
) -> Option<(EmittedCode, Vec<u32>)> {
    if !eligible(prog, have_popcnt) {
        return None;
    }
    let mut a = Asm::new(record);
    let n = prog.code.len();
    // Labels 0..=n: instruction starts plus the epilogue. Only the ones
    // a jump names are bound — binding ends accumulator forwarding.
    let inst_labels: Vec<usize> = (0..=n).map(|_| a.label()).collect();
    let mut target = vec![false; n + 1];
    for inst in &prog.code {
        if inst.roles().jumps {
            target[inst.a as usize] = true;
        }
    }
    target[n] = true;

    // Prologue: save rbx, move the bank table out of rdx (div clobbers
    // it) and the record out of rcx, zero the counters.
    a.put(&[0x53]); // push rbx
    a.put(&[0x48, 0x89, 0xD3]); // mov rbx, rdx
    if record {
        a.put(&[0x49, 0x89, 0xCA]); // mov r10, rcx
    }
    a.put(&[0x45, 0x31, 0xC0]); // xor r8d, r8d   (ops)
    a.put(&[0x45, 0x31, 0xC9]); // xor r9d, r9d   (dynamic)

    let mut marks = Vec::with_capacity(n);
    for (pc, inst) in prog.code.iter().enumerate() {
        if target[pc] {
            a.bind(inst_labels[pc]);
        }
        let start = a.buf.len() as u32;
        emit_inst(&mut a, prog, inst, &inst_labels);
        // The run ends where another path joins: settle its counts
        // before the label.
        if target[pc + 1] {
            a.flush_counts();
        }
        marks.push((start, a.buf.len() as u32));
    }
    a.bind(inst_labels[n]);

    // Epilogue: rax = ops | (dynamic << 32).
    a.put(&[0x4C, 0x89, 0xC8]); // mov rax, r9
    a.put(&[0x48, 0xC1, 0xE0, 0x20]); // shl rax, 32
    a.put(&[0x4C, 0x09, 0xC0]); // or rax, r8
    a.put(&[0x5B]); // pop rbx
    a.put(&[0xC3]); // ret

    let mut record = a.record.take().unwrap_or_default();
    record.shrink_to_fit();
    Some((
        EmittedCode {
            bytes: a.finish(),
            marks,
        },
        record,
    ))
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
    const CMP_CX_M1: &[u8] = &[0x48, 0x83, 0xF9, 0xFF]; // cmp rcx, -1
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
    const CMOVZ: &[u8] = &[0x48, 0x0F, 0x44, 0xC1]; // cmovz rax, rcx
    const SHL_CL: &[u8] = &[0x48, 0xD3, 0xE0]; // shl rax, cl
    const SHR_CL: &[u8] = &[0x48, 0xD3, 0xE8]; // shr rax, cl
    const SAR_CL: &[u8] = &[0x48, 0xD3, 0xF8]; // sar rax, cl

    /// `setcc al; movzx eax, al`.
    fn set_bool(a: &mut Asm, setcc: u8) {
        a.put(&[0x0F, setcc, 0xC0]);
        a.put(MOVZX_AL);
    }
    /// `a` into `rax` and `b` into `rcx`, shifted by `sxa`/`sxb`. When
    /// the accumulator holds `b` it moves to `rcx` first — before `a`'s
    /// load or sign extension overwrites `rax`.
    fn load_pair(a: &mut Asm, inst: &Inst1, sxa: u8, sxb: u8) {
        if a.acc == Some(inst.b) {
            a.load_arena(RCX, inst.b);
            a.sext(RCX, sxb);
            a.load_arena(RAX, inst.a);
            a.sext(RAX, sxa);
        } else {
            a.load_arena(RAX, inst.a);
            a.sext(RAX, sxa);
            a.load_arena(RCX, inst.b);
            a.sext(RCX, sxb);
        }
    }
    /// Both operands with their sign extensions.
    fn load_ab(a: &mut Asm, inst: &Inst1) {
        load_pair(a, inst, inst.sxa, inst.sxb);
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
            load_pair(a, inst, 0, 0);
            a.put_keep(TEST_CX);
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
            a.put_keep(TEST_CX);
            a.jcc(0x84, zero);
            a.load_arena(RAX, inst.a);
            a.sext(RAX, inst.sxa);
            a.put_keep(CMP_CX_M1);
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
            load_pair(a, inst, 0, 0);
            a.put_keep(TEST_CX);
            a.jcc(0x84, done); // b == 0 -> a (already in rax)
            a.put(ZERO_DX);
            a.put(DIV_CX);
            a.put(MOV_AX_DX);
            a.bind(done);
        }
        Op1::RemS => {
            let (rem, done) = (a.label(), a.label());
            load_ab(a, inst);
            a.put_keep(TEST_CX);
            a.jcc(0x84, done); // b == 0 -> sext(a) (already in rax)
            a.put_keep(CMP_CX_M1);
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
            a.put_keep(CMP_AX_CX);
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
            a.put_keep(&[0x48, 0x83, 0xF9, bound]); // cmp rcx, bound
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
            a.load_arena(RAX, inst.a);
            a.sext(RAX, inst.sxa);
            a.put_keep(&[0x48, 0x83, 0xF9, 0x3F]); // cmp rcx, 63
            a.jcc(0x86, ok); // jbe
            a.put_keep(&[0xB9, 0x3F, 0x00, 0x00, 0x00]); // mov ecx, 63
            a.bind(ok);
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
            a.mov_rcx_imm64(inst.imm);
            a.put_keep(CMP_AX_CX);
            set_bool(a, 0x94); // sete
        }
        Op1::Orr => {
            a.load_arena(RAX, inst.a);
            a.put_keep(TEST_AX);
            set_bool(a, 0x95); // setne
        }
        Op1::Xorr => {
            a.load_arena(RAX, inst.a);
            a.put(POPCNT);
            a.put(AND_AX_1);
        }
        Op1::Cat => {
            // As in `load_pair`: a forwarded `b` leaves `rax` first.
            let b_first = a.acc == Some(inst.b);
            if b_first {
                a.load_arena(RCX, inst.b);
            }
            a.load_arena(RAX, inst.a);
            a.shift_imm(4, inst.imm as u8);
            if !b_first {
                a.load_arena(RCX, inst.b);
            }
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
        Op1::Mux if inst.sxb == 0 && inst.sxc == 0 => {
            // Both ways are plain loads: select without a branch (`mov`
            // leaves the flags of the selector test alone).
            a.load_arena(RAX, inst.a);
            a.put_keep(TEST_AL1);
            a.load_arena(RAX, inst.b);
            a.load_arena(RCX, inst.c);
            a.put(CMOVZ);
        }
        Op1::Mux => {
            let (low, done) = (a.label(), a.label());
            a.load_arena(RAX, inst.a);
            a.put_keep(TEST_AL1);
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
            a.put_keep(TEST_AL1);
            a.jcc(0x84, zero);
            a.load_arena(RAX, inst.a); // addr
            a.mov_rcx_imm64(inst.imm); // depth
            a.put_keep(CMP_AX_CX);
            a.jcc(0x83, zero); // jae
            a.put_keep(&[0x48, 0x8B, 0x8B]); // mov rcx, [rbx + c*16] (bank data)
            a.put_keep(&(inst.c.wrapping_mul(16) as i32).to_le_bytes());
            // mov rax, [rcx + rax*8]
            a.put(&[0x48, 0x8B, 0x04, 0xC1]);
            a.jmp(done);
            a.bind(zero);
            a.put(ZERO_AX);
            a.bind(done);
        }
        // A jump ends its run: the counts settle first (`add` would
        // clobber the flags of the selector test), and whatever `rax`
        // holds afterwards is not an instruction's `dst`.
        Op1::Jmp => {
            a.flush_counts();
            a.jmp(inst_labels[inst.a as usize]);
            a.acc = None;
            return;
        }
        Op1::JmpIf0 => {
            a.flush_counts();
            a.load_arena(RAX, inst.b);
            a.put_keep(TEST_AL1);
            a.jcc(0x84, inst_labels[inst.a as usize]);
            a.acc = None;
            return;
        }
        Op1::Generic => unreachable!("eligibility rejects Generic"),
    }

    // Tail: count the op (a commit is not one), mask, store (with the
    // fused CCSS compare-and-wake when this instruction defines a fused
    // output or commits a register).
    a.ops += u32::from(inst.op != Op1::Commit);
    a.mask(inst.mask);
    if inst.ws == NO_FUSE {
        a.store_arena(inst.dst);
    } else {
        let skip = a.label();
        let woken = &prog.consumers[inst.ws as usize..inst.we as usize];
        a.dynamic += 1;
        a.cmp_arena(inst.dst);
        // je: unchanged, no store, no wakes.
        if a.skip_len(woken.len()) <= i8::MAX as usize {
            a.je_short(skip);
        } else {
            a.jcc(0x84, skip);
        }
        a.store_arena(inst.dst);
        for &c in woken {
            a.wake(c);
        }
        a.bind(skip);
    }
    // Stored or found equal: either way `rax` is the word at `dst`.
    a.acc = Some(inst.dst);
}

#[cfg(test)]
mod tests {
    //! Byte-exact expectations for the body shape, each program also run
    //! natively against `run_tier1_raw` on the same arena (x86-64 Linux
    //! hosts; elsewhere only the bytes are checked). The expected bytes
    //! are spelled out here, not produced by [`Asm`].

    use super::*;
    use crate::machine::MemBank;
    use crate::step1::TierStats;

    fn program(code: Vec<Inst1>, consumers: Vec<u32>) -> Tier1Program {
        Tier1Program {
            sigs: vec![u32::MAX; code.len()],
            code,
            generic: Vec::new(),
            consumers,
            unfused: Vec::new(),
            unabsorbed: Vec::new(),
            stats: TierStats::default(),
        }
    }

    fn arena_op(opcode: u8, modrm: u8, off: u32) -> Vec<u8> {
        let mut v = vec![0x48, opcode, modrm];
        v.extend_from_slice(&(off * 8).to_le_bytes());
        v
    }
    fn mov_rax(off: u32) -> Vec<u8> {
        arena_op(0x8B, 0x87, off)
    }
    fn mov_rcx(off: u32) -> Vec<u8> {
        arena_op(0x8B, 0x8F, off)
    }
    fn store(off: u32) -> Vec<u8> {
        arena_op(0x89, 0x87, off)
    }
    fn cmp_mem(off: u32) -> Vec<u8> {
        arena_op(0x39, 0x87, off)
    }
    fn wake(consumer: u32) -> Vec<u8> {
        let mut v = vec![0x80, 0x8E];
        v.extend_from_slice(&(consumer / 8).to_le_bytes());
        v.push(1 << (consumer % 8));
        v
    }
    fn sext_rax(s: u8) -> Vec<u8> {
        vec![0x48, 0xC1, 0xE0, s, 0x48, 0xC1, 0xF8, s]
    }
    const MOV_RCX_RAX: &[u8] = &[0x48, 0x89, 0xC1];
    const ADD: &[u8] = &[0x48, 0x01, 0xC8];
    const SUB: &[u8] = &[0x48, 0x29, 0xC8];
    const OR: &[u8] = &[0x48, 0x09, 0xC8];
    const NOT: &[u8] = &[0x48, 0xF7, 0xD0];
    const TEST_AL1: &[u8] = &[0xA8, 0x01];
    const CMOVZ: &[u8] = &[0x48, 0x0F, 0x44, 0xC1];
    fn add_ops(n: u8) -> Vec<u8> {
        vec![0x49, 0x83, 0xC0, n]
    }
    fn add_dyn(n: u8) -> Vec<u8> {
        vec![0x49, 0x83, 0xC1, n]
    }

    /// Runs `bytes` natively under `record` and `prog` through the
    /// interpreter from the same `arena` and `mems`: the two must leave
    /// the same arena, wake the same flags and count the same work
    /// (x86-64 Linux hosts; elsewhere nothing runs).
    fn run_against_interpreter(
        bytes: &[u8],
        record: &[u32],
        prog: &Tier1Program,
        arena: &[u64],
        mems: &[MemBank],
    ) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            use crate::step1::{run_tier1_raw, CellFlags};
            use std::cell::Cell;
            let nwords = prog
                .consumers
                .iter()
                .max()
                .map_or(0, |&c| c as usize / 64 + 1);

            let mut interp = arena.to_vec();
            let cells: Vec<Cell<u64>> = vec![Cell::new(0); nwords];
            let (mut ops, mut dynamic) = (0, 0);
            // SAFETY: the program's offsets index `interp`, which nothing
            // else touches; its bank references index `mems`.
            unsafe {
                run_tier1_raw(
                    prog,
                    interp.as_mut_ptr(),
                    mems,
                    &CellFlags(&cells),
                    &mut ops,
                    &mut dynamic,
                );
            }

            let mut native = arena.to_vec();
            let mut words = vec![0u64; nwords];
            let buf = super::super::ExecBuf::new(bytes).expect("executable mapping");
            let banks = super::super::BankTable::new(mems);
            // SAFETY: `buf` holds one complete emitted stream; `record`
            // is the one its program was emitted with (or one of an
            // equal-bytes program); its offsets index `native` and
            // `words`, its bank references `banks`, built over `mems`.
            let counted = unsafe {
                let entry = std::mem::transmute::<*const u8, super::super::EntryFn>(buf.ptr());
                super::super::call(
                    entry,
                    native.as_mut_ptr(),
                    words.as_mut_ptr().cast(),
                    banks.ptr(),
                    record.as_ptr(),
                )
            };
            assert_eq!(native, interp, "arena");
            let woken: Vec<u64> = cells.iter().map(Cell::get).collect();
            assert_eq!(words, woken, "activity bits");
            assert_eq!(counted, (ops, dynamic), "(ops, dynamic)");
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        let _ = (bytes, record, prog, arena, mems);
    }

    fn split(code: &EmittedCode) -> Vec<Vec<u8>> {
        code.marks
            .iter()
            .map(|&(s, e)| code.bytes[s as usize..e as usize].to_vec())
            .collect()
    }

    /// Emits `prog`, runs it natively and through the interpreter from
    /// the same `arena`, and returns each instruction's bytes.
    fn emit_and_run(prog: &Tier1Program, arena: &[u64]) -> Vec<Vec<u8>> {
        let code = emit(prog, true).expect("test programs are eligible");
        assert_eq!(code.marks.len(), prog.code.len());
        run_against_interpreter(&code.bytes, &[], prog, arena, &[]);
        split(&code)
    }

    /// Emits `progs` in record form — their bytes must be equal — and
    /// runs those one set of bytes under each program's own record
    /// against the interpreter on `arena`. Returns the prologue, each
    /// instruction's bytes and the first program's record.
    fn emit_records_and_run(
        progs: &[Tier1Program],
        arena: &[u64],
    ) -> (Vec<u8>, Vec<Vec<u8>>, Vec<u32>) {
        let emitted: Vec<(EmittedCode, Vec<u32>)> = progs
            .iter()
            .map(|p| emit_record(p, true).expect("test programs are eligible"))
            .collect();
        let (code, _) = &emitted[0];
        for ((other, record), prog) in emitted.iter().zip(progs) {
            assert_eq!(other, code, "record-form bytes depend on operands");
            run_against_interpreter(&code.bytes, record, prog, arena, &[]);
        }
        let prologue = code.bytes[..code.body_start() as usize].to_vec();
        (prologue, split(code), emitted[0].1.clone())
    }

    // Record-form encodings: `mov r11d, [r10 + 4j]` / `mov edx, [r10 +
    // 4j]`, disp8 through slot 31, then the access through `r11`.
    fn slot(rex: u8, reg: u8, j: u32) -> Vec<u8> {
        if j <= 31 {
            vec![rex, 0x8B, 0x40 | reg << 3 | 2, (4 * j) as u8]
        } else {
            [
                &[rex, 0x8B, 0x80 | reg << 3 | 2][..],
                &(4 * j).to_le_bytes(),
            ]
            .concat()
        }
    }
    fn r11(j: u32) -> Vec<u8> {
        slot(0x45, 3, j)
    }
    fn rec_mov_rax(j: u32) -> Vec<u8> {
        [r11(j), vec![0x4A, 0x8B, 0x04, 0x1F]].concat()
    }
    fn rec_mov_rcx(j: u32) -> Vec<u8> {
        [r11(j), vec![0x4A, 0x8B, 0x0C, 0x1F]].concat()
    }
    fn rec_store(j: u32) -> Vec<u8> {
        [r11(j), vec![0x4A, 0x89, 0x04, 0x1F]].concat()
    }
    fn rec_cmp(j: u32) -> Vec<u8> {
        [r11(j), vec![0x4A, 0x39, 0x04, 0x1F]].concat()
    }
    fn rec_wake(j: u32) -> Vec<u8> {
        [r11(j), slot(0x41, 2, j + 1), vec![0x42, 0x08, 0x14, 0x1E]].concat()
    }

    const PATTERN: u64 = 0xDEAD_BEEF_CAFE_F00D;

    #[test]
    fn each_mask_takes_its_shortest_form() {
        let movabs = [
            &[0x48, 0xB9][..],
            &(1u64 << 32).to_le_bytes(),
            &[0x48, 0x21, 0xC8],
        ]
        .concat();
        let forms: [(u64, Vec<u8>); 6] = [
            (1, vec![0x83, 0xE0, 0x01]),
            (0xFF, vec![0x25, 0xFF, 0x00, 0x00, 0x00]),
            (0x7FFF_FFFF, vec![0x25, 0xFF, 0xFF, 0xFF, 0x7F]),
            (0xFFFF_FFFF, vec![0x89, 0xC0]),
            (1 << 32, movabs),
            (u64::MAX, vec![]),
        ];
        for (mask, form) in forms {
            let prog = program(vec![Inst1::new(Op1::Ext, 1, mask)], vec![]);
            for word in [u64::MAX, PATTERN, PATTERN | (1 << 32) | 1] {
                let insts = emit_and_run(&prog, &[word, 0]);
                let want = [mov_rax(0), form.clone(), store(1), add_ops(1)].concat();
                assert_eq!(insts[0], want, "mask {mask:#x}");
            }
        }
    }

    #[test]
    fn previous_dst_forwards_into_a_b_and_a_mux_selector() {
        // 0: t2 = !w0 (8 bits)   1: w3 = t2 + w1, fused, wakes 0 and 70
        // (bit 6 of byte 8: the second activity word)
        let fused = Inst1 {
            a: 2,
            b: 1,
            ws: 0,
            we: 2,
            ..Inst1::new(Op1::Add, 3, u64::MAX)
        };
        let prog = program(vec![Inst1::new(Op1::Not, 2, 0xFF), fused], vec![0, 70]);
        let insts = emit_and_run(&prog, &[PATTERN, 7, 0, 0]);
        let mask = vec![0x25, 0xFF, 0x00, 0x00, 0x00];
        assert_eq!(
            insts[0],
            [mov_rax(0), NOT.to_vec(), mask, store(2)].concat()
        );
        assert_eq!(wake(70), [0x80, 0x8E, 8, 0, 0, 0, 0x40]);
        // `a` is already in rax: only `b` is loaded.
        let tail = [cmp_mem(3), vec![0x74, 21], store(3), wake(0), wake(70)].concat();
        assert_eq!(
            insts[1],
            [mov_rcx(1), ADD.to_vec(), tail, add_ops(2), add_dyn(1)].concat()
        );

        // Into `b`: it leaves rax before `a` is loaded over it.
        let sub = Inst1 {
            a: 1,
            b: 2,
            ..Inst1::new(Op1::Sub, 3, u64::MAX)
        };
        let prog = program(vec![Inst1::new(Op1::Not, 2, 0xFF), sub], vec![]);
        let insts = emit_and_run(&prog, &[PATTERN, 7, 0, 0]);
        assert_eq!(
            insts[1],
            [MOV_RCX_RAX, &mov_rax(1), SUB, &store(3), &add_ops(2)].concat()
        );

        // Into a mux selector, for either value of it.
        let not = Inst1 {
            a: 0,
            ..Inst1::new(Op1::Not, 4, 1)
        };
        let mux = Inst1 {
            a: 4,
            b: 2,
            c: 3,
            ..Inst1::new(Op1::Mux, 5, u64::MAX)
        };
        let prog = program(vec![not, mux], vec![]);
        for sel in [0, 1] {
            let insts = emit_and_run(&prog, &[sel, 0, 0x1111, 0x2222, 0, 0]);
            assert_eq!(
                insts[1],
                [
                    TEST_AL1,
                    &mov_rax(2),
                    &mov_rcx(3),
                    CMOVZ,
                    &store(5),
                    &add_ops(2)
                ]
                .concat()
            );
        }
    }

    #[test]
    fn a_jump_target_reloads() {
        // 0: w5 = w1   1: if !w0 goto 3   2: w5 = w2   3: w6 = !w5
        // Instruction 3 follows a write of w5 on the fall-through path
        // and the selector test on the taken one: it must load w5.
        let ext = |a: u32| Inst1 {
            a,
            ..Inst1::new(Op1::Ext, 5, u64::MAX)
        };
        let jif = Inst1 {
            a: 3,
            b: 0,
            ..Inst1::new(Op1::JmpIf0, 0, 0)
        };
        let not = Inst1 {
            a: 5,
            ..Inst1::new(Op1::Not, 6, u64::MAX)
        };
        let prog = program(vec![ext(1), jif, ext(2), not], vec![]);
        for sel in [0, 1] {
            let insts = emit_and_run(&prog, &[sel, 0x1111, 0x2222, 0, 0, 0, 0]);
            // The run's count settles before the jump...
            assert_eq!(insts[1][..4], add_ops(1)[..]);
            // ...and again before the target.
            assert_eq!(insts[2], [mov_rax(2), store(5), add_ops(1)].concat());
            assert_eq!(
                insts[3],
                [mov_rax(5), NOT.to_vec(), store(6), add_ops(1)].concat()
            );
        }

        // The same at a `Jmp` target: 0: if !w0 goto 3   1: w5 = w1
        // 2: goto 4   3: w5 = w2   4: w6 = !w5
        let jif = Inst1 {
            a: 3,
            b: 0,
            ..Inst1::new(Op1::JmpIf0, 0, 0)
        };
        let jmp = Inst1 {
            a: 4,
            ..Inst1::new(Op1::Jmp, 0, 0)
        };
        let prog = program(vec![jif, ext(1), jmp, ext(2), not], vec![]);
        for sel in [0, 1] {
            let insts = emit_and_run(&prog, &[sel, 0x1111, 0x2222, 0, 0, 0, 0]);
            assert_eq!(insts[2][..4], add_ops(1)[..], "before the jump");
            assert_eq!(
                insts[4],
                [mov_rax(5), NOT.to_vec(), store(6), add_ops(1)].concat()
            );
        }
    }

    #[test]
    fn a_written_accumulator_forwards_nothing() {
        // `a` loaded and sign-extended in rax: `b`, the same word, comes
        // from memory.
        let add = Inst1 {
            a: 0,
            b: 0,
            sxa: 56,
            ..Inst1::new(Op1::Add, 1, u64::MAX)
        };
        let insts = emit_and_run(&program(vec![add], vec![]), &[0x80, 0]);
        assert_eq!(
            insts[0],
            [
                mov_rax(0),
                sext_rax(56),
                mov_rcx(0),
                ADD.to_vec(),
                store(1),
                add_ops(1)
            ]
            .concat()
        );

        // ...but a forwarded `b` is taken before `a`'s sign extension.
        let ext = Inst1 {
            a: 1,
            ..Inst1::new(Op1::Ext, 0, 0xFF)
        };
        let insts = emit_and_run(&program(vec![ext, add], vec![]), &[0, 0x1F80]);
        assert_eq!(
            insts[1],
            [MOV_RCX_RAX, &sext_rax(56), ADD, &store(1), &add_ops(2)].concat()
        );

        // `Cat` of a word with itself: the shift overwrote rax.
        let cat = Inst1 {
            a: 0,
            b: 0,
            imm: 8,
            ..Inst1::new(Op1::Cat, 1, 0xFFFF)
        };
        let insts = emit_and_run(&program(vec![cat], vec![]), &[0xAB, 0]);
        let shl = vec![0x48, 0xC1, 0xE0, 8];
        let mask = vec![0x25, 0xFF, 0xFF, 0x00, 0x00];
        assert_eq!(
            insts[0],
            [
                mov_rax(0),
                shl,
                mov_rcx(0),
                OR.to_vec(),
                mask,
                store(1),
                add_ops(1)
            ]
            .concat()
        );
    }

    #[test]
    fn a_long_run_splits_its_count() {
        // 130 negations of one word in one straight-line run: `add r8,
        // imm8` sign-extends, so the count takes two.
        let not = Inst1 {
            a: 0,
            ..Inst1::new(Op1::Not, 0, u64::MAX)
        };
        let insts = emit_and_run(&program(vec![not; 130], vec![]), &[PATTERN]);
        assert_eq!(insts[0], [mov_rax(0), NOT.to_vec(), store(0)].concat());
        assert_eq!(insts[1], [NOT.to_vec(), store(0)].concat());
        assert_eq!(
            insts[129],
            [NOT.to_vec(), store(0), add_ops(127), add_ops(3)].concat()
        );
    }

    /// `w(base + 2) = !w(base)` (8 bits), then `w(base + 3) = w(base + 2)
    /// + w(base + 1)`, fused, waking `cons` and `cons + 70`.
    fn not_then_fused_add(base: u32, cons: u32) -> Tier1Program {
        let not = Inst1 {
            a: base,
            ..Inst1::new(Op1::Not, base + 2, 0xFF)
        };
        let fused = Inst1 {
            a: base + 2,
            b: base + 1,
            ws: 0,
            we: 2,
            ..Inst1::new(Op1::Add, base + 3, u64::MAX)
        };
        program(vec![not, fused], vec![cons, cons + 70])
    }

    #[test]
    fn record_form_reads_operands_and_wakes_from_the_record() {
        // Words 0..=3 waking 0 and 70, and words 4..=7 waking 9 and 79:
        // one set of bytes, two records.
        let progs = [not_then_fused_add(0, 0), not_then_fused_add(4, 9)];
        let arena = [PATTERN, 7, 0, 0, 0x1234, 0x77, 0, 5];
        let (prologue, insts, record) = emit_records_and_run(&progs, &arena);
        assert_eq!(
            prologue,
            [0x53, 0x48, 0x89, 0xD3, 0x49, 0x89, 0xCA, 0x45, 0x31, 0xC0, 0x45, 0x31, 0xC9]
        );
        assert_eq!(r11(1), [0x45, 0x8B, 0x5A, 4]);
        assert_eq!(
            rec_wake(5)[4..],
            [0x41, 0x8B, 0x52, 24, 0x42, 0x08, 0x14, 0x1E]
        );
        let mask = vec![0x25, 0xFF, 0x00, 0x00, 0x00];
        assert_eq!(
            insts[0],
            [rec_mov_rax(0), NOT.to_vec(), mask, rec_store(1)].concat()
        );
        // `a` forwarded; the skip covers an 8-byte store and two 12-byte
        // wakes.
        let tail = [
            rec_cmp(3),
            vec![0x74, 32],
            rec_store(4),
            rec_wake(5),
            rec_wake(7),
        ]
        .concat();
        assert_eq!(
            insts[1],
            [rec_mov_rcx(2), ADD.to_vec(), tail, add_ops(2), add_dyn(1)].concat()
        );
        // Byte offsets in access order; a wake is (byte, bit).
        assert_eq!(record, [0, 16, 8, 24, 24, 0, 1, 8, 0x40]);
    }

    /// `n` negations `w(base + 2i + 1) = !w(base + 2i)` — two record slots
    /// each, so the slots pass 31 — and then one fused copy of the last
    /// result waking `wakes` consumers from `cons`.
    fn long_record(base: u32, cons: u32, n: u32, wakes: u32) -> Tier1Program {
        let mut code: Vec<Inst1> = (0..n)
            .map(|i| Inst1 {
                a: base + 2 * i,
                ..Inst1::new(Op1::Not, base + 2 * i + 1, u64::MAX)
            })
            .collect();
        // Reads the word two back, so nothing forwards.
        code.push(Inst1 {
            a: base + 2 * n - 2,
            ws: 0,
            we: wakes,
            ..Inst1::new(Op1::Ext, base + 2 * n, u64::MAX)
        });
        program(code, (0..wakes).map(|k| cons + 3 * k).collect())
    }

    #[test]
    fn record_slots_past_31_take_disp32_and_the_skip_is_sized_per_form() {
        // 20 negations fill slots 0..=39; the fused copy loads from slot
        // 40, compares through 41, stores through 42 and wakes from 43
        // on: all disp32.
        let arena: Vec<u64> = (0..82).map(|i| PATTERN.rotate_left(i)).collect();
        for (wakes, je) in [(6u32, vec![0x74, 119]), (7, vec![0x0F, 0x84, 137, 0, 0, 0])] {
            let progs = [long_record(0, 0, 20, wakes), long_record(41, 5, 20, wakes)];
            let (_, insts, record) = emit_records_and_run(&progs, &arena);
            assert_eq!(
                insts[16],
                [rec_mov_rax(32), NOT.to_vec(), rec_store(33)].concat()
            );
            assert_eq!(rec_mov_rax(32)[..7], [0x45, 0x8B, 0x9A, 128, 0, 0, 0]);
            assert_eq!(rec_wake(43)[7..14], [0x41, 0x8B, 0x92, 176, 0, 0, 0]);
            // 11-byte store, 18-byte wakes: six fit a rel8 skip, seven
            // do not.
            let wake_bytes: Vec<u8> = (0..wakes).flat_map(|k| rec_wake(43 + 2 * k)).collect();
            assert_eq!(
                insts[20],
                [
                    rec_mov_rax(40),
                    rec_cmp(41),
                    je,
                    rec_store(42),
                    wake_bytes,
                    add_ops(21),
                    add_dyn(1)
                ]
                .concat()
            );
            assert_eq!(record.len(), 43 + 2 * wakes as usize);
            // The displacement form skips the same seven wakes short.
            let disp = split(&emit(&progs[0], true).unwrap());
            assert_eq!(disp[20][14..16], [0x74, 7 * (1 + wakes as u8)]);
        }
    }

    #[test]
    fn a_shape_with_one_member_keeps_displacements() {
        use super::super::{JitPlan, JIT_MIN_COST};
        let lone = not_then_fused_add(0, 0);
        let plan = JitPlan::new(std::slice::from_ref(&lone), &[JIT_MIN_COST], true);
        assert_eq!(plan.bodies, [emit(&lone, true).unwrap()]);
        assert!(plan.records.is_empty());

        // Two members share one record-form body, each with its record;
        // the program no other partition shares is displaced. The shared
        // body costs its two members' costs together, so it comes first.
        let progs = [
            not_then_fused_add(0, 0),
            long_record(8, 1, 2, 1),
            not_then_fused_add(4, 9),
        ];
        let plan = JitPlan::new(&progs, &[JIT_MIN_COST; 3], true);
        let (shared, record) = emit_record(&progs[2], true).unwrap();
        assert_eq!(plan.bodies, [shared, emit(&progs[1], true).unwrap()]);
        let parts: Vec<(usize, (u32, u32))> = plan
            .parts
            .iter()
            .map(|p| p.map(|p| (p.body, p.record)).unwrap())
            .collect();
        // Records back to back in schedule order.
        assert_eq!(parts, [(0, (0, 9)), (1, (9, 9)), (0, (9, 18))]);
        assert_eq!(plan.record(&plan.parts[2].unwrap()), record);
    }

    /// The opcodes the emitter handles: every one but `Generic`.
    const EMITTED: [Op1; 35] = {
        use Op1::*;
        [
            Add, Sub, Mul, DivU, DivS, RemU, RemS, LtU, LtS, LeqU, LeqS, Eq, Neq, Shl, ShrU, ShrS,
            Dshl, DshrU, DshrS, Neg, Not, And, Or, Xor, Andr, Orr, Xorr, Cat, Bits, Ext, Mux,
            MemRead, Commit, Jmp, JmpIf0,
        ]
    };

    /// The primitives `gen_circuit` never draws — division, remainder,
    /// `leq`, `neq`, unsigned and dynamic shifts, `andr`, `xorr` —
    /// unsigned and signed, from free inputs the optimizer cannot fold.
    const REST_OF_THE_OPS: &str = concat!(
        "circuit R :\n",
        "  module R :\n",
        "    input a : UInt<8>\n",
        "    input b : UInt<8>\n",
        "    input s : UInt<3>\n",
        "    output o0 : UInt<16>\n",
        "    output o1 : UInt<16>\n",
        "    output o2 : UInt<16>\n",
        "    output o3 : UInt<16>\n",
        "    output o4 : UInt<16>\n",
        "    output o5 : UInt<16>\n",
        "    output o6 : UInt<16>\n",
        "    output o7 : UInt<16>\n",
        "    output o8 : UInt<16>\n",
        "    output o9 : UInt<16>\n",
        "    output o10 : UInt<16>\n",
        "    output o11 : UInt<16>\n",
        "    output o12 : UInt<16>\n",
        "    node sa = asSInt(a)\n",
        "    node sb = asSInt(b)\n",
        "    o0 <= pad(div(a, b), 16)\n",
        "    o1 <= pad(asUInt(div(sa, sb)), 16)\n",
        "    o2 <= pad(rem(a, b), 16)\n",
        "    o3 <= pad(asUInt(rem(sa, sb)), 16)\n",
        "    o4 <= pad(leq(a, b), 16)\n",
        "    o5 <= pad(leq(sa, sb), 16)\n",
        "    o6 <= pad(neq(a, b), 16)\n",
        "    o7 <= pad(andr(a), 16)\n",
        "    o8 <= pad(xorr(b), 16)\n",
        "    o9 <= pad(shr(b, 3), 16)\n",
        "    o10 <= pad(dshl(a, s), 16)\n",
        "    o11 <= pad(dshr(a, s), 16)\n",
        "    o12 <= pad(asUInt(dshr(sa, s)), 16)\n",
    );

    /// Every program the emitter accepts from random circuits (and
    /// [`REST_OF_THE_OPS`]), lowered as the engines lower them but
    /// whatever its cost, runs natively in both forms against the
    /// interpreter, from random arenas and banks. Between them the
    /// programs hold every opcode the emitter handles.
    #[test]
    fn every_eligible_program_of_random_circuits_runs_natively() {
        use crate::frontend::{build_plan, Frontend};
        use crate::machine::Machine;
        use crate::testgen::gen_circuit;
        use crate::EngineConfig;
        use essent_bits::top_mask;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let config = EngineConfig::default();
        let mut rng = StdRng::seed_from_u64(0x0E717);
        let word = |rng: &mut StdRng| match rng.gen_range(0..6u32) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.gen_range(0..8u64),
            3 => rng.gen_range(62..=65u64),
            _ => rng.gen(),
        };
        let mut ran = [false; EMITTED.len()];
        let (mut programs, mut native) = (0, 0);
        for seed in 0..61 {
            let source = match seed {
                60 => REST_OF_THE_OPS.to_string(),
                _ => gen_circuit(seed).source,
            };
            let lowered =
                essent_firrtl::passes::lower(essent_firrtl::parse(&source).unwrap()).unwrap();
            let mut netlist = essent_netlist::Netlist::from_circuit(&lowered).unwrap();
            essent_netlist::opt::optimize(&mut netlist, &Default::default());
            let mut machine = Machine::new(&netlist);
            let plan = build_plan(&netlist, &config, true);
            let front = Frontend::compile(&netlist, &machine.layout, &plan, &config, None);
            for bank in &mut machine.mems {
                for w in &mut bank.data {
                    *w = rng.gen::<u64>() & top_mask(bank.width);
                }
            }
            for prog in front.programs.as_deref().unwrap() {
                programs += 1;
                let Some(disp) = emit(prog, true) else {
                    continue;
                };
                native += 1;
                let (shared, record) = emit_record(prog, true).unwrap();
                for _ in 0..16 {
                    let arena: Vec<u64> =
                        (0..machine.arena.len()).map(|_| word(&mut rng)).collect();
                    run_against_interpreter(&disp.bytes, &[], prog, &arena, &machine.mems);
                    run_against_interpreter(&shared.bytes, &record, prog, &arena, &machine.mems);
                }
                for inst in &prog.code {
                    let i = EMITTED.iter().position(|&op| op == inst.op).unwrap();
                    ran[i] = true;
                }
            }
        }
        let missing: Vec<Op1> = (0..EMITTED.len())
            .filter(|&i| !ran[i])
            .map(|i| EMITTED[i])
            .collect();
        assert!(missing.is_empty(), "never run natively: {missing:?}");
        assert!(native * 2 > programs, "{native} of {programs} eligible");
    }
}
