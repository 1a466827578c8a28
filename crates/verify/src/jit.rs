//! The native-code audit layer (the `J____` diagnostic family): an
//! independent disassembly of the JIT's emitted machine code, checked
//! instruction-by-instruction against the [`Tier1Program`] it was
//! lowered from.
//!
//! The emitters ([`essent_sim::jit::x64`], [`essent_sim::jit::a64`])
//! deliberately use a small fixed vocabulary of encodings — every arena
//! access, flag wake, bank load, immediate materialization, and branch
//! has one uniform shape. This layer re-decodes that vocabulary *from
//! the bytes* (it shares no encoding tables with the emitters) and
//! extracts, per source instruction, a **fact set**:
//!
//! * arena word offsets loaded and stored,
//! * activity-flag bytes written (the fused CCSS wake sites),
//! * bank-table entries dereferenced,
//! * 64-bit immediates materialized,
//! * branch targets, and
//! * `ops` / `dynamic` counter increments.
//!
//! The facts are then compared against what the [`Inst1`] semantics
//! demand (including the constant-folding the emitters perform — an
//! out-of-range `Shl` must load *nothing*):
//!
//! * `J0701` **decode** — an undecodable byte/word, a malformed
//!   prologue/epilogue, or a non-contiguous instruction mark table;
//! * `J0702` **operand** — a load/store/bank/immediate/count fact that
//!   differs from the instruction's operands (in-arena offsets per the
//!   same footprints the `R05xx` layer proves disjoint);
//! * `J0703` **flow** — a branch leaving its instruction's byte range
//!   other than to the lowered jump target, a `Jmp`/`JmpIf0` without
//!   its target, or a backward jump (termination);
//! * `J0704` **fuse** — a fused-trigger tail whose wake sites differ
//!   from the program's consumer list, a missing/spurious `dynamic`
//!   increment, or wakes on an unfused instruction. A `Commit`
//!   instruction is held to the same tail, and to *no* `ops` increment
//!   (`J0702`).

use essent_core::diag::{codes, Diagnostic, Report};
use essent_sim::jit::{EmittedCode, JitArch};
use essent_sim::step1::{Inst1, Op1, Tier1Program, NO_FUSE};
use std::collections::BTreeSet;

/// Facts extracted from one instruction's decoded byte range.
#[derive(Default)]
struct InstFacts {
    loads: BTreeSet<u32>,
    stores: BTreeSet<u32>,
    flags: BTreeSet<u32>,
    banks: BTreeSet<u32>,
    imms: BTreeSet<u64>,
    /// Bitfield-AND mask widths (aarch64 result masking).
    mask_widths: BTreeSet<u32>,
    /// Absolute byte offsets into the stream.
    branch_targets: Vec<u32>,
    ops_incs: u32,
    dyn_incs: u32,
    /// Decode failed somewhere in this range (already reported).
    bad: bool,
}

/// What the source instruction requires of its emitted range.
struct Expect {
    loads: BTreeSet<u32>,
    stores: BTreeSet<u32>,
    flags: BTreeSet<u32>,
    banks: BTreeSet<u32>,
    /// Immediates that must appear (`Andr` mask, `MemRead` depth, and on
    /// x86-64 the result mask).
    req_imms: Vec<u64>,
    /// Required bitfield mask width (aarch64 result masking).
    req_mask_width: Option<u32>,
    /// Lowered jump target (absolute byte offset) for `Jmp`/`JmpIf0`.
    jump: Option<u32>,
    ops_incs: u32,
    dyn_incs: u32,
}

/// Derives the expected fact set for one instruction.
fn expect(prog: &Tier1Program, inst: &Inst1, code: &EmittedCode) -> Expect {
    let roles = inst.roles();
    let mut loads: BTreeSet<u32> = roles.reads().iter().copied().collect();
    let banks: BTreeSet<u32> = roles.bank.into_iter().collect();
    let mut req_imms = Vec::new();
    match inst.op {
        // Constant-folded to zero when the shift clears the result.
        Op1::Shl if inst.imm >= inst.sxc as u64 => loads.clear(),
        Op1::ShrU if inst.imm >= 64 => loads.clear(),
        Op1::Andr | Op1::MemRead => req_imms.push(inst.imm),
        _ => {}
    }
    let jump = roles.jumps.then(|| {
        if (inst.a as usize) < code.marks.len() {
            code.marks[inst.a as usize].0
        } else {
            code.body_end()
        }
    });
    let value = roles.writes_dst;
    let mut stores = BTreeSet::new();
    let mut flags = BTreeSet::new();
    let mut req_mask_width = None;
    let mut dyn_incs = 0;
    if value {
        stores.insert(inst.dst);
        if inst.ws != NO_FUSE {
            // The fused tail reads the destination for the
            // compare-and-wake (x86-64: as the memory operand of the
            // compare).
            loads.insert(inst.dst);
            flags.extend(
                prog.consumers[inst.ws as usize..inst.we as usize]
                    .iter()
                    .copied(),
            );
            dyn_incs = 1;
        }
        if inst.mask != u64::MAX {
            match code.arch {
                JitArch::X64 => req_imms.push(inst.mask),
                JitArch::A64 => req_mask_width = Some(inst.mask.count_ones()),
            }
        }
    }
    Expect {
        loads,
        stores,
        flags,
        banks,
        req_imms,
        req_mask_width,
        jump,
        ops_incs: u32::from(roles.counts_op),
        dyn_incs,
    }
}

// ---------------------------------------------------------------------
// x86-64 restricted decoder
// ---------------------------------------------------------------------

/// Decodes one instruction byte range of the x86-64 vocabulary into a
/// fact set. Reports `J0701` for anything outside the vocabulary.
fn decode_x64(
    bytes: &[u8],
    start: usize,
    end: usize,
    report: &mut Report,
    partition: usize,
    pc: usize,
) -> InstFacts {
    let mut f = InstFacts::default();
    let mut p = start;
    let bad_at = |report: &mut Report, p: usize, f: &mut InstFacts| {
        f.bad = true;
        report.push(
            Diagnostic::error(
                codes::JIT_DECODE,
                format!("x64 stream undecodable at byte {p} (inst {pc})"),
            )
            .with_partition(partition),
        );
    };
    let rd32 = |bytes: &[u8], p: usize| {
        i32::from_le_bytes([bytes[p], bytes[p + 1], bytes[p + 2], bytes[p + 3]])
    };
    while p < end {
        let rest = end - p;
        let b = bytes[p];
        match b {
            // mov r64, [rdi+disp32] / [rbx+disp32] ; mov [rdi+disp32], r64
            0x48 if rest >= 4
                && matches!(bytes[p + 1], 0x8B | 0x89)
                && bytes[p + 2] & 0xC0 != 0xC0 =>
            {
                let modrm = bytes[p + 2];
                let is_load = bytes[p + 1] == 0x8B;
                match (modrm & 0xC0, modrm & 7) {
                    (0x80, 7) if rest >= 7 => {
                        // rdi base: arena access.
                        let disp = rd32(bytes, p + 3);
                        if disp < 0 || disp % 8 != 0 {
                            bad_at(report, p, &mut f);
                            return f;
                        }
                        let off = (disp / 8) as u32;
                        if is_load {
                            f.loads.insert(off);
                        } else {
                            f.stores.insert(off);
                        }
                        p += 7;
                    }
                    (0x80, 3) if is_load && rest >= 7 => {
                        // rbx base: bank table entry.
                        let disp = rd32(bytes, p + 3);
                        if disp < 0 || disp % 16 != 0 {
                            bad_at(report, p, &mut f);
                            return f;
                        }
                        f.banks.insert((disp / 16) as u32);
                        p += 7;
                    }
                    (0x00, 4) if is_load && modrm == 0x04 && bytes[p + 3] == 0xC1 => {
                        // mov rax, [rcx + rax*8]: the bank-indexed load.
                        p += 4;
                    }
                    _ => {
                        bad_at(report, p, &mut f);
                        return f;
                    }
                }
            }
            // cmp [rdi+disp32], rax: the fused tail's read of the stored
            // value.
            0x48 if rest >= 7 && bytes[p + 1] == 0x39 && bytes[p + 2] == 0x87 => {
                let disp = rd32(bytes, p + 3);
                if disp < 0 || disp % 8 != 0 {
                    bad_at(report, p, &mut f);
                    return f;
                }
                f.loads.insert((disp / 8) as u32);
                p += 7;
            }
            // movabs rcx, imm64
            0x48 if rest >= 10 && bytes[p + 1] == 0xB9 => {
                let mut v = [0u8; 8];
                v.copy_from_slice(&bytes[p + 2..p + 10]);
                f.imms.insert(u64::from_le_bytes(v));
                p += 10;
            }
            // shl/shr/sar r64, imm8
            0x48 if rest >= 4 && bytes[p + 1] == 0xC1 && bytes[p + 2] & 0xC0 == 0xC0 => {
                match (bytes[p + 2] >> 3) & 7 {
                    4 | 5 | 7 => p += 4,
                    _ => {
                        bad_at(report, p, &mut f);
                        return f;
                    }
                }
            }
            // cmp rcx, imm8
            0x48 if rest >= 4 && bytes[p + 1] == 0x83 && bytes[p + 2] == 0xF9 => p += 4,
            // Fixed three-byte r64 ALU forms: add/sub/imul(via 0F)/and/
            // or/xor/cmp/test/div/idiv/neg/not/shifts-by-cl and cqo.
            0x48 if rest >= 3
                && matches!(
                    (bytes[p + 1], bytes[p + 2]),
                    (0x01, 0xC8) // add rax, rcx
                        | (0x29, 0xC8) // sub rax, rcx
                        | (0x21, 0xC8) // and rax, rcx
                        | (0x09, 0xC8) // or rax, rcx
                        | (0x31, 0xC8) // xor rax, rcx
                        | (0x39, 0xC8) // cmp rax, rcx
                        | (0x85, 0xC9) // test rcx, rcx
                        | (0x85, 0xC0) // test rax, rax
                        | (0x89, 0xD0) // mov rax, rdx (div remainder)
                        | (0xF7, 0xF1) // div rcx
                        | (0xF7, 0xF9) // idiv rcx
                        | (0xF7, 0xD8) // neg rax
                        | (0xF7, 0xD0) // not rax
                        | (0xD3, 0xE0) // shl rax, cl
                        | (0xD3, 0xE8) // shr rax, cl
                        | (0xD3, 0xF8) // sar rax, cl
                ) =>
            {
                p += 3;
            }
            // imul rax, rcx
            0x48 if rest >= 4 && bytes[p + 1] == 0x0F && bytes[p + 2] == 0xAF => p += 4,
            // cqo
            0x48 if rest >= 2 && bytes[p + 1] == 0x99 => p += 2,
            // inc r8 (ops) / inc r9 (dynamic)
            0x49 if rest >= 3 && bytes[p + 1] == 0xFF && matches!(bytes[p + 2], 0xC0 | 0xC1) => {
                if bytes[p + 2] == 0xC0 {
                    f.ops_incs += 1;
                } else {
                    f.dyn_incs += 1;
                }
                p += 3;
            }
            // popcnt rax, rax
            0xF3 if rest >= 5 && bytes[p + 1..p + 5] == [0x48, 0x0F, 0xB8, 0xC0] => p += 5,
            // setcc al / movzx eax, al / jcc rel32
            0x0F if rest >= 3 => match bytes[p + 1] {
                0x90..=0x9F if bytes[p + 2] == 0xC0 => p += 3,
                0xB6 if bytes[p + 2] == 0xC0 => p += 3,
                0x82..=0x86 if rest >= 6 => {
                    let rel = rd32(bytes, p + 2);
                    f.branch_targets.push(((p as i64 + 6) + rel as i64) as u32);
                    p += 6;
                }
                _ => {
                    bad_at(report, p, &mut f);
                    return f;
                }
            },
            // je rel8 (the fused tail's skip)
            0x74 if rest >= 2 => {
                let rel = bytes[p + 1] as i8;
                f.branch_targets.push(((p as i64 + 2) + rel as i64) as u32);
                p += 2;
            }
            // jmp rel32
            0xE9 if rest >= 5 => {
                let rel = rd32(bytes, p + 1);
                f.branch_targets.push(((p as i64 + 5) + rel as i64) as u32);
                p += 5;
            }
            // mov byte [rsi+disp32], 1
            0xC6 if rest >= 7 && bytes[p + 1] == 0x86 && bytes[p + 6] == 0x01 => {
                let disp = rd32(bytes, p + 2);
                if disp < 0 {
                    bad_at(report, p, &mut f);
                    return f;
                }
                f.flags.insert(disp as u32);
                p += 7;
            }
            // xor eax, eax / xor edx, edx
            0x31 if rest >= 2 && matches!(bytes[p + 1], 0xC0 | 0xD2) => p += 2,
            // test al, 1
            0xA8 if rest >= 2 && bytes[p + 1] == 0x01 => p += 2,
            // and eax, 1
            0x83 if rest >= 3 && bytes[p + 1] == 0xE0 && bytes[p + 2] == 0x01 => p += 3,
            // mov ecx, 63
            0xB9 if rest >= 5 => {
                f.imms.insert(rd32(bytes, p + 1) as u32 as u64);
                p += 5;
            }
            _ => {
                bad_at(report, p, &mut f);
                return f;
            }
        }
    }
    f
}

/// The exact prologue the x86-64 emitter produces.
const X64_PROLOGUE: &[u8] = &[
    0x53, // push rbx
    0x48, 0x89, 0xD3, // mov rbx, rdx
    0x45, 0x31, 0xC0, // xor r8d, r8d
    0x45, 0x31, 0xC9, // xor r9d, r9d
];

/// The exact epilogue the x86-64 emitter produces.
const X64_EPILOGUE: &[u8] = &[
    0x4C, 0x89, 0xC8, // mov rax, r9
    0x48, 0xC1, 0xE0, 0x20, // shl rax, 32
    0x4C, 0x09, 0xC0, // or rax, r8
    0x5B, // pop rbx
    0xC3, // ret
];

// ---------------------------------------------------------------------
// AArch64 restricted decoder
// ---------------------------------------------------------------------

const A64_OFF: u32 = 15;
const A64_ARENA: u32 = 0;
const A64_FLAGS: u32 = 1;
const A64_BANKS: u32 = 2;
const A64_OPS: u32 = 13;
const A64_DYN: u32 = 14;

/// Decodes one instruction word range of the AArch64 vocabulary.
fn decode_a64(
    bytes: &[u8],
    start: usize,
    end: usize,
    report: &mut Report,
    partition: usize,
    pc: usize,
) -> InstFacts {
    let mut f = InstFacts::default();
    // Offset register (x15) value and general immediate tracking
    // (movz/movk builders).
    let mut off: Option<u32> = None;
    let mut imm_val = [0u64; 32];
    let mut p = start;
    while p < end {
        let w = u32::from_le_bytes([bytes[p], bytes[p + 1], bytes[p + 2], bytes[p + 3]]);
        let widx = p / 4;
        let rd = w & 31;
        if w & 0xFF80_0000 == 0xD280_0000 {
            // movz rd, imm16, lsl #(hw*16)
            let hw = (w >> 21) & 3;
            let imm16 = ((w >> 5) & 0xFFFF) as u64;
            imm_val[rd as usize] = imm16 << (16 * hw);
            f.imms.insert(imm_val[rd as usize]);
            if rd == A64_OFF {
                off = (hw == 0).then_some(imm16 as u32);
            }
        } else if w & 0xFF80_0000 == 0xF280_0000 {
            // movk rd, imm16, lsl #(hw*16)
            let hw = (w >> 21) & 3;
            let imm16 = ((w >> 5) & 0xFFFF) as u64;
            let shifted = imm16 << (16 * hw);
            imm_val[rd as usize] = (imm_val[rd as usize] & !(0xFFFFu64 << (16 * hw))) | shifted;
            f.imms.insert(imm_val[rd as usize]);
            if rd == A64_OFF {
                off = off.filter(|_| hw == 1).map(|o| o | (imm16 as u32) << 16);
            }
        } else if w & 0xFFE0_FC00 == 0xF860_7800 || w & 0xFFE0_FC00 == 0xF820_7800 {
            // ldr/str Xt, [Xn, Xm, lsl #3]
            let is_load = w & 0x0040_0000 != 0;
            let rn = (w >> 5) & 31;
            let rm = (w >> 16) & 31;
            if rm == A64_OFF && rn == A64_ARENA {
                match off {
                    Some(o) if is_load => {
                        f.loads.insert(o);
                    }
                    Some(o) => {
                        f.stores.insert(o);
                    }
                    None => {
                        f.bad = true;
                        report.push(
                            Diagnostic::error(
                                codes::JIT_DECODE,
                                format!(
                                    "a64 arena access at word {widx} without a \
                                     materialized offset (inst {pc})"
                                ),
                            )
                            .with_partition(partition),
                        );
                        return f;
                    }
                }
            } else if rm == A64_OFF && rn == A64_BANKS && is_load {
                match off {
                    // 16-byte table entries addressed as word pairs.
                    Some(o) if o % 2 == 0 => {
                        f.banks.insert(o / 2);
                    }
                    _ => {
                        f.bad = true;
                        report.push(
                            Diagnostic::error(
                                codes::JIT_DECODE,
                                format!("a64 bank access with bad offset at word {widx}"),
                            )
                            .with_partition(partition),
                        );
                        return f;
                    }
                }
            }
            // Register-indexed bank[addr] loads carry no static fact.
        } else if w == 0x3820_6800 | (A64_OFF << 16) | (A64_FLAGS << 5) | 12 {
            // strb w12, [x1, x15] — the register holding the constant 1
            match off {
                Some(o) => {
                    f.flags.insert(o);
                }
                None => {
                    f.bad = true;
                    report.push(
                        Diagnostic::error(
                            codes::JIT_DECODE,
                            format!("a64 flag store without offset at word {widx}"),
                        )
                        .with_partition(partition),
                    );
                    return f;
                }
            }
        } else if w & 0xFFFF_FC00 == 0x9100_0400 && (w >> 5) & 31 == rd {
            // add rd, rd, #1 — counter increment
            if rd == A64_OPS {
                f.ops_incs += 1;
            } else if rd == A64_DYN {
                f.dyn_incs += 1;
            }
        } else if w & 0xFC00_0000 == 0x1400_0000 {
            // b
            let imm = ((w & 0x03FF_FFFF) as i32) << 6 >> 6;
            f.branch_targets
                .push(((widx as i64 + imm as i64) * 4) as u32);
        } else if w & 0xFF00_0010 == 0x5400_0000 || w & 0xFF00_0000 == 0xB400_0000 {
            // b.cond / cbz
            let imm = (((w >> 5) & 0x7FFFF) as i32) << 13 >> 13;
            f.branch_targets
                .push(((widx as i64 + imm as i64) * 4) as u32);
        } else if w & 0xFFF8_0000 == 0x3600_0000 {
            // tbz rt, #0
            let imm = (((w >> 5) & 0x3FFF) as i32) << 18 >> 18;
            f.branch_targets
                .push(((widx as i64 + imm as i64) * 4) as u32);
        } else if w & 0xFFC0_0000 == 0x9240_0000 && (w >> 16) & 0x3F == 0 {
            // and rd, rn, #low-mask(width)
            f.mask_widths.insert(((w >> 10) & 0x3F) + 1);
        } else if w & 0xFFC0_0000 == 0x9340_0000 && (w >> 16) & 0x3F == 0 {
            // sbfm sign-extension
        } else if (w & 0xFFE0_FC1F == 0xEB00_001F) // cmp rr
            || (w & 0xFFC0_001F == 0xF100_001F) // cmp imm12
            || (w & 0xFFFF_0FE0 == 0x9A9F_07E0) // cset
            || (w & 0xFFE0_0C00 == 0x9A80_0000) // csel
            || (w & 0xFFE0_0000 == 0xCA40_0000) // eor lsr (parity fold)
            || (w & 0xFFE0_FC00 == 0x8B00_0000) // add
            || (w & 0xFFE0_FC00 == 0xCB00_0000) // sub / neg
            || (w & 0xFFE0_FC00 == 0x9B00_7C00) // mul
            || (w & 0xFFE0_8000 == 0x9B00_8000) // msub
            || (w & 0xFFE0_FC00 == 0x9AC0_0800) // udiv
            || (w & 0xFFE0_FC00 == 0x9AC0_0C00) // sdiv
            || (w & 0xFFE0_FC00 == 0x9AC0_2000) // lslv
            || (w & 0xFFE0_FC00 == 0x9AC0_2400) // lsrv
            || (w & 0xFFE0_FC00 == 0x9AC0_2800) // asrv
            || (w & 0xFFE0_FC00 == 0x8A00_0000) // and rr
            || (w & 0xFFE0_FC00 == 0xAA00_0000) // orr rr
            || (w & 0xFFE0_FC00 == 0xAA20_0000) // mvn
            || (w & 0xFFE0_FC00 == 0xCA00_0000)
        // eor rr
        {
            // Pure register compute: no static facts beyond decoding.
        } else {
            f.bad = true;
            report.push(
                Diagnostic::error(
                    codes::JIT_DECODE,
                    format!("a64 stream undecodable at word {widx} (inst {pc}): {w:#010x}"),
                )
                .with_partition(partition),
            );
            return f;
        }
        p += 4;
    }
    f
}

/// The exact prologue the AArch64 emitter produces (`movz` of the two
/// counters and the flag constant).
const A64_PROLOGUE: &[u8] = &[
    0x0D, 0x00, 0x80, 0xD2, // movz x13, #0
    0x0E, 0x00, 0x80, 0xD2, // movz x14, #0
    0x2C, 0x00, 0x80, 0xD2, // movz x12, #1
];

/// The exact epilogue (`orr x0, x13, x14, lsl #32; ret`).
const A64_EPILOGUE: &[u8] = &[
    0xA0, 0x81, 0x0E, 0xAA, // orr x0, x13, x14, lsl #32
    0xC0, 0x03, 0x5F, 0xD6, // ret
];

// ---------------------------------------------------------------------
// The audit proper
// ---------------------------------------------------------------------

/// Audits one emitted stream against its source program. `partition` is
/// the scheduled index, used only in diagnostics.
pub fn check_jit(prog: &Tier1Program, code: &EmittedCode, partition: usize) -> Report {
    let mut report = Report::new();
    // --- Structure: marks cover the code exactly (J0701) -------------
    if code.marks.len() != prog.code.len() {
        report.push(
            Diagnostic::error(
                codes::JIT_DECODE,
                format!(
                    "mark table has {} entries for {} instruction(s)",
                    code.marks.len(),
                    prog.code.len()
                ),
            )
            .with_partition(partition),
        );
        return report;
    }
    let (prologue, epilogue) = match code.arch {
        JitArch::X64 => (X64_PROLOGUE, X64_EPILOGUE),
        JitArch::A64 => (A64_PROLOGUE, A64_EPILOGUE),
    };
    if code.bytes.len() < prologue.len() + epilogue.len()
        || &code.bytes[..prologue.len()] != prologue
    {
        report.push(
            Diagnostic::error(codes::JIT_DECODE, "malformed prologue".to_string())
                .with_partition(partition),
        );
        return report;
    }
    if &code.bytes[code.bytes.len() - epilogue.len()..] != epilogue {
        report.push(
            Diagnostic::error(codes::JIT_DECODE, "malformed epilogue".to_string())
                .with_partition(partition),
        );
        return report;
    }
    let mut cursor = prologue.len() as u32;
    for (pc, &(s, e)) in code.marks.iter().enumerate() {
        if s != cursor || e < s || e as usize > code.bytes.len() - epilogue.len() {
            report.push(
                Diagnostic::error(
                    codes::JIT_DECODE,
                    format!("mark {pc} [{s}, {e}) breaks body contiguity at {cursor}"),
                )
                .with_partition(partition),
            );
            return report;
        }
        cursor = e;
    }
    if cursor as usize != code.bytes.len() - epilogue.len() {
        report.push(
            Diagnostic::error(
                codes::JIT_DECODE,
                format!(
                    "body ends at {cursor}, epilogue begins at {}",
                    code.bytes.len() - epilogue.len()
                ),
            )
            .with_partition(partition),
        );
        return report;
    }

    // --- Per-instruction facts (J0702/J0703/J0704) --------------------
    for (pc, (inst, &(s, e))) in prog.code.iter().zip(&code.marks).enumerate() {
        let facts = match code.arch {
            JitArch::X64 => decode_x64(
                &code.bytes,
                s as usize,
                e as usize,
                &mut report,
                partition,
                pc,
            ),
            JitArch::A64 => decode_a64(
                &code.bytes,
                s as usize,
                e as usize,
                &mut report,
                partition,
                pc,
            ),
        };
        if facts.bad {
            continue;
        }
        let want = expect(prog, inst, code);
        let ctx = |what: &str| format!("inst {pc} ({:?}): {what}", inst.op);
        if facts.loads != want.loads {
            report.push(
                Diagnostic::error(
                    codes::JIT_OPERAND,
                    ctx(&format!(
                        "arena loads {:?} != expected {:?}",
                        facts.loads, want.loads
                    )),
                )
                .with_partition(partition),
            );
        }
        if facts.stores != want.stores {
            report.push(
                Diagnostic::error(
                    codes::JIT_OPERAND,
                    ctx(&format!(
                        "arena stores {:?} != expected {:?}",
                        facts.stores, want.stores
                    )),
                )
                .with_partition(partition),
            );
        }
        if facts.banks != want.banks {
            report.push(
                Diagnostic::error(
                    codes::JIT_OPERAND,
                    ctx(&format!(
                        "bank loads {:?} != expected {:?}",
                        facts.banks, want.banks
                    )),
                )
                .with_partition(partition),
            );
        }
        for imm in &want.req_imms {
            if !facts.imms.contains(imm) {
                report.push(
                    Diagnostic::error(
                        codes::JIT_OPERAND,
                        ctx(&format!("required immediate {imm:#x} not materialized")),
                    )
                    .with_partition(partition),
                );
            }
        }
        if let Some(wdt) = want.req_mask_width {
            if !facts.mask_widths.contains(&wdt) {
                report.push(
                    Diagnostic::error(
                        codes::JIT_OPERAND,
                        ctx(&format!("result mask of width {wdt} not applied")),
                    )
                    .with_partition(partition),
                );
            }
        }
        if facts.ops_incs != want.ops_incs {
            report.push(
                Diagnostic::error(
                    codes::JIT_OPERAND,
                    ctx(&format!(
                        "{} ops-counter increment(s), expected {}",
                        facts.ops_incs, want.ops_incs
                    )),
                )
                .with_partition(partition),
            );
        }
        // Flow: every branch stays inside its instruction range except
        // the lowered jump, which must exist, land on an instruction
        // boundary, and go forward.
        let mut jump_seen = false;
        for &t in &facts.branch_targets {
            if Some(t) == want.jump {
                jump_seen = true;
                if t < e {
                    report.push(
                        Diagnostic::error(
                            codes::JIT_FLOW,
                            ctx(&format!(
                                "jump target {t} is not forward (inst ends at {e})"
                            )),
                        )
                        .with_partition(partition),
                    );
                }
            } else if t < s || t > e {
                report.push(
                    Diagnostic::error(
                        codes::JIT_FLOW,
                        ctx(&format!(
                            "branch target {t} escapes instruction range [{s}, {e}]"
                        )),
                    )
                    .with_partition(partition),
                );
            }
        }
        if let Some(jump) = want.jump {
            if !jump_seen {
                report.push(
                    Diagnostic::error(
                        codes::JIT_FLOW,
                        ctx(&format!(
                            "lowered jump to byte {jump} missing from the stream"
                        )),
                    )
                    .with_partition(partition),
                );
            }
        }
        // Fuse: wake sites must be exactly the consumer list; the
        // dynamic counter must tick exactly on fused instructions.
        if facts.flags != want.flags {
            report.push(
                Diagnostic::error(
                    codes::JIT_FUSE,
                    ctx(&format!(
                        "flag wake sites {:?} != consumer set {:?}",
                        facts.flags, want.flags
                    )),
                )
                .with_partition(partition),
            );
        }
        if facts.dyn_incs != want.dyn_incs {
            report.push(
                Diagnostic::error(
                    codes::JIT_FUSE,
                    ctx(&format!(
                        "{} dynamic-counter increment(s), expected {}",
                        facts.dyn_incs, want.dyn_incs
                    )),
                )
                .with_partition(partition),
            );
        }
    }
    report
}
