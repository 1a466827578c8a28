//! The native-code audit layer (the `J____` diagnostic family): an
//! independent disassembly of the JIT's emitted machine code, checked
//! instruction-by-instruction against the [`Tier1Program`] it was
//! lowered from.
//!
//! The emitter ([`essent_sim::jit::x64`]) deliberately uses a small
//! fixed vocabulary of encodings — every arena access, activity-bit wake,
//! bank load, immediate materialization, and branch has one uniform
//! shape. This layer re-decodes that vocabulary *from
//! the bytes* (it shares no encoding tables with the emitter) and
//! extracts, per source instruction, a **fact set**:
//!
//! * arena word offsets loaded and stored,
//! * activity bits set (the fused CCSS wake sites: `or byte [rsi +
//!   disp], imm` with a power-of-two `imm` wakes partition
//!   `disp * 8 + tz(imm)`),
//! * bank-table entries dereferenced,
//! * immediates materialized or applied as a mask,
//! * branch targets, and
//! * the amounts added to the `ops` / `dynamic` counters.
//!
//! The x86-64 emitter forwards the accumulator: an instruction may use
//! the word the previous one left in `rax` instead of loading it. The
//! decoder does not take the emitter's word for it. It derives from the
//! program alone when `rax` can hold a known word at an instruction's
//! first byte — the previous instruction stored it to its `dst`, and no
//! jump lands in between — and then follows `rax` through the bytes: a
//! load sets it, any other write (and any branch target inside the
//! range) forgets it, and an encoding that *reads* `rax` — `mov rcx,
//! rax` included — while it is known records a load of that word. A
//! forwarded operand thus shows up as the same load fact a memory load
//! would, and a forward the program does not justify as a missing one.
//!
//! The facts are then compared against what the [`Inst1`] semantics
//! demand (including the constant-folding the emitter performs — an
//! out-of-range `Shl` must load *nothing*):
//!
//! * `J0701` **decode** — an undecodable byte (that includes `cmovnz`:
//!   only `cmovz rax, rcx` is in the vocabulary; a wake whose `imm` is
//!   not a single bit; and the byte store `mov byte [rsi + disp], 1`,
//!   which would set one bit of the byte and clear the other seven), a
//!   malformed prologue/epilogue, or a non-contiguous instruction mark
//!   table;
//! * `J0702` **operand** — a load/store/bank/immediate/mask fact that
//!   differs from the instruction's operands (in-arena offsets per the
//!   same footprints the `R05xx` layer proves disjoint), or a
//!   straight-line run whose `ops` additions do not sum to the ops it
//!   holds, or a counter addition a branch can skip;
//! * `J0703` **flow** — a branch leaving its instruction's byte range
//!   other than to the lowered jump target, a `Jmp`/`JmpIf0` without
//!   its target, or a backward jump (termination);
//! * `J0704` **fuse** — a fused-trigger tail whose wake sites differ
//!   from the program's consumer list, a run whose `dynamic` additions
//!   do not sum to its fused instructions, or wakes on an unfused
//!   instruction. A `Commit` instruction is held to the same tail, and
//!   to adding nothing to `ops` (`J0702`).
//!
//! Counters are checked per **straight-line run** — from one leader
//! (instruction 0, a jump target, the instruction after a jump) to the
//! next — because every path through a run executes all of it: the
//! stream adds each run's total once, and must reach the same sums.
//!
//! **Shared bodies.** [`check_jit_plan`] audits a whole
//! [`JitPlan`] — exactly what the engine maps. A record-form body
//! names its arena words and wake sites by *record slot* (`mov r11d,
//! [r10 + 4j]` then `[rdi + r11]`; `mov r11d` / `mov edx` from two slots
//! then `or [rsi + r11], dl`), so its facts decode once, symbolically,
//! and each member resolves them through its own record before the
//! comparison above runs against its own program: a slot that holds
//! the wrong word is that member's `J0702`, a recorded wake site that
//! names the wrong bit (or no single bit) its `J0704`. A `[rdi + r11]`
//! or `[rsi + r11]` use without a record load of `r11` (and for a wake
//! of `edx`) earlier in the same instruction range, or a record load in
//! a body whose prologue does not set `r10`, is `J0701` for the body.

use essent_core::diag::{codes, DiagCode, Diagnostic, Report};
use essent_sim::jit::{EmittedCode, JitPlan};
use essent_sim::step1::{Inst1, Op1, Tier1Program, NO_FUSE};
use std::collections::BTreeSet;

/// An arena word as the bytes name it.
#[derive(Clone, Copy)]
enum Word {
    /// `[rdi + disp32]`: the word `disp / 8`.
    Disp(u32),
    /// `[rdi + r11]`: the byte offset record slot `j` holds.
    Slot(u32),
    /// The word `rax` held at the instruction's first byte: the previous
    /// instruction's `dst` where the member's program justifies it,
    /// nothing otherwise.
    Fwd,
}

/// An activity bit as the bytes name it.
#[derive(Clone, Copy)]
enum Site {
    /// `or byte [rsi + disp32], imm8`.
    Bit(u32),
    /// `or [rsi + r11], dl`: the byte and the bit mask two record slots
    /// hold.
    Slots { byte: u32, mask: u32 },
}

/// Facts extracted from one instruction's decoded byte range, with
/// record slots and the forwarded word not yet resolved (a body is
/// decoded once for all its members).
#[derive(Default)]
struct InstFacts {
    loads: Vec<Word>,
    stores: Vec<Word>,
    wakes: Vec<Site>,
    banks: BTreeSet<u32>,
    imms: BTreeSet<u64>,
    /// Absolute byte offsets into the stream.
    branch_targets: Vec<u32>,
    /// Amounts added to the `ops` / `dynamic` counters.
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
    /// Immediates that must appear (`Andr` mask, `MemRead` depth, and
    /// the result mask, in whichever form it is applied).
    req_imms: Vec<u64>,
    /// Lowered jump target (absolute byte offset) for `Jmp`/`JmpIf0`.
    jump: Option<u32>,
    /// What executing the instruction adds to `ops` / `dynamic`.
    ops: u32,
    dynamic: u32,
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
    let mut dynamic = 0;
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
            dynamic = 1;
        }
        if inst.mask != u64::MAX {
            req_imms.push(inst.mask);
        }
    }
    Expect {
        loads,
        stores,
        flags,
        banks,
        req_imms,
        jump,
        ops: u32::from(roles.counts_op),
        dynamic,
    }
}

// ---------------------------------------------------------------------
// The restricted decoder
// ---------------------------------------------------------------------

/// Where a body-level finding goes: the first member's partition, and
/// for a shared body a prefix naming it.
struct BodyCtx {
    partition: usize,
    prefix: String,
}

impl BodyCtx {
    fn push(&self, report: &mut Report, code: DiagCode, message: String) {
        report.push(
            Diagnostic::error(code, format!("{}{message}", self.prefix))
                .with_partition(self.partition),
        );
    }
}

/// Decodes one instruction byte range of the x86-64 vocabulary into a
/// fact set. Reports `J0701` for anything outside the vocabulary.
///
/// `rax` starts as [`Word::Fwd`]: what it holds at `start` is the
/// caller's derivation from each member's program, never the emitter's.
/// The decoder follows `rax` from there (see the module docs) and
/// records a load of the word it holds wherever an encoding reads it.
/// `record` says whether the prologue set up `r10`.
fn decode_x64(
    bytes: &[u8],
    (start, end): (usize, usize),
    record: bool,
    report: &mut Report,
    ctx: &BodyCtx,
    pc: usize,
) -> InstFacts {
    /// How an encoding touches `rax`.
    #[derive(Clone, Copy)]
    enum Rax {
        /// Neither reads nor writes it.
        Apart,
        Reads,
        /// Writes it without reading (a zeroing or a partial write).
        Kills,
        ReadsKills,
        /// Loads this arena word into it.
        Loads(Word),
    }
    let mut f = InstFacts::default();
    let mut rax = Some(Word::Fwd);
    // The record slots `r11` and `edx` were last loaded from, within
    // this range; a use consumes them.
    let (mut r11, mut edx): (Option<u32>, Option<u32>) = (None, None);
    // Branch targets inside the range: another path joins there, so
    // `rax`, `r11` and `edx` are unknown again; and a counter addition
    // before the furthest one is an addition some path skips.
    let mut joins: Vec<usize> = Vec::new();
    let branch = |f: &mut InstFacts, joins: &mut Vec<usize>, target: i64| {
        f.branch_targets.push(target as u32);
        joins.push(target as usize);
    };
    let mut p = start;
    let word = |d: &[u8]| i32::from_le_bytes([d[0], d[1], d[2], d[3]]);
    // A non-negative displacement that is a multiple of `scale`.
    let scaled =
        |disp: i32, scale: i32| (disp >= 0 && disp % scale == 0).then_some((disp / scale) as u32);
    let arena = |d: &[u8]| scaled(word(d), 8).map(Word::Disp);
    // The arena word `[rdi + r11]` names: the slot `r11` was loaded from.
    let indexed = |r11: &mut Option<u32>| r11.take().map(Word::Slot);
    while p < end {
        if joins.contains(&p) {
            (rax, r11, edx) = (None, None, None);
        }
        let decoded: Option<(usize, Rax)> = match bytes[p..end] {
            // mov rax, [rdi+disp32] ; mov rcx, [rdi+disp32] ;
            // mov [rdi+disp32], rax
            [0x48, 0x8B, 0x87, ref d @ ..] if d.len() >= 4 => arena(d).map(|w| {
                f.loads.push(w);
                (7, Rax::Loads(w))
            }),
            [0x48, 0x8B, 0x8F, ref d @ ..] if d.len() >= 4 => arena(d).map(|w| {
                f.loads.push(w);
                (7, Rax::Apart)
            }),
            [0x48, 0x89, 0x87, ref d @ ..] if d.len() >= 4 => arena(d).map(|w| {
                f.stores.push(w);
                (7, Rax::Reads)
            }),
            // cmp [rdi+disp32], rax: the fused tail's read of the stored
            // value.
            [0x48, 0x39, 0x87, ref d @ ..] if d.len() >= 4 => arena(d).map(|w| {
                f.loads.push(w);
                (7, Rax::Reads)
            }),
            // The record form of the same four: mov rax, [rdi+r11] ;
            // mov rcx, [rdi+r11] ; mov [rdi+r11], rax ; cmp [rdi+r11], rax
            [0x4A, 0x8B, 0x04, 0x1F, ..] => indexed(&mut r11).map(|w| {
                f.loads.push(w);
                (4, Rax::Loads(w))
            }),
            [0x4A, 0x8B, 0x0C, 0x1F, ..] => indexed(&mut r11).map(|w| {
                f.loads.push(w);
                (4, Rax::Apart)
            }),
            [0x4A, 0x89, 0x04, 0x1F, ..] => indexed(&mut r11).map(|w| {
                f.stores.push(w);
                (4, Rax::Reads)
            }),
            [0x4A, 0x39, 0x04, 0x1F, ..] => indexed(&mut r11).map(|w| {
                f.loads.push(w);
                (4, Rax::Reads)
            }),
            // mov r11d, [r10+disp8/32] ; mov edx, [r10+disp8/32]: a
            // record slot.
            [rex @ (0x45 | 0x41), 0x8B, modrm @ (0x5A | 0x9A | 0x52 | 0x92), ref d @ ..]
                if record && (rex == 0x45) == (modrm & 0x38 == 0x18) =>
            {
                let (len, disp) = match modrm & 0xC0 {
                    0x40 if !d.is_empty() => (4, Some(d[0] as i8 as i32)),
                    0x80 if d.len() >= 4 => (7, Some(word(d))),
                    _ => (0, None),
                };
                disp.and_then(|disp| scaled(disp, 4)).map(|slot| {
                    *if rex == 0x45 { &mut r11 } else { &mut edx } = Some(slot);
                    (len, Rax::Apart)
                })
            }
            // mov rcx, [rbx+disp32]: a bank table entry.
            [0x48, 0x8B, 0x8B, ref d @ ..] if d.len() >= 4 => scaled(word(d), 16).map(|bank| {
                f.banks.insert(bank);
                (7, Rax::Apart)
            }),
            // mov rax, [rcx + rax*8]: the bank-indexed load.
            [0x48, 0x8B, 0x04, 0xC1, ..] => Some((4, Rax::ReadsKills)),
            // movabs rcx, imm64
            [0x48, 0xB9, ref d @ ..] if d.len() >= 8 => {
                let mut v = [0u8; 8];
                v.copy_from_slice(&d[..8]);
                f.imms.insert(u64::from_le_bytes(v));
                Some((10, Rax::Apart))
            }
            // shl/shr/sar rax, imm8 ; shl/sar rcx, imm8
            [0x48, 0xC1, 0xE0 | 0xE8 | 0xF8, _, ..] => Some((4, Rax::ReadsKills)),
            [0x48, 0xC1, 0xE1 | 0xF9, _, ..] => Some((4, Rax::Apart)),
            // cmp rcx, imm8
            [0x48, 0x83, 0xF9, _, ..] => Some((4, Rax::Apart)),
            // div/idiv rcx (rdx: the high half)
            [0x48, 0xF7, 0xF1 | 0xF9, ..] => {
                edx = None;
                Some((3, Rax::ReadsKills))
            }
            // add/sub/and/or/xor rax, rcx; neg/not rax; shl/shr/sar rax, cl
            [0x48, 0x01 | 0x29 | 0x21 | 0x09 | 0x31, 0xC8, ..]
            | [0x48, 0xF7, 0xD8 | 0xD0, ..]
            | [0x48, 0xD3, 0xE0 | 0xE8 | 0xF8, ..] => Some((3, Rax::ReadsKills)),
            // cmp rax, rcx ; test rax, rax ; mov rcx, rax
            [0x48, 0x39, 0xC8, ..] | [0x48, 0x85, 0xC0, ..] | [0x48, 0x89, 0xC1, ..] => {
                Some((3, Rax::Reads))
            }
            // test rcx, rcx
            [0x48, 0x85, 0xC9, ..] => Some((3, Rax::Apart)),
            // mov rax, rdx (div remainder)
            [0x48, 0x89, 0xD0, ..] => Some((3, Rax::Kills)),
            // imul rax, rcx ; cmovz rax, rcx
            [0x48, 0x0F, 0xAF | 0x44, 0xC1, ..] => Some((4, Rax::ReadsKills)),
            // cqo
            [0x48, 0x99, ..] => {
                edx = None;
                Some((2, Rax::Reads))
            }
            // add r8, imm8 (ops) / add r9, imm8 (dynamic)
            [0x49, 0x83, reg @ (0xC0 | 0xC1), n @ 1..=0x7F, ..] => {
                if let Some(&t) = joins.iter().find(|&&t| t > p) {
                    ctx.push(
                        report,
                        codes::JIT_OPERAND,
                        format!(
                            "inst {pc}: the counter addition at byte {p} is skipped by \
                             the branch to byte {t}"
                        ),
                    );
                }
                if reg == 0xC0 {
                    f.ops_incs += n as u32;
                } else {
                    f.dyn_incs += n as u32;
                }
                Some((4, Rax::Apart))
            }
            // popcnt rax, rax
            [0xF3, 0x48, 0x0F, 0xB8, 0xC0, ..] => Some((5, Rax::ReadsKills)),
            // setcc al / movzx eax, al
            [0x0F, 0x90..=0x9F | 0xB6, 0xC0, ..] => Some((3, Rax::Kills)),
            // jcc rel32
            [0x0F, 0x82..=0x86, ref d @ ..] if d.len() >= 4 => {
                branch(&mut f, &mut joins, (p as i64 + 6) + word(d) as i64);
                Some((6, Rax::Apart))
            }
            // je rel8 (the fused tail's skip)
            [0x74, rel, ..] => {
                branch(&mut f, &mut joins, (p as i64 + 2) + rel as i8 as i64);
                Some((2, Rax::Apart))
            }
            // jmp rel32
            [0xE9, ref d @ ..] if d.len() >= 4 => {
                branch(&mut f, &mut joins, (p as i64 + 5) + word(d) as i64);
                Some((5, Rax::Apart))
            }
            // or byte [rsi+disp32], imm8: one activity bit.
            [0x80, 0x8E, ref d @ ..] if d.len() >= 5 && d[4].is_power_of_two() => {
                let bit = scaled(word(d), 1).and_then(|byte| byte.checked_mul(8));
                bit.map(|bit| {
                    f.wakes.push(Site::Bit(bit + d[4].trailing_zeros()));
                    (7, Rax::Apart)
                })
            }
            // or [rsi+r11], dl: the activity bit two record slots name.
            [0x42, 0x08, 0x14, 0x1E, ..] => match (r11.take(), edx.take()) {
                (Some(byte), Some(mask)) => {
                    f.wakes.push(Site::Slots { byte, mask });
                    Some((4, Rax::Apart))
                }
                _ => None,
            },
            // xor eax, eax / xor edx, edx
            [0x31, 0xC0, ..] => Some((2, Rax::Kills)),
            [0x31, 0xD2, ..] => {
                edx = None;
                Some((2, Rax::Apart))
            }
            // test al, 1
            [0xA8, 0x01, ..] => Some((2, Rax::Reads)),
            // The result masks: and eax, imm8 / and eax, imm32 /
            // mov eax, eax (the low 32 bits).
            [0x83, 0xE0, m @ 0..=0x7F, ..] => {
                f.imms.insert(m as u64);
                Some((3, Rax::ReadsKills))
            }
            [0x25, ref d @ ..] if d.len() >= 4 => {
                f.imms.insert(word(d) as u32 as u64);
                Some((5, Rax::ReadsKills))
            }
            [0x89, 0xC0, ..] => {
                f.imms.insert(0xFFFF_FFFF);
                Some((2, Rax::ReadsKills))
            }
            // mov ecx, imm32
            [0xB9, ref d @ ..] if d.len() >= 4 => {
                f.imms.insert(word(d) as u32 as u64);
                Some((5, Rax::Apart))
            }
            _ => None,
        };
        let Some((len, effect)) = decoded else {
            f.bad = true;
            ctx.push(
                report,
                codes::JIT_DECODE,
                format!("x64 stream undecodable at byte {p} (inst {pc})"),
            );
            return f;
        };
        if matches!(effect, Rax::Reads | Rax::ReadsKills) {
            f.loads.extend(rax);
        }
        match effect {
            Rax::Kills | Rax::ReadsKills => rax = None,
            Rax::Loads(w) => rax = Some(w),
            Rax::Apart | Rax::Reads => {}
        }
        p += len;
    }
    f
}

/// The exact prologue the x86-64 emitter produces in displacement form.
const PROLOGUE: &[u8] = &[
    0x53, // push rbx
    0x48, 0x89, 0xD3, // mov rbx, rdx
    0x45, 0x31, 0xC0, // xor r8d, r8d
    0x45, 0x31, 0xC9, // xor r9d, r9d
];

/// The exact prologue of a record-form body.
const RECORD_PROLOGUE: &[u8] = &[
    0x53, // push rbx
    0x48, 0x89, 0xD3, // mov rbx, rdx
    0x49, 0x89, 0xCA, // mov r10, rcx
    0x45, 0x31, 0xC0, // xor r8d, r8d
    0x45, 0x31, 0xC9, // xor r9d, r9d
];

/// The exact epilogue the x86-64 emitter produces.
const EPILOGUE: &[u8] = &[
    0x4C, 0x89, 0xC8, // mov rax, r9
    0x48, 0xC1, 0xE0, 0x20, // shl rax, 32
    0x4C, 0x09, 0xC0, // or rax, r8
    0x5B, // pop rbx
    0xC3, // ret
];

// ---------------------------------------------------------------------
// The audit proper
// ---------------------------------------------------------------------

/// One partition running a body: its scheduled index (diagnostics), its
/// program and its operand record.
struct Member<'a> {
    partition: usize,
    prog: &'a Tier1Program,
    record: &'a [u32],
}

/// Audits one displacement-form stream against its source program.
/// `partition` is the scheduled index, used only in diagnostics.
pub fn check_jit(prog: &Tier1Program, code: &EmittedCode, partition: usize) -> Report {
    let member = Member {
        partition,
        prog,
        record: &[],
    };
    let mut report = Report::new();
    check_body(code, &[member], None, &mut report);
    report
}

/// Audits a whole [`JitPlan`] over `progs` (the programs it was planned
/// from, by scheduled index): every body decoded once, every member
/// checked through its own record against its own program.
pub fn check_jit_plan(progs: &[Tier1Program], plan: &JitPlan) -> Report {
    let mut report = Report::new();
    let mut members: Vec<Vec<Member>> = plan.bodies.iter().map(|_| Vec::new()).collect();
    for (partition, part) in plan.parts.iter().enumerate() {
        let Some(part) = part else { continue };
        match (members.get_mut(part.body), progs.get(partition)) {
            (Some(of_body), Some(prog)) => of_body.push(Member {
                partition,
                prog,
                record: plan.record(part),
            }),
            _ => report.push(
                Diagnostic::error(
                    codes::JIT_DECODE,
                    format!(
                        "planned onto body {} of {} without a program among {}",
                        part.body,
                        plan.bodies.len(),
                        progs.len()
                    ),
                )
                .with_partition(partition),
            ),
        }
    }
    for (body, (code, members)) in plan.bodies.iter().zip(&members).enumerate() {
        check_body(code, members, Some(body), &mut report);
    }
    report
}

/// Audits one body for every member that runs it: the structure and
/// the decode once (body-level findings go to the first member, named
/// with `body` when it is shared), then each member's resolved facts
/// against its own program.
fn check_body(code: &EmittedCode, members: &[Member], body: Option<usize>, report: &mut Report) {
    let Some(first) = members.first() else {
        return;
    };
    let ctx = BodyCtx {
        partition: first.partition,
        prefix: match body {
            Some(b) if members.len() > 1 => {
                format!("shared body {b} ({} partitions): ", members.len())
            }
            _ => String::new(),
        },
    };
    // --- Structure: prologue, epilogue, marks cover the code (J0701) --
    let bytes = &code.bytes;
    let prologue = [RECORD_PROLOGUE, PROLOGUE]
        .into_iter()
        .find(|pro| bytes.len() >= pro.len() + EPILOGUE.len() && bytes.starts_with(pro));
    let Some(prologue) = prologue else {
        ctx.push(report, codes::JIT_DECODE, "malformed prologue".to_string());
        return;
    };
    let record = prologue == RECORD_PROLOGUE;
    if !bytes.ends_with(EPILOGUE) {
        ctx.push(report, codes::JIT_DECODE, "malformed epilogue".to_string());
        return;
    }
    let mut cursor = prologue.len() as u32;
    for (pc, &(s, e)) in code.marks.iter().enumerate() {
        if s != cursor || e < s || e as usize > bytes.len() - EPILOGUE.len() {
            ctx.push(
                report,
                codes::JIT_DECODE,
                format!("mark {pc} [{s}, {e}) breaks body contiguity at {cursor}"),
            );
            return;
        }
        cursor = e;
    }
    if cursor as usize != bytes.len() - EPILOGUE.len() {
        ctx.push(
            report,
            codes::JIT_DECODE,
            format!(
                "body ends at {cursor}, epilogue begins at {}",
                bytes.len() - EPILOGUE.len()
            ),
        );
        return;
    }
    // --- Decode once ---------------------------------------------------
    let mut facts = Vec::with_capacity(code.marks.len());
    for (pc, &(s, e)) in code.marks.iter().enumerate() {
        let f = decode_x64(bytes, (s as usize, e as usize), record, report, &ctx, pc);
        if f.bad {
            // The run sums are unknowable; J0701 is already reported.
            return;
        }
        facts.push(f);
    }
    // The record slots the body reads: every member's record must hold
    // exactly that many.
    let mut slots = 0;
    for f in &facts {
        for w in f.loads.iter().chain(&f.stores) {
            if let Word::Slot(j) = *w {
                slots = slots.max(j as usize + 1);
            }
        }
        for site in &f.wakes {
            if let Site::Slots { byte, mask } = *site {
                slots = slots.max(byte.max(mask) as usize + 1);
            }
        }
    }
    // --- Each member through its own record ---------------------------
    for member in members {
        check_member(code, &facts, slots, member, report);
    }
}

/// One member's word for a decoded arena operand: `None` (and, for a bad
/// record slot, a `J0702`) when there is none.
fn resolve_word(
    w: Word,
    fwd: Option<u32>,
    record: &[u32],
    push: &mut dyn FnMut(DiagCode, String),
) -> Option<u32> {
    match w {
        Word::Disp(off) => Some(off),
        Word::Fwd => fwd,
        Word::Slot(j) => match record.get(j as usize) {
            Some(&byte) if byte % 8 == 0 => Some(byte / 8),
            held => {
                push(
                    codes::JIT_OPERAND,
                    format!("record slot {j} holds {held:?}, not an arena byte offset"),
                );
                None
            }
        },
    }
}

/// One member's activity bit for a decoded wake site: `None` (and a
/// `J0704`) when its record slots name no single bit.
fn resolve_site(site: Site, record: &[u32], push: &mut dyn FnMut(DiagCode, String)) -> Option<u32> {
    match site {
        Site::Bit(bit) => Some(bit),
        Site::Slots { byte, mask } => {
            let (b, m) = (record.get(byte as usize), record.get(mask as usize));
            let bit = match (b, m) {
                (Some(&b), Some(&m)) if m.is_power_of_two() && m <= 0x80 => {
                    b.checked_mul(8).map(|base| base + m.trailing_zeros())
                }
                _ => None,
            };
            if bit.is_none() {
                push(
                    codes::JIT_FUSE,
                    format!(
                        "wake record slots {byte}/{mask} hold {b:?}/{m:?}, not one activity bit"
                    ),
                );
            }
            bit
        }
    }
}

/// Checks one member's resolved facts against its own program
/// (J0702/J0703/J0704).
fn check_member(
    code: &EmittedCode,
    facts: &[InstFacts],
    slots: usize,
    member: &Member,
    report: &mut Report,
) {
    let Member {
        partition,
        prog,
        record,
    } = *member;
    let mut push = |code, message: String| {
        report.push(Diagnostic::error(code, message).with_partition(partition));
    };
    if code.marks.len() != prog.code.len() {
        push(
            codes::JIT_DECODE,
            format!(
                "mark table has {} entries for {} instruction(s)",
                code.marks.len(),
                prog.code.len()
            ),
        );
        return;
    }
    if record.len() != slots {
        push(
            codes::JIT_OPERAND,
            format!(
                "operand record has {} slot(s), the body reads {slots}",
                record.len()
            ),
        );
    }
    // Jump targets, from the program: where a straight-line run starts
    // and where nothing can be assumed about the accumulator.
    let mut landing = vec![false; prog.code.len() + 1];
    for inst in &prog.code {
        if inst.roles().jumps {
            if let Some(l) = landing.get_mut(inst.a as usize) {
                *l = true;
            }
        }
    }
    // The current run: its first pc, and what the stream added to each
    // counter against what the run's instructions count.
    #[derive(Default)]
    struct Run {
        first: usize,
        ops_added: u32,
        ops: u32,
        dyn_added: u32,
        dynamic: u32,
    }
    let mut run = Run::default();
    for (pc, ((inst, &(s, e)), f)) in prog.code.iter().zip(&code.marks).zip(facts).enumerate() {
        // `rax` holds the previous instruction's `dst` when that
        // instruction stored one and every path here runs it.
        let fwd = pc
            .checked_sub(1)
            .map(|prev| &prog.code[prev])
            .filter(|prev| prev.roles().writes_dst && !landing[pc])
            .map(|prev| prev.dst);
        let words = |ws: &[Word], push: &mut dyn FnMut(DiagCode, String)| -> BTreeSet<u32> {
            ws.iter()
                .filter_map(|&w| resolve_word(w, fwd, record, push))
                .collect()
        };
        let loads = words(&f.loads, &mut push);
        let stores = words(&f.stores, &mut push);
        let flags: BTreeSet<u32> = f
            .wakes
            .iter()
            .filter_map(|&site| resolve_site(site, record, &mut push))
            .collect();
        let want = expect(prog, inst, code);
        let ctx = |what: &str| format!("inst {pc} ({:?}): {what}", inst.op);
        if loads != want.loads {
            push(
                codes::JIT_OPERAND,
                ctx(&format!(
                    "arena loads {:?} != expected {:?}",
                    loads, want.loads
                )),
            );
        }
        if stores != want.stores {
            push(
                codes::JIT_OPERAND,
                ctx(&format!(
                    "arena stores {:?} != expected {:?}",
                    stores, want.stores
                )),
            );
        }
        if f.banks != want.banks {
            push(
                codes::JIT_OPERAND,
                ctx(&format!(
                    "bank loads {:?} != expected {:?}",
                    f.banks, want.banks
                )),
            );
        }
        for imm in &want.req_imms {
            if !f.imms.contains(imm) {
                push(
                    codes::JIT_OPERAND,
                    ctx(&format!("required immediate {imm:#x} not materialized")),
                );
            }
        }
        // Flow: every branch stays inside its instruction range except
        // the lowered jump, which must exist, land on an instruction
        // boundary, and go forward.
        let mut jump_seen = false;
        for &t in &f.branch_targets {
            if Some(t) == want.jump {
                jump_seen = true;
                if t < e {
                    push(
                        codes::JIT_FLOW,
                        ctx(&format!(
                            "jump target {t} is not forward (inst ends at {e})"
                        )),
                    );
                }
            } else if t < s || t > e {
                push(
                    codes::JIT_FLOW,
                    ctx(&format!(
                        "branch target {t} escapes instruction range [{s}, {e}]"
                    )),
                );
            }
        }
        if let Some(jump) = want.jump {
            if !jump_seen {
                push(
                    codes::JIT_FLOW,
                    ctx(&format!(
                        "lowered jump to byte {jump} missing from the stream"
                    )),
                );
            }
        }
        // Fuse: wake sites must be exactly the consumer list.
        if flags != want.flags {
            push(
                codes::JIT_FUSE,
                ctx(&format!(
                    "flag wake sites {:?} != consumer set {:?}",
                    flags, want.flags
                )),
            );
        }
        // Counters: the run ends after a jump and before a landing; its
        // additions must sum to what its instructions count.
        run.ops_added += f.ops_incs;
        run.ops += want.ops;
        run.dyn_added += f.dyn_incs;
        run.dynamic += want.dynamic;
        if inst.roles().jumps || landing[pc + 1] || pc + 1 == prog.code.len() {
            let first = run.first;
            if run.ops_added != run.ops {
                push(
                    codes::JIT_OPERAND,
                    format!(
                        "run [{first}, {pc}]: {} added to the ops counter, expected {}",
                        run.ops_added, run.ops
                    ),
                );
            }
            if run.dyn_added != run.dynamic {
                push(
                    codes::JIT_FUSE,
                    format!(
                        "run [{first}, {pc}]: {} added to the dynamic counter, expected {}",
                        run.dyn_added, run.dynamic
                    ),
                );
            }
            run = Run {
                first: pc + 1,
                ..Run::default()
            };
        }
    }
}
