//! Native code generation for hot partitions (`essent-jit`).
//!
//! The word-specialized tier ([`crate::step1`]) already removes `Bits`
//! allocation and bounds checks from the hot loop, but it still pays one
//! interpreter dispatch per [`Inst1`](crate::step1::Inst1). This module
//! removes that last overhead for the partitions where it matters: a
//! partition whose estimated eval cost clears [`JIT_MIN_COST`] has its
//! `Inst1` sequence lowered to straight-line x86-64 machine code
//! ([`x64`]) with the fused CCSS trigger tail (compare-and-wake)
//! preserved as inline compare/branch/bit-set sequences.
//!
//! **One body per program shape.** Partitions whose programs differ
//! only in arena offsets and wake targets — the lanes of a replicated
//! module — emit identical bytes in the emitter's *record form*, which
//! reads those operands from a per-partition `u32` record. [`JitPlan`]
//! groups the record-form bodies by bytes: a shape with two or more
//! members is mapped once and each member keeps its body index and its
//! record; a shape with one member is re-emitted in the displacement
//! form, which loads nothing extra. The form is chosen per shape from
//! the programs; no knob selects it.
//!
//! The emitter and the planner are *pure* byte generators compiled on
//! every host, so the plan can be generated (and independently audited
//! by `essent-verify`'s J07xx layer, which audits the same [`JitPlan`]
//! value [`JitParts::build`] maps) regardless of the build target; only
//! the execution side ([`JitParts`]) is target-gated. Code pages are
//! managed W^X: every planned body is packed once into one anonymous
//! `mmap`ed RW mapping that is flipped to R+X (`mprotect`) before the
//! first call, via raw Linux syscalls — no external dependencies, and no
//! per-body page rounding to thrash the iTLB.
//!
//! Calling convention of the emitted entry point (C ABI):
//!
//! ```text
//! fn(arena: *mut u64, flags: *mut u8, banks: *const JitBank, record: *const u32) -> u64
//! ```
//!
//! The return value packs the two work counters the interpreter would
//! have maintained: `ops | (dynamic << 32)`. Memory banks are passed as
//! a [`JitBank`] table per call rather than baking heap addresses into
//! the code, so compiled partitions stay valid across simulator moves.
//! A displacement-form body ignores `record`.
//!
//! A partition is *ineligible* (and stays on the tier-1 interpreter)
//! when its program contains a
//! [`Op1::Generic`](crate::step1::Op1::Generic) fallback, when an arena
//! offset exceeds the encodable displacement range, or when a required
//! host feature (`popcnt` for `Xorr`) is missing. Which partitions run
//! native code is fixed when the engine is built; the tier-1 interpreter
//! is a drop-in replacement for any of them because the JIT replicates
//! its semantics exactly, which the J07xx audit layer and the
//! native-vs-interpreter differential tests check.

pub mod x64;

use crate::machine::MemBank;
use crate::step1::Tier1Program;
use std::collections::HashMap;

/// An emitted x86-64 stream (System V AMD64 calling convention) plus the
/// metadata the verify layer needs to audit it against its
/// [`Tier1Program`] source.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EmittedCode {
    pub bytes: Vec<u8>,
    /// Per-[`Inst1`](crate::step1::Inst1) byte range `[start, end)` into
    /// `bytes`; ranges are contiguous, starting after the prologue and
    /// ending at the epilogue.
    pub marks: Vec<(u32, u32)>,
}

impl EmittedCode {
    /// Byte offset where the per-instruction code begins (end of the
    /// prologue).
    pub fn body_start(&self) -> u32 {
        self.marks.first().map_or(self.bytes.len() as u32, |m| m.0)
    }

    /// Byte offset of the epilogue (end of the last instruction range).
    pub fn body_end(&self) -> u32 {
        self.marks.last().map_or(self.body_start(), |m| m.1)
    }
}

/// One memory bank as seen by compiled code: the base pointer of a
/// single-word bank plus its depth (the depth is baked into the code as
/// an immediate; the field exists for debugging and auditing).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct JitBank {
    pub data: *const u64,
    pub depth: u64,
}

/// Per-call bank table handed to compiled partitions.
///
/// Holds raw pointers into the machine's bank storage. The storage is
/// allocated once at machine construction and only ever written in
/// place, so the pointers stay valid for the simulator's lifetime even
/// as the owning struct moves.
pub struct BankTable(Vec<JitBank>);

// SAFETY: the table only holds pointers; compiled partitions read banks
// under the same discipline as the interpreter — banks are written only
// in the end-of-cycle commit, never during partition evaluation — and
// only the sequential engine, on its own thread, runs native code.
unsafe impl Send for BankTable {}
// SAFETY: as above — concurrent `&BankTable` access is read-only.
unsafe impl Sync for BankTable {}

impl BankTable {
    /// Builds the table over the machine's banks (index-aligned with
    /// `Inst1::c` bank references).
    pub fn new(mems: &[MemBank]) -> BankTable {
        BankTable(
            mems.iter()
                .map(|m| JitBank {
                    data: m.data.as_ptr(),
                    depth: m.depth as u64,
                })
                .collect(),
        )
    }

    /// Base pointer for the compiled call (dangling-but-unused when the
    /// design has no memories).
    pub fn ptr(&self) -> *const JitBank {
        self.0.as_ptr()
    }
}

/// Cost-model threshold (same ~ns/cycle unit as
/// [`CostModel`](crate::par::CostModel)): partitions estimated below
/// this stay on the tier-1 interpreter, where the call and code-cache
/// overhead of a native body would not pay for itself. On the paper
/// designs the static estimates sit at 1 for the trivial single-output
/// cones and 8–60 for real logic, so a threshold of 2 compiles
/// everything that does work while skipping the degenerate forwarders.
pub const JIT_MIN_COST: u64 = 2;

/// Cap on the mapped machine code per engine, counted over distinct
/// bodies (a shared body counts once). Native code is fetched through
/// the instruction side, in a wake order nothing prefetches, so an
/// unbounded native tier on a huge design trades dispatch for
/// instruction-cache misses. Selection is costliest body first under
/// this budget. Every eligible partition of the paper designs fits with
/// room to spare: boom's 1 754 compiled partitions map 22 538 B in 35
/// bodies, r18's 812 map 21 536 B in 33.
pub const JIT_CODE_BUDGET: usize = 1 << 20;

/// Whether this build target can execute emitted code (Linux on
/// x86-64). Emission and auditing work everywhere.
pub fn supported() -> bool {
    cfg!(all(target_os = "linux", target_arch = "x86_64"))
}

/// One partition's place in a [`JitPlan`]: the body it runs and its
/// operand record, `[start, end)` in [`JitPlan::records`] (empty for a
/// displacement body).
#[derive(Debug, Clone, Copy)]
pub struct PlannedPart {
    pub body: usize,
    pub record: (u32, u32),
}

/// The native tier as data: the distinct bodies and, per scheduled
/// partition, which body runs it with which record. [`JitParts::build`]
/// maps one; the J07xx layer audits the same value.
#[derive(Debug, Clone)]
pub struct JitPlan {
    /// The distinct bodies, in arena order (costliest first).
    pub bodies: Vec<EmittedCode>,
    /// Per scheduled partition; `None` stays interpreted.
    pub parts: Vec<Option<PlannedPart>>,
    /// Every member's operand record, back to back in schedule order.
    pub records: Vec<u32>,
}

impl JitPlan {
    /// Plans native code for `progs` (see the module docs): the eligible
    /// partitions whose cost in `costs` clears [`JIT_MIN_COST`], bodies
    /// costliest first — a shared body costs what its members cost
    /// together — until [`JIT_CODE_BUDGET`].
    pub fn new(progs: &[Tier1Program], costs: &[u64], have_popcnt: bool) -> JitPlan {
        let cost = |p: usize| costs.get(p).copied().unwrap_or(0);
        // Every candidate in record form, grouped by bytes (and marks:
        // the auditor decodes the members' instructions from them).
        let mut shape_of: HashMap<EmittedCode, usize> = HashMap::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        let mut records: Vec<Vec<u32>> = vec![Vec::new(); progs.len()];
        for (p, prog) in progs.iter().enumerate() {
            if cost(p) < JIT_MIN_COST {
                continue;
            }
            let Some((code, record)) = x64::emit_record(prog, have_popcnt) else {
                continue;
            };
            let next = members.len();
            let shape = *shape_of.entry(code).or_insert(next);
            if shape == next {
                members.push(Vec::new());
            }
            members[shape].push(p);
            records[p] = record;
        }
        let mut bodies: Vec<Option<EmittedCode>> = vec![None; members.len()];
        for (code, shape) in shape_of {
            // A one-member shape keeps displacements: shorter, and no
            // record loads.
            bodies[shape] = Some(match members[shape][..] {
                [p] => {
                    records[p].clear();
                    x64::emit(&progs[p], have_popcnt).expect("eligible in either form")
                }
                _ => code,
            });
        }
        // Budget pass over distinct bodies, costliest first (stable on
        // ties, so the first member's schedule index breaks them); the
        // long cheap tail goes back to the interpreter rather than
        // bloating the code arena past what the caches can hold. The
        // arena is laid out in the same order: on a big design only a
        // small fraction of partitions wake in any given cycle, so
        // clustering the most-woken bodies beats schedule adjacency.
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_by_key(|&b| std::cmp::Reverse(members[b].iter().map(|&p| cost(p)).sum::<u64>()));
        let mut plan = JitPlan {
            bodies: Vec::new(),
            parts: vec![None; progs.len()],
            records: Vec::new(),
        };
        let mut spent = 0usize;
        for shape in order {
            let code = bodies[shape].take().expect("one body per shape");
            let size = code.bytes.len().next_multiple_of(16);
            if spent + size > JIT_CODE_BUDGET {
                continue;
            }
            spent += size;
            for &p in &members[shape] {
                plan.parts[p] = Some(PlannedPart {
                    body: plan.bodies.len(),
                    record: (0, 0),
                });
            }
            plan.bodies.push(code);
        }
        for (part, record) in plan.parts.iter_mut().zip(&records) {
            if let Some(part) = part {
                let start = plan.records.len() as u32;
                plan.records.extend_from_slice(record);
                part.record = (start, plan.records.len() as u32);
            }
        }
        plan
    }

    /// A planned part's operand record.
    pub fn record(&self, part: &PlannedPart) -> &[u32] {
        &self.records[part.record.0 as usize..part.record.1 as usize]
    }

    /// The plan for this host: `popcnt` as detected; nothing planned off
    /// x86-64.
    fn for_host(progs: &[Tier1Program], costs: &[u64]) -> JitPlan {
        #[cfg(target_arch = "x86_64")]
        {
            JitPlan::new(progs, costs, std::arch::is_x86_feature_detected!("popcnt"))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            JitPlan {
                bodies: Vec::new(),
                parts: vec![None; progs.len()],
                records: Vec::new(),
            }
        }
    }
}

/// The function signature of an emitted partition body.
pub(crate) type EntryFn =
    unsafe extern "C" fn(*mut u64, *mut u8, *const JitBank, *const u32) -> u64;

/// Calls an emitted body; returns its `(ops, dynamic)` work-counter
/// deltas, matching `run_tier1_raw`'s accounting exactly.
///
/// # Safety
///
/// `entry` must be the [`CompiledPart::entry`] of a part of a live
/// [`JitParts`], and `record` that part's operand record in
/// [`JitParts::records`] (at its [`CompiledPart::record_start`]).
/// The data contract is `run_tier1_raw`'s: `arena` points at the
/// machine's arena laid out as when the program was lowered, with no
/// concurrent writer of any slot this partition reads nor any accessor
/// of slots it writes; `flags` points at the sequential engine's
/// activity bits — one per scheduled partition, little-endian `u64`
/// words, no other thread touching them (a wake is a plain
/// read-modify-write `or` of one byte); `banks` points at a
/// [`BankTable`] built over the machine's banks.
#[inline(always)]
pub(crate) unsafe fn call(
    entry: EntryFn,
    arena: *mut u64,
    flags: *mut u8,
    banks: *const JitBank,
    record: *const u32,
) -> (u64, u64) {
    // SAFETY: forwarded to the caller.
    let packed = unsafe { entry(arena, flags, banks, record) };
    (packed & 0xFFFF_FFFF, packed >> 32)
}

/// A compiled partition, as seen through its [`JitParts`]: the body's
/// entry in the shared executable arena, the body's stream and where the
/// partition's own operand record starts.
#[derive(Clone, Copy)]
pub struct CompiledPart<'a> {
    entry: *const u8,
    code: &'a EmittedCode,
    record_start: u32,
}

impl<'a> CompiledPart<'a> {
    /// The emitted stream (audit layer, diagnostics) — shared by every
    /// member of the body.
    pub fn emitted(&self) -> &'a EmittedCode {
        self.code
    }

    /// Where the operand record the body reads starts in
    /// [`JitParts::records`].
    pub(crate) fn record_start(&self) -> u32 {
        self.record_start
    }

    /// The body's entry point. Valid for as long as the owning
    /// [`JitParts`] lives (the wake-slot table, which owns the parts,
    /// caches it next to [`CompiledPart::record_start`]).
    pub(crate) fn entry(&self) -> EntryFn {
        // SAFETY: `entry` points at a complete emitted stream for the
        // host architecture (prologue..epilogue) produced by this
        // module's emitter, inside the owning `JitParts` arena mapping.
        unsafe { std::mem::transmute::<*const u8, EntryFn>(self.entry) }
    }
}

/// Per-engine JIT state: a mapped [`JitPlan`] — every distinct body
/// packed once into a single shared executable arena — plus the bank
/// table. Nothing changes it after [`JitParts::build`].
///
/// Packing matters: with one page-rounded mapping per body a big design
/// compiles into mostly-padding 4 KiB code pages, and the per-wake
/// iTLB/icache misses cost more than the interpreter dispatch the JIT
/// removes. One contiguous mapping, laid out costliest-first, clusters
/// the most-woken bodies on shared pages.
pub struct JitParts {
    /// The bodies and each partition's place among them.
    plan: JitPlan,
    /// Per body: its offset in `arena`.
    offsets: Vec<usize>,
    banks: BankTable,
    arena: Option<ExecBuf>,
}

impl JitParts {
    /// Maps the host's [`JitPlan`] for `progs` under `costs`: the
    /// partitions whose cost clears [`JIT_MIN_COST`], costliest body
    /// first until [`JIT_CODE_BUDGET`]; everything else stays
    /// interpreted.
    pub fn build(progs: &[Tier1Program], costs: &[u64], mems: &[MemBank]) -> JitParts {
        JitParts::map(JitPlan::for_host(progs, costs), mems)
    }

    /// Lays the plan's bodies into one W^X arena (16-byte entry
    /// alignment) in plan order. Mapping failure — or an empty plan —
    /// yields a JIT-free state.
    fn map(mut plan: JitPlan, mems: &[MemBank]) -> JitParts {
        let mut blob: Vec<u8> = Vec::new();
        let offsets = plan
            .bodies
            .iter()
            .map(|code| {
                // Never-executed inter-body padding (0xCC: `int3` —
                // every body exits via its own `ret` before the pad).
                blob.resize(blob.len().next_multiple_of(16), 0xCC);
                blob.extend_from_slice(&code.bytes);
                blob.len() - code.bytes.len()
            })
            .collect();
        let arena = ExecBuf::new(&blob);
        if arena.is_none() {
            plan.bodies.clear();
            plan.parts.iter_mut().for_each(|p| *p = None);
            plan.records.clear();
        }
        JitParts {
            plan,
            offsets,
            banks: BankTable::new(mems),
            arena,
        }
    }

    /// The compiled body for a scheduled partition, if any.
    pub fn part(&self, sched: usize) -> Option<CompiledPart<'_>> {
        let part = self.plan.parts.get(sched)?.as_ref()?;
        let arena = self.arena.as_ref()?;
        Some(CompiledPart {
            // SAFETY: the offset is within the blob copied into the
            // mapping, whose length covers the blob.
            entry: unsafe { arena.ptr().add(self.offsets[part.body]) },
            code: &self.plan.bodies[part.body],
            record_start: part.record.0,
        })
    }

    /// The bank table pointer for compiled calls.
    pub fn banks(&self) -> *const JitBank {
        self.banks.ptr()
    }

    /// Base of every part's operand record (a part's record is at its
    /// [`CompiledPart::record_start`]). The buffer is never resized, so
    /// the pointer lives, unmoved, as long as these parts.
    pub(crate) fn records(&self) -> *const u32 {
        self.plan.records.as_ptr()
    }

    /// Number of partitions running native code.
    pub fn compiled_count(&self) -> usize {
        self.plan.parts.iter().flatten().count()
    }

    /// Number of distinct bodies those partitions run.
    pub fn body_count(&self) -> usize {
        self.plan.bodies.len()
    }

    /// Bytes of machine code those partitions run, each body counted
    /// once however many partitions share it.
    pub fn code_bytes(&self) -> usize {
        self.plan.bodies.iter().map(|code| code.bytes.len()).sum()
    }
}

/// W^X executable mapping: anonymous RW pages flipped to R+X once the
/// code is in place, via raw Linux syscalls.
struct ExecBuf {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is immutable (R+X) after construction; the
// pointer is only read (and executed) until drop.
unsafe impl Send for ExecBuf {}
// SAFETY: as above — shared access only reads the mapping.
unsafe impl Sync for ExecBuf {}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    pub const SYS_MMAP: usize = 9;
    pub const SYS_MPROTECT: usize = 10;
    pub const SYS_MUNMAP: usize = 11;

    pub const PROT_READ: usize = 1;
    pub const PROT_WRITE: usize = 2;
    pub const PROT_EXEC: usize = 4;
    pub const MAP_PRIVATE: usize = 2;
    pub const MAP_ANONYMOUS: usize = 0x20;

    /// Raw six-argument Linux syscall.
    ///
    /// # Safety
    ///
    /// The caller must pass a valid syscall number and arguments per the
    /// kernel ABI; the syscalls used here (`mmap`/`mprotect`/`munmap`
    /// over private anonymous pages this module owns) have no
    /// preconditions beyond that.
    pub unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: `syscall` clobbers rcx/r11 (declared) and returns in
        // rax; all six argument registers are passed per the ABI.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }
}

impl ExecBuf {
    /// Maps `code` into an executable page set; `None` on unsupported
    /// targets or syscall failure.
    #[allow(unused_variables)]
    fn new(code: &[u8]) -> Option<ExecBuf> {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            if code.is_empty() {
                return None;
            }
            let len = code.len().div_ceil(4096) * 4096;
            // SAFETY: anonymous private mapping with no address hint;
            // arguments follow the mmap ABI.
            let addr = unsafe {
                sys::syscall6(
                    sys::SYS_MMAP,
                    0,
                    len,
                    sys::PROT_READ | sys::PROT_WRITE,
                    sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                    usize::MAX, // fd = -1
                    0,
                )
            };
            if (-4095..=-1).contains(&addr) {
                return None;
            }
            let ptr = addr as *mut u8;
            // SAFETY: `ptr` is a fresh RW mapping of at least `code.len()`
            // bytes owned exclusively by this function.
            unsafe {
                std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, code.len());
            }
            // SAFETY: flips our own mapping to R+X (the W^X handoff).
            let rc = unsafe {
                sys::syscall6(
                    sys::SYS_MPROTECT,
                    ptr as usize,
                    len,
                    sys::PROT_READ | sys::PROT_EXEC,
                    0,
                    0,
                    0,
                )
            };
            if rc != 0 {
                // SAFETY: unmaps the mapping created above.
                unsafe {
                    sys::syscall6(sys::SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0);
                }
                return None;
            }
            // x86-64 keeps the instruction stream coherent with the
            // stores above: no cache maintenance.
            Some(ExecBuf { ptr, len })
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            None
        }
    }

    fn ptr(&self) -> *const u8 {
        self.ptr
    }
}

impl Drop for ExecBuf {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        // SAFETY: unmaps the mapping this buffer owns; the pointer is
        // never used again (we are in drop).
        unsafe {
            sys::syscall6(sys::SYS_MUNMAP, self.ptr as usize, self.len, 0, 0, 0, 0);
        }
    }
}
