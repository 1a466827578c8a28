//! Native code generation for hot partitions (`essent-jit`).
//!
//! The word-specialized tier ([`crate::step1`]) already removes `Bits`
//! allocation and bounds checks from the hot loop, but it still pays one
//! interpreter dispatch per [`Inst1`]. This module removes that last
//! overhead for the partitions where it matters: a partition whose
//! estimated eval cost clears [`JIT_MIN_COST`] has its `Inst1` sequence
//! lowered to straight-line x86-64 machine code ([`x64`]) with the fused
//! CCSS trigger tail (compare-and-wake) preserved as inline
//! compare/branch/bit-set sequences.
//!
//! The emitter is a *pure* byte generator compiled on every host, so the
//! stream can be generated (and independently audited by
//! `essent-verify`'s J07xx layer) regardless of the build target; only
//! the execution side ([`CompiledPart`]) is target-gated. Code pages are
//! managed W^X: every selected partition's bytes are packed, in schedule
//! order, into one anonymous `mmap`ed RW mapping that is flipped to R+X
//! (`mprotect`) before the first call, via raw Linux syscalls — no
//! external dependencies, and no per-partition page rounding to thrash
//! the iTLB on designs with thousands of compiled partitions.
//!
//! Calling convention of the emitted entry point (C ABI):
//!
//! ```text
//! fn(arena: *mut u64, flags: *mut u8, banks: *const JitBank) -> u64
//! ```
//!
//! The return value packs the two work counters the interpreter would
//! have maintained: `ops | (dynamic << 32)`. Memory banks are passed as
//! a [`JitBank`] table per call rather than baking heap addresses into
//! the code, so compiled partitions stay valid across simulator moves.
//!
//! A partition is *ineligible* (and [`emit_for_host`] returns `None`, leaving
//! the tier-1 interpreter in charge) when its program contains a
//! [`Op1::Generic`](crate::step1::Op1::Generic) fallback, when an arena
//! offset exceeds the encodable displacement range, or when a required
//! host feature (`popcnt` for `Xorr`) is missing. The engines additionally *deopt* compiled partitions on
//! request ([`JitParts::deopt`]) — the tier-1 interpreter is always a
//! drop-in fallback because the JIT replicates its semantics exactly,
//! which the J07xx audit layer and the deopt equivalence tests check.

pub mod x64;

use crate::machine::MemBank;
use crate::step1::Tier1Program;

/// An emitted x86-64 stream (System V AMD64 calling convention) plus the
/// metadata the verify layer needs to audit it against its
/// [`Tier1Program`] source.
#[derive(Debug, Clone)]
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
// under the same discipline as the interpreter (banks are written only
// in the serial phase / end-of-cycle commit, never during partition
// evaluation — the S0602 exemption proof covers the dataflow overlap).
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

/// Cap on total emitted machine code per engine. A native body is
/// *smaller* than the program it replaces — on boom ≈ 23 bytes per
/// `Inst1` (29 382 instructions in 685 527 B; it was 37 B before
/// accumulator forwarding, short result masks and per-run counters)
/// against the 48-byte `Inst1` itself — but it is fetched through the
/// instruction side, in a wake order nothing prefetches, so an
/// unbounded native tier on a huge design trades dispatch for
/// instruction-cache misses. Selection is costliest-first under this
/// budget, which keeps the native tier's footprint within reach of the
/// last-level cache while covering the partitions where the dispatch
/// overhead actually concentrates. Every eligible partition of the
/// paper designs fits (boom: 1 754 of 1 754).
pub const JIT_CODE_BUDGET: usize = 1 << 20;

/// Whether this build target can execute emitted code (Linux on
/// x86-64). Emission and auditing work everywhere.
pub fn supported() -> bool {
    cfg!(all(target_os = "linux", target_arch = "x86_64"))
}

/// Emits the stream for a program; `None` when the host is not a JIT
/// target or the program is ineligible.
pub fn emit_for_host(prog: &Tier1Program) -> Option<EmittedCode> {
    #[cfg(target_arch = "x86_64")]
    {
        x64::emit(prog, std::arch::is_x86_feature_detected!("popcnt"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = prog;
        None
    }
}

/// The function signature of an emitted partition body.
pub(crate) type EntryFn = unsafe extern "C" fn(*mut u64, *mut u8, *const JitBank) -> u64;

/// Calls an emitted body; returns its `(ops, dynamic)` work-counter
/// deltas, matching `run_tier1_raw`'s accounting exactly.
///
/// # Safety
///
/// `entry` must be the [`CompiledPart::entry`] of a part its
/// [`JitParts`] still holds. The data contract is `run_tier1_raw`'s:
/// `arena` points at the machine's arena laid out as when the program
/// was lowered, with no concurrent writer of any slot this partition
/// reads nor any accessor of slots it writes; `flags` points at the
/// sequential engine's activity bits — one per scheduled partition,
/// little-endian `u64` words, no other thread touching them (a wake is a
/// plain read-modify-write `or` of one byte); `banks` points at a
/// [`BankTable`] built over the machine's banks.
#[inline(always)]
pub(crate) unsafe fn call(
    entry: EntryFn,
    arena: *mut u64,
    flags: *mut u8,
    banks: *const JitBank,
) -> (u64, u64) {
    // SAFETY: forwarded to the caller.
    let packed = unsafe { entry(arena, flags, banks) };
    (packed & 0xFFFF_FFFF, packed >> 32)
}

/// A partition compiled into the engine's shared executable arena.
///
/// `entry` points into the [`ExecBuf`] owned by the same [`JitParts`];
/// the parts vector never outlives the arena (and `CompiledPart` has no
/// `Drop`), so the pointer stays valid for as long as a caller can hold
/// a reference to this struct.
pub struct CompiledPart {
    entry: *const u8,
    code: EmittedCode,
}

// SAFETY: the mapping is immutable (R+X) after construction; calling the
// code from another thread is as safe as calling it from this one — the
// *caller* upholds the arena/bank disjointness contract of [`call`].
unsafe impl Send for CompiledPart {}
// SAFETY: as above — shared access only reads the mapping pointer.
unsafe impl Sync for CompiledPart {}

impl CompiledPart {
    /// The emitted stream (audit layer, diagnostics).
    pub fn emitted(&self) -> &EmittedCode {
        &self.code
    }

    /// The body's entry point. Valid for as long as the owning
    /// [`JitParts`] lives and keeps this part (the wake-slot table
    /// caches it under that rule).
    pub(crate) fn entry(&self) -> EntryFn {
        // SAFETY: `entry` points at a complete emitted stream for the
        // host architecture (prologue..epilogue) produced by this
        // module's emitter, inside the owning `JitParts` arena mapping.
        unsafe { std::mem::transmute::<*const u8, EntryFn>(self.entry) }
    }
}

/// Per-engine JIT state: one optional compiled body per scheduled
/// partition, all packed into a single shared executable arena, plus
/// the bank table.
///
/// Packing matters: with one page-rounded mapping per partition a big
/// design compiles into thousands of mostly-padding 4 KiB code pages,
/// and the per-wake iTLB/icache misses cost more than the interpreter
/// dispatch the JIT removes. One contiguous mapping, laid out
/// costliest-first, clusters the most-woken bodies on shared pages.
pub struct JitParts {
    // Declared before `arena` as a reminder that the entry pointers
    // point into it (`CompiledPart` has no `Drop`, so order is not
    // load-bearing — the invariant is that both live and die together).
    parts: Vec<Option<CompiledPart>>,
    banks: BankTable,
    /// Keep-alive backing for every `CompiledPart::entry`; never read.
    #[allow(dead_code)]
    arena: Option<ExecBuf>,
}

impl JitParts {
    /// Compiles every partition whose cost estimate clears
    /// [`JIT_MIN_COST`], costliest first until the emitted bytes reach
    /// [`JIT_CODE_BUDGET`]; everything else stays interpreted.
    pub fn build(progs: &[Tier1Program], costs: &[u64], mems: &[MemBank]) -> JitParts {
        let mut emitted: Vec<Option<EmittedCode>> = progs
            .iter()
            .enumerate()
            .map(|(p, prog)| {
                if costs.get(p).copied().unwrap_or(0) >= JIT_MIN_COST {
                    emit_for_host(prog)
                } else {
                    None
                }
            })
            .collect();
        // Budget pass: keep the costliest partitions' bodies (stable on
        // ties, so schedule order breaks them deterministically); the
        // long cheap tail goes back to the interpreter rather than
        // bloating the code arena past what the caches can hold.
        let mut order: Vec<usize> = (0..emitted.len())
            .filter(|&p| emitted[p].is_some())
            .collect();
        order.sort_by_key(|&p| std::cmp::Reverse(costs.get(p).copied().unwrap_or(0)));
        let mut spent = 0usize;
        for &p in &order {
            let size = emitted[p]
                .as_ref()
                .map_or(0, |c| c.bytes.len().next_multiple_of(16));
            if spent + size <= JIT_CODE_BUDGET {
                spent += size;
            } else {
                emitted[p] = None;
            }
        }
        // Lay the arena out costliest-first too: on a big design only a
        // small fraction of partitions wake in any given cycle, so
        // clustering the most-woken bodies beats schedule adjacency for
        // icache/iTLB locality.
        JitParts::pack(emitted, &order, mems)
    }

    /// Compiles every *eligible* partition regardless of cost (testing:
    /// deterministic deopt coverage needs bodies for tiny partitions the
    /// threshold would skip).
    pub fn build_all(progs: &[Tier1Program], mems: &[MemBank]) -> JitParts {
        let emitted: Vec<Option<EmittedCode>> = progs.iter().map(emit_for_host).collect();
        let order: Vec<usize> = (0..emitted.len()).collect();
        JitParts::pack(emitted, &order, mems)
    }

    /// Lays the emitted streams into one W^X arena (16-byte entry
    /// alignment) in the given partition order and resolves per-partition
    /// entry pointers. Mapping failure — or an empty selection — yields a
    /// JIT-free state.
    fn pack(mut emitted: Vec<Option<EmittedCode>>, order: &[usize], mems: &[MemBank]) -> JitParts {
        let banks = BankTable::new(mems);
        let mut blob: Vec<u8> = Vec::new();
        let mut offsets: Vec<Option<(usize, EmittedCode)>> = Vec::new();
        offsets.resize_with(emitted.len(), || None);
        for &p in order {
            offsets[p] = emitted[p].take().map(|code| {
                // Never-executed inter-body padding (0xCC: `int3` —
                // every body exits via its own `ret` before the pad).
                blob.resize(blob.len().next_multiple_of(16), 0xCC);
                let off = blob.len();
                blob.extend_from_slice(&code.bytes);
                (off, code)
            });
        }
        let arena = ExecBuf::new(&blob);
        let parts = match &arena {
            Some(buf) => offsets
                .into_iter()
                .map(|slot| {
                    slot.map(|(off, code)| CompiledPart {
                        // SAFETY: `off` is within the blob copied into
                        // the mapping, whose length covers the blob.
                        entry: unsafe { buf.ptr().add(off) },
                        code,
                    })
                })
                .collect(),
            None => offsets.iter().map(|_| None).collect(),
        };
        JitParts {
            parts,
            banks,
            arena,
        }
    }

    /// The compiled body for a scheduled partition, if any.
    pub fn part(&self, sched: usize) -> Option<&CompiledPart> {
        self.parts.get(sched).and_then(|p| p.as_ref())
    }

    /// The bank table pointer for compiled calls.
    pub fn banks(&self) -> *const JitBank {
        self.banks.ptr()
    }

    /// Number of partitions currently running native code.
    pub fn compiled_count(&self) -> usize {
        self.parts.iter().filter(|p| p.is_some()).count()
    }

    /// Bytes of machine code those partitions run.
    pub fn code_bytes(&self) -> usize {
        self.parts
            .iter()
            .flatten()
            .map(|p| p.code.bytes.len())
            .sum()
    }

    /// Drops one partition back to the tier-1 interpreter; returns
    /// whether a compiled body was actually discarded. The body's bytes
    /// stay mapped in the shared arena (bounded by the original compile
    /// set) — only the dispatch entry is removed.
    pub fn deopt(&mut self, sched: usize) -> bool {
        self.parts
            .get_mut(sched)
            .map(|p| p.take().is_some())
            .unwrap_or(false)
    }

    /// Deoptimizes every partition; returns how many were compiled.
    pub fn deopt_all(&mut self) -> usize {
        self.parts
            .iter_mut()
            .filter(|p| p.is_some())
            .map(|p| *p = None)
            .count()
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
