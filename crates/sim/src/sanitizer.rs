//! Shadow-memory race sanitizer (`--features race-sanitizer`).
//!
//! The dynamic oracle for the static footprint and dependence proofs
//! (`essent-verify` `R05xx`, `S06xx`): every arena word carries a
//! last-writer and a last-reader tag `(epoch << 24) | partition+1`, one
//! epoch per simulated cycle. Workers record each actual arena access
//! while evaluating a partition; two accesses to the same word in the
//! same cycle from different partitions — where at least one is a write
//! and the dataflow schedule does not order the pair — or any access that
//! finds a tag from a *later* cycle, are exactly the data races the
//! static analysis proves absent, so the sanitizer panics with the
//! offending pair.
//!
//! The recording context is thread-local and set only around
//! `ParEssentSim`'s partition evaluation ([`enter_at`]); the serial phase
//! and the sequential engines never set it, so their accesses through
//! the shared executors are no-ops. With the feature disabled, none of
//! this module exists and the hooks compile away entirely.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bits of the tag holding the partition id (+1; 0 = never touched).
const PART_BITS: u32 = 24;
const PART_MASK: u64 = (1 << PART_BITS) - 1;

/// Per-arena-word last-writer/last-reader partition tags.
pub struct ShadowMem {
    writer: Vec<AtomicU64>,
    reader: Vec<AtomicU64>,
    /// Next unreserved epoch; tags from older epochs are stale and
    /// never conflict, so nothing is ever reset.
    epoch: AtomicU64,
    /// The synthesized schedule's same-cycle dependence edges, packed
    /// `(before << 32) | after`. A same-epoch W→R / R→W pair is legal
    /// exactly when the runtime ordered it (`before → after` in the edge
    /// set), and a tag from a *newer* epoch is always a race (a
    /// partition outran a wait the schedule should have imposed).
    edges: HashSet<u64>,
}

impl ShadowMem {
    /// Shadow state for an arena of `words` words; `edges` is the
    /// schedule's same-cycle ordering relation as
    /// `(before << 32) | after` pairs.
    pub fn new(words: usize, edges: HashSet<u64>) -> ShadowMem {
        ShadowMem {
            writer: (0..words).map(|_| AtomicU64::new(0)).collect(),
            reader: (0..words).map(|_| AtomicU64::new(0)).collect(),
            epoch: AtomicU64::new(1),
            edges,
        }
    }

    /// Reserves `by` fresh epochs for one run and returns the base — the
    /// run tags cycle `k` (1-based) with epoch `base + k`, so
    /// overlapping cycles stay distinguishable and no epoch ever
    /// collides with an earlier run's tags.
    pub fn advance_base(&self, by: u64) -> u64 {
        self.epoch.fetch_add(by, Ordering::Relaxed)
    }

    /// Is the same-epoch pair `before → after` ordered by the schedule?
    fn ordered(&self, before: u64, after: u64) -> bool {
        self.edges.contains(&((before << 32) | after))
    }
}

/// The active recording context: which shadow state and which partition
/// the current thread's arena accesses belong to.
#[derive(Clone, Copy)]
struct Ctx {
    shadow: *const ShadowMem,
    tag: u64,
}

thread_local! {
    static CTX: Cell<Option<Ctx>> = const { Cell::new(None) };
}

/// Clears the recording context when the evaluation scope ends.
pub struct ScopeGuard {
    prev: Option<Ctx>,
    // Keep the guard on the thread that entered the scope.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Starts recording the current thread's arena accesses as partition
/// `part` in `epoch` — the runtime tags each partition evaluation with
/// its own cycle's epoch (`base + k`), since overlapping cycles are in
/// flight at once and no single "current" epoch exists. The caller must
/// keep `shadow` alive for the guard's lifetime (the engine owns it for
/// its own lifetime and evaluation never outlives the engine).
pub fn enter_at(shadow: &ShadowMem, part: u32, epoch: u64) -> ScopeGuard {
    debug_assert!((part as u64) < PART_MASK);
    let ctx = Ctx {
        shadow: shadow as *const ShadowMem,
        tag: (epoch << PART_BITS) | (part as u64 + 1),
    };
    ScopeGuard {
        prev: CTX.with(|c| c.replace(Some(ctx))),
        _not_send: std::marker::PhantomData,
    }
}

fn part_of(tag: u64) -> u64 {
    (tag & PART_MASK) - 1
}

fn with_ctx(f: impl FnOnce(&ShadowMem, u64)) {
    if let Some(ctx) = CTX.with(|c| c.get()) {
        // SAFETY: `enter_at`'s contract — the shadow outlives the guard,
        // and the guard clears the context on drop.
        let shadow = unsafe { &*ctx.shadow };
        f(shadow, ctx.tag);
    }
}

/// Records a read of arena words `[off, off+words)` by the current
/// scope's partition; panics if any of them carries a conflicting
/// writer tag — same epoch without a schedule edge `writer → me`, or
/// any *newer* epoch (a W->R race the static proof claims impossible).
#[inline]
pub fn note_read(off: u32, words: u32) {
    with_ctx(|shadow, tag| {
        let epoch = tag >> PART_BITS;
        for w in off as usize..(off + words) as usize {
            let wr = shadow.writer[w].load(Ordering::Relaxed);
            if wr != tag {
                let wr_epoch = wr >> PART_BITS;
                if wr_epoch > epoch {
                    panic!(
                        "race sanitizer: partition p{} read arena word {w} already written by \
                         partition p{} in a later cycle (missing wait)",
                        part_of(tag),
                        part_of(wr)
                    );
                }
                if wr_epoch == epoch && !shadow.ordered(part_of(wr), part_of(tag)) {
                    panic!(
                        "race sanitizer: partition p{} read arena word {w} written by partition \
                         p{} in the same cycle",
                        part_of(tag),
                        part_of(wr)
                    );
                }
            }
            shadow.reader[w].store(tag, Ordering::Relaxed);
        }
    });
}

/// Records a write of arena words `[off, off+words)` by the current
/// scope's partition; panics on a same-epoch cross-partition write
/// (always a race — every word has one writer), a same-epoch read
/// without a schedule edge `reader → me`, or any newer-epoch tag.
#[inline]
pub fn note_write(off: u32, words: u32) {
    with_ctx(|shadow, tag| {
        let epoch = tag >> PART_BITS;
        for w in off as usize..(off + words) as usize {
            let prev = shadow.writer[w].swap(tag, Ordering::Relaxed);
            if prev != tag {
                let prev_epoch = prev >> PART_BITS;
                if prev_epoch > epoch {
                    panic!(
                        "race sanitizer: partition p{} wrote arena word {w} already written by \
                         partition p{} in a later cycle (missing wait)",
                        part_of(tag),
                        part_of(prev)
                    );
                }
                if prev_epoch == epoch {
                    panic!(
                        "race sanitizer: partitions p{} and p{} both wrote arena word {w} in the \
                         same cycle",
                        part_of(prev),
                        part_of(tag)
                    );
                }
            }
            let rd = shadow.reader[w].load(Ordering::Relaxed);
            if rd != tag {
                let rd_epoch = rd >> PART_BITS;
                if rd_epoch > epoch {
                    panic!(
                        "race sanitizer: partition p{} wrote arena word {w} already read by \
                         partition p{} in a later cycle (missing wait)",
                        part_of(tag),
                        part_of(rd)
                    );
                }
                if rd_epoch == epoch && !shadow.ordered(part_of(rd), part_of(tag)) {
                    panic!(
                        "race sanitizer: partition p{} wrote arena word {w} read by partition \
                         p{} in the same cycle",
                        part_of(tag),
                        part_of(rd)
                    );
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_partition_accesses_are_quiet() {
        let shadow = ShadowMem::new(8, HashSet::new());
        let base = shadow.advance_base(3);
        let _guard = enter_at(&shadow, 3, base + 1);
        note_write(0, 2);
        note_read(0, 2);
        note_write(0, 2);
    }

    #[test]
    #[should_panic(expected = "both wrote arena word")]
    fn same_cycle_write_write_panics_even_when_ordered() {
        // Every word has one writer: an edge cannot legalize W-W.
        let edges: HashSet<u64> = [(1u64 << 32) | 2].into_iter().collect();
        let shadow = ShadowMem::new(8, edges);
        let base = shadow.advance_base(3);
        {
            let _guard = enter_at(&shadow, 1, base + 1);
            note_write(5, 1);
        }
        let _guard = enter_at(&shadow, 2, base + 1);
        note_write(5, 1);
    }

    #[test]
    fn dataflow_edge_legalizes_same_cycle_handoff() {
        // Edge 1 -> 2: partition 2 may read what 1 wrote this cycle, and
        // (the elision anti-edge direction) 2 may overwrite what 1 read.
        let edges: HashSet<u64> = [(1u64 << 32) | 2].into_iter().collect();
        let shadow = ShadowMem::new(8, edges);
        let base = shadow.advance_base(3);
        {
            let _guard = enter_at(&shadow, 1, base + 1);
            note_write(2, 1);
            note_read(3, 1);
        }
        let _guard = enter_at(&shadow, 2, base + 1);
        note_read(2, 1);
        note_write(3, 1);
    }

    #[test]
    #[should_panic(expected = "in the same cycle")]
    fn dataflow_unordered_same_cycle_pair_panics() {
        let shadow = ShadowMem::new(8, HashSet::new());
        let base = shadow.advance_base(3);
        {
            let _guard = enter_at(&shadow, 1, base + 1);
            note_write(4, 1);
        }
        let _guard = enter_at(&shadow, 2, base + 1);
        note_read(4, 1);
    }

    #[test]
    #[should_panic(expected = "missing wait")]
    fn dataflow_later_cycle_tag_panics() {
        // Partition 2 speculated into cycle k+1 and read word 5; then
        // partition 1, still in cycle k, writes it — 2 outran a wait.
        let edges: HashSet<u64> = [(1u64 << 32) | 2].into_iter().collect();
        let shadow = ShadowMem::new(8, edges);
        let base = shadow.advance_base(4);
        {
            let _guard = enter_at(&shadow, 2, base + 2);
            note_read(5, 1);
        }
        let _guard = enter_at(&shadow, 1, base + 1);
        note_write(5, 1);
    }

    #[test]
    fn dataflow_prior_cycle_tags_are_stale() {
        let shadow = ShadowMem::new(8, HashSet::new());
        let base = shadow.advance_base(4);
        {
            let _guard = enter_at(&shadow, 1, base + 1);
            note_write(6, 1);
        }
        let _guard = enter_at(&shadow, 2, base + 2);
        note_read(6, 1); // prior cycle's write: legal cross-cycle flow
    }
}
