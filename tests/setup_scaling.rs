//! Set-up from a built netlist to a ready engine is linear in the design:
//! doubling the lanes of an r16-shaped SoC must not much more than double
//! the bytes that `opt::optimize` or `EssentSim::new_shared` allocate. A
//! pass that rebuilds a whole-netlist table per partition, per sweep or
//! per candidate grows quadratically and fails here.
//!
//! This file holds exactly one `#[test]` so no concurrent test can
//! allocate through the counting global allocator mid-measurement.

use essent::designs::soc::{generate_soc, SocConfig};
use essent::netlist::{opt, Netlist};
use essent::sim::{EngineConfig, EssentSim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every byte requested (alloc, alloc_zeroed, and the new size of
/// a realloc) on top of the system allocator; frees are not subtracted.
struct ByteCountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

/// Bytes allocated while `f` runs.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}

/// `(optimize bytes, engine bytes)` for an r16-shaped SoC with `lanes`.
fn setup_bytes(lanes: usize) -> (u64, u64) {
    let config = SocConfig {
        lanes,
        ..SocConfig::r16()
    };
    let mut netlist: Netlist = essent::compile_unoptimized(&generate_soc(&config)).expect("builds");
    let ((), opt_bytes) = bytes_during(|| opt::optimize(&mut netlist, &opt::OptConfig::default()));
    let netlist = Arc::new(netlist);
    let (sim, engine_bytes) =
        bytes_during(|| EssentSim::new_shared(Arc::clone(&netlist), &EngineConfig::default()));
    drop(sim);
    (opt_bytes, engine_bytes)
}

#[test]
fn setup_bytes_grow_linearly_with_the_design() {
    const BOUND: f64 = 2.4;
    let (opt_small, engine_small) = setup_bytes(48);
    let (opt_large, engine_large) = setup_bytes(96);
    let mb = |b: u64| b as f64 / 1e6;
    for (stage, small, large) in [
        ("opt::optimize", opt_small, opt_large),
        ("EssentSim::new_shared", engine_small, engine_large),
    ] {
        let growth = large as f64 / small as f64;
        assert!(
            growth <= BOUND,
            "{stage} allocated {:.1} MB at 48 lanes and {:.1} MB at 96 lanes: \
             {growth:.2}x for twice the design (bound {BOUND}x)",
            mb(small),
            mb(large),
        );
    }
}
