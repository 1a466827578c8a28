//! Steady-state allocation audit: after warm-up, stepping a sequential
//! engine — the full-cycle engine under the default and the Baseline
//! configuration, the levelized event-driven engine, the CCSS engine on
//! tier-1 and, where the host runs emitted code, on native bodies — must
//! not allocate at all. The hot path is pre-resolved at
//! compile time — tiered instructions, preallocated snapshots, in-place
//! mem-write compare — and sharing the netlist behind an `Arc` removed
//! the historical per-engine deep clone and per-firing `Printf` clone.
//!
//! This file holds exactly one `#[test]` so no concurrent test can
//! allocate through the counting global allocator mid-measurement.

use essent_bits::Bits;
use essent_netlist::Netlist;
use essent_sim::{jit, EngineConfig, EssentSim, EventDrivenSim, FullCycleSim, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocation (alloc, alloc_zeroed, realloc) on top of the
/// system allocator; frees are not counted — growth is what we forbid.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A register-fed design exercising every per-cycle path: combinational
/// logic, a register commit, a memory read, and a memory write that
/// fires every cycle.
const SRC: &str = "circuit A :\n  module A :\n    input clock : Clock\n    input reset : UInt<1>\n    output o : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    node waddr = bits(r, 2, 0)\n    mem m :\n      data-type => UInt<8>\n      depth => 8\n      read-latency => 0\n      write-latency => 1\n      reader => rd\n      writer => wr\n    m.rd.clk <= clock\n    m.rd.en <= UInt<1>(1)\n    m.rd.addr <= waddr\n    m.wr.clk <= clock\n    m.wr.en <= UInt<1>(1)\n    m.wr.addr <= waddr\n    m.wr.mask <= UInt<1>(1)\n    m.wr.data <= r\n    o <= xor(m.rd.data, r)\n";

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_cycles_do_not_allocate() {
    let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(SRC).unwrap()).unwrap();
    let netlist = Arc::new(Netlist::from_circuit(&lowered).unwrap());
    // Printf capture buffers sim-side log lines; the allocation-free
    // contract only holds with it off (the bench configuration).
    let config = EngineConfig {
        capture_printf: false,
        ..EngineConfig::default()
    };

    // Engine construction shares the netlist instead of deep-cloning it.
    let mut essent = EssentSim::new_shared(Arc::clone(&netlist), &config);
    let mut full = FullCycleSim::new_shared(Arc::clone(&netlist), &config);
    assert_eq!(
        Arc::strong_count(&netlist),
        3,
        "engines must share the netlist, not clone it"
    );
    let baseline = EngineConfig {
        capture_printf: false,
        ..EngineConfig::baseline()
    };
    let mut base = FullCycleSim::new_shared(Arc::clone(&netlist), &baseline);
    let mut event = EventDrivenSim::new(&netlist, &config);
    // The native path, where the host runs it (the sanitizer build keeps
    // the JIT off): partitions that run an emitted body instead of the
    // tier-1 interpreter.
    let native_runs = jit::supported() && !cfg!(feature = "race-sanitizer");
    let mut native = native_runs.then(|| {
        let jit = EngineConfig {
            jit: true,
            ..config.clone()
        };
        let sim = EssentSim::new_shared(Arc::clone(&netlist), &jit);
        assert!(sim.jit_compiled_count() > 0, "nothing runs natively");
        sim
    });

    let mut sims = vec![
        &mut essent as &mut dyn Simulator,
        &mut full as &mut dyn Simulator,
        &mut base as &mut dyn Simulator,
        &mut event as &mut dyn Simulator,
    ];
    sims.extend(native.as_mut().map(|n| n as &mut dyn Simulator));
    for sim in sims {
        sim.poke("reset", Bits::from_u64(1, 1));
        sim.step(2);
        sim.poke("reset", Bits::from_u64(0, 1));
        // Warm-up: first activity can fault in lazily-built state.
        sim.step(10);

        let before = allocations();
        let ran = sim.step(200);
        let delta = allocations() - before;
        assert_eq!(ran, 200);
        assert_eq!(
            delta,
            0,
            "{} allocated {delta} time(s) across 200 steady-state cycles",
            sim.engine_name()
        );
    }

    // The work actually happened: the counter runs and writes memory.
    assert_eq!(essent.peek("o"), full.peek("o"));
    assert_eq!(base.peek("o"), full.peek("o"));
    assert_eq!(event.peek("o"), full.peek("o"));
    if let Some(native) = &native {
        assert_eq!(native.peek("o"), essent.peek("o"));
        assert_eq!(native.counters(), essent.counters());
    }
    assert!(essent.counters().ops_evaluated > 0);
}
