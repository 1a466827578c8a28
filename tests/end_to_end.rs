//! Cross-crate integration tests: FIRRTL text through the full pipeline
//! (parse → lower → netlist → optimize → partition → simulate) on real
//! designs, under every engine.

use essent::designs::soc::{generate_soc, SocConfig};
use essent::designs::workloads::{dhrystone, matmul, pchase, run_workload};
use essent::designs::{asm, small};
use essent::prelude::*;

fn engines_for(netlist: &Netlist) -> Vec<Box<dyn Simulator>> {
    let config = EngineConfig::default();
    vec![
        Box::new(FullCycleSim::new(netlist, &config)),
        Box::new(EssentSim::new(netlist, &config)),
        Box::new(EssentSim::new(
            netlist,
            &EngineConfig {
                c_p: 2,
                ..config.clone()
            },
        )),
        Box::new(EventDrivenSim::new(netlist, &config)),
        Box::new(EventDrivenSim::new(
            netlist,
            &EngineConfig {
                event_levelized: false,
                ..config
            },
        )),
    ]
}

#[test]
fn gcd_design_on_all_engines() {
    let netlist = essent::compile(&small::gcd(24)).unwrap();
    for mut sim in engines_for(&netlist) {
        sim.poke("reset", Bits::from_u64(0, 1));
        sim.poke("start", Bits::from_u64(1, 1));
        sim.poke("a", Bits::from_u64(1071, 24));
        sim.poke("b", Bits::from_u64(462, 24));
        sim.step(1);
        sim.poke("start", Bits::from_u64(0, 1));
        for _ in 0..4000 {
            sim.step(1);
            if sim.peek("done").to_u64() == Some(1) {
                break;
            }
        }
        assert_eq!(
            sim.peek("result").to_u64(),
            Some(21),
            "gcd(1071, 462) on {}",
            sim.engine_name()
        );
    }
}

#[test]
fn unoptimized_and_optimized_netlists_agree() {
    let src = small::fir(16, 6);
    let optimized = essent::compile(&src).unwrap();
    let unoptimized = essent::compile_unoptimized(&src).unwrap();
    let mut a = EssentSim::new(&optimized, &EngineConfig::default());
    let mut b = EssentSim::new(&unoptimized, &EngineConfig::default());
    for (sim, label) in [(&mut a, "opt"), (&mut b, "unopt")] {
        sim.poke("reset", Bits::from_u64(0, 1));
        sim.poke("en", Bits::from_u64(1, 1));
        let _ = label;
    }
    for cycle in 0..50u64 {
        let x = Bits::from_u64((cycle * 31 + 7) & 0xffff, 16);
        a.poke("x", x.clone());
        b.poke("x", x);
        a.step(1);
        b.step(1);
        assert_eq!(a.peek("y"), b.peek("y"), "cycle {cycle}");
    }
}

#[test]
fn all_three_workloads_complete_and_agree_on_tiny_soc() {
    let netlist = essent::compile(&generate_soc(&SocConfig::tiny())).unwrap();
    for workload in [
        dhrystone(2).unwrap(),
        matmul(3, 1).unwrap(),
        pchase(64, 300).unwrap(),
    ] {
        let mut results = Vec::new();
        for mut sim in engines_for(&netlist) {
            let run = run_workload(sim.as_mut(), &workload, 2_000_000);
            assert!(
                run.finished,
                "{} stalled on {}",
                sim.engine_name(),
                workload.name
            );
            results.push((run.cycles, run.instret, run.tohost));
        }
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "{}: engines disagree: {results:?}",
            workload.name
        );
    }
}

#[test]
fn soc_putchar_printf_reaches_log() {
    // Print "OK" then terminate.
    let program = essent::designs::workloads::Workload {
        name: "hello".into(),
        words: asm::assemble(
            "    lui t6, 0x80000\n    li t0, 79\n    sw t0, 4(t6)\n    li t0, 75\n    sw t0, 4(t6)\n    li a0, 0\n    sw a0, 0(t6)\nhalt:\n    j halt\n",
        )
        .unwrap(),
    };
    let netlist = essent::compile(&generate_soc(&SocConfig::tiny())).unwrap();
    let mut sim = EssentSim::new(&netlist, &EngineConfig::default());
    let run = run_workload(&mut sim, &program, 100_000);
    assert!(run.finished);
    assert_eq!(sim.printf_log().join(""), "OK");
}

#[test]
fn essent_skips_idle_soc_lanes() {
    // The lanes tick rarely; ESSENT's evaluated ops per cycle must be a
    // small fraction of the design while the core chases pointers.
    let netlist = essent::compile(&generate_soc(&SocConfig::r16())).unwrap();
    let workload = pchase(256, 2_000).unwrap();
    let mut sim = EssentSim::new(
        &netlist,
        &EngineConfig {
            capture_printf: false,
            ..EngineConfig::default()
        },
    );
    let run = run_workload(&mut sim, &workload, 1_000_000);
    assert!(run.finished);
    let c = sim.counters();
    let effective = c.ops_evaluated as f64 / (c.cycles as f64 * sim.full_steps_per_cycle() as f64);
    assert!(
        effective < 0.25,
        "effective activity factor {effective:.3} should be far below 1"
    );
}

#[test]
fn vcd_dump_of_soc_is_well_formed() {
    use essent::sim::vcd::VcdWriter;
    let netlist = essent::compile(&generate_soc(&SocConfig::tiny())).unwrap();
    let mut sim = FullCycleSim::new(&netlist, &EngineConfig::default());
    let mut buf = Vec::new();
    let mut vcd = VcdWriter::new(&mut buf, &netlist, "soc").unwrap();
    sim.poke("reset", Bits::from_u64(1, 1));
    for t in 0..20 {
        sim.step(1);
        vcd.sample(&sim, t).unwrap();
    }
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("$enddefinitions"));
    assert!(text.contains("#19"));
}
