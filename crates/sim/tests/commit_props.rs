//! Elided register commits are instructions of the partition programs
//! ([`Op1::Commit`](essent_sim::step1::Op1::Commit)); what a program
//! cannot absorb runs from the engines' pre-resolved state table. These
//! directed designs pin the seams of that split against the golden
//! interpreter on every tier — scalar tier-1, native, lanes, dataflow
//! workers (tier-1 only: that engine runs no native code), and the
//! unfused configuration that absorbs nothing.

use essent_bits::Bits;
use essent_netlist::{interp::Interpreter, opt, Netlist};
use essent_sim::testgen::gen_circuit;
use essent_sim::{BatchSim, EngineConfig, EssentSim, ParEssentSim, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build(source: &str, optimize: bool) -> Netlist {
    let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(source).expect("parses"))
        .expect("lowers");
    let mut netlist = Netlist::from_circuit(&lowered).expect("builds");
    if optimize {
        opt::optimize(&mut netlist, &opt::OptConfig::default());
    }
    netlist
}

/// Every way a CCSS engine can run a partition's commits.
fn tiers(netlist: &Netlist, c_p: usize) -> Vec<(&'static str, Box<dyn Simulator>)> {
    let on = EngineConfig {
        c_p,
        ..EngineConfig::default()
    };
    let jit = EngineConfig {
        jit: true,
        ..on.clone()
    };
    let unfused = EngineConfig {
        fuse_triggers: false,
        ..on.clone()
    };
    let pull = EngineConfig {
        trigger_push: false,
        ..on.clone()
    };
    vec![
        ("tier-1", Box::new(EssentSim::new(netlist, &on))),
        ("native", Box::new(EssentSim::new(netlist, &jit))),
        ("unfused", Box::new(EssentSim::new(netlist, &unfused))),
        ("pull", Box::new(EssentSim::new(netlist, &pull))),
        ("dataflow", Box::new(ParEssentSim::new(netlist, &on, 2))),
        (
            "dataflow unfused",
            Box::new(ParEssentSim::new(netlist, &unfused, 2)),
        ),
    ]
}

/// Drives the golden interpreter, every tier and a 3-lane batch engine
/// with one stimulus and compares `probes` every cycle.
fn check_against_golden(netlist: &Netlist, c_p: usize, inputs: &[(&str, u32)], probes: &[&str]) {
    let mut golden = Interpreter::new(netlist);
    let mut engines = tiers(netlist, c_p);
    let mut batch = BatchSim::new(
        netlist,
        &EngineConfig {
            c_p,
            lanes: 3,
            ..EngineConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(0xC0111);
    for cycle in 0..60u64 {
        for &(name, width) in inputs {
            let value = if name == "reset" {
                Bits::from_u64((cycle < 2 || cycle == 31) as u64, 1)
            } else {
                Bits::from_limbs(vec![rng.gen(), rng.gen()], width)
            };
            golden.poke(name, value.clone());
            for (_, e) in engines.iter_mut() {
                e.poke(name, value.clone());
            }
            batch.poke(name, value);
        }
        golden.step(1);
        engines.iter_mut().for_each(|(_, e)| {
            e.step(1);
        });
        batch.step(1);
        for probe in probes {
            let want = golden.peek(probe);
            for (tier, e) in &engines {
                assert_eq!(e.peek(probe), want, "cycle {cycle}: {tier} on `{probe}`");
            }
            for lane in 0..3 {
                assert_eq!(
                    batch.peek_lane(lane, probe),
                    want,
                    "cycle {cycle}: batch lane {lane} on `{probe}`"
                );
            }
        }
    }
}

/// A write port whose `data` and `addr` *are* register outputs (after
/// copy forwarding), in the partition that computes both next-values:
/// the write must store this cycle's `r` at this cycle's `a`, though the
/// partition's program commits registers before the engine runs the
/// write. The plan keeps such registers two-phase; every tier agrees
/// with the interpreter on the memory it reads back.
#[test]
fn write_port_fed_by_registers_sees_pre_commit_values() {
    const SRC: &str = "circuit W :\n  module W :\n    input clock : Clock\n    input reset : UInt<1>\n    input x : UInt<8>\n    output o : UInt<8>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(1)))\n    reg a : UInt<3>, clock with : (reset => (reset, UInt<3>(0)))\n    r <= tail(add(r, x), 1)\n    a <= tail(add(a, UInt<3>(1)), 1)\n    mem m :\n      data-type => UInt<8>\n      depth => 8\n      read-latency => 0\n      write-latency => 1\n      reader => rd\n      writer => w\n    m.rd.clk <= clock\n    m.rd.en <= UInt<1>(1)\n    m.rd.addr <= bits(x, 2, 0)\n    o <= m.rd.data\n    q <= r\n    m.w.clk <= clock\n    m.w.en <= UInt<1>(1)\n    m.w.mask <= UInt<1>(1)\n    m.w.data <= r\n    m.w.addr <= a\n";
    for optimize in [false, true] {
        let netlist = build(SRC, optimize);
        for c_p in [1, 8, 64] {
            check_against_golden(&netlist, c_p, &[("reset", 1), ("x", 8)], &["o", "q"]);
        }
    }
    // The hazard shape is real: one partition holds the elided write and
    // both next-values, and the plan therefore commits neither register
    // in place.
    let netlist = build(SRC, true);
    let sim = EssentSim::new(
        &netlist,
        &EngineConfig {
            c_p: 64,
            ..EngineConfig::default()
        },
    );
    let plan = sim.plan();
    let port = &netlist.mems()[0].writers[0];
    let holder = plan
        .partitions
        .iter()
        .position(|p| p.elided_writes.contains(&0))
        .expect("the write elides at c_p = 64");
    for (ri, reg) in netlist.regs().iter().enumerate() {
        assert!([port.data, port.addr].contains(&reg.out), "forwarded");
        assert_eq!(plan.sched_of_signal[reg.next.index()] as usize, holder);
        assert!(!plan.reg_plans[ri].elided, "`{}` stays two-phase", reg.name);
    }
}

/// A register wider than a word cannot become a `Commit` instruction:
/// it must be reported unabsorbed, commit from the state table, and
/// still wake its reader in another partition — beside a narrow register
/// in the same design that *is* absorbed. And a combinational output
/// wider than a word (`s`, read from a second partition) cannot fuse its
/// trigger: every engine must snapshot-compare it from the front end's
/// wake table and wake its reader.
#[test]
fn wide_elided_register_commits_from_the_table_and_still_wakes() {
    const SRC: &str = "circuit R :\n  module R :\n    input clock : Clock\n    input reset : UInt<1>\n    input x : UInt<100>\n    output o : UInt<100>\n    output p : UInt<8>\n    output u : UInt<100>\n    output v : UInt<100>\n    reg w : UInt<100>, clock with : (reset => (reset, UInt<100>(5)))\n    reg n : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    w <= xor(shl(bits(w, 98, 0), 1), x)\n    n <= tail(add(n, bits(x, 7, 0)), 1)\n    o <= not(w)\n    p <= n\n    node s = xor(w, shl(bits(x, 98, 0), 1))\n    u <= not(s)\n    v <= and(s, x)\n";
    let netlist = build(SRC, true);
    for c_p in [1, 8] {
        check_against_golden(
            &netlist,
            c_p,
            &[("reset", 1), ("x", 100)],
            &["o", "p", "u", "v"],
        );
    }
    let sim = EssentSim::new(
        &netlist,
        &EngineConfig {
            c_p: 1,
            ..EngineConfig::default()
        },
    );
    let wide = netlist.regs().iter().position(|r| r.width == 100).unwrap();
    assert!(
        sim.plan().reg_plans.iter().all(|rp| rp.elided),
        "both self-feeding registers elide"
    );
    let writer = sim.plan().sched_of_signal[netlist.regs()[wide].next.index()];
    assert!(
        sim.plan().reg_plans[wide]
            .wake_on_change
            .iter()
            .any(|&c| c != writer),
        "at c_p = 1 `o`'s partition is a separate reader of `w`"
    );
    let stats = sim.tier_stats().expect("tier on");
    assert_eq!((stats.absorbed_commits, stats.total_commits), (1, 2));
    // The non-plain wake path really ran: `s` is a cross-partition
    // output no program could fuse.
    assert!(
        sim.plan()
            .partitions
            .iter()
            .flat_map(|part| &part.outputs)
            .any(|o| netlist.signal(o.signal).width > 64 && !o.consumers.is_empty()),
        "at c_p = 1 `v`'s partition reads `s` from `u`'s"
    );
    assert!(sim.plain_slot_count() < sim.partition_count());
}

/// Wake attribution does not depend on who runs the commit: a profiled
/// run with the commits inside the programs charges every state cause,
/// every unit's `woke_state` / `woke_output` / `caused`, exactly as the
/// run that leaves all of them to the state table (fusion off).
#[test]
fn commit_wakes_are_attributed_like_table_wakes() {
    for seed in [0u64, 3, 42, 0xE55E] {
        let circuit = gen_circuit(seed);
        let netlist = build(&circuit.source, false);
        let absorbed = EngineConfig {
            c_p: 2,
            profile: true,
            ..EngineConfig::default()
        };
        let table = EngineConfig {
            fuse_triggers: false,
            ..absorbed.clone()
        };
        let mut sims = [
            EssentSim::new(&netlist, &absorbed),
            EssentSim::new(&netlist, &table),
        ];
        let absorbed_commits = sims[0].tier_stats().unwrap().absorbed_commits;
        assert_eq!(sims[1].tier_stats().unwrap().absorbed_commits, 0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA77);
        for cycle in 0..50u64 {
            for (name, width) in &circuit.inputs {
                let value = if name == "reset" {
                    Bits::from_u64((cycle < 2) as u64, 1)
                } else {
                    Bits::from_limbs(vec![rng.gen(), rng.gen()], *width)
                };
                sims.iter_mut().for_each(|s| s.poke(name, value.clone()));
            }
            sims.iter_mut().for_each(|s| {
                s.step(1);
            });
        }
        let [got, want] = sims.map(|s| s.profile_report().expect("profiled"));
        assert_eq!(got.state_causes, want.state_causes, "seed {seed}");
        for (g, w) in got.units.iter().zip(&want.units) {
            assert_eq!(
                (g.woke_state, g.woke_output, g.caused, g.evals),
                (w.woke_state, w.woke_output, w.caused, w.evals),
                "seed {seed} unit {}",
                g.name
            );
        }
        let state_wakes: u64 = got.state_causes.iter().map(|(_, n)| n).sum();
        assert!(
            absorbed_commits == 0 || state_wakes > 0,
            "seed {seed}: {absorbed_commits} commit instruction(s) never woke anyone"
        );
    }
}
