//! Elided register commits are instructions of the partition programs
//! ([`Op1::Commit`](essent_sim::step1::Op1::Commit)); what a program
//! cannot absorb runs from the engines' pre-resolved state table. These
//! directed designs pin the seams of that split against the golden
//! interpreter on every tier — scalar tier-1, native, lanes, dataflow
//! workers (tier-1 only: that engine runs no native code), and the
//! unfused configuration that absorbs nothing. The last law holds every
//! engine to the wakes of a back-door memory write between steps.

use essent_bits::Bits;
use essent_netlist::Netlist;
use essent_sim::testgen::{build, gen_circuit, GenCircuit, Lockstep, Reset};
use essent_sim::{BatchSim, EngineConfig, EssentSim, EventDrivenSim, FullCycleSim, ParEssentSim};

/// A directed design's interface, in the order the stimulus pokes it.
fn circuit(source: &str, inputs: &[(&str, u32)], outputs: &[&str]) -> GenCircuit {
    GenCircuit {
        source: source.to_string(),
        inputs: inputs.iter().map(|&(n, w)| (n.to_string(), w)).collect(),
        outputs: outputs.iter().map(|o| o.to_string()).collect(),
    }
}

/// Drives the golden interpreter, every way a CCSS engine can run a
/// partition's commits and a 3-lane fleet with one stimulus (reset in
/// cycles 0, 1 and 31) and compares the outputs every cycle.
fn check_against_golden(circuit: &GenCircuit, netlist: &Netlist, c_p: usize) {
    let on = EngineConfig {
        c_p,
        ..EngineConfig::default()
    };
    let with = |tweak: fn(&mut EngineConfig)| {
        let mut config = on.clone();
        tweak(&mut config);
        config
    };
    let unfused = with(|c| c.fuse_triggers = false);
    let mut run = Lockstep::new(format!("c_p={c_p}"), circuit, netlist);
    run.row("tier-1", EssentSim::new(netlist, &on));
    run.row("native", EssentSim::new(netlist, &with(|c| c.jit = true)));
    run.row("unfused", EssentSim::new(netlist, &unfused));
    let pull = with(|c| c.trigger_push = false);
    run.row("pull", EssentSim::new(netlist, &pull));
    run.row("dataflow", ParEssentSim::new(netlist, &on, 2));
    run.row("dataflow unfused", ParEssentSim::new(netlist, &unfused, 2));
    let batch = BatchSim::new(netlist, &with(|c| c.lanes = 3));
    run.fleet("batch", batch, &[0, 0, 0]);
    run.run(0xC0111, Reset::At(&[0, 1, 31]), &[1; 60]);
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
    let w = circuit(SRC, &[("reset", 1), ("x", 8)], &["o", "q"]);
    for optimize in [false, true] {
        let netlist = build(SRC, optimize);
        for c_p in [1, 8, 64] {
            check_against_golden(&w, &netlist, c_p);
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
    let r = circuit(SRC, &[("reset", 1), ("x", 100)], &["o", "p", "u", "v"]);
    let netlist = build(SRC, true);
    for c_p in [1, 8] {
        check_against_golden(&r, &netlist, c_p);
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
        let (absorbed, table) = (
            EssentSim::new(&netlist, &absorbed),
            EssentSim::new(&netlist, &table),
        );
        let absorbed_commits = absorbed.tier_stats().unwrap().absorbed_commits;
        assert_eq!(table.tier_stats().unwrap().absorbed_commits, 0);
        let mut run = Lockstep::new(format!("seed {seed}"), &circuit, &netlist);
        let rows = [run.row("absorbed", absorbed), run.row("table", table)];
        run.run(seed ^ 0xA77, Reset::At(&[0, 1]), &[1; 50]);
        let [got, want] = rows.map(|r| run.sim(r).profile_report().expect("profiled"));
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

/// A back-door write between steps (`write_mem`, as a testbench loads a
/// program mid-run) changes a word no port wrote: every engine must wake
/// the partitions or signals that read the memory, or they keep the
/// value they read before the write. Read at a fixed address, on a ROM
/// and on a memory written through its port only under reset, by every
/// engine, a fleet's lanes and the golden interpreter; the second
/// back-door value writes over the first.
#[test]
fn backdoor_writes_between_steps_wake_the_memory_readers() {
    const MEM: &str = "    mem m :\n      data-type => UInt<8>\n      depth => 8\n      read-latency => 0\n      write-latency => 1\n      reader => rd\n";
    const READ: &str = "    m.rd.clk <= clock\n    m.rd.en <= UInt<1>(1)\n    m.rd.addr <= UInt<3>(3)\n    q <= m.rd.data\n";
    let head = |name: &str| {
        format!("circuit {name} :\n  module {name} :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n")
    };
    let rom = format!("{}{MEM}{READ}", head("Rom"));
    let ram = format!(
        "{}    reg c : UInt<8>, clock\n    c <= tail(add(c, UInt<8>(1)), 1)\n{MEM}      writer => w\n{READ}    m.w.clk <= clock\n    m.w.en <= reset\n    m.w.mask <= UInt<1>(1)\n    m.w.addr <= bits(c, 2, 0)\n    m.w.data <= c\n",
        head("Ram")
    );
    for source in [rom, ram] {
        let design = circuit(&source, &[("reset", 1)], &["q"]);
        for optimize in [false, true] {
            let netlist = build(&source, optimize);
            for c_p in [1, 8] {
                let on = EngineConfig {
                    c_p,
                    ..EngineConfig::default()
                };
                let with = |tweak: fn(&mut EngineConfig)| {
                    let mut config = on.clone();
                    tweak(&mut config);
                    config
                };
                let ctx = format!("c_p={c_p} opt={optimize}");
                let mut run = Lockstep::new(ctx, &design, &netlist);
                run.row("tier-1", EssentSim::new(&netlist, &on));
                run.row("native", EssentSim::new(&netlist, &with(|c| c.jit = true)));
                let unfused = with(|c| c.fuse_triggers = false);
                run.row("unfused", EssentSim::new(&netlist, &unfused));
                let pull = with(|c| c.trigger_push = false);
                run.row("pull", EssentSim::new(&netlist, &pull));
                run.row("dataflow", ParEssentSim::new(&netlist, &on, 2));
                run.row("event-driven", EventDrivenSim::new(&netlist, &on));
                let fifo = with(|c| c.event_levelized = false);
                run.row("event-driven fifo", EventDrivenSim::new(&netlist, &fifo));
                run.row("full-cycle", FullCycleSim::new(&netlist, &on));
                let baseline = EngineConfig::baseline();
                run.row("baseline", FullCycleSim::new(&netlist, &baseline));
                let fleet = BatchSim::new(&netlist, &with(|c| c.lanes = 2));
                run.fleet("fleet", fleet, &[0, 0]);
                run.run(0xBAC4, Reset::At(&[0, 1]), &[1; 5]);
                for value in [0x5A, 0x33] {
                    run.write_mem(0, "m", 3, Bits::from_u64(value, 8));
                    run.run(0xBAC4, Reset::At(&[]), &[1; 2]);
                    assert_eq!(run.sim(0).peek("q").to_u64(), Some(value));
                }
            }
        }
    }
}
