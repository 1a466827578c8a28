//! Mutation testing of the verifier: corrupt a known-good plan or
//! bytecode stream in a specific way and require the corresponding
//! stable diagnostic code. Each corruption models a distinct plan- or
//! compiler-bug class; a verifier that misses one of these is not
//! actually checking the invariant it claims to.

use essent_core::diag::codes;
use essent_core::plan::CcssPlan;
use essent_netlist::{Netlist, SignalId};
use essent_sim::compile::{compile_plan, Block, Item, Layout};
use essent_sim::jit::{JitPlan, JIT_MIN_COST};
use essent_sim::step1::{lower_tier1, Op1, OutSpec, Tier1Program, NO_FUSE};
use essent_sim::testgen::build;
use essent_sim::EngineConfig;
use essent_verify::{
    check_blocks, check_jit, check_jit_plan, check_plan, check_tier1, lint_netlist,
};

/// Four inverters in a row. The whole chain is one fanout-free cone, so
/// it always lands in a single partition — the stage for in-partition
/// ordering and bytecode mutations.
fn chain() -> Netlist {
    build(
        "circuit chain :\n  module chain :\n    input clock : Clock\n    input a : UInt<8>\n    output o : UInt<8>\n    node n0 = not(a)\n    node n1 = not(n0)\n    node n2 = not(n1)\n    node n3 = not(n2)\n    o <= n3\n",
        false,
    )
}

/// Two register-fed cones joined by a combinational diamond. At
/// `c_p = 1` this partitions into `{t, r2$next}`, `{s, r1$next}`, and
/// `{u1, u2, o}`, with real cross-partition triggers on `s` and `t` —
/// the stage for trigger and partition-graph mutations.
fn diamond() -> Netlist {
    build(
        "circuit diamond :\n  module diamond :\n    input clock : Clock\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<8>\n    reg r1 : UInt<8>, clock\n    reg r2 : UInt<8>, clock\n    node s = xor(r1, a)\n    node t = xor(r2, b)\n    node u1 = and(s, t)\n    node u2 = or(u1, t)\n    o <= u2\n    r1 <= not(s)\n    r2 <= not(t)\n",
        false,
    )
}

/// One register whose writer partition is scheduled before its two
/// reader partitions; the planner correctly refuses to elide it — the
/// stage for the forced-elision mutation.
fn reg_late_readers() -> Netlist {
    build(
        "circuit regs :\n  module regs :\n    input clock : Clock\n    input a : UInt<8>\n    input b : UInt<8>\n    output o1 : UInt<8>\n    output o2 : UInt<8>\n    reg r : UInt<8>, clock\n    node m = xor(r, a)\n    r <= m\n    node u = and(r, b)\n    o1 <= u\n    node v = xor(r, b)\n    o2 <= v\n",
        false,
    )
}

fn sid(netlist: &Netlist, name: &str) -> SignalId {
    netlist.expect_signal(name)
}

#[test]
fn pristine_plans_verify_clean() {
    for netlist in [chain(), diamond(), reg_late_readers(), reg_fed_write()] {
        for c_p in [1, 2, 64] {
            let plan = CcssPlan::build(&netlist, c_p);
            let report = check_plan(&netlist, &plan);
            assert_eq!(report.error_count(), 0, "c_p={c_p}:\n{report}");
        }
    }
}

#[test]
fn dropped_trigger_is_v0102() {
    let netlist = diamond();
    let mut plan = CcssPlan::build(&netlist, 1);
    let cleared = plan
        .partitions
        .iter_mut()
        .flat_map(|p| &mut p.outputs)
        .find(|o| !o.consumers.is_empty())
        .map(|o| o.consumers = Vec::new());
    assert!(
        cleared.is_some(),
        "diamond plan must have a trigger to drop"
    );
    let report = check_plan(&netlist, &plan);
    assert!(report.contains(codes::TRIGGER_MISSING), "{report}");
}

#[test]
fn cyclic_partition_graph_is_v0103() {
    let netlist = diamond();
    let mut plan = CcssPlan::build(&netlist, 1);
    // Move `u2` into `s`'s partition: that partition then both feeds
    // `u1`'s partition (via s -> u1) and reads from it (via u1 -> u2).
    let (s, u1, u2) = (sid(&netlist, "s"), sid(&netlist, "u1"), sid(&netlist, "u2"));
    let from = plan.sched_of_signal[u2.index()] as usize;
    let to = plan.sched_of_signal[s.index()] as usize;
    assert_ne!(from, to, "u2 and s start in different partitions");
    assert_eq!(
        plan.sched_of_signal[u1.index()] as usize,
        from,
        "u1 stays behind in u2's original partition"
    );
    plan.partitions[from].members.retain(|&m| m != u2);
    plan.partitions[to].members.push(u2);
    plan.sched_of_signal[u2.index()] = to as u32;
    let report = check_plan(&netlist, &plan);
    assert!(report.contains(codes::PARTITION_CYCLE), "{report}");
}

#[test]
fn bad_topo_order_is_v0104() {
    let netlist = chain();
    // One partition holding the whole chain: swapping the first two
    // members breaks the in-partition dependency order.
    let mut plan = CcssPlan::build(&netlist, 64);
    let part = plan
        .partitions
        .iter_mut()
        .find(|p| p.members.len() >= 2)
        .expect("coarse plan has a multi-member partition");
    part.members.swap(0, 1);
    let report = check_plan(&netlist, &plan);
    assert!(report.contains(codes::TOPO_ORDER), "{report}");
}

#[test]
fn double_cover_is_v0105() {
    let netlist = chain();
    let mut plan = CcssPlan::build(&netlist, 1);
    let n0 = sid(&netlist, "n0");
    let home = plan.sched_of_signal[n0.index()] as usize;
    let other = (0..plan.partitions.len())
        .find(|&p| p != home)
        .expect("plan has a second partition");
    plan.partitions[other].members.push(n0);
    let report = check_plan(&netlist, &plan);
    assert!(report.contains(codes::DOUBLE_COVER), "{report}");
}

#[test]
fn unsafe_elision_is_v0106() {
    let netlist = reg_late_readers();
    let mut plan = CcssPlan::build(&netlist, 1);
    // The planner schedules the writer partition (`m`, computing
    // `r$next`) before the reader partitions (`u`, `v`) and therefore
    // keeps the register two-phase. Force-eliding it makes the readers
    // observe next-cycle state — the exact bug class Section III-B1's
    // side condition exists to prevent.
    let ri = plan
        .reg_plans
        .iter()
        .position(|rp| !rp.elided)
        .expect("planner refuses to elide this register");
    let writer = plan.sched_of_signal[sid(&netlist, "m").index()];
    let reader = plan.sched_of_signal[sid(&netlist, "u").index()];
    assert!(writer < reader, "writer runs before the readers here");
    plan.reg_plans[ri].elided = true;
    plan.partitions[writer as usize].elided_regs.push(ri);
    let report = check_plan(&netlist, &plan);
    assert!(report.contains(codes::UNSAFE_ELISION), "{report}");
}

/// A memory whose write port is fed straight from two registers; at
/// `c_p = 64` the write, both next-values and the read all share one
/// partition, so the write elides there — the stage for the rule that
/// keeps `r` and `a` out of that partition's in-place commits.
fn reg_fed_write() -> Netlist {
    let mut netlist = build(
        "circuit W :\n  module W :\n    input clock : Clock\n    input x : UInt<8>\n    output o : UInt<8>\n    reg r : UInt<8>, clock\n    reg a : UInt<3>, clock\n    r <= tail(add(r, x), 1)\n    a <= tail(add(a, UInt<3>(1)), 1)\n    mem m :\n      data-type => UInt<8>\n      depth => 8\n      read-latency => 0\n      write-latency => 1\n      reader => rd\n      writer => w\n    m.rd.clk <= clock\n    m.rd.en <= UInt<1>(1)\n    m.rd.addr <= bits(x, 2, 0)\n    o <= m.rd.data\n    m.w.clk <= clock\n    m.w.en <= UInt<1>(1)\n    m.w.mask <= UInt<1>(1)\n    m.w.data <= r\n    m.w.addr <= a\n",
        false,
    );
    // Copy forwarding makes the port fields *be* the register outputs.
    essent_netlist::opt::optimize(&mut netlist, &essent_netlist::opt::OptConfig::default());
    netlist
}

#[test]
fn register_elided_beside_the_write_reading_it_is_v0106() {
    let netlist = reg_fed_write();
    let mut plan = CcssPlan::build(&netlist, 64);
    let report = check_plan(&netlist, &plan);
    assert_eq!(report.error_count(), 0, "{report}");
    let port = &netlist.mems()[0].writers[0];
    let ri = netlist
        .regs()
        .iter()
        .position(|reg| reg.out == port.data)
        .expect("forwarding wires `r` into the port");
    let holder = plan
        .partitions
        .iter()
        .position(|p| p.elided_writes.contains(&0))
        .expect("the write elides");
    let writer = plan.sched_of_signal[netlist.regs()[ri].next.index()] as usize;
    assert_eq!(holder, writer, "one partition holds the write and `r$next`");
    assert!(
        !plan.reg_plans[ri].elided,
        "the planner keeps `r` two-phase beside the write that reads it"
    );
    // Committing `r` inside the partition's program would hand the write
    // next cycle's data.
    plan.reg_plans[ri].elided = true;
    plan.partitions[writer].elided_regs.push(ri);
    let report = check_plan(&netlist, &plan);
    assert_eq!(report.codes(), vec![codes::UNSAFE_ELISION], "{report}");
}

#[test]
fn dropped_input_wake_is_v0107() {
    let netlist = chain();
    let mut plan = CcssPlan::build(&netlist, 1);
    let entry = plan
        .input_wakes
        .iter_mut()
        .find(|(_, wakes)| !wakes.is_empty())
        .expect("input `a` must wake its reader");
    entry.1 = Vec::new();
    let report = check_plan(&netlist, &plan);
    assert!(report.contains(codes::INPUT_WAKE_MISSING), "{report}");
}

#[test]
fn out_of_bounds_arg_is_b0201() {
    let netlist = chain();
    let config = EngineConfig::default();
    let plan = CcssPlan::build(&netlist, 1);
    let layout = Layout::new(&netlist);
    let mut blocks = compile_plan(&netlist, &layout, &plan, &config);
    let clean = check_blocks(&netlist, &layout, &blocks, Some(&plan));
    assert_eq!(clean.error_count(), 0, "{clean}");
    let step = blocks
        .iter_mut()
        .flat_map(|b| &mut b.items)
        .find_map(|item| match item {
            Item::Step(s) if !s.args.is_empty() => Some(s),
            _ => None,
        })
        .expect("compiled chain has a step with operands");
    step.args[0].off = 1 << 20;
    let report = check_blocks(&netlist, &layout, &blocks, Some(&plan));
    assert!(report.contains(codes::ARG_OUT_OF_BOUNDS), "{report}");
}

#[test]
fn reordered_bytecode_is_b0204() {
    let netlist = chain();
    let config = EngineConfig::default();
    let plan = CcssPlan::build(&netlist, 64);
    let layout = Layout::new(&netlist);
    let mut blocks = compile_plan(&netlist, &layout, &plan, &config);
    let block = blocks
        .iter_mut()
        .find(|b| b.items.len() >= 2)
        .expect("coarse compilation has a multi-item block");
    block.items.swap(0, 1);
    let report = check_blocks(&netlist, &layout, &blocks, Some(&plan));
    assert!(report.contains(codes::DEF_BEFORE_USE), "{report}");
}

/// A compiled design with every partition lowered into the word-
/// specialized tier — the stage for tier-program mutations.
struct TierSetup {
    layout: Layout,
    blocks: Vec<Block>,
    outs: Vec<Vec<OutSpec>>,
    progs: Vec<Tier1Program>,
}

fn tier_setup(netlist: &Netlist, c_p: usize) -> TierSetup {
    let config = EngineConfig::default();
    let plan = CcssPlan::build(netlist, c_p);
    let layout = Layout::new(netlist);
    let blocks = compile_plan(netlist, &layout, &plan, &config);
    let mut outs = Vec::new();
    let mut progs = Vec::new();
    for (part, block) in plan.partitions.iter().zip(&blocks) {
        let po: Vec<OutSpec> = part
            .outputs
            .iter()
            .map(|o| OutSpec {
                sig: o.signal,
                consumers: o.consumers.clone(),
            })
            .collect();
        progs.push(lower_tier1(netlist, block, &po, true));
        outs.push(po);
    }
    TierSetup {
        layout,
        blocks,
        outs,
        progs,
    }
}

fn tier_report(netlist: &Netlist, setup: &TierSetup) -> essent_core::diag::Report {
    let mut report = essent_core::diag::Report::new();
    for (sched, prog) in setup.progs.iter().enumerate() {
        report.merge(check_tier1(
            netlist,
            &setup.layout,
            &setup.blocks[sched],
            &setup.outs[sched],
            prog,
            true,
            sched,
        ));
    }
    report
}

/// A mux whose ways are single-consumer chains: compiles to a
/// conditional-mux diamond under the default config — the stage for
/// control-flow mutations.
fn mux_diamond() -> Netlist {
    build(
        "circuit M :\n  module M :\n    input clock : Clock\n    input c : UInt<1>\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<16>\n    node hi = mul(a, a)\n    node lo = mul(b, b)\n    o <= mux(c, hi, lo)\n",
        false,
    )
}

/// Signals wider than a word keep the generic path: the tier audit must
/// accept a program that is all `Generic` fallbacks.
fn wide() -> Netlist {
    build(
        "circuit W :\n  module W :\n    input clock : Clock\n    input a : UInt<100>\n    input b : UInt<100>\n    output o : UInt<100>\n    node s = xor(a, b)\n    node t = and(s, a)\n    o <= or(t, b)\n",
        false,
    )
}

/// A 100-bit self-feeding register beside an 8-bit one: both elide, but
/// only the narrow one can become a `Commit` instruction — the wide one
/// must be reported unabsorbed and audited as the engine's state table
/// will run it.
fn wide_reg() -> Netlist {
    build(
        "circuit R :\n  module R :\n    input clock : Clock\n    input a : UInt<100>\n    output o : UInt<100>\n    output p : UInt<8>\n    reg w : UInt<100>, clock\n    reg n : UInt<8>, clock\n    w <= xor(w, a)\n    n <= tail(add(n, UInt<8>(1)), 1)\n    o <= w\n    p <= n\n",
        false,
    )
}

#[test]
fn pristine_tier_programs_verify_clean() {
    for netlist in [
        chain(),
        diamond(),
        reg_late_readers(),
        mux_diamond(),
        wide(),
        wide_reg(),
        reg_fed_write(),
    ] {
        for c_p in [1, 2, 64] {
            let setup = tier_setup(&netlist, c_p);
            let report = tier_report(&netlist, &setup);
            assert_eq!(report.error_count(), 0, "c_p={c_p}:\n{report}");
        }
    }
}

#[test]
fn corrupted_tier_operand_is_b0210() {
    let netlist = chain();
    let mut setup = tier_setup(&netlist, 1);
    let inst = setup
        .progs
        .iter_mut()
        .flat_map(|p| &mut p.code)
        .find(|i| !matches!(i.op, Op1::Jmp | Op1::JmpIf0 | Op1::Generic))
        .expect("lowered chain has a specialized value instruction");
    inst.a += 1;
    let report = tier_report(&netlist, &setup);
    assert!(report.contains(codes::TIER_DECODE), "{report}");
}

#[test]
fn corrupted_fused_consumers_is_b0211() {
    let netlist = diamond();
    let mut setup = tier_setup(&netlist, 1);
    let range = setup
        .progs
        .iter_mut()
        .find_map(|p| {
            p.code
                .iter()
                .find(|i| i.op != Op1::Commit && i.ws != NO_FUSE && i.we > i.ws)
                .map(|i| i.ws as usize)
                .map(|ws| &mut p.consumers[ws])
        })
        .expect("diamond plan must have a fused trigger with consumers");
    *range = 97;
    let report = tier_report(&netlist, &setup);
    assert!(report.contains(codes::TIER_FUSE), "{report}");
}

#[test]
fn defused_output_missing_from_unfused_list_is_b0211() {
    let netlist = diamond();
    let mut setup = tier_setup(&netlist, 1);
    let inst = setup
        .progs
        .iter_mut()
        .flat_map(|p| &mut p.code)
        .find(|i| i.op != Op1::Commit && i.ws != NO_FUSE)
        .expect("diamond plan must have a fused output");
    // Silently dropping the fused tail without re-registering the output
    // for snapshot-compare would strand its consumers forever.
    inst.ws = NO_FUSE;
    inst.we = NO_FUSE;
    let report = tier_report(&netlist, &setup);
    assert!(report.contains(codes::TIER_FUSE), "{report}");
}

/// `diamond`'s registers feed only their own partitions, so both elide
/// and each partition's program ends in their `Commit`.
fn program_ending_in_commit(setup: &mut TierSetup) -> &mut Tier1Program {
    setup
        .progs
        .iter_mut()
        .find(|p| p.code.last().is_some_and(|i| i.op == Op1::Commit))
        .expect("an elided single-word register lowers to a closing Commit")
}

#[test]
fn dropped_commit_instruction_is_b0210() {
    let netlist = diamond();
    let mut setup = tier_setup(&netlist, 1);
    // The register would silently stop updating: no instruction commits
    // it and the program does not hand it to the engine either.
    let prog = program_ending_in_commit(&mut setup);
    prog.code.pop();
    prog.sigs.pop();
    let report = tier_report(&netlist, &setup);
    assert_eq!(report.codes(), vec![codes::TIER_DECODE], "{report}");
}

#[test]
fn rewired_commit_consumer_range_is_b0211() {
    let netlist = diamond();
    let mut setup = tier_setup(&netlist, 1);
    // One reader fewer: that partition would sleep through the change.
    let commit = program_ending_in_commit(&mut setup)
        .code
        .last_mut()
        .expect("checked non-empty");
    assert!(commit.we > commit.ws, "the register has a reader");
    commit.we -= 1;
    let report = tier_report(&netlist, &setup);
    assert_eq!(report.codes(), vec![codes::TIER_FUSE], "{report}");
}

#[test]
fn corrupted_jump_target_is_b0212() {
    let netlist = mux_diamond();
    let mut setup = tier_setup(&netlist, 1);
    let jmp = setup
        .progs
        .iter_mut()
        .flat_map(|p| &mut p.code)
        .find(|i| matches!(i.op, Op1::Jmp))
        .expect("conditional mux must lower to a diamond with a Jmp");
    // A backward jump breaks the structural termination proof.
    jmp.a = 0;
    let report = tier_report(&netlist, &setup);
    assert!(report.contains(codes::TIER_FLOW), "{report}");
}

/// The three analysis lint codes other than `code` — each analysis-lint
/// mutation must trigger its own code and none of its siblings.
fn assert_only_analysis_code(
    report: &essent_core::diag::Report,
    code: essent_core::diag::DiagCode,
) {
    assert!(report.contains(code), "{report}");
    for other in [
        codes::DEAD_UPPER_BITS,
        codes::CONST_COMPARISON,
        codes::CONST_REGISTER,
        codes::UNREACHABLE_MUX_WAY,
    ] {
        if other != code {
            assert!(!report.contains(other), "unexpected {other}:\n{report}");
        }
    }
    assert_eq!(report.error_count(), 0, "{report}");
}

#[test]
fn dead_upper_bits_is_l0006() {
    // `and(a, 15)` pins the top four bits of an eight-bit signal to zero.
    let netlist = build(
        "circuit du :\n  module du :\n    input a : UInt<8>\n    output o : UInt<8>\n    node m = and(a, UInt<8>(15))\n    o <= m\n",
        false,
    );
    assert_only_analysis_code(&lint_netlist(&netlist), codes::DEAD_UPPER_BITS);
}

#[test]
fn const_comparison_is_l0007() {
    // An eight-bit value is always below 256; the ranges never overlap.
    let netlist = build(
        "circuit cc :\n  module cc :\n    input a : UInt<8>\n    output o : UInt<1>\n    node c = lt(a, UInt<9>(256))\n    o <= c\n",
        false,
    );
    assert_only_analysis_code(&lint_netlist(&netlist), codes::CONST_COMPARISON);
}

#[test]
fn const_register_is_l0008() {
    // A self-fed register can never leave its power-on zero.
    let netlist = build(
        "circuit cr :\n  module cr :\n    input clock : Clock\n    output o : UInt<1>\n    reg r : UInt<1>, clock\n    r <= r\n    o <= r\n",
        false,
    );
    assert_only_analysis_code(&lint_netlist(&netlist), codes::CONST_REGISTER);
}

#[test]
fn unreachable_mux_way_is_l0009() {
    // The selector is masked to zero without being a literal constant.
    let netlist = build(
        "circuit um :\n  module um :\n    input b : UInt<1>\n    input x : UInt<8>\n    input y : UInt<8>\n    output o : UInt<8>\n    node sel = and(b, UInt<1>(0))\n    o <= mux(sel, x, y)\n",
        false,
    );
    assert_only_analysis_code(&lint_netlist(&netlist), codes::UNREACHABLE_MUX_WAY);
}

/// A registered design with a memory write port: register and
/// memory-write plans, a memory read, and waking inputs.
fn memful() -> Netlist {
    build(
        "circuit memful :\n  module memful :\n    input clock : Clock\n    input a : UInt<8>\n    input we : UInt<1>\n    output o : UInt<8>\n    mem m :\n      data-type => UInt<8>\n      depth => 8\n      read-latency => 0\n      write-latency => 1\n      reader => rd\n      writer => wr\n      read-under-write => undefined\n    reg r : UInt<3>, clock\n    r <= tail(add(r, UInt<3>(1)), 1)\n    m.rd.clk <= clock\n    m.rd.en <= UInt<1>(1)\n    m.rd.addr <= r\n    m.wr.clk <= clock\n    m.wr.en <= we\n    m.wr.addr <= r\n    m.wr.data <= a\n    m.wr.mask <= UInt<1>(1)\n    o <= m.rd.data\n",
        false,
    )
}

#[test]
fn dead_code_and_truncation_lints() {
    let netlist = build(
        "circuit lints :\n  module lints :\n    input clock : Clock\n    input a : UInt<8>\n    output o : UInt<4>\n    node dead = not(a)\n    node keep = not(a)\n    o <= keep\n",
        false,
    );
    let report = lint_netlist(&netlist);
    assert!(report.contains(codes::DEAD_SIGNAL), "{report}");
    assert!(report.contains(codes::WIDTH_TRUNCATION), "{report}");
    assert_eq!(report.error_count(), 0, "{report}");
}

// ---------------------------------------------------------------------
// Layer six: footprint / race freedom (R0501-R0504)
// ---------------------------------------------------------------------

use essent_verify::check_footprint;

/// Everything `check_footprint` consumes, built the same way the
/// parallel engine builds it — the stage for footprint mutations.
struct FootSetup {
    layout: Layout,
    plan: CcssPlan,
    blocks: Vec<Block>,
    progs: Option<Vec<Tier1Program>>,
}

fn foot_setup(netlist: &Netlist, c_p: usize, tier: bool) -> FootSetup {
    let config = EngineConfig::default();
    let plan = CcssPlan::build(netlist, c_p);
    let layout = Layout::new(netlist);
    let blocks = compile_plan(netlist, &layout, &plan, &config);
    let progs = tier.then(|| {
        plan.partitions
            .iter()
            .zip(&blocks)
            .map(|(part, block)| {
                let po: Vec<OutSpec> = part
                    .outputs
                    .iter()
                    .map(|o| OutSpec {
                        sig: o.signal,
                        consumers: o.consumers.clone(),
                    })
                    .collect();
                lower_tier1(netlist, block, &po, true)
            })
            .collect()
    });
    FootSetup {
        layout,
        plan,
        blocks,
        progs,
    }
}

fn foot_report(netlist: &Netlist, s: &FootSetup) -> essent_core::diag::Report {
    check_footprint(netlist, &s.layout, &s.plan, &s.blocks, s.progs.as_deref())
}

/// Each footprint mutation must flip exactly its own R-code: the target
/// present, the two siblings absent.
fn assert_only_r_code(report: &essent_core::diag::Report, code: essent_core::diag::DiagCode) {
    assert!(report.contains(code), "{report}");
    for other in [
        codes::FOOTPRINT_TIER_MISMATCH,
        codes::FOOTPRINT_WRITE_WRITE,
        codes::FOOTPRINT_ESCAPE,
    ] {
        if other != code {
            assert!(!report.contains(other), "unexpected {other}:\n{report}");
        }
    }
}

#[test]
fn pristine_footprints_verify_clean() {
    for netlist in [
        chain(),
        diamond(),
        reg_late_readers(),
        mux_diamond(),
        wide(),
        wide_reg(),
    ] {
        for c_p in [1, 2, 64] {
            for tier in [false, true] {
                let setup = foot_setup(&netlist, c_p, tier);
                let report = foot_report(&netlist, &setup);
                assert_eq!(report.error_count(), 0, "c_p={c_p} tier={tier}:\n{report}");
            }
        }
    }
}

#[test]
fn tier_read_drift_is_r0501() {
    let netlist = chain();
    let mut setup = foot_setup(&netlist, 64, true);
    let inst = setup
        .progs
        .as_mut()
        .unwrap()
        .iter_mut()
        .flat_map(|p| &mut p.code)
        .find(|i| !matches!(i.op, Op1::Jmp | Op1::JmpIf0 | Op1::Generic))
        .expect("lowered chain has a specialized value instruction");
    // The tier now reads a different word than the generic block.
    inst.a += 1;
    assert_only_r_code(
        &foot_report(&netlist, &setup),
        codes::FOOTPRINT_TIER_MISMATCH,
    );
}

#[test]
fn tier_write_drift_is_r0501() {
    let netlist = chain();
    let mut setup = foot_setup(&netlist, 64, true);
    let inst = setup
        .progs
        .as_mut()
        .unwrap()
        .iter_mut()
        .flat_map(|p| &mut p.code)
        .find(|i| !matches!(i.op, Op1::Jmp | Op1::JmpIf0 | Op1::Generic))
        .expect("lowered chain has a specialized value instruction");
    // The tier now writes a different word than the generic block.
    inst.dst += 1;
    assert_only_r_code(
        &foot_report(&netlist, &setup),
        codes::FOOTPRINT_TIER_MISMATCH,
    );
}

#[test]
fn unplanned_fused_wake_is_r0501() {
    let netlist = diamond();
    let mut setup = foot_setup(&netlist, 1, true);
    let slot = setup
        .progs
        .as_mut()
        .unwrap()
        .iter_mut()
        .find_map(|p| {
            p.code
                .iter()
                .find(|i| i.op != Op1::Commit && i.ws != NO_FUSE && i.we > i.ws)
                .map(|i| i.ws as usize)
                .map(|ws| &mut p.consumers[ws])
        })
        .expect("diamond plan must have a fused trigger with consumers");
    // The fused tail now wakes a partition no planned consumer list names.
    *slot = 97;
    assert_only_r_code(
        &foot_report(&netlist, &setup),
        codes::FOOTPRINT_TIER_MISMATCH,
    );
}

#[test]
fn duplicated_writer_is_r0502() {
    // Retarget the writers of `s` and `t` onto `o`'s slot — a circuit
    // output nobody reads, owned by the join partition. Three
    // partitions of the plan then write one word, whatever the
    // schedule orders.
    let netlist = diamond();
    let mut setup = foot_setup(&netlist, 1, false);
    let o = sid(&netlist, "o");
    let o_off = setup.layout.offset(o) as u32;
    let mut retargeted = 0;
    for name in ["s", "t"] {
        let sig = sid(&netlist, name);
        let home = setup.plan.sched_of_signal[sig.index()] as usize;
        let off = setup.layout.offset(sig) as u32;
        for item in &mut setup.blocks[home].items {
            if let Item::Step(step) = item {
                if step.dst.off == off {
                    step.dst.off = o_off;
                    retargeted += 1;
                }
            }
        }
        // Keep the stolen slot inside the declared range so only the
        // overlap itself is out of order.
        setup.plan.partitions[home].members.push(o);
    }
    assert_eq!(retargeted, 2, "s and t each have one writing step");
    assert_only_r_code(&foot_report(&netlist, &setup), codes::FOOTPRINT_WRITE_WRITE);
}

#[test]
fn retargeted_write_is_r0504() {
    let netlist = chain();
    let mut setup = foot_setup(&netlist, 64, false);
    // Redirect a step's destination onto the input's slot, which no
    // partition may ever write.
    let a_off = setup.layout.offset(sid(&netlist, "a")) as u32;
    let step = setup
        .blocks
        .iter_mut()
        .flat_map(|b| &mut b.items)
        .find_map(|item| match item {
            Item::Step(s) => Some(s),
            _ => None,
        })
        .expect("chain compiles to plain steps");
    step.dst.off = a_off;
    assert_only_r_code(&foot_report(&netlist, &setup), codes::FOOTPRINT_ESCAPE);
}

#[test]
fn out_of_arena_write_is_r0504() {
    let netlist = chain();
    let mut setup = foot_setup(&netlist, 64, false);
    let total = setup.layout.total_words() as u32;
    let step = setup
        .blocks
        .iter_mut()
        .flat_map(|b| &mut b.items)
        .find_map(|item| match item {
            Item::Step(s) => Some(s),
            _ => None,
        })
        .expect("chain compiles to plain steps");
    // One word past the arena: not owned by any signal at all.
    step.dst.off = total;
    assert_only_r_code(&foot_report(&netlist, &setup), codes::FOOTPRINT_ESCAPE);
}

// ---------------------------------------------------------------------
// Layer seven: the cost table and the dataflow schedule (F0403, S0601-S0605)
// ---------------------------------------------------------------------

use essent_core::depgraph::{synthesize_dataflow, DataflowSchedule, DepGraph};
use essent_core::partition::partition;
use essent_core::plan::{extended_dag, PlanOptions};
use essent_sim::frontend::CostModel;
use essent_verify::{check_cost_model, check_depgraph};

/// The plan + cost table a parallel or JIT engine would build, ready
/// for cost mutations; the pristine table audits clean.
fn cost_setup(netlist: &Netlist, c_p: usize) -> (CcssPlan, CostModel) {
    let plan = CcssPlan::build(netlist, c_p);
    let layout = Layout::new(netlist);
    let blocks = compile_plan(netlist, &layout, &plan, &EngineConfig::default());
    let cost = CostModel::build(&plan, &blocks, None);
    let report = check_cost_model(&plan, &cost);
    assert_eq!(report.error_count(), 0, "c_p={c_p}:\n{report}");
    (plan, cost)
}

#[test]
fn truncated_cost_table_is_f0403() {
    let netlist = diamond();
    let (plan, mut cost) = cost_setup(&netlist, 1);
    cost.costs.pop();
    let report = check_cost_model(&plan, &cost);
    assert!(report.contains(codes::COST_RANGE), "{report}");
}

#[test]
fn zero_cost_entry_is_f0403() {
    let netlist = diamond();
    let (plan, mut cost) = cost_setup(&netlist, 1);
    cost.costs[0] = 0;
    let report = check_cost_model(&plan, &cost);
    assert!(report.contains(codes::COST_RANGE), "{report}");
}

/// A plan plus the dataflow schedule the parallel engine would
/// synthesize over it — with uniformly inflated costs, because the tiny
/// fixtures would otherwise fall under the synthesizer's serial floor
/// and collapse to one worker, hiding every cross-worker obligation.
fn dep_setup(
    netlist: &Netlist,
    elide_state: bool,
    threads: usize,
) -> (CcssPlan, Layout, Vec<Block>, DataflowSchedule) {
    let config = EngineConfig::default();
    let (dag, writes) = extended_dag(netlist);
    let plan = CcssPlan::from_partitioning(
        netlist,
        &dag,
        &writes,
        &partition(&dag, 1),
        PlanOptions {
            elide_state,
            elide_mem: false,
        },
    );
    let layout = Layout::new(netlist);
    let blocks = compile_plan(netlist, &layout, &plan, &config);
    let graph = DepGraph::derive(netlist, &plan);
    let costs = vec![2_000u64; plan.partitions.len()];
    let ds = synthesize_dataflow(&plan, &graph, &costs, threads);
    (plan, layout, blocks, ds)
}

/// Each dependence-schedule mutation must flip exactly its own S-code:
/// the target present, the four siblings absent.
fn assert_only_s_code(report: &essent_core::diag::Report, code: essent_core::diag::DiagCode) {
    assert!(report.contains(code), "{report}");
    for other in [
        codes::DEP_EDGE_UNCOVERED,
        codes::FABRICATED_OVERLAP,
        codes::SCHEDULE_CYCLE,
        codes::MISSING_CROSS_CYCLE_COVER,
        codes::WORKER_COVER,
    ] {
        if other != code {
            assert!(!report.contains(other), "unexpected {other}:\n{report}");
        }
    }
}

#[test]
fn pristine_dataflow_schedules_verify_clean() {
    for netlist in [
        chain(),
        diamond(),
        sunk_diamond(),
        reg_late_readers(),
        wide(),
        memful(),
    ] {
        for elide_state in [false, true] {
            for threads in [1, 2, 4] {
                let (plan, layout, blocks, ds) = dep_setup(&netlist, elide_state, threads);
                let report = check_depgraph(&netlist, &layout, &plan, &blocks, &ds);
                assert_eq!(
                    report.error_count(),
                    0,
                    "elide={elide_state} threads={threads}:\n{report}"
                );
            }
        }
    }
}

/// The diamond with a register sunk on the join: with elision off,
/// every partition (the two leaves *and* the join) touches a register
/// word the serial phase owns, so none of them is exempt.
fn sunk_diamond() -> Netlist {
    build(
        "circuit sunk :\n  module sunk :\n    input clock : Clock\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<8>\n    reg r1 : UInt<8>, clock\n    reg r2 : UInt<8>, clock\n    reg r3 : UInt<8>, clock\n    node s = xor(r1, a)\n    node t = xor(r2, b)\n    node u1 = and(s, t)\n    node u2 = or(u1, t)\n    r3 <= u2\n    o <= r3\n    r1 <= not(s)\n    r2 <= not(t)\n",
        false,
    )
}

#[test]
fn dropped_wait_edge_is_s0601() {
    let netlist = sunk_diamond();
    // Non-elided registers keep every partition serial-conflicting, so
    // no partition is exempt and the exemption codes (S0602/S0604)
    // cannot fire: only the same-cycle coverage proof is in play.
    let (plan, layout, blocks, mut ds) = dep_setup(&netlist, false, 2);
    assert!(ds.worker_count() > 1, "fixture must spread across workers");
    // Only memberless partitions (empty footprint, no obligations) may
    // be exempt here: everything with compute touches a register word.
    assert!(
        ds.exempt
            .iter()
            .zip(&plan.partitions)
            .all(|(&e, part)| !e || part.members.is_empty()),
        "non-elided regs pin serial"
    );
    let (p, q) = (0..plan.partitions.len())
        .find_map(|p| ds.waits_same[p].first().map(|&q| (p, q)))
        .expect("the diamond join waits on a cross-worker producer");
    // Losing the one wait edge that orders the producer before the join
    // leaves their write/read overlap uncovered.
    ds.waits_same[p].retain(|&x| x != q);
    let report = check_depgraph(&netlist, &layout, &plan, &blocks, &ds);
    assert_only_s_code(&report, codes::DEP_EDGE_UNCOVERED);
}

#[test]
fn forged_exemption_is_s0602() {
    let netlist = diamond();
    // A single worker orders everything by list position: S0601/S0603
    // cannot fire, and an unsound exemption never reaches the S0604
    // cross-cycle proof (it is gated on S0602 passing).
    let (plan, layout, blocks, mut ds) = dep_setup(&netlist, false, 1);
    assert_eq!(ds.worker_count(), 1);
    // The partition computing `r1$next` writes a word the serial phase
    // reads for the register commit; claiming it may overlap the cycle
    // boundary fabricates independence.
    let p = plan.sched_of_signal[sid(&netlist, "s").index()] as usize;
    assert!(!ds.exempt[p]);
    ds.exempt[p] = true;
    let report = check_depgraph(&netlist, &layout, &plan, &blocks, &ds);
    assert_only_s_code(&report, codes::FABRICATED_OVERLAP);
}

#[test]
fn cyclic_wait_graph_is_s0603() {
    let netlist = diamond();
    let (plan, layout, blocks, mut ds) = dep_setup(&netlist, false, 2);
    let (p, q) = (0..plan.partitions.len())
        .find_map(|p| ds.waits_same[p].first().map(|&q| (p, q)))
        .expect("the diamond join waits on a cross-worker producer");
    // A reciprocal wait makes the two partitions wait on each other
    // within one cycle: the runtime would deadlock, and the verifier
    // must refuse before attempting any coverage proof over the cyclic
    // graph.
    ds.waits_same[q as usize].push(p as u32);
    let report = check_depgraph(&netlist, &layout, &plan, &blocks, &ds);
    assert_only_s_code(&report, codes::SCHEDULE_CYCLE);
}

#[test]
fn missing_cross_cycle_wait_is_s0604() {
    let netlist = diamond();
    // Default elision empties the serial phase, so every partition is
    // exempt and the cycle-boundary overlap machinery is fully engaged.
    let (plan, layout, blocks, mut ds) = dep_setup(&netlist, true, 2);
    assert!(ds.worker_count() > 1, "fixture must spread across workers");
    assert!(ds.exempt.iter().any(|&e| e), "elided diamond is all-exempt");
    let (p, q) = (0..plan.partitions.len())
        .find_map(|p| {
            if !ds.exempt[p] {
                return None;
            }
            ds.waits_prev[p]
                .iter()
                .find(|&&q| ds.worker_of[q as usize] != ds.worker_of[p])
                .map(|&q| (p, q))
        })
        .expect("an exempt leaf waits on its cross-worker consumer");
    // Without the cross-cycle wait, the leaf can recompute its outputs
    // for cycle k+1 while the consumer is still reading them in cycle k.
    ds.waits_prev[p].retain(|&x| x != q);
    let report = check_depgraph(&netlist, &layout, &plan, &blocks, &ds);
    assert_only_s_code(&report, codes::MISSING_CROSS_CYCLE_COVER);
}

#[test]
fn scrambled_worker_lists_are_s0605() {
    let netlist = diamond();
    let (plan, layout, blocks, mut ds) = dep_setup(&netlist, false, 2);
    let list = ds
        .workers
        .iter_mut()
        .find(|l| l.len() >= 2)
        .expect("two workers over several partitions share one list");
    // Descending list order breaks the done-counter prefix argument
    // (and disagrees with pos_of): the structural cover must refuse
    // before any ordering proof runs.
    list.swap(0, 1);
    let report = check_depgraph(&netlist, &layout, &plan, &blocks, &ds);
    assert_only_s_code(&report, codes::WORKER_COVER);
}

// --- J07: native-code (JIT) audit ------------------------------------

/// The emitted stream for one tier program (popcnt assumed present,
/// matching what the audit layer checks). The emitter is a pure byte
/// generator, so mutations exercise the decoder on any build host.
fn jit_stream(prog: &Tier1Program) -> essent_sim::jit::EmittedCode {
    essent_sim::jit::x64::emit(prog, true).expect("fixture is x64-eligible")
}

/// A cost table that selects every eligible partition of `progs`.
fn every_part(progs: &[Tier1Program]) -> Vec<u64> {
    vec![JIT_MIN_COST; progs.len()]
}

/// The fixture partition with a fused trigger tail — the stage for
/// flag-sink mutations.
fn fused_prog() -> Tier1Program {
    let netlist = diamond();
    let setup = tier_setup(&netlist, 1);
    setup
        .progs
        .into_iter()
        .find(|p| p.code.iter().any(|i| i.ws != NO_FUSE && i.we > i.ws))
        .expect("diamond at c_p=1 has a fused trigger with consumers")
}

#[test]
fn pristine_jit_streams_verify_clean() {
    for netlist in [
        chain(),
        diamond(),
        reg_late_readers(),
        mux_diamond(),
        twin_diamonds(),
    ] {
        for c_p in [1, 2, 64] {
            let setup = tier_setup(&netlist, c_p);
            for prog in &setup.progs {
                let report = check_jit(prog, &jit_stream(prog), 0);
                assert_eq!(report.error_count(), 0, "c_p={c_p}:\n{report}");
            }
            let plan = JitPlan::new(&setup.progs, &every_part(&setup.progs), true);
            let report = check_jit_plan(&setup.progs, &plan);
            assert_eq!(report.error_count(), 0, "c_p={c_p} plan:\n{report}");
        }
    }
}

#[test]
fn jit_corrupt_byte_is_j0701() {
    let netlist = chain();
    let setup = tier_setup(&netlist, 1);
    let prog = &setup.progs[0];
    let mut code = jit_stream(prog);
    // `push es` does not exist in 64-bit mode: an unrecognizable first
    // byte of the first instruction's span.
    let start = code.body_start() as usize;
    code.bytes[start] = 0x06;
    let report = check_jit(prog, &code, 0);
    assert!(report.contains(codes::JIT_DECODE), "{report}");
}

#[test]
fn jit_operand_drift_is_j0702() {
    let netlist = chain();
    let setup = tier_setup(&netlist, 1);
    let prog = &setup.progs[0];
    let mut code = jit_stream(prog);
    let (start, end) = (code.body_start() as usize, code.body_end() as usize);
    // `mov rax, [rdi + disp32]` — shift the arena load one word over, the
    // compiled analogue of a B0210 read drift.
    let i = (start..end.saturating_sub(6))
        .find(|&i| code.bytes[i..i + 3] == [0x48, 0x8B, 0x87])
        .expect("an arena load");
    let d = u32::from_le_bytes(code.bytes[i + 3..i + 7].try_into().unwrap());
    code.bytes[i + 3..i + 7].copy_from_slice(&(d + 8).to_le_bytes());
    let report = check_jit(prog, &code, 0);
    assert!(report.contains(codes::JIT_OPERAND), "{report}");
}

#[test]
fn jit_jump_escape_is_j0703() {
    let netlist = mux_diamond();
    let setup = tier_setup(&netlist, 1);
    let prog = setup
        .progs
        .iter()
        .find(|p| p.code.iter().any(|i| matches!(i.op, Op1::Jmp)))
        .expect("conditional mux lowers with a Jmp");
    let jmp = prog
        .code
        .iter()
        .position(|i| matches!(i.op, Op1::Jmp))
        .unwrap();
    let mut code = jit_stream(prog);
    let (s, e) = (code.marks[jmp].0 as usize, code.marks[jmp].1 as usize);
    // Retarget the `jmp rel32` far past the epilogue.
    let i = (s..e)
        .find(|&i| code.bytes[i] == 0xE9)
        .expect("E9 in Jmp span");
    let d = i32::from_le_bytes(code.bytes[i + 1..i + 5].try_into().unwrap());
    code.bytes[i + 1..i + 5].copy_from_slice(&(d + 0x400).to_le_bytes());
    let report = check_jit(prog, &code, 0);
    assert!(report.contains(codes::JIT_FLOW), "{report}");
}

/// The first wake (`or byte [rsi + disp32], imm8`) of [`fused_prog`]'s
/// stream: the stream, and the wake's offset in it.
fn first_wake(prog: &Tier1Program) -> (essent_sim::jit::EmittedCode, usize) {
    let code = jit_stream(prog);
    let (start, end) = (code.body_start() as usize, code.body_end() as usize);
    let at = (start..end.saturating_sub(6))
        .find(|&i| code.bytes[i..i + 2] == [0x80, 0x8E])
        .expect("a wake in the fused tail");
    (code, at)
}

#[test]
fn jit_flag_sink_drift_is_j0704() {
    let prog = fused_prog();
    let (mut code, at) = first_wake(&prog);
    // The displacement one byte over: the same bit of the consumer eight
    // partitions later, the compiled analogue of a B0211 consumer-set
    // drift.
    let d = u32::from_le_bytes(code.bytes[at + 2..at + 6].try_into().unwrap());
    code.bytes[at + 2..at + 6].copy_from_slice(&(d + 1).to_le_bytes());
    let report = check_jit(&prog, &code, 0);
    assert!(report.contains(codes::JIT_FUSE), "{report}");
}

#[test]
fn jit_wake_bit_moved_to_another_consumer_is_j0704() {
    let prog = fused_prog();
    let (mut code, at) = first_wake(&prog);
    // The same byte, the neighbouring bit: still one activity bit, of a
    // partition the program does not name.
    code.bytes[at + 6] = code.bytes[at + 6].rotate_left(1);
    let report = check_jit(&prog, &code, 0);
    assert_eq!(report.codes(), vec![codes::JIT_FUSE], "{report}");
}

#[test]
fn jit_wake_imm_not_a_power_of_two_is_j0701() {
    let prog = fused_prog();
    let (mut code, at) = first_wake(&prog);
    // Two bits at once wakes two partitions from one site: no wake the
    // vocabulary has.
    code.bytes[at + 6] |= code.bytes[at + 6].rotate_left(1);
    let report = check_jit(&prog, &code, 0);
    assert_eq!(report.codes(), vec![codes::JIT_DECODE], "{report}");
}

#[test]
fn jit_byte_flag_store_is_j0701() {
    let prog = fused_prog();
    let (mut code, at) = first_wake(&prog);
    // The byte-flag wake the engines no longer read, `mov byte [rsi + c],
    // 1` — seven bytes, like the bit `or` it replaced.
    let fused = prog.code.iter().find(|i| i.ws != NO_FUSE).unwrap();
    let consumer = prog.consumers[fused.ws as usize];
    code.bytes[at..at + 2].copy_from_slice(b"\xC6\x86");
    code.bytes[at + 2..at + 6].copy_from_slice(&consumer.to_le_bytes());
    code.bytes[at + 6] = 0x01;
    let report = check_jit(&prog, &code, 0);
    assert_eq!(report.codes(), vec![codes::JIT_DECODE], "{report}");
}

// The x86-64 body shape's own facts: result masks as `and eax, imm`,
// operands forwarded through the accumulator, counters added once per
// straight-line run, and branch-free `Mux`. One exact-code mutation each.

/// A hand-laid program with every one of them, over arena words 0..=7:
///
/// ```text
/// 0: w2 = !w0            (16 bits: `and eax, imm32`)
/// 1: w3 = w2 + w1        (`a` forwarded; fused, wakes partition 1)
/// 2: if !w0 goto 4
/// 3: w5 = w1
/// 4: w6 = !w5            (jump target: reloads w5 though 3 wrote it)
/// 5: w7 = w6 ? w1 : w2   (selector forwarded; `cmovz`)
/// ```
fn forwarding_prog() -> Tier1Program {
    use essent_sim::step1::Inst1;
    let code = vec![
        Inst1::new(Op1::Not, 2, 0xFFFF),
        Inst1 {
            a: 2,
            b: 1,
            ws: 0,
            we: 1,
            ..Inst1::new(Op1::Add, 3, u64::MAX)
        },
        Inst1 {
            a: 4,
            b: 0,
            ..Inst1::new(Op1::JmpIf0, 0, 0)
        },
        Inst1 {
            a: 1,
            ..Inst1::new(Op1::Ext, 5, u64::MAX)
        },
        Inst1 {
            a: 5,
            ..Inst1::new(Op1::Not, 6, u64::MAX)
        },
        Inst1 {
            a: 6,
            b: 1,
            c: 2,
            ..Inst1::new(Op1::Mux, 7, u64::MAX)
        },
    ];
    Tier1Program {
        sigs: vec![u32::MAX; code.len()],
        code,
        generic: Vec::new(),
        consumers: vec![1],
        unfused: Vec::new(),
        unabsorbed: Vec::new(),
        stats: Default::default(),
    }
}

/// The stream of [`forwarding_prog`], pristine.
fn forwarding_code(prog: &Tier1Program) -> essent_sim::jit::EmittedCode {
    let code = jit_stream(prog);
    let report = check_jit(prog, &code, 0);
    assert_eq!(report.error_count(), 0, "pristine:\n{report}");
    code
}

/// Offset of the first occurrence of `pattern` inside instruction `pc`.
fn find_in(code: &essent_sim::jit::EmittedCode, pc: usize, pattern: &[u8]) -> usize {
    let (s, e) = (code.marks[pc].0 as usize, code.marks[pc].1 as usize);
    (s..=e - pattern.len())
        .find(|&i| code.bytes[i..i + pattern.len()] == *pattern)
        .unwrap_or_else(|| panic!("{pattern:02x?} not in instruction {pc}"))
}

#[test]
fn jit_corrupt_mask_immediate_is_j0702() {
    let prog = forwarding_prog();
    let mut code = forwarding_code(&prog);
    // `and eax, 0xFFFF` -> `and eax, 0x7FFF`: bit 15 of the result lost.
    let at = find_in(&code, 0, &[0x25, 0xFF, 0xFF, 0x00, 0x00]);
    code.bytes[at + 2] = 0x7F;
    let report = check_jit(&prog, &code, 0);
    assert_eq!(report.codes(), vec![codes::JIT_OPERAND], "{report}");
}

#[test]
fn jit_forward_of_the_wrong_word_is_j0702() {
    let mut prog = forwarding_prog();
    let mut code = forwarding_code(&prog);
    // Instruction 0 now stores to w4 — in the program and in the bytes,
    // so it is consistent with itself — while instruction 1 still takes
    // its `a` (w2) from the accumulator: the forward has no basis.
    let at = find_in(&code, 0, &[0x48, 0x89, 0x87, 2 * 8, 0, 0, 0]);
    code.bytes[at + 3] = 4 * 8;
    prog.code[0].dst = 4;
    let report = check_jit(&prog, &code, 0);
    assert_eq!(report.codes(), vec![codes::JIT_OPERAND], "{report}");
    assert_eq!(
        report.error_count(),
        1,
        "only instruction 1's load:\n{report}"
    );
}

#[test]
fn jit_wrong_run_count_is_j0702() {
    let prog = forwarding_prog();
    let mut code = forwarding_code(&prog);
    // The first run (instructions 0..=2) counts two ops, added before
    // the jump: `add r8, 2` -> `add r8, 3`.
    let at = find_in(&code, 2, &[0x49, 0x83, 0xC0, 2]);
    code.bytes[at + 3] = 3;
    let report = check_jit(&prog, &code, 0);
    assert_eq!(report.codes(), vec![codes::JIT_OPERAND], "{report}");
}

#[test]
fn jit_cmovnz_is_j0701() {
    let prog = forwarding_prog();
    let mut code = forwarding_code(&prog);
    // `cmovz rax, rcx` -> `cmovnz rax, rcx` selects the other way; the
    // decoder's vocabulary has only the former.
    let at = find_in(&code, 5, &[0x48, 0x0F, 0x44, 0xC1]);
    code.bytes[at + 2] = 0x45;
    let report = check_jit(&prog, &code, 0);
    assert_eq!(report.codes(), vec![codes::JIT_DECODE], "{report}");
}

#[test]
fn jit_missing_reload_at_jump_target_is_j0702() {
    let prog = forwarding_prog();
    let mut code = forwarding_code(&prog);
    // Instruction 4's `mov rax, [w5]` replaced, byte for byte, by
    // encodings that load nothing (`test rcx, rcx; xor edx, edx` twice):
    // correct when 3 falls through, wrong when 2 jumps.
    let at = find_in(&code, 4, &[0x48, 0x8B, 0x87, 5 * 8, 0, 0, 0]);
    code.bytes[at..at + 7].copy_from_slice(&[0x48, 0x85, 0xC9, 0x31, 0xD2, 0x31, 0xD2]);
    let report = check_jit(&prog, &code, 0);
    assert_eq!(report.codes(), vec![codes::JIT_OPERAND], "{report}");
}

// Shared bodies: one record-form body per program shape, each member
// resolved through its own operand record. One exact-code mutation each.

/// [`diamond`] instantiated twice: every partition of one copy has a
/// congruent partition in the other, so the copies share bodies —
/// with fused wakes among them.
fn twin_diamonds() -> Netlist {
    build(
        "circuit T :\n  module D :\n    input clock : Clock\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<8>\n    reg r1 : UInt<8>, clock\n    reg r2 : UInt<8>, clock\n    node s = xor(r1, a)\n    node t = xor(r2, b)\n    node u1 = and(s, t)\n    node u2 = or(u1, t)\n    o <= u2\n    r1 <= not(s)\n    r2 <= not(t)\n  module T :\n    input clock : Clock\n    input a0 : UInt<8>\n    input b0 : UInt<8>\n    input a1 : UInt<8>\n    input b1 : UInt<8>\n    output o0 : UInt<8>\n    output o1 : UInt<8>\n    inst d0 of D\n    inst d1 of D\n    d0.clock <= clock\n    d1.clock <= clock\n    d0.a <= a0\n    d0.b <= b0\n    d1.a <= a1\n    d1.b <= b1\n    o0 <= d0.o\n    o1 <= d1.o\n",
        false,
    )
}

/// [`twin_diamonds`]' programs and their plan (every eligible partition,
/// popcnt present), checked clean, and the members of the first shared
/// body whose stream wakes a partition.
fn shared_plan() -> (Vec<Tier1Program>, JitPlan, Vec<usize>) {
    let setup = tier_setup(&twin_diamonds(), 1);
    let plan = JitPlan::new(&setup.progs, &every_part(&setup.progs), true);
    let report = check_jit_plan(&setup.progs, &plan);
    assert_eq!(report.error_count(), 0, "pristine:\n{report}");
    let body = (0..plan.bodies.len())
        .find(|&b| {
            let members = plan.parts.iter().flatten().filter(|p| p.body == b).count();
            members > 1 && plan.bodies[b].bytes.windows(4).any(|w| w == WAKE_OR)
        })
        .expect("a shared body with a wake");
    let members = (0..plan.parts.len())
        .filter(|&p| plan.parts[p].as_ref().is_some_and(|part| part.body == body))
        .collect();
    (setup.progs, plan, members)
}

/// `or [rsi + r11], dl`: a recorded wake.
const WAKE_OR: [u8; 4] = [0x42, 0x08, 0x14, 0x1E];

/// Partition `partition`'s operand record, to corrupt.
fn record_of(plan: &mut JitPlan, partition: usize) -> &mut [u32] {
    let (start, end) = plan.parts[partition].unwrap().record;
    &mut plan.records[start as usize..end as usize]
}

#[test]
fn shared_body_arena_slot_drift_is_j0702_for_that_member_only() {
    let (progs, mut plan, members) = shared_plan();
    let victim = members[1];
    // The first slot is the body's first arena access: one word over.
    record_of(&mut plan, victim)[0] += 8;
    let report = check_jit_plan(&progs, &plan);
    assert_eq!(report.codes(), vec![codes::JIT_OPERAND], "{report}");
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.partition == Some(victim)),
        "{report}"
    );
}

#[test]
fn shared_body_wake_record_drift_is_j0704() {
    let (progs, mut plan, members) = shared_plan();
    let body = plan.parts[members[0]].as_ref().unwrap().body;
    // The `mov edx, [r10 + disp8]` before the first recorded wake names
    // the slot of its bit mask: the neighbouring bit of the same byte is
    // another partition's.
    let bytes = &plan.bodies[body].bytes;
    let at = bytes.windows(4).position(|w| w == WAKE_OR).unwrap();
    assert_eq!(bytes[at - 4..at - 1], [0x41, 0x8B, 0x52]);
    let mask_slot = bytes[at - 1] as usize / 4;
    let mask = &mut record_of(&mut plan, members[0])[mask_slot];
    *mask = (*mask as u8).rotate_left(1) as u32;
    let report = check_jit_plan(&progs, &plan);
    assert_eq!(report.codes(), vec![codes::JIT_FUSE], "{report}");
}

#[test]
fn shared_body_corrupt_byte_is_j0701_once_for_the_body() {
    let (progs, mut plan, members) = shared_plan();
    let body = plan.parts[members[0]].as_ref().unwrap().body;
    let code = &mut plan.bodies[body];
    let start = code.body_start() as usize;
    code.bytes[start] = 0x06; // `push es`: not in 64-bit mode
    let report = check_jit_plan(&progs, &plan);
    assert_eq!(report.codes(), vec![codes::JIT_DECODE], "{report}");
    assert_eq!(
        report.error_count(),
        1,
        "one finding, for the body:\n{report}"
    );
    assert!(
        report.diagnostics[0].message.starts_with("shared body "),
        "{report}"
    );
}

#[test]
fn shared_body_access_without_its_slot_load_is_j0701() {
    let (progs, mut plan, members) = shared_plan();
    let body = plan.parts[members[0]].as_ref().unwrap().body;
    let code = &mut plan.bodies[body];
    // The first `mov r11d, [r10 + disp8]` becomes `xor edx, edx` twice:
    // the `[rdi + r11]` after it would use whatever `r11` held.
    let start = code.body_start() as usize;
    assert_eq!(code.bytes[start..start + 3], [0x45, 0x8B, 0x5A]);
    code.bytes[start..start + 4].copy_from_slice(&[0x31, 0xD2, 0x31, 0xD2]);
    let report = check_jit_plan(&progs, &plan);
    assert_eq!(report.codes(), vec![codes::JIT_DECODE], "{report}");
}

// ---------------------------------------------------------------------------
// Layer nine: wake-table audit (X0801, X0802)
// ---------------------------------------------------------------------------
//
// The routing corruptions mutate the wake table the front end resolves
// and all three engines run from (or the programs and state table it
// complements): a consumer dropped from a watched output or a `Commit`
// is a partition that sleeps through a change on every engine at once, a
// watch moved off the partition's writes a compare that can never fire,
// a `plain` bit set wrongly a wake that skips its compare altogether.

use essent_sim::frontend::{build_plan, Frontend};
use essent_verify::check_wake_table;

/// The front end's compilation of the plan `config` runs sequentially.
fn wake_setup(netlist: &Netlist, config: &EngineConfig) -> (Layout, CcssPlan, Frontend) {
    let plan = build_plan(netlist, config, config.elide_state);
    let layout = Layout::new(netlist);
    let front = Frontend::compile(netlist, &layout, &plan, config, false);
    (layout, plan, front)
}

/// A 100-bit node read by two output cones: at `c_p = 1` it is a
/// cross-partition output too wide to fuse, so the wake table watches it.
fn wide_fanout() -> Netlist {
    build(
        "circuit F :\n  module F :\n    input clock : Clock\n    input a : UInt<100>\n    input b : UInt<100>\n    output o1 : UInt<100>\n    output o2 : UInt<100>\n    node s = xor(a, b)\n    o1 <= and(s, a)\n    o2 <= or(s, b)\n",
        false,
    )
}

fn at_cp(c_p: usize) -> EngineConfig {
    EngineConfig {
        c_p,
        ..EngineConfig::default()
    }
}

#[test]
fn pristine_wake_tables_verify_clean() {
    let base = EngineConfig::default();
    let configs = [
        at_cp(1),
        base.clone(),
        // Fusion off: every output routes through the table.
        EngineConfig {
            fuse_triggers: false,
            ..at_cp(1)
        },
        // Pull direction: no partition is plain, inputs are watched.
        EngineConfig {
            trigger_push: false,
            ..at_cp(1)
        },
        EngineConfig {
            elide_state: false,
            ..base.clone()
        },
    ];
    for netlist in [chain(), diamond(), memful(), wide_fanout(), wide_reg()] {
        for config in &configs {
            let (layout, plan, front) = wake_setup(&netlist, config);
            let report = check_wake_table(&layout, &plan, &front);
            assert!(report.is_empty(), "{config:?}:\n{report}");
            // The dataflow engine's plan: memory-write elision off.
            let par_plan = build_plan(&netlist, config, false);
            let par = Frontend::compile(&netlist, &layout, &par_plan, config, false);
            let report = check_wake_table(&layout, &par_plan, &par);
            assert!(report.is_empty(), "dataflow {config:?}:\n{report}");
        }
    }
}

#[test]
fn wake_table_dropped_consumer_is_x0802() {
    let netlist = wide_fanout();
    let (layout, plan, mut front) = wake_setup(&netlist, &at_cp(1));
    let out = front
        .wake
        .outputs
        .iter_mut()
        .find(|o| o.wake.1 > o.wake.0)
        .expect("`s` is an unfused output with consumers");
    // The consumer's partition would sleep through a change of `s`.
    out.wake.1 -= 1;
    let report = check_wake_table(&layout, &plan, &front);
    assert_eq!(report.codes(), vec![codes::WAKE_ROUTE], "{report}");
}

#[test]
fn wake_table_offset_outside_footprint_is_x0801() {
    let netlist = wide_fanout();
    let (layout, plan, mut front) = wake_setup(&netlist, &at_cp(1));
    // Redirect a watch to an input's arena slot — words no partition
    // writes, so the compare could never fire.
    let input_off = layout.offset(sid(&netlist, "a")) as u32;
    let out = front
        .wake
        .outputs
        .first_mut()
        .expect("`s` is an unfused output");
    out.off = input_off;
    let report = check_wake_table(&layout, &plan, &front);
    assert_eq!(report.codes(), vec![codes::WAKE_WATCH], "{report}");
}

#[test]
fn wake_table_wrong_plain_bit_is_x0802() {
    let netlist = wide_fanout();
    let (layout, plan, mut front) = wake_setup(&netlist, &at_cp(1));
    let sched = (0..plan.partitions.len())
        .find(|&p| !front.wake.outputs(p).is_empty())
        .expect("`s`'s partition has an unfused output");
    assert!(!front.wake.plain[sched]);
    // A plain wake runs the program alone: the watched output would
    // never be compared.
    front.wake.plain[sched] = true;
    let report = check_wake_table(&layout, &plan, &front);
    assert_eq!(report.codes(), vec![codes::WAKE_ROUTE], "{report}");
}

#[test]
fn commit_dropped_consumer_is_x0802() {
    let netlist = diamond();
    let (layout, plan, mut front) = wake_setup(&netlist, &at_cp(1));
    let commit = front
        .programs
        .iter_mut()
        .flat_map(|p| &mut p.code)
        .find(|i| i.op == Op1::Commit && i.we > i.ws)
        .expect("diamond elides a register with a reader to wake");
    // The register's reader would sleep through its change.
    commit.we -= 1;
    let report = check_wake_table(&layout, &plan, &front);
    assert_eq!(report.codes(), vec![codes::WAKE_ROUTE], "{report}");
}

// ---------------------------------------------------------------------------
// The full stack audits what the configuration runs
// ---------------------------------------------------------------------------

/// `verify_design_full` must audit the plan the engines build for the
/// config it is given: with state elision off that plan elides no
/// register, exactly as `EssentSim`'s.
#[test]
fn full_verify_audits_the_plan_the_config_runs() {
    let netlist = diamond();
    for elide_state in [true, false] {
        let config = EngineConfig {
            elide_state,
            ..EngineConfig::default()
        };
        let artifacts = essent_verify::verify_design_full(&netlist, &config);
        assert!(artifacts.report.is_clean(), "{}", artifacts.report);
        let audited = artifacts.plan.expect("an acyclic design is planned");
        let sim = essent_sim::EssentSim::new(&netlist, &config);
        let elided =
            |plan: &CcssPlan| -> Vec<bool> { plan.reg_plans.iter().map(|r| r.elided).collect() };
        assert_eq!(elided(&audited), elided(sim.plan()), "elide={elide_state}");
        assert_eq!(elided(&audited).contains(&true), elide_state);
    }
}
