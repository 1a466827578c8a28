//! The register fixpoint of `analysis::analyze` re-evaluates only what
//! changed since the previous sweep. Transfer functions are pure, so it
//! must produce exactly the facts of the plain formulation that runs
//! every transfer function in every sweep — kept here as the reference.

use essent::bits::Bits;
use essent::designs::soc::{generate_soc, SocConfig};
use essent::netlist::analysis::{
    self, demand, transfer, AbsVal, MAX_SWEEPS, RANGE_WIDEN_SWEEP, TOP_WIDEN_SWEEP,
};
use essent::netlist::{graph, Netlist, SignalDef};
use essent::sim::testgen::gen_circuit;

/// `(values, demanded, sweeps)` from full sweeps only.
fn full_sweep_reference(netlist: &Netlist) -> (Vec<AbsVal>, Vec<u32>, usize) {
    let order = graph::topo_order(netlist).expect("acyclic");
    let mut values: Vec<AbsVal> = netlist
        .signals()
        .iter()
        .map(|s| AbsVal::top(s.width, s.signed))
        .collect();
    let mut reg_abs: Vec<AbsVal> = netlist
        .regs()
        .iter()
        .map(|r| AbsVal::exact(&Bits::zero(r.width), r.signed))
        .collect();
    let sweep = |reg_abs: &[AbsVal], values: &mut Vec<AbsVal>| {
        for &id in &order {
            let sig = netlist.signal(id);
            values[id.index()] = match &sig.def {
                SignalDef::Input | SignalDef::MemRead { .. } => AbsVal::top(sig.width, sig.signed),
                SignalDef::Const(c) => AbsVal::exact(c, sig.signed),
                SignalDef::RegOut(r) => transfer::cast(&reg_abs[r.index()], sig.width, sig.signed),
                SignalDef::Op(op) => {
                    let srcs: Vec<&AbsVal> = op.args.iter().map(|a| &values[a.index()]).collect();
                    transfer::transfer(op.kind, &op.params, sig.width, sig.signed, &srcs)
                }
            };
        }
    };
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        sweep(&reg_abs, &mut values);
        let mut changed = false;
        for (i, reg) in netlist.regs().iter().enumerate() {
            let next = transfer::cast(&values[reg.next.index()], reg.width, reg.signed);
            let mut joined = reg_abs[i].join(&next);
            if joined != reg_abs[i] {
                if sweeps >= TOP_WIDEN_SWEEP {
                    joined = AbsVal::top(reg.width, reg.signed);
                } else if sweeps >= RANGE_WIDEN_SWEEP {
                    joined.widen_range();
                }
                changed |= joined != reg_abs[i];
                reg_abs[i] = joined;
            }
        }
        if !changed {
            break;
        }
        if sweeps >= MAX_SWEEPS {
            for (i, reg) in netlist.regs().iter().enumerate() {
                reg_abs[i] = AbsVal::top(reg.width, reg.signed);
            }
            sweeps += 1;
            sweep(&reg_abs, &mut values);
            break;
        }
    }
    (values, demand::demanded_widths(netlist, &order), sweeps)
}

fn assert_same_facts(netlist: &Netlist, what: &str) -> usize {
    let facts = analysis::analyze(netlist).expect("acyclic");
    let (values, demanded, sweeps) = full_sweep_reference(netlist);
    assert_eq!(facts.sweeps, sweeps, "{what}: sweeps");
    assert_eq!(facts.demanded, demanded, "{what}: demanded widths");
    for (i, (got, want)) in facts.values.iter().zip(&values).enumerate() {
        assert_eq!(got, want, "{what}: signal `{}`", netlist.signals()[i].name);
    }
    sweeps
}

#[test]
fn change_driven_fixpoint_matches_full_sweeps_on_generated_circuits() {
    let mut multi_sweep = 0;
    for seed in 0..150 {
        let source = gen_circuit(seed).source;
        let raw = essent::compile_unoptimized(&source).expect("compiles");
        multi_sweep += (assert_same_facts(&raw, &format!("seed {seed}")) > 2) as usize;
        let optimized = essent::compile(&source).expect("compiles");
        assert_same_facts(&optimized, &format!("seed {seed}, optimized"));
    }
    assert!(multi_sweep >= 30, "only {multi_sweep} circuits iterate");
}

#[test]
fn change_driven_fixpoint_matches_full_sweeps_on_r16() {
    let source = generate_soc(&SocConfig::r16());
    let raw = essent::compile_unoptimized(&source).expect("compiles");
    assert_same_facts(&raw, "r16");
    let optimized = essent::compile(&source).expect("compiles");
    assert_same_facts(&optimized, "r16, optimized");
}

/// A shift chain deeper than `MAX_SWEEPS` never settles on its own (the
/// input's ⊤ moves one register further per sweep), so the fixpoint
/// takes the give-up path: every register to ⊤, then one more sweep.
#[test]
fn deep_shift_chain_takes_the_give_up_path() {
    let mut source = String::from(
        "circuit S :\n  module S :\n    input clock : Clock\n    input x : UInt<8>\n    output o : UInt<8>\n",
    );
    for i in 0..20 {
        source += &format!("    reg r{i} : UInt<8>, clock\n");
    }
    source += "    r0 <= x\n";
    for i in 1..20 {
        source += &format!("    r{i} <= r{}\n", i - 1);
    }
    source += "    o <= r19\n";
    let netlist = essent::compile_unoptimized(&source).expect("compiles");
    assert_eq!(assert_same_facts(&netlist, "shift chain"), MAX_SWEEPS + 1);
    let facts = analysis::analyze(&netlist).expect("acyclic");
    for reg in netlist.regs() {
        assert_eq!(facts.value(reg.out), &AbsVal::top(8, false), "{}", reg.name);
    }
}
