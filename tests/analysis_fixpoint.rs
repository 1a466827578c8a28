//! The register fixpoint of `analysis::analyze` re-evaluates only what
//! changed since the previous sweep. Transfer functions are pure, so it
//! must produce exactly the facts of the plain formulation that runs
//! every transfer function in every sweep — kept here as the reference.
//! Likewise `demand::demanded_widths` visits only the operands whose
//! demand rose; the reference re-walks the whole reverse topological
//! order every sweep, with the same sweep cap.

use essent::bits::Bits;
use essent::designs::soc::{generate_soc, SocConfig};
use essent::netlist::analysis::{
    self, transfer, AbsVal, MAX_SWEEPS, RANGE_WIDEN_SWEEP, TOP_WIDEN_SWEEP,
};
use essent::netlist::{graph, Netlist, OpKind, SignalDef, SignalId};
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
    (values, full_sweep_demand(netlist, &order), sweeps)
}

/// Demanded widths by whole reverse-topological sweeps until none
/// changes; past 64 sweeps every signal is demanded in full.
fn full_sweep_demand(netlist: &Netlist, order: &[SignalId]) -> Vec<u32> {
    let mut demand = vec![0u32; netlist.signal_count()];
    let mut full = |id: SignalId| demand[id.index()] = netlist.signal(id).width;
    for &o in netlist.outputs() {
        full(o);
    }
    for s in netlist.stops() {
        full(s.en);
    }
    for p in netlist.printfs() {
        full(p.en);
        p.args.iter().for_each(|&a| full(a));
    }
    for m in netlist.mems() {
        for r in &m.readers {
            full(r.addr);
            full(r.en);
        }
        for w in &m.writers {
            [w.addr, w.en, w.mask, w.data]
                .into_iter()
                .for_each(&mut full);
        }
    }
    for sweep in 0.. {
        if sweep >= 64 {
            for (i, s) in netlist.signals().iter().enumerate() {
                demand[i] = s.width;
            }
            break;
        }
        let mut changed = false;
        for reg in netlist.regs() {
            let d = demand[reg.out.index()];
            if demand[reg.next.index()] < d {
                demand[reg.next.index()] = d.min(netlist.signal(reg.next).width);
                changed = true;
            }
        }
        for &id in order.iter().rev() {
            let d = demand[id.index()];
            let SignalDef::Op(op) = &netlist.signal(id).def else {
                continue;
            };
            if d == 0 {
                continue;
            }
            let mut bump = |arg: SignalId, want: u32| {
                let want = want.min(netlist.signal(arg).width);
                if demand[arg.index()] < want {
                    demand[arg.index()] = want;
                    changed = true;
                }
            };
            let signed = |a: SignalId| netlist.signal(a).signed;
            use OpKind::*;
            match op.kind {
                Add | Sub | Mul | Neg | Not | And | Or | Xor | Copy => {
                    let w = if signed(op.args[0]) { u32::MAX } else { d };
                    op.args.iter().for_each(|&a| bump(a, w));
                }
                Shl => bump(op.args[0], d.saturating_sub(op.params[0] as u32)),
                Shr => {
                    let w = if signed(op.args[0]) {
                        u32::MAX
                    } else {
                        d.saturating_add(op.params[0].min(u32::MAX as u64) as u32)
                    };
                    bump(op.args[0], w);
                }
                Dshl => {
                    bump(op.args[0], d);
                    bump(op.args[1], u32::MAX);
                }
                Bits => {
                    let (hi, lo) = (op.params[0] as u32, op.params[1] as u32);
                    bump(op.args[0], (lo + d).min(hi + 1));
                }
                Mux => {
                    bump(op.args[0], 1);
                    for &way in &op.args[1..] {
                        bump(way, if signed(way) { u32::MAX } else { d });
                    }
                }
                Lt | Leq | Gt | Geq | Eq | Neq | Div | Rem | Dshr | Cat | Andr | Orr | Xorr => {
                    op.args.iter().for_each(|&a| bump(a, u32::MAX));
                }
            }
        }
        if !changed {
            break;
        }
    }
    demand
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

/// A register chain deeper than the demand sweep cap: the narrow demand
/// at its end would need one sweep per register to travel back, so both
/// formulations give up and demand every signal in full.
#[test]
fn deep_register_chain_saturates_demand() {
    let mut source = String::from(
        "circuit D :\n  module D :\n    input clock : Clock\n    input x : UInt<8>\n    output o : UInt<4>\n",
    );
    for i in 0..70 {
        source += &format!("    reg r{i} : UInt<8>, clock\n");
    }
    source += "    r0 <= x\n";
    for i in 1..70 {
        source += &format!("    r{i} <= r{}\n", i - 1);
    }
    source += "    o <= bits(r69, 3, 0)\n";
    let netlist = essent::compile_unoptimized(&source).expect("compiles");
    assert_same_facts(&netlist, "deep chain");
    let facts = analysis::analyze(&netlist).expect("acyclic");
    let r0 = netlist.regs()[0].out;
    assert_eq!(facts.demanded(r0), 8, "saturated, not the 4 bits read");
}

/// FNV-1a over little-endian words, the hash `opt_digest.rs` uses.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn i128(&mut self, v: i128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    fn words(&mut self, words: &[u64]) {
        self.u64(words.len() as u64);
        for &w in words {
            self.u64(w);
        }
    }
}

/// FNV-1a over every fact of an analysis: per signal its width,
/// signedness, known-zero and known-one masks, range and demanded
/// width, then the sweep count.
fn facts_digest(facts: &analysis::Analysis) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(facts.values.len() as u64);
    for (v, &demanded) in facts.values.iter().zip(&facts.demanded) {
        h.u64(u64::from(v.width));
        h.u64(u64::from(v.signed));
        h.words(&v.zeros);
        h.words(&v.ones);
        match v.range {
            Some((lo, hi)) => {
                h.u64(1);
                h.i128(lo);
                h.i128(hi);
            }
            None => h.u64(0),
        }
        h.u64(u64::from(demanded));
    }
    h.u64(facts.sweeps as u64);
    h.0
}

/// The facts of the unoptimised SoC netlists are pinned by digest:
/// `opt_digest` sees only the folds the facts enable, while the
/// `L0006`–`L0009` lints read every one of them. A change to the
/// fixpoint or to the abstract domain's representation that keeps its
/// answers must pass this unchanged.
#[test]
fn soc_analysis_facts_are_pinned() {
    for (config, sweeps, expected) in [
        (SocConfig::tiny(), 9, 0x200c_adc8_3513_cef1),
        (SocConfig::r16(), 11, 0x8e69_c095_0075_6e16),
        (SocConfig::r18(), 13, 0xf827_8a7a_5a7f_9950),
        (SocConfig::boom(), 15, 0x962b_5d51_253c_3923),
    ] {
        let netlist = essent::compile_unoptimized(&generate_soc(&config)).expect("builds");
        let facts = analysis::analyze(&netlist).expect("acyclic");
        assert_eq!(
            (facts.sweeps, facts_digest(&facts)),
            (sweeps, expected),
            "design `{}`",
            config.name
        );
    }
}
