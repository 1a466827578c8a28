//! The compiled-bytecode verifier (the `B____` diagnostic family):
//! checks the flat [`Block`]/[`Item`]/[`Step`] streams the engines
//! execute against the netlist and the arena [`Layout`] they were
//! compiled from.
//!
//! Checked properties:
//!
//! * **layout soundness** — every signal's arena slot is correctly
//!   sized and no two slots overlap;
//! * **reference validity** — every [`ArgRef`]/[`DstRef`] points at the
//!   slot of exactly the signal the defining operation names, in bounds,
//!   with matching width and signedness;
//! * **arity** — a step carries exactly the operands its op requires;
//! * **coverage** — every computed signal is compiled exactly once, and
//!   every block ends with exactly its partition's elided register
//!   commits (slots, plan index and consumers re-derived from the plan);
//! * **def-before-use** — along the schedule order (including into
//!   conditional mux ways), no step reads a computed value before the
//!   step defining it;
//! * **memory indices** — `MemRead` steps name existing banks/ports;
//! * **tier-1 audit** (`B0210`–`B0212`) — the word-specialized program a
//!   block lowers to decodes exactly as an independent re-derivation from
//!   the netlist and layout demands: opcode selection, operand offsets,
//!   sign-extension shifts, masks, and static parameters (`B0210`), the
//!   block's single-word commits closing the stream as `Commit`
//!   instructions; every fused trigger write carries precisely the plan's
//!   consumer set and every unfused output stays on the engine's
//!   snapshot-compare path, every commit instruction carries its
//!   register's consumers and every other commit stays on the engine's
//!   state table (`B0211`); all jumps are strictly forward and join the conditional
//!   diamond where the item structure says they must, so termination is
//!   proven structurally (`B0212`).

use essent_core::diag::{codes, Diagnostic, Report};
use essent_core::plan::CcssPlan;
use essent_netlist::{Netlist, OpKind, SignalDef, SignalId};
use essent_sim::compile::{ArgRef, Block, Commit, DstRef, Item, Layout, Step, StepKind};
use essent_sim::step1::{Inst1, Op1, OutSpec, Tier1Program, NO_FUSE};
use std::collections::HashMap;

/// Checks that the arena layout covers every signal with a correctly
/// sized, non-overlapping word range.
pub fn check_layout(netlist: &Netlist, layout: &Layout) -> Report {
    let mut report = Report::new();
    let total = layout.total_words();
    // Occupancy map: detects overlap in one pass instead of O(n^2).
    let mut owner: Vec<Option<u32>> = vec![None; total];
    for (i, s) in netlist.signals().iter().enumerate() {
        let sig = SignalId(i as u32);
        let off = layout.offset(sig);
        let words = layout.words(sig);
        if words != essent_bits::words(s.width) {
            report.push(
                Diagnostic::error(
                    codes::WIDTH_MISMATCH,
                    format!(
                        "slot of `{}` is {} word(s), {}-bit value needs {}",
                        s.name,
                        words,
                        s.width,
                        essent_bits::words(s.width)
                    ),
                )
                .with_signal(s.name.clone()),
            );
        }
        if off + words > total {
            report.push(
                Diagnostic::error(
                    codes::LAYOUT_OVERLAP,
                    format!(
                        "slot of `{}` ([{}..{})) exceeds the {}-word arena",
                        s.name,
                        off,
                        off + words,
                        total
                    ),
                )
                .with_signal(s.name.clone()),
            );
            continue;
        }
        for (w, slot) in owner[off..off + words].iter_mut().enumerate() {
            if let Some(other) = *slot {
                report.push(
                    Diagnostic::error(
                        codes::LAYOUT_OVERLAP,
                        format!(
                            "slot of `{}` overlaps slot of `{}` at word {}",
                            s.name,
                            netlist.signal(SignalId(other)).name,
                            off + w
                        ),
                    )
                    .with_signal(s.name.clone()),
                );
                break;
            }
            *slot = Some(i as u32);
        }
    }
    report
}

/// Verifies compiled blocks against the netlist and layout.
///
/// `plan` provides the expected block-to-partition correspondence; pass
/// `None` for a full-cycle compilation (one block covering the whole
/// design).
pub fn check_blocks(
    netlist: &Netlist,
    layout: &Layout,
    blocks: &[Block],
    plan: Option<&CcssPlan>,
) -> Report {
    let mut report = Report::new();
    if let Some(plan) = plan {
        if blocks.len() != plan.partitions.len() {
            report.push(Diagnostic::error(
                codes::STEP_MISSING,
                format!(
                    "{} compiled block(s) for {} scheduled partition(s)",
                    blocks.len(),
                    plan.partitions.len()
                ),
            ));
        }
    }

    const UNDEFINED: u32 = u32::MAX;
    let mut chk = Checker {
        netlist,
        layout,
        report: Report::new(),
        compiled: vec![0u32; netlist.signal_count()],
        // Inputs, constants, and register outputs hold values at cycle
        // start: defined in the global scope (token 0).
        def_token: netlist
            .signals()
            .iter()
            .map(|s| {
                if matches!(
                    s.def,
                    SignalDef::Input | SignalDef::Const(_) | SignalDef::RegOut(_)
                ) {
                    0
                } else {
                    UNDEFINED
                }
            })
            .collect(),
        active: vec![true],
        stack: vec![0],
    };
    for (bi, block) in blocks.iter().enumerate() {
        for item in &block.items {
            chk.check_item(item, bi, plan);
        }
        chk.check_commits(&block.commits, bi, plan);
    }

    // Coverage: every computed signal compiled exactly once.
    for (i, s) in netlist.signals().iter().enumerate() {
        let expected = u32::from(matches!(
            s.def,
            SignalDef::Op(_) | SignalDef::MemRead { .. }
        ));
        let actual = chk.compiled[i];
        if actual < expected {
            chk.report.push(
                Diagnostic::error(
                    codes::STEP_MISSING,
                    format!("computed signal `{}` was never compiled", s.name),
                )
                .with_signal(s.name.clone()),
            );
        } else if actual > expected {
            chk.report.push(
                Diagnostic::error(
                    codes::STEP_DUPLICATE,
                    format!(
                        "signal `{}` compiled {} time(s), expected {}",
                        s.name, actual, expected
                    ),
                )
                .with_signal(s.name.clone()),
            );
        }
    }

    report.merge(chk.report);
    report
}

/// Walks items carrying the def-before-use scope as a token tree: every
/// mux way gets a fresh token, a definition is stamped with the token of
/// the scope it happens in, and an operand is visible iff its defining
/// token lies on the currently active way path (token 0 = global scope,
/// always active). This makes scope entry/exit and definedness O(1)
/// without cloning per-way visibility sets.
struct Checker<'a> {
    netlist: &'a Netlist,
    layout: &'a Layout,
    report: Report,
    compiled: Vec<u32>,
    def_token: Vec<u32>,
    active: Vec<bool>,
    stack: Vec<u32>,
}

impl Checker<'_> {
    fn enter_way(&mut self) -> u32 {
        let token = self.active.len() as u32;
        self.active.push(true);
        self.stack.push(token);
        token
    }

    fn exit_way(&mut self, token: u32) {
        self.active[token as usize] = false;
        self.stack.pop();
    }

    fn define(&mut self, sig: SignalId) {
        self.def_token[sig.index()] = *self.stack.last().expect("scope stack");
    }

    fn check_item(&mut self, item: &Item, block: usize, plan: Option<&CcssPlan>) {
        match item {
            Item::Step(step) => self.check_step(step, block, plan),
            Item::CondMux {
                sel,
                dst,
                high_items,
                high,
                low_items,
                low,
                sig,
            } => {
                let sig = *sig;
                self.check_placement(sig, block, plan);
                self.compiled[sig.index()] += 1;
                let name = self.netlist.signal(sig).name.clone();
                let (sel_sig, high_sig, low_sig) = match &self.netlist.signal(sig).def {
                    SignalDef::Op(op) if op.kind == OpKind::Mux && op.args.len() == 3 => {
                        (op.args[0], op.args[1], op.args[2])
                    }
                    _ => {
                        self.report.push(
                            Diagnostic::error(
                                codes::ARG_ARITY,
                                format!("conditional mux compiled for non-mux signal `{name}`"),
                            )
                            .with_signal(name),
                        );
                        return;
                    }
                };
                self.check_arg(sig, 0, sel_sig, sel);
                self.check_arg(sig, 1, high_sig, high);
                self.check_arg(sig, 2, low_sig, low);
                self.check_dst(sig, dst);
                self.check_use(sig, sel_sig);
                let t = self.enter_way();
                for it in high_items {
                    self.check_item(it, block, plan);
                }
                self.check_use(sig, high_sig);
                self.exit_way(t);
                let t = self.enter_way();
                for it in low_items {
                    self.check_item(it, block, plan);
                }
                self.check_use(sig, low_sig);
                self.exit_way(t);
                self.define(sig);
            }
        }
    }

    fn check_step(&mut self, step: &Step, block: usize, plan: Option<&CcssPlan>) {
        let sig = step.sig;
        self.check_placement(sig, block, plan);
        self.compiled[sig.index()] += 1;
        let name = self.netlist.signal(sig).name.clone();
        let expected_args: Vec<SignalId> = match (&step.kind, &self.netlist.signal(sig).def) {
            (StepKind::Op(kind), SignalDef::Op(op)) => {
                if *kind != op.kind {
                    self.report.push(
                        Diagnostic::error(
                            codes::ARG_ARITY,
                            format!(
                                "step for `{name}` computes {kind:?}, netlist defines {:?}",
                                op.kind
                            ),
                        )
                        .with_signal(name.clone()),
                    );
                }
                if step.params != op.params {
                    self.report.push(
                        Diagnostic::error(
                            codes::ARG_ARITY,
                            format!("step for `{name}` has wrong static parameters"),
                        )
                        .with_signal(name.clone()),
                    );
                }
                op.args.clone()
            }
            (StepKind::MemRead { mem, port }, SignalDef::MemRead { mem: dm, port: dp }) => {
                if *mem != dm.0 || *port as usize != *dp {
                    self.report.push(
                        Diagnostic::error(
                            codes::MEM_INDEX,
                            format!(
                                "step for `{name}` reads memory {mem} port {port}, netlist says {} port {dp}",
                                dm.0
                            ),
                        )
                        .with_signal(name.clone()),
                    );
                }
                let Some(bank) = self.netlist.mems().get(*mem as usize) else {
                    self.report.push(
                        Diagnostic::error(
                            codes::MEM_INDEX,
                            format!("step for `{name}` reads nonexistent memory {mem}"),
                        )
                        .with_signal(name),
                    );
                    return;
                };
                let Some(p) = bank.readers.get(*port as usize) else {
                    self.report.push(
                        Diagnostic::error(
                            codes::MEM_INDEX,
                            format!(
                                "step for `{name}` reads nonexistent port {port} of memory `{}`",
                                bank.name
                            ),
                        )
                        .with_signal(name),
                    );
                    return;
                };
                vec![p.addr, p.en]
            }
            _ => {
                self.report.push(
                    Diagnostic::error(
                        codes::STEP_DUPLICATE,
                        format!("step compiled for non-computed signal `{name}`"),
                    )
                    .with_signal(name),
                );
                return;
            }
        };
        if step.args.len() != expected_args.len() {
            self.report.push(
                Diagnostic::error(
                    codes::ARG_ARITY,
                    format!(
                        "step for `{name}` has {} operand(s), its op takes {}",
                        step.args.len(),
                        expected_args.len()
                    ),
                )
                .with_signal(name.clone()),
            );
        }
        for (k, (&expected, actual)) in expected_args.iter().zip(&step.args).enumerate() {
            self.check_arg(sig, k, expected, actual);
            self.check_use(sig, expected);
        }
        self.check_dst(sig, &step.dst);
        self.define(sig);
    }

    /// A block's commits must be exactly its partition's elided
    /// registers, in plan order, each resolved through the netlist and
    /// layout; a full-cycle block (no plan) commits nothing in place.
    fn check_commits(&mut self, commits: &[Commit], block: usize, plan: Option<&CcssPlan>) {
        let elided: &[usize] = plan
            .and_then(|p| p.partitions.get(block))
            .map_or(&[], |part| &part.elided_regs);
        if commits.len() != elided.len() {
            let code = if commits.len() < elided.len() {
                codes::STEP_MISSING
            } else {
                codes::STEP_DUPLICATE
            };
            self.report.push(
                Diagnostic::error(
                    code,
                    format!(
                        "block {block} carries {} register commit(s), its partition elides {}",
                        commits.len(),
                        elided.len()
                    ),
                )
                .with_partition(block),
            );
        }
        let Some(plan) = plan else { return };
        for (commit, &ri) in commits.iter().zip(elided) {
            let reg = &self.netlist.regs()[ri];
            let mut bad = |code, what: String| {
                self.report.push(
                    Diagnostic::error(code, format!("commit of `{}`: {what}", reg.name))
                        .with_signal(reg.name.clone())
                        .with_partition(block),
                );
            };
            if commit.next as usize != self.layout.offset(reg.next) {
                bad(
                    codes::ARG_OUT_OF_BOUNDS,
                    format!(
                        "reads offset {}, the next-value slot is at {}",
                        commit.next,
                        self.layout.offset(reg.next)
                    ),
                );
            }
            if commit.out as usize != self.layout.offset(reg.out)
                || commit.words as usize != self.layout.words(reg.out)
            {
                bad(
                    codes::DST_OUT_OF_BOUNDS,
                    format!(
                        "writes offset {} ({} words), the output slot is {} ({} words)",
                        commit.out,
                        commit.words,
                        self.layout.offset(reg.out),
                        self.layout.words(reg.out)
                    ),
                );
            }
            let wakes = &plan.reg_plans[ri].wake_on_change;
            if commit.reg_plan as usize != ri || &commit.consumers != wakes {
                bad(
                    codes::STATE_WAKE_MISSING,
                    format!(
                        "wakes {:?} as register plan {}, the plan's entry {ri} wakes {wakes:?}",
                        commit.consumers, commit.reg_plan
                    ),
                );
            }
        }
    }

    /// Block placement: under a plan, a step must live in the block of
    /// the partition its signal is scheduled into.
    fn check_placement(&mut self, sig: SignalId, block: usize, plan: Option<&CcssPlan>) {
        let Some(plan) = plan else { return };
        let sched = plan
            .sched_of_signal
            .get(sig.index())
            .copied()
            .unwrap_or(u32::MAX);
        if sched as usize != block {
            let name = &self.netlist.signal(sig).name;
            self.report.push(
                Diagnostic::error(
                    codes::MEMBER_MISPLACED,
                    format!("`{name}` compiled into block {block}, scheduled in partition {sched}"),
                )
                .with_signal(name.clone())
                .with_partition(block),
            );
        }
    }

    /// An operand reference must denote exactly `expected`'s slot.
    fn check_arg(&mut self, user: SignalId, k: usize, expected: SignalId, actual: &ArgRef) {
        let name = &self.netlist.signal(user).name;
        let total = self.layout.total_words();
        if actual.off as usize + actual.words as usize > total {
            self.report.push(
                Diagnostic::error(
                    codes::ARG_OUT_OF_BOUNDS,
                    format!(
                        "operand {k} of `{name}` reads words [{}..{}) of a {total}-word arena",
                        actual.off,
                        actual.off as usize + actual.words as usize
                    ),
                )
                .with_signal(name.clone()),
            );
            return;
        }
        if actual.off as usize != self.layout.offset(expected)
            || actual.words as usize != self.layout.words(expected)
        {
            self.report.push(
                Diagnostic::error(
                    codes::ARG_OUT_OF_BOUNDS,
                    format!(
                        "operand {k} of `{name}` reads offset {}, expected `{}` at {}",
                        actual.off,
                        self.netlist.signal(expected).name,
                        self.layout.offset(expected)
                    ),
                )
                .with_signal(name.clone()),
            );
            return;
        }
        let e = self.netlist.signal(expected);
        if actual.width != e.width || actual.signed != e.signed {
            self.report.push(
                Diagnostic::error(
                    codes::WIDTH_MISMATCH,
                    format!(
                        "operand {k} of `{name}` claims {}-bit {}signed, `{}` is {}-bit {}signed",
                        actual.width,
                        if actual.signed { "" } else { "un" },
                        e.name,
                        e.width,
                        if e.signed { "" } else { "un" },
                    ),
                )
                .with_signal(name.clone()),
            );
        }
    }

    /// The destination reference must denote the defined signal's slot.
    fn check_dst(&mut self, sig: SignalId, dst: &DstRef) {
        let s = self.netlist.signal(sig);
        let total = self.layout.total_words();
        if dst.off as usize + dst.words as usize > total
            || dst.off as usize != self.layout.offset(sig)
            || dst.words as usize != self.layout.words(sig)
        {
            self.report.push(
                Diagnostic::error(
                    codes::DST_OUT_OF_BOUNDS,
                    format!(
                        "destination of `{}` writes offset {} ({} words), slot is {} ({} words)",
                        s.name,
                        dst.off,
                        dst.words,
                        self.layout.offset(sig),
                        self.layout.words(sig)
                    ),
                )
                .with_signal(s.name.clone()),
            );
        } else if dst.width != s.width {
            self.report.push(
                Diagnostic::error(
                    codes::WIDTH_MISMATCH,
                    format!(
                        "destination of `{}` claims {} bit(s), signal has {}",
                        s.name, dst.width, s.width
                    ),
                )
                .with_signal(s.name.clone()),
            );
        }
    }

    /// Def-before-use: a computed operand must have been defined by an
    /// earlier step whose scope is still active.
    fn check_use(&mut self, user: SignalId, operand: SignalId) {
        let token = self.def_token[operand.index()];
        let visible = token != u32::MAX && self.active[token as usize];
        if !visible {
            let name = &self.netlist.signal(user).name;
            self.report.push(
                Diagnostic::error(
                    codes::DEF_BEFORE_USE,
                    format!(
                        "`{name}` reads `{}` before any step defines it",
                        self.netlist.signal(operand).name
                    ),
                )
                .with_signal(name.clone()),
            );
        }
    }
}

/// A one-word operand/destination reference re-derived from the netlist
/// and layout (the tier audit never trusts the program's own fields).
#[derive(Clone, Copy)]
struct Ref1 {
    off: u32,
    width: u32,
    signed: bool,
}

/// Sign-extension shift the tier must encode for a reference.
fn sx_of(width: u32, signed: bool) -> u8 {
    if signed {
        (64 - width) as u8
    } else {
        0
    }
}

/// Resolves `sig` as a one-word tier reference; `None` when the signal
/// needs the generic path (multi-word or zero-width).
fn ref1(netlist: &Netlist, layout: &Layout, sig: SignalId) -> Option<Ref1> {
    let s = netlist.signal(sig);
    if layout.words(sig) != 1 || s.width < 1 {
        return None;
    }
    Some(Ref1 {
        off: layout.offset(sig) as u32,
        width: s.width,
        signed: s.signed,
    })
}

/// Independently re-derives the one-word instruction a step-compiled
/// signal must lower to, straight from its netlist definition and the
/// arena layout; `None` when the lowering must fall back to a generic
/// item.
fn expected_tier_inst(netlist: &Netlist, layout: &Layout, sig: SignalId) -> Option<Inst1> {
    let dst = ref1(netlist, layout, sig)?;
    let mut inst = Inst1::new(Op1::Ext, dst.off, essent_bits::top_mask(dst.width));
    match &netlist.signal(sig).def {
        SignalDef::MemRead { mem, port } => {
            let bank = netlist.mems().get(mem.0 as usize)?;
            if essent_bits::words(bank.width) != 1 {
                return None;
            }
            let p = bank.readers.get(*port)?;
            let addr = ref1(netlist, layout, p.addr)?;
            let en = ref1(netlist, layout, p.en)?;
            inst.op = Op1::MemRead;
            inst.a = addr.off;
            inst.b = en.off;
            inst.c = mem.0;
            inst.imm = bank.depth as u64;
            // The generic path copies the raw bank entry unmasked.
            inst.mask = u64::MAX;
        }
        SignalDef::Op(op) => {
            use OpKind::*;
            let args: Vec<Ref1> = op
                .args
                .iter()
                .map(|&a| ref1(netlist, layout, a))
                .collect::<Option<_>>()?;
            let a = *args.first()?;
            let s = a.signed;
            let param = |k: usize| op.params.get(k).copied().unwrap_or(0);
            let set_ab = |inst: &mut Inst1, x: Ref1, y: Ref1, signed: bool| {
                inst.a = x.off;
                inst.b = y.off;
                inst.sxa = sx_of(x.width, signed);
                inst.sxb = sx_of(y.width, signed);
            };
            match op.kind {
                Add | Sub | Mul | Div | Rem | And | Or | Xor | Eq | Neq | Lt | Leq => {
                    set_ab(&mut inst, a, *args.get(1)?, s);
                    inst.op = match (op.kind, s) {
                        (Add, _) => Op1::Add,
                        (Sub, _) => Op1::Sub,
                        (Mul, _) => Op1::Mul,
                        (Div, false) => Op1::DivU,
                        (Div, true) => Op1::DivS,
                        (Rem, false) => Op1::RemU,
                        (Rem, true) => Op1::RemS,
                        (And, _) => Op1::And,
                        (Or, _) => Op1::Or,
                        (Xor, _) => Op1::Xor,
                        (Eq, _) => Op1::Eq,
                        (Neq, _) => Op1::Neq,
                        (Lt, false) => Op1::LtU,
                        (Lt, true) => Op1::LtS,
                        (Leq, false) => Op1::LeqU,
                        (Leq, true) => Op1::LeqS,
                        _ => unreachable!(),
                    };
                }
                Gt | Geq => {
                    set_ab(&mut inst, *args.get(1)?, a, s);
                    inst.op = match (op.kind, s) {
                        (Gt, false) => Op1::LtU,
                        (Gt, true) => Op1::LtS,
                        (Geq, false) => Op1::LeqU,
                        (Geq, true) => Op1::LeqS,
                        _ => unreachable!(),
                    };
                }
                Shl => {
                    inst.op = Op1::Shl;
                    inst.a = a.off;
                    inst.imm = param(0);
                    inst.sxc = dst.width as u8;
                }
                Shr => {
                    inst.op = if s { Op1::ShrS } else { Op1::ShrU };
                    inst.a = a.off;
                    inst.sxa = sx_of(a.width, s);
                    inst.imm = param(0);
                }
                Dshl => {
                    inst.op = Op1::Dshl;
                    inst.a = a.off;
                    inst.b = args.get(1)?.off;
                    inst.sxc = dst.width as u8;
                }
                Dshr => {
                    inst.op = if s { Op1::DshrS } else { Op1::DshrU };
                    inst.a = a.off;
                    inst.b = args.get(1)?.off;
                    inst.sxa = sx_of(a.width, s);
                }
                Neg => {
                    inst.op = Op1::Neg;
                    inst.a = a.off;
                    inst.sxa = sx_of(a.width, s);
                }
                Not => {
                    inst.op = Op1::Not;
                    inst.a = a.off;
                    inst.sxa = sx_of(a.width, s);
                }
                Andr => {
                    inst.op = Op1::Andr;
                    inst.a = a.off;
                    inst.imm = essent_bits::top_mask(a.width);
                }
                Orr => {
                    inst.op = Op1::Orr;
                    inst.a = a.off;
                }
                Xorr => {
                    inst.op = Op1::Xorr;
                    inst.a = a.off;
                }
                Cat => {
                    let b = *args.get(1)?;
                    inst.op = Op1::Cat;
                    inst.a = a.off;
                    inst.b = b.off;
                    inst.imm = b.width as u64;
                }
                Bits => {
                    inst.op = Op1::Bits;
                    inst.a = a.off;
                    inst.imm = param(1);
                }
                Mux => {
                    let (high, low) = (*args.get(1)?, *args.get(2)?);
                    inst.op = Op1::Mux;
                    inst.a = a.off;
                    inst.b = high.off;
                    inst.c = low.off;
                    inst.sxb = sx_of(high.width, high.signed);
                    inst.sxc = sx_of(low.width, low.signed);
                }
                Copy => {
                    inst.op = Op1::Ext;
                    inst.a = a.off;
                    inst.sxa = sx_of(a.width, a.signed);
                }
            }
        }
        // Steps for non-computed signals are check_blocks' problem; the
        // tier must not have specialized them.
        _ => return None,
    }
    Some(inst)
}

/// Decode equality modulo the fused-trigger range (checked separately
/// against the plan's trigger map).
fn same_decode(a: &Inst1, b: &Inst1) -> bool {
    (
        a.op, a.sxa, a.sxb, a.sxc, a.a, a.b, a.c, a.dst, a.imm, a.mask,
    ) == (
        b.op, b.sxa, b.sxb, b.sxc, b.a, b.b, b.c, b.dst, b.imm, b.mask,
    )
}

/// Defining signal of an item (the conditional mux's own signal).
fn item_sig(item: &Item) -> SignalId {
    match item {
        Item::Step(s) => s.sig,
        Item::CondMux { sig, .. } => *sig,
    }
}

/// Audits a [`Tier1Program`] against the block it was lowered from.
///
/// Walks the block's item stream in lockstep with the instruction
/// stream, re-deriving every expected instruction *independently* from
/// the netlist and layout (never from the program): `B0210` for decode
/// mismatches, `B0211` for fused trigger writes that disagree with the
/// plan's consumer map in `outs`, `B0212` for control-flow violations
/// (non-forward jumps, malformed conditional diamonds). After the items
/// come the block's commits ([`check_blocks`] holds those to the plan):
/// each single-word one a `Commit` instruction carrying its consumers,
/// every other one listed unabsorbed. `fuse` states whether the engine
/// intended trigger fusion for this block.
pub fn check_tier1(
    netlist: &Netlist,
    layout: &Layout,
    block: &Block,
    outs: &[OutSpec],
    prog: &Tier1Program,
    fuse: bool,
    partition: usize,
) -> Report {
    let mut chk = TierChecker {
        netlist,
        layout,
        prog,
        partition,
        report: Report::new(),
        pc: 0,
        generic_at: 0,
        out_of_sig: outs.iter().enumerate().map(|(i, o)| (o.sig, i)).collect(),
        seen_ranges: vec![Vec::new(); outs.len()],
    };
    chk.walk_items(&block.items);
    chk.walk_commits(&block.commits, fuse);
    if chk.pc < prog.code.len() {
        chk.report.push(
            Diagnostic::error(
                codes::TIER_DECODE,
                format!(
                    "tier-1 program has {} instruction(s) past the block's item stream",
                    prog.code.len() - chk.pc
                ),
            )
            .with_partition(partition),
        );
    }
    if chk.generic_at < prog.generic.len() {
        chk.report.push(
            Diagnostic::error(
                codes::TIER_DECODE,
                format!(
                    "{} generic fallback item(s) are never referenced by the program",
                    prog.generic.len() - chk.generic_at
                ),
            )
            .with_partition(partition),
        );
    }
    if prog.sigs.len() != prog.code.len() {
        chk.report.push(
            Diagnostic::error(
                codes::TIER_DECODE,
                format!(
                    "signal tag table has {} entries for {} instruction(s)",
                    prog.sigs.len(),
                    prog.code.len()
                ),
            )
            .with_partition(partition),
        );
    }
    chk.check_fusion(outs, fuse);
    chk.report
}

/// Lockstep walker for [`check_tier1`].
struct TierChecker<'a> {
    netlist: &'a Netlist,
    layout: &'a Layout,
    prog: &'a Tier1Program,
    report: Report,
    /// Next instruction the item stream must account for.
    pc: usize,
    /// Next generic fallback item the instruction stream must reference
    /// (the lowering emits them in walk order).
    generic_at: usize,
    out_of_sig: HashMap<SignalId, usize>,
    /// Per output: every `(ws, we)` range observed on a defining
    /// instruction (a mux diamond contributes one per arm).
    seen_ranges: Vec<Vec<(u32, u32)>>,
    partition: usize,
}

impl TierChecker<'_> {
    fn error(&mut self, code: essent_core::diag::DiagCode, msg: String) {
        self.report
            .push(Diagnostic::error(code, msg).with_partition(self.partition));
    }

    fn fetch(&mut self, what: &str) -> Option<Inst1> {
        match self.prog.code.get(self.pc) {
            Some(&inst) => {
                self.pc += 1;
                Some(inst)
            }
            None => {
                self.error(
                    codes::TIER_DECODE,
                    format!(
                        "tier-1 program ends at pc {} where {what} was expected",
                        self.pc
                    ),
                );
                None
            }
        }
    }

    fn check_tag(&mut self, at: usize, expect: u32, name: &str) {
        let got = self.prog.sigs.get(at).copied();
        if got != Some(expect) {
            self.error(
                codes::TIER_DECODE,
                format!(
                    "instruction at pc {at} is tagged with signal {:?}, expected {name}",
                    got
                ),
            );
        }
    }

    fn walk_items(&mut self, items: &[Item]) {
        for item in items {
            self.walk_item(item);
        }
    }

    fn walk_item(&mut self, item: &Item) {
        match item {
            Item::Step(step) => match expected_tier_inst(self.netlist, self.layout, step.sig) {
                Some(exp) => self.match_value(step.sig, exp),
                None => self.match_generic(item, step.sig),
            },
            Item::CondMux { .. } => self.walk_cond_mux(item),
        }
    }

    /// The block's commits, in order: a single-word commit under fusion
    /// is the next instruction (`B0210`) with the register's consumers
    /// on an always-present compare-store-wake tail; anything else must
    /// be listed for the engine's state table (`B0211`) — a commit in
    /// neither place never happens, one in both happens twice.
    fn walk_commits(&mut self, commits: &[Commit], fuse: bool) {
        for &ci in &self.prog.unabsorbed {
            if ci >= commits.len() {
                self.error(
                    codes::TIER_FUSE,
                    format!(
                        "unabsorbed index {ci} out of range for {} commit(s)",
                        commits.len()
                    ),
                );
            }
        }
        for (ci, commit) in commits.iter().enumerate() {
            let name = self.netlist.signal(commit.sig).name.clone();
            let listed = self.prog.unabsorbed.contains(&ci);
            if !fuse || commit.words != 1 {
                if !listed {
                    self.error(
                        codes::TIER_FUSE,
                        format!(
                            "commit of `{name}` is neither an instruction nor listed \
                             unabsorbed: the register would never update"
                        ),
                    );
                }
                continue;
            }
            if listed {
                self.error(
                    codes::TIER_FUSE,
                    format!(
                        "commit of `{name}` is lowerable but listed unabsorbed \
                         (the register would be committed twice, or never)"
                    ),
                );
            }
            let at = self.pc;
            let Some(got) = self.fetch(&format!("the commit of `{name}`")) else {
                continue;
            };
            self.check_tag(at, commit.sig.0, &name);
            let exp = Inst1 {
                a: commit.next,
                imm: commit.reg_plan as u64,
                ..Inst1::new(Op1::Commit, commit.out, u64::MAX)
            };
            if !same_decode(&got, &exp) {
                self.report.push(
                    Diagnostic::error(
                        codes::TIER_DECODE,
                        format!(
                            "instruction at pc {at} for the commit of `{name}` decodes as \
                             {got:?}, the block requires {exp:?}"
                        ),
                    )
                    .with_signal(name)
                    .with_partition(self.partition),
                );
                continue;
            }
            let woken = (got.ws != NO_FUSE)
                .then(|| self.prog.consumers.get(got.ws as usize..got.we as usize))
                .flatten();
            match woken {
                Some(slice) => {
                    let mut got_set = slice.to_vec();
                    got_set.sort_unstable();
                    let mut want = commit.consumers.clone();
                    want.sort_unstable();
                    if got_set != want {
                        self.error(
                            codes::TIER_FUSE,
                            format!(
                                "commit of `{name}` at pc {at} wakes {got_set:?}, its \
                                 register's readers are {want:?}"
                            ),
                        );
                    }
                }
                None => self.error(
                    codes::TIER_FUSE,
                    format!(
                        "commit of `{name}` at pc {at} has no compare-store-wake tail \
                         inside the {}-entry consumer table",
                        self.prog.consumers.len()
                    ),
                ),
            }
        }
    }

    /// One specialized value instruction: decode must equal the
    /// independent re-derivation.
    fn match_value(&mut self, sig: SignalId, exp: Inst1) {
        let at = self.pc;
        let name = self.netlist.signal(sig).name.clone();
        let Some(got) = self.fetch(&format!("the specialized instruction for `{name}`")) else {
            return;
        };
        self.check_tag(at, sig.0, &name);
        if !same_decode(&got, &exp) {
            self.report.push(
                Diagnostic::error(
                    codes::TIER_DECODE,
                    format!(
                        "instruction at pc {at} for `{name}` decodes as {got:?}, \
                         the netlist and layout require {exp:?}"
                    ),
                )
                .with_signal(name)
                .with_partition(self.partition),
            );
        }
        self.note_fuse(sig, &got, at);
    }

    /// Records the fused range carried by a defining instruction; a
    /// non-output instruction must not carry one at all.
    fn note_fuse(&mut self, sig: SignalId, got: &Inst1, at: usize) {
        match self.out_of_sig.get(&sig) {
            Some(&oi) => self.seen_ranges[oi].push((got.ws, got.we)),
            None => {
                if got.ws != NO_FUSE {
                    let name = &self.netlist.signal(sig).name;
                    self.error(
                        codes::TIER_FUSE,
                        format!(
                            "instruction at pc {at} for non-output `{name}` carries a \
                             fused trigger range"
                        ),
                    );
                }
            }
        }
    }

    /// A non-lowerable item: must be a `Generic` fallback referencing the
    /// matching item in emission order.
    fn match_generic(&mut self, item: &Item, sig: SignalId) {
        let at = self.pc;
        let name = self.netlist.signal(sig).name.clone();
        let Some(got) = self.fetch(&format!("the generic fallback for `{name}`")) else {
            return;
        };
        if got.op != Op1::Generic {
            self.report.push(
                Diagnostic::error(
                    codes::TIER_DECODE,
                    format!(
                        "`{name}` is not one-word lowerable, but pc {at} holds {:?} \
                         instead of a generic fallback",
                        got.op
                    ),
                )
                .with_signal(name)
                .with_partition(self.partition),
            );
            return;
        }
        self.check_tag(at, sig.0, &name);
        if got.ws != NO_FUSE {
            self.error(
                codes::TIER_FUSE,
                format!(
                    "generic fallback at pc {at} for `{name}` carries a fused trigger \
                     range the generic path cannot honor"
                ),
            );
        }
        if got.a as usize != self.generic_at {
            self.error(
                codes::TIER_DECODE,
                format!(
                    "generic fallback at pc {at} references item {}, emission order \
                     expects {}",
                    got.a, self.generic_at
                ),
            );
        } else {
            match self.prog.generic.get(self.generic_at) {
                Some(gi) => {
                    if item_sig(gi) != sig || gi.step_count() != item.step_count() {
                        self.error(
                            codes::TIER_DECODE,
                            format!(
                                "generic item {} defines `{}` in {} step(s), the block \
                                 item defines `{name}` in {}",
                                self.generic_at,
                                self.netlist.signal(item_sig(gi)).name,
                                gi.step_count(),
                                item.step_count()
                            ),
                        );
                    }
                }
                None => self.error(
                    codes::TIER_DECODE,
                    format!(
                        "generic fallback at pc {at} references item {}, only {} exist",
                        got.a,
                        self.prog.generic.len()
                    ),
                ),
            }
        }
        self.generic_at += 1;
    }

    /// A conditional mux: either a `JmpIf0`/`Ext`/`Jmp`/`Ext` diamond
    /// (all refs one-word) or a single generic fallback.
    fn walk_cond_mux(&mut self, item: &Item) {
        let Item::CondMux {
            high_items,
            low_items,
            sig,
            ..
        } = item
        else {
            unreachable!()
        };
        let sig = *sig;
        let name = self.netlist.signal(sig).name.clone();
        let (sel_sig, high_sig, low_sig) = match &self.netlist.signal(sig).def {
            SignalDef::Op(op) if op.kind == OpKind::Mux && op.args.len() == 3 => {
                (op.args[0], op.args[1], op.args[2])
            }
            // check_blocks reports the malformed mux; pc desync fallout
            // is acceptable in an already-failing report.
            _ => return,
        };
        let refs = (
            ref1(self.netlist, self.layout, sel_sig),
            ref1(self.netlist, self.layout, high_sig),
            ref1(self.netlist, self.layout, low_sig),
            ref1(self.netlist, self.layout, sig),
        );
        let (Some(sel), Some(hi), Some(lo), Some(dst)) = refs else {
            self.match_generic(item, sig);
            return;
        };
        let jif_at = self.pc;
        let Some(jif) = self.fetch(&format!("the JmpIf0 opening `{name}`'s diamond")) else {
            return;
        };
        if jif.op != Op1::JmpIf0 {
            self.error(
                codes::TIER_FLOW,
                format!(
                    "lowerable conditional mux `{name}` must open with JmpIf0 at pc \
                     {jif_at}, found {:?}",
                    jif.op
                ),
            );
            return;
        }
        self.check_tag(jif_at, u32::MAX, "no signal (a jump)");
        if jif.b != sel.off {
            self.error(
                codes::TIER_DECODE,
                format!(
                    "JmpIf0 at pc {jif_at} tests slot {}, selector of `{name}` lives \
                     at {}",
                    jif.b, sel.off
                ),
            );
        }
        self.walk_items(high_items);
        let ext_of = |way: Ref1| Inst1 {
            sxa: sx_of(way.width, way.signed),
            a: way.off,
            ..Inst1::new(Op1::Ext, dst.off, essent_bits::top_mask(dst.width))
        };
        self.match_value(sig, ext_of(hi));
        let jmp_at = self.pc;
        let Some(jmp) = self.fetch(&format!("the Jmp closing `{name}`'s high way")) else {
            return;
        };
        if jmp.op != Op1::Jmp {
            self.error(
                codes::TIER_FLOW,
                format!(
                    "high way of `{name}` must close with Jmp at pc {jmp_at}, found {:?}",
                    jmp.op
                ),
            );
            return;
        }
        self.check_tag(jmp_at, u32::MAX, "no signal (a jump)");
        self.check_jump(jif_at, jif.a, self.pc, "JmpIf0");
        self.walk_items(low_items);
        self.match_value(sig, ext_of(lo));
        self.check_jump(jmp_at, jmp.a, self.pc, "Jmp");
    }

    /// A diamond jump must be strictly forward and land exactly where the
    /// item structure joins.
    fn check_jump(&mut self, at: usize, target: u32, expected: usize, what: &str) {
        if target as usize <= at {
            self.error(
                codes::TIER_FLOW,
                format!("{what} at pc {at} jumps backward to {target} (termination unprovable)"),
            );
        } else if target as usize != expected {
            self.error(
                codes::TIER_FLOW,
                format!("{what} at pc {at} jumps to {target}, the diamond joins at {expected}"),
            );
        }
    }

    /// After the walk: every output either carries a consistent fused
    /// range matching the plan's trigger map, or is listed unfused so the
    /// engine keeps its snapshot-compare path.
    fn check_fusion(&mut self, outs: &[OutSpec], fuse: bool) {
        for &oi in &self.prog.unfused {
            if oi >= outs.len() {
                self.error(
                    codes::TIER_FUSE,
                    format!(
                        "unfused index {oi} out of range for {} output(s)",
                        outs.len()
                    ),
                );
            }
        }
        for (oi, out) in outs.iter().enumerate() {
            let name = self.netlist.signal(out.sig).name.clone();
            let ranges = std::mem::take(&mut self.seen_ranges[oi]);
            let listed = self.prog.unfused.contains(&oi);
            if ranges.iter().any(|r| *r != ranges[0]) {
                self.error(
                    codes::TIER_FUSE,
                    format!(
                        "defining instructions of output `{name}` carry differing fused ranges"
                    ),
                );
            }
            let fused_range = ranges.first().copied().filter(|&(ws, _)| ws != NO_FUSE);
            match fused_range {
                Some((ws, we)) => {
                    if !fuse {
                        self.error(
                            codes::TIER_FUSE,
                            format!("output `{name}` is fused though fusion is disabled"),
                        );
                    }
                    if listed {
                        self.error(
                            codes::TIER_FUSE,
                            format!(
                                "output `{name}` is fused but also listed unfused \
                                 (consumers would be woken twice)"
                            ),
                        );
                    }
                    match self.prog.consumers.get(ws as usize..we as usize) {
                        Some(slice) => {
                            let mut got: Vec<u32> = slice.to_vec();
                            got.sort_unstable();
                            let mut want = out.consumers.clone();
                            want.sort_unstable();
                            if got != want {
                                self.error(
                                    codes::TIER_FUSE,
                                    format!(
                                        "fused consumer set of `{name}` is {got:?}, the \
                                         plan's trigger map says {want:?}"
                                    ),
                                );
                            }
                        }
                        None => self.error(
                            codes::TIER_FUSE,
                            format!(
                                "fused range [{ws}..{we}) of `{name}` exceeds the \
                                 {}-entry consumer table",
                                self.prog.consumers.len()
                            ),
                        ),
                    }
                }
                None => {
                    if !listed {
                        self.error(
                            codes::TIER_FUSE,
                            format!(
                                "output `{name}` has no fused trigger write and is \
                                 missing from the unfused list: its consumers would \
                                 never wake"
                            ),
                        );
                    }
                }
            }
        }
    }
}
