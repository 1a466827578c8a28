//! C++ code generation mirroring ESSENT's emitted simulators.
//!
//! ESSENT itself is a *generator*: it emits C++ that a host compiler
//! turns into the simulator binary. This module reproduces that output
//! shape for fidelity with the paper (Figure 1): a struct holding every
//! signal, one function per partition that deactivates itself, saves old
//! output values, evaluates, updates elided state, and ORs activation
//! into its consumers' flags (branchless), plus an `eval()` walking the
//! static schedule and a `cycle()` wrapper committing non-elided state.
//!
//! Reset-selected mux ways and side-effect blocks are annotated
//! `[[unlikely]]` — the paper's branch hints that let the compiler
//! separate cold code and shrink the effective instruction working set
//! (Section III-B2).
//!
//! The generator supports designs whose signals are at most 64 bits wide
//! (the evaluation designs satisfy this); the interpreter engines have no
//! such limit.

use crate::engine::EngineConfig;
use essent_core::partition::partition;
use essent_core::plan::{extended_dag, CcssPlan, PlanOptions};
use essent_netlist::{Netlist, OpKind, SignalDef, SignalId};
use std::fmt;
use std::fmt::Write as _;

/// Error produced when a design cannot be emitted as C++.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError(pub String);

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen error: {}", self.0)
    }
}

impl std::error::Error for CodegenError {}

/// Emits a complete single-header C++ CCSS simulator for the design.
///
/// # Errors
///
/// Returns [`CodegenError`] if any signal exceeds 64 bits.
pub fn emit_cpp(netlist: &Netlist, config: &EngineConfig) -> Result<String, CodegenError> {
    for s in netlist.signals() {
        if s.width > 64 {
            return Err(CodegenError(format!(
                "signal `{}` is {} bits; the C++ emitter supports at most 64",
                s.name, s.width
            )));
        }
    }
    let (dag, writes) = extended_dag(netlist);
    let parts = partition(&dag, config.c_p);
    let plan = CcssPlan::from_partitioning(
        netlist,
        &dag,
        &writes,
        &parts,
        PlanOptions {
            elide_state: config.elide_state,
            elide_mem: config.elide_state,
        },
    );
    let mut out = String::new();
    let w = &mut out;

    let name = sanitize(&netlist.name);
    let np = plan.partitions.len();
    let _ = writeln!(w, "// Generated by essent-rs from circuit {}", netlist.name);
    let _ = writeln!(
        w,
        "// CCSS simulator: {} partitions, C_p = {}",
        np, config.c_p
    );
    let _ = writeln!(
        w,
        "#include <cstdint>\n#include <cstring>\n#include <cstdio>\n"
    );
    let _ = writeln!(w, "static inline uint64_t _mask(uint32_t w) {{ return w >= 64 ? ~0ull : ((1ull << w) - 1); }}");
    let _ = writeln!(w, "static inline int64_t _sext(uint64_t v, uint32_t w) {{ return w == 0 ? 0 : (int64_t)(v << (64 - w)) >> (64 - w); }}\n");
    let _ = writeln!(w, "struct {name} {{");

    // --- Fields: every signal persists across cycles. ---
    for s in netlist.signals() {
        let _ = writeln!(
            w,
            "  uint64_t {}; // {}{}",
            field(&s.name),
            if s.signed { "SInt" } else { "UInt" },
            s.width
        );
    }
    for m in netlist.mems() {
        let _ = writeln!(w, "  uint64_t {}[{}];", field(&m.name), m.depth);
    }
    let _ = writeln!(w, "  bool flags[{np}];");
    let _ = writeln!(w, "  bool done; uint64_t stop_code; uint64_t cycles;\n");

    // --- Constructor: zero state, materialize constants, arm all flags. ---
    let _ = writeln!(w, "  {name}() {{");
    let _ = writeln!(w, "    memset(this, 0, sizeof(*this));");
    for s in netlist.signals() {
        if let SignalDef::Const(c) = &s.def {
            let _ = writeln!(
                w,
                "    {} = 0x{:x}ull;",
                field(&s.name),
                c.to_u64().expect("codegen constants fit 64 bits")
            );
        }
    }
    let _ = writeln!(w, "    for (int i = 0; i < {np}; i++) flags[i] = true;");
    let _ = writeln!(w, "  }}\n");

    // --- Partition functions (Figure 1). ---
    for (sched, part) in plan.partitions.iter().enumerate() {
        let _ = writeln!(w, "  void part_{sched}() {{");
        let _ = writeln!(w, "    flags[{sched}] = false;");
        for o in &part.outputs {
            let n = field(&netlist.signal(o.signal).name);
            let _ = writeln!(w, "    const uint64_t old_{n} = {n};");
        }
        for &m in &part.members {
            emit_signal_eval(w, netlist, m);
        }
        // Memory writes precede register updates by convention only: the
        // plan keeps a register two-phase when a write elided into this
        // partition reads its output, so no write here observes a commit.
        for &wi in &part.elided_writes {
            emit_mem_write(w, netlist, &plan, wi, "    ");
        }
        for &ri in &part.elided_regs {
            let reg = &netlist.regs()[ri];
            let out_f = field(&reg.name);
            let next_f = field(&netlist.signal(reg.next).name);
            let _ = writeln!(
                w,
                "    if ({next_f} != {out_f}) {{ // in-place register update"
            );
            let _ = writeln!(w, "      {out_f} = {next_f};");
            for &c in &plan.reg_plans[ri].wake_on_change {
                let _ = writeln!(w, "      flags[{c}] = true;");
            }
            let _ = writeln!(w, "    }}");
        }
        for o in &part.outputs {
            let n = field(&netlist.signal(o.signal).name);
            // Branchless OR-reduction into consumer flags (Figure 1).
            for &c in &o.consumers {
                let _ = writeln!(w, "    flags[{c}] |= ({n} != old_{n});");
            }
        }
        let _ = writeln!(w, "  }}\n");
    }

    // --- eval: the static schedule. ---
    let _ = writeln!(w, "  void eval() {{");
    for sched in 0..np {
        let _ = writeln!(w, "    if (flags[{sched}]) part_{sched}();");
    }
    let _ = writeln!(w, "  }}\n");

    // --- poke helpers for inputs (change detection + wakeups). ---
    for (input, wakes) in &plan.input_wakes {
        let n = field(&netlist.signal(*input).name);
        let _ = writeln!(w, "  void poke_{n}(uint64_t v) {{");
        let width = netlist.signal(*input).width;
        let _ = writeln!(w, "    v &= _mask({width});");
        let _ = writeln!(w, "    if (v != {n}) {{");
        let _ = writeln!(w, "      {n} = v;");
        for c in wakes {
            let _ = writeln!(w, "      flags[{c}] = true;");
        }
        let _ = writeln!(w, "    }}");
        let _ = writeln!(w, "  }}\n");
    }

    // --- cycle: eval + side effects + non-elided commits. ---
    let _ = writeln!(w, "  void cycle() {{");
    let _ = writeln!(w, "    eval();");
    for p in netlist.printfs() {
        let en = field(&netlist.signal(p.en).name);
        let args: Vec<String> = p
            .args
            .iter()
            .map(|a| field(&netlist.signal(*a).name))
            .collect();
        let fmt_c = printf_to_c(&p.fmt);
        let _ = write!(w, "    if ({en} & 1) [[unlikely]] printf(\"{fmt_c}\"");
        for a in &args {
            let _ = write!(w, ", (unsigned long long){a}");
        }
        let _ = writeln!(w, ");");
    }
    for s in netlist.stops() {
        let en = field(&netlist.signal(s.en).name);
        let _ = writeln!(
            w,
            "    if ({en} & 1) [[unlikely]] {{ done = true; stop_code = {}; }}",
            s.code
        );
    }
    for (ri, rp) in plan.reg_plans.iter().enumerate() {
        if rp.elided {
            continue;
        }
        let reg = &netlist.regs()[ri];
        let out_f = field(&reg.name);
        let next_f = field(&netlist.signal(reg.next).name);
        let _ = writeln!(w, "    if ({next_f} != {out_f}) {{");
        let _ = writeln!(w, "      {out_f} = {next_f};");
        for &c in &rp.wake_on_change {
            let _ = writeln!(w, "      flags[{c}] = true;");
        }
        let _ = writeln!(w, "    }}");
    }
    for (wi, wp) in plan.mem_write_plans.iter().enumerate() {
        if wp.elided {
            continue;
        }
        emit_mem_write(w, netlist, &plan, wi, "    ");
    }
    let _ = writeln!(w, "    cycles++;");
    let _ = writeln!(w, "  }}");
    let _ = writeln!(w, "}};");
    Ok(out)
}

fn emit_mem_write(w: &mut String, netlist: &Netlist, plan: &CcssPlan, wi: usize, pad: &str) {
    let wp = &plan.mem_write_plans[wi];
    let mem = &netlist.mems()[wp.mem.index()];
    let port = &mem.writers[wp.writer];
    let (mf, addr, en, mask, data) = (
        field(&mem.name),
        field(&netlist.signal(port.addr).name),
        field(&netlist.signal(port.en).name),
        field(&netlist.signal(port.mask).name),
        field(&netlist.signal(port.data).name),
    );
    let depth = mem.depth;
    let _ = writeln!(
        w,
        "{pad}if (({en} & {mask} & 1) && {addr} < {depth} && {mf}[{addr}] != {data}) {{"
    );
    let _ = writeln!(w, "{pad}  {mf}[{addr}] = {data};");
    for &c in &wp.wake_on_change {
        let _ = writeln!(w, "{pad}  flags[{c}] = true;");
    }
    let _ = writeln!(w, "{pad}}}");
}

/// Emits `    name = <expr>;` for one computed signal.
fn emit_signal_eval(w: &mut String, netlist: &Netlist, sig: SignalId) {
    let s = netlist.signal(sig);
    let dst = field(&s.name);
    match &s.def {
        SignalDef::Op(op) => {
            let expr = op_expr(netlist, op.kind, &op.args, &op.params, s.width);
            // Cold-path hint heuristic: a mux selected by a reset-named
            // signal gets its taken-way marked unlikely via a plain
            // conditional instead of the ternary.
            if op.kind == OpKind::Mux {
                let sel = &netlist.signal(op.args[0]).name;
                if sel.contains("reset") {
                    let sel_f = field(sel);
                    let hi = field(&netlist.signal(op.args[1]).name);
                    let lo = field(&netlist.signal(op.args[2]).name);
                    let _ = writeln!(
                        w,
                        "    if ({sel_f} & 1) [[unlikely]] {dst} = {hi}; else {dst} = {lo};"
                    );
                    return;
                }
            }
            let _ = writeln!(w, "    {dst} = {expr};");
        }
        SignalDef::MemRead { mem, port } => {
            let m = &netlist.mems()[mem.index()];
            let p = &m.readers[*port];
            let mf = field(&m.name);
            let addr = field(&netlist.signal(p.addr).name);
            let en = field(&netlist.signal(p.en).name);
            let depth = m.depth;
            let _ = writeln!(
                w,
                "    {dst} = (({en} & 1) && {addr} < {depth}) ? {mf}[{addr}] : 0;"
            );
        }
        _ => {}
    }
}

/// Renders one op as a C++ expression over `uint64_t` fields.
fn op_expr(
    netlist: &Netlist,
    kind: OpKind,
    args: &[SignalId],
    params: &[u64],
    dst_width: u32,
) -> String {
    let a = |i: usize| field(&netlist.signal(args[i]).name);
    let aw = |i: usize| netlist.signal(args[i]).width;
    let signed = !args.is_empty() && netlist.signal(args[0]).signed;
    let val = |i: usize| {
        if signed {
            format!("_sext({}, {})", a(i), aw(i))
        } else {
            a(i)
        }
    };
    let masked = |e: String| format!("(uint64_t)({e}) & _mask({dst_width})");
    use OpKind::*;
    match kind {
        Add => masked(format!("{} + {}", val(0), val(1))),
        Sub => masked(format!("{} - {}", val(0), val(1))),
        Mul => masked(format!("{} * {}", val(0), val(1))),
        Div => masked(format!(
            "({b} == 0 ? 0 : {a} / {b})",
            a = val(0),
            b = val(1)
        )),
        Rem => masked(format!(
            "({b} == 0 ? {a} : {a} % {b})",
            a = val(0),
            b = val(1)
        )),
        Lt => format!("(uint64_t)({} < {})", val(0), val(1)),
        Leq => format!("(uint64_t)({} <= {})", val(0), val(1)),
        Gt => format!("(uint64_t)({} > {})", val(0), val(1)),
        Geq => format!("(uint64_t)({} >= {})", val(0), val(1)),
        Eq => format!("(uint64_t)({} == {})", a(0), a(1)),
        Neq => format!("(uint64_t)({} != {})", a(0), a(1)),
        Shl => masked(format!("{} << {}", a(0), params[0])),
        Shr => {
            if signed {
                masked(format!("{} >> {}", val(0), params[0].min(63)))
            } else if params[0] >= 64 {
                "0".into()
            } else {
                masked(format!("{} >> {}", a(0), params[0]))
            }
        }
        Dshl => masked(format!(
            "({sh} >= 64 ? 0 : {v} << {sh})",
            v = a(0),
            sh = a(1)
        )),
        Dshr => {
            if signed {
                masked(format!(
                    "_sext({v}, {w}) >> ({sh} > 63 ? 63 : {sh})",
                    v = a(0),
                    w = aw(0),
                    sh = a(1)
                ))
            } else {
                format!("({sh} >= 64 ? 0 : {v} >> {sh})", v = a(0), sh = a(1))
            }
        }
        Neg => masked(format!("-{}", val(0))),
        Not => masked(format!("~{}", val(0))),
        And => masked(format!("{} & {}", val(0), val(1))),
        Or => masked(format!("{} | {}", val(0), val(1))),
        Xor => masked(format!("{} ^ {}", val(0), val(1))),
        Andr => format!(
            "(uint64_t)(({} & _mask({w})) == _mask({w}))",
            a(0),
            w = aw(0)
        ),
        Orr => format!("(uint64_t)({} != 0)", a(0)),
        Xorr => format!("(uint64_t)(__builtin_parityll({}))", a(0)),
        Cat => masked(format!("({} << {}) | {}", a(0), aw(1), a(1))),
        Bits => {
            let (hi, lo) = (params[0], params[1]);
            format!("({} >> {lo}) & _mask({})", a(0), hi - lo + 1)
        }
        Mux => format!("({} & 1) ? {} : {}", a(0), masked(val(1)), masked(val(2))),
        Copy => masked(val(0)),
    }
}

/// Identifiers the emitted simulator claims for itself — harness
/// members, struct methods, the file-scope helpers — plus the C++
/// keywords a netlist name could plausibly shadow. A design signal
/// landing on one of these (e.g. a port literally named `done`) would
/// otherwise redeclare the member and break the build.
const RESERVED: &[&str] = &[
    "flags",
    "done",
    "stop_code",
    "cycles",
    "eval",
    "cycle",
    "_mask",
    "_sext",
    "auto",
    "bool",
    "break",
    "case",
    "char",
    "class",
    "const",
    "continue",
    "default",
    "delete",
    "do",
    "double",
    "else",
    "enum",
    "extern",
    "false",
    "float",
    "for",
    "goto",
    "if",
    "inline",
    "int",
    "long",
    "main",
    "namespace",
    "new",
    "operator",
    "private",
    "protected",
    "public",
    "return",
    "short",
    "signed",
    "sizeof",
    "static",
    "struct",
    "switch",
    "template",
    "this",
    "true",
    "typedef",
    "typename",
    "union",
    "unsigned",
    "using",
    "virtual",
    "void",
    "volatile",
    "while",
];

/// C field name for a signal (dots and dollars become underscores;
/// [`RESERVED`] identifiers grow a trailing underscore).
fn field(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    if name.starts_with(|c: char| c.is_ascii_digit()) {
        out.push('_');
    }
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    if RESERVED.contains(&out.as_str()) {
        out.push('_');
    }
    out
}

fn sanitize(name: &str) -> String {
    field(name)
}

fn printf_to_c(fmt: &str) -> String {
    // FIRRTL %d/%x on 64-bit values -> %llu / %llx; escape for C source.
    let mut out = String::new();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '%' => match chars.next() {
                Some('d') => out.push_str("%llu"),
                Some('x') => out.push_str("%llx"),
                Some('b') => out.push_str("%llx"), // C printf lacks %b portably
                Some('c') => out.push_str("%c"),
                Some('%') => out.push_str("%%"),
                Some(other) => {
                    out.push('%');
                    out.push(other);
                }
                None => out.push('%'),
            },
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn netlist_of(src: &str) -> Netlist {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        Netlist::from_circuit(&lowered).unwrap()
    }

    const COUNTER: &str = "circuit Counter :\n  module Counter :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<8>\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= tail(add(r, UInt<8>(1)), 1)\n    q <= r\n";

    #[test]
    fn emits_figure1_structure() {
        let n = netlist_of(COUNTER);
        let cpp = emit_cpp(&n, &EngineConfig::default()).unwrap();
        assert!(cpp.contains("struct Counter"));
        assert!(cpp.contains("void part_0()"));
        assert!(cpp.contains("flags[0] = false;"), "self-deactivation first");
        assert!(cpp.contains("void eval()"));
        assert!(cpp.contains("void poke_reset"));
        assert!(cpp.contains("in-place register update"));
    }

    #[test]
    fn branchless_or_triggers_present_when_multiple_partitions() {
        // `t` and `u` are each consumed by two register cones, so their
        // partitions have cross-partition outputs with triggers, and each
        // cone has two parents (no single-parent absorption).
        let src = "circuit Two :\n  module Two :\n    input clock : Clock\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<8>\n    node t = xor(a, b)\n    node u = and(a, b)\n    reg r1 : UInt<8>, clock\n    reg r2 : UInt<8>, clock\n    r1 <= xor(t, u)\n    r2 <= and(t, u)\n    o <= or(r1, r2)\n";
        let n = netlist_of(src);
        let cpp = emit_cpp(
            &n,
            &EngineConfig {
                c_p: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert!(cpp.contains("] |= ("), "OR-reduction triggers:\n{cpp}");
    }

    #[test]
    fn cold_paths_are_marked_unlikely() {
        let n = netlist_of(COUNTER);
        let cpp = emit_cpp(&n, &EngineConfig::default()).unwrap();
        assert!(
            cpp.contains("if (reset & 1) [[unlikely]]"),
            "the reset mux way is a cold path:\n{cpp}"
        );
    }

    #[test]
    fn reserved_names_are_mangled() {
        // `done` is the emitted harness's own stop member; a port with
        // that name must not redeclare it. Same for keyword shadowing.
        let src = "circuit R :\n  module R :\n    input clock : Clock\n    input done : UInt<8>\n    output int : UInt<8>\n    int <= not(done)\n";
        let n = netlist_of(src);
        let cpp = emit_cpp(&n, &EngineConfig::default()).unwrap();
        assert!(cpp.contains("uint64_t done_;"), "{cpp}");
        assert!(cpp.contains("uint64_t int_;"), "{cpp}");
        assert!(cpp.contains("bool done;"), "harness member survives");
        assert!(!cpp.contains("uint64_t done;"), "{cpp}");
    }

    #[test]
    fn rejects_wide_signals() {
        let src = "circuit W :\n  module W :\n    input a : UInt<80>\n    output o : UInt<80>\n    o <= a\n";
        let n = netlist_of(src);
        assert!(emit_cpp(&n, &EngineConfig::default()).is_err());
    }
}
