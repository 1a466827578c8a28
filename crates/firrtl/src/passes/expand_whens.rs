//! **ExpandWhens**: resolves `when` blocks and last-connect semantics into
//! exactly one driver per sink.
//!
//! Runs on the flat, ground-typed top module. The pass walks the
//! statement list in order, tracking for every sink (wire, register,
//! output port, memory port field) the expression currently driving it.
//! A `when` produces a multiplexer join: for each sink assigned in either
//! branch, the new driver is `mux(cond, then-value, else-value)`, where a
//! branch that did not assign falls back to the value before the `when` —
//! or, for registers, to the register itself (hold).
//!
//! `stop`/`printf` statements inside `when`s get their enable ANDed with
//! the accumulated guard. Declarations inside `when` bodies are hoisted
//! (FIRRTL names are module-unique, so hoisting is safe).
//!
//! Don't-care resolution: an `is invalid` driver, or a branch with no
//! value at all, resolves to the *other* branch's value when one exists
//! (matching the firrtl compiler's `validif` folding) and to zero when no
//! branch ever drives the sink — the deterministic 2-state convention used
//! by ESSENT's generated simulators.

use crate::ast::*;
use crate::passes::LowerError;
use std::collections::{HashMap, HashSet};

const PASS: &str = "ExpandWhens";

/// The value currently driving a sink.
#[derive(Debug, Clone, PartialEq)]
enum Driver {
    Value(Expr),
    Invalid,
}

/// One lexical scope of drivers (a `when` branch or the module body),
/// keyed by sink index.
#[derive(Debug, Default)]
struct Scope {
    map: HashMap<u32, Driver>,
    order: Vec<u32>,
}

impl Scope {
    fn set(&mut self, sink: u32, driver: Driver) {
        if self.map.insert(sink, driver).is_none() {
            self.order.push(sink);
        }
    }
}

struct Ctx {
    decls: Vec<Stmt>,
    stops: Vec<Stmt>,
    printfs: Vec<Stmt>,
    /// Canonical key (the printed target; a register's name) → sink
    /// index.
    index: HashMap<String, u32>,
    /// Per sink index: the connect target, from its first connect.
    sinks: Vec<Option<Expr>>,
    /// Per sink index: a register, which holds when a branch leaves it
    /// unassigned.
    is_reg: Vec<bool>,
    /// Names a generated `_GEN_` node must not take.
    used_names: HashSet<String>,
    gen_counter: usize,
}

impl Ctx {
    fn fresh(&mut self, hint: &str) -> String {
        loop {
            let name = format!("_GEN_{hint}_{}", self.gen_counter);
            self.gen_counter += 1;
            if self.used_names.insert(name.clone()) {
                return name;
            }
        }
    }

    /// The index of the sink with canonical key `key`, new if unseen.
    fn sink_index(&mut self, key: &str) -> u32 {
        if let Some(&i) = self.index.get(key) {
            return i;
        }
        let i = self.sinks.len() as u32;
        self.index.insert(key.to_string(), i);
        self.sinks.push(None);
        self.is_reg.push(false);
        i
    }

    /// The index of connect target `loc`, which becomes the sink's
    /// target when it is the first connect to it. A plain reference is
    /// its own key; other targets are keyed by their printed form.
    fn sink(&mut self, loc: Expr) -> u32 {
        let i = match &loc {
            Expr::Ref(name) => self.sink_index(name),
            other => {
                let key = canon(other);
                self.sink_index(&key)
            }
        };
        let slot = &mut self.sinks[i as usize];
        if slot.is_none() {
            *slot = Some(loc);
        }
        i
    }
}

/// Runs the pass on a single-module circuit.
///
/// # Errors
///
/// Returns an error if the circuit still has multiple modules (run
/// [`inline`](crate::passes::inline) first) or contains connects to
/// non-sink expressions.
pub fn run(circuit: Circuit) -> Result<Circuit, LowerError> {
    if circuit.modules.len() != 1 {
        return Err(LowerError::new(
            PASS,
            "expected a single flattened module (run InlineInstances first)",
        ));
    }
    let module = circuit.modules.into_iter().next().expect("one module");
    let mut ctx = Ctx {
        decls: Vec::new(),
        stops: Vec::new(),
        printfs: Vec::new(),
        index: HashMap::new(),
        sinks: Vec::new(),
        is_reg: Vec::new(),
        used_names: generated_names(&module),
        gen_counter: 0,
    };
    let mut root = Scope::default();
    process(module.body, None, &mut root, &mut ctx)?;

    let mut body = std::mem::take(&mut ctx.decls);
    body.reserve(root.order.len() + ctx.stops.len() + ctx.printfs.len());
    for sink in root.order {
        let loc = ctx.sinks[sink as usize]
            .take()
            .expect("a driven sink has a target");
        let value = match root.map.remove(&sink).expect("ordered sinks are driven") {
            Driver::Value(e) => e,
            Driver::Invalid => Expr::uint(0, 1),
        };
        body.push(Stmt::Connect {
            loc,
            value,
            info: Info::default(),
        });
    }
    body.extend(ctx.stops);
    body.extend(ctx.printfs);
    Ok(Circuit {
        name: circuit.name,
        modules: vec![Module {
            name: module.name,
            ports: module.ports,
            body,
            info: module.info,
        }],
        info: circuit.info,
    })
}

/// The declared names a generated `_GEN_` name could collide with: only
/// those that start with the prefix.
fn generated_names(module: &Module) -> HashSet<String> {
    fn keep(name: &str, names: &mut HashSet<String>) {
        if name.starts_with("_GEN_") {
            names.insert(name.to_string());
        }
    }
    fn walk(stmts: &[Stmt], names: &mut HashSet<String>) {
        for stmt in stmts {
            match stmt {
                Stmt::Wire { name, .. }
                | Stmt::Reg { name, .. }
                | Stmt::Node { name, .. }
                | Stmt::Inst { name, .. } => keep(name, names),
                Stmt::Mem(decl) => keep(&decl.name, names),
                Stmt::When {
                    then_body,
                    else_body,
                    ..
                } => {
                    walk(then_body, names);
                    walk(else_body, names);
                }
                _ => {}
            }
        }
    }
    let mut names = HashSet::new();
    for port in &module.ports {
        keep(&port.name, &mut names);
    }
    walk(&module.body, &mut names);
    names
}

/// Canonical key for a connect target.
fn canon(expr: &Expr) -> String {
    crate::printer::print_expr(expr)
}

fn and_expr(a: Expr, b: Expr) -> Expr {
    Expr::Prim {
        op: PrimOp::And,
        args: vec![a, b],
        params: vec![],
    }
}

fn not_expr(a: Expr) -> Expr {
    Expr::Prim {
        op: PrimOp::Not,
        args: vec![a],
        params: vec![],
    }
}

/// `en` under the accumulated guard.
fn guarded(guard: Option<&Expr>, en: Expr) -> Expr {
    match guard {
        Some(g) => and_expr(g.clone(), en),
        None => en,
    }
}

fn process(
    stmts: Vec<Stmt>,
    guard: Option<&Expr>,
    scope: &mut Scope,
    ctx: &mut Ctx,
) -> Result<(), LowerError> {
    for stmt in stmts {
        match stmt {
            Stmt::Wire { .. } | Stmt::Mem(_) | Stmt::Node { .. } => ctx.decls.push(stmt),
            Stmt::Reg { ref name, .. } => {
                let sink = ctx.sink_index(name);
                ctx.is_reg[sink as usize] = true;
                ctx.decls.push(stmt);
            }
            Stmt::Inst { .. } => {
                return Err(LowerError::new(
                    PASS,
                    "instances must be inlined before when expansion",
                ))
            }
            Stmt::Connect { loc, value, .. } => {
                let sink = ctx.sink(loc);
                scope.set(sink, Driver::Value(value));
            }
            Stmt::Invalidate { loc, .. } => {
                let sink = ctx.sink(loc);
                scope.set(sink, Driver::Invalid);
            }
            Stmt::When {
                cond,
                then_body,
                else_body,
                ..
            } => {
                // Hoist the condition into a node so mux joins share it by
                // reference instead of duplicating the expression.
                let cond_ref = match cond {
                    Expr::Ref(_) | Expr::UIntLit { .. } => cond,
                    _ => {
                        let name = ctx.fresh("when");
                        ctx.decls.push(Stmt::Node {
                            name: name.clone(),
                            value: cond,
                            info: Info::default(),
                        });
                        Expr::Ref(name)
                    }
                };
                let then_guard = guarded(guard, cond_ref.clone());
                let else_guard = guarded(guard, not_expr(cond_ref.clone()));

                let mut then_scope = Scope::default();
                process(then_body, Some(&then_guard), &mut then_scope, ctx)?;
                let mut else_scope = Scope::default();
                process(else_body, Some(&else_guard), &mut else_scope, ctx)?;

                // Join: deterministic order (then-branch sinks, then new
                // else-branch sinks). Each branch's driver and the prior
                // one are taken, never copied: a sink only one branch
                // assigns falls back to the prior driver, or for a
                // register to the register itself.
                let else_only: Vec<u32> = else_scope
                    .order
                    .iter()
                    .copied()
                    .filter(|k| !then_scope.map.contains_key(k))
                    .collect();
                for sink in then_scope.order.into_iter().chain(else_only) {
                    let prior = scope.map.remove(&sink);
                    let known = prior.is_some();
                    let mut fallback = prior.or_else(|| {
                        ctx.is_reg[sink as usize].then(|| {
                            Driver::Value(ctx.sinks[sink as usize].clone().expect("driven"))
                        })
                    });
                    let tv = then_scope.map.remove(&sink).or_else(|| fallback.take());
                    let ev = else_scope.map.remove(&sink).or_else(|| fallback.take());
                    let joined = join(&cond_ref, tv, ev);
                    if known {
                        scope.map.insert(sink, joined);
                    } else {
                        scope.set(sink, joined);
                    }
                }
            }
            Stmt::Stop {
                name,
                clock,
                en,
                code,
                info,
            } => ctx.stops.push(Stmt::Stop {
                name,
                clock,
                en: guarded(guard, en),
                code,
                info,
            }),
            Stmt::Printf {
                name,
                clock,
                en,
                fmt,
                args,
                info,
            } => ctx.printfs.push(Stmt::Printf {
                name,
                clock,
                en: guarded(guard, en),
                fmt,
                args,
                info,
            }),
            Stmt::Skip => {}
        }
    }
    Ok(())
}

/// Combines the two branch drivers of one sink under condition `cond`.
fn join(cond: &Expr, then_v: Option<Driver>, else_v: Option<Driver>) -> Driver {
    use Driver::*;
    match (then_v, else_v) {
        (Some(Value(t)), Some(Value(e))) => {
            if t == e {
                Value(t)
            } else {
                Value(Expr::Mux(Box::new(cond.clone()), Box::new(t), Box::new(e)))
            }
        }
        // validif folding: a branch without a live value is a don't-care,
        // so the live branch's value wins unconditionally.
        (Some(Value(t)), Some(Invalid)) | (Some(Value(t)), None) => Value(t),
        (Some(Invalid), Some(Value(e))) | (None, Some(Value(e))) => Value(e),
        (Some(Invalid), _) | (_, Some(Invalid)) => Invalid,
        (None, None) => Invalid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::passes::{inline, lower_types};
    use crate::printer::print_circuit;

    fn expand(src: &str) -> Circuit {
        let c = lower_types::run(parse(src).unwrap()).unwrap();
        let c = inline::run(c).unwrap();
        run(c).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"))
    }

    fn connect_of<'a>(c: &'a Circuit, sink: &str) -> &'a Expr {
        c.top()
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::Connect { loc, value, .. } if crate::printer::print_expr(loc) == sink => {
                    Some(value)
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("no connect to {sink} in:\n{}", print_circuit(c)))
    }

    #[test]
    fn simple_when_becomes_mux() {
        let c = expand("circuit W :\n  module W :\n    input c : UInt<1>\n    input a : UInt<4>\n    output o : UInt<4>\n    o <= UInt<4>(0)\n    when c :\n      o <= a\n");
        match connect_of(&c, "o") {
            Expr::Mux(sel, high, low) => {
                assert_eq!(**sel, Expr::Ref("c".into()));
                assert_eq!(**high, Expr::Ref("a".into()));
                assert!(matches!(**low, Expr::UIntLit { .. }));
            }
            other => panic!("expected mux, got {other:?}"),
        }
    }

    #[test]
    fn last_connect_wins() {
        let c = expand("circuit L :\n  module L :\n    input a : UInt<4>\n    input b : UInt<4>\n    output o : UInt<4>\n    o <= a\n    o <= b\n");
        assert_eq!(connect_of(&c, "o"), &Expr::Ref("b".into()));
    }

    #[test]
    fn register_holds_when_unassigned_branch() {
        let c = expand("circuit R :\n  module R :\n    input clock : Clock\n    input c : UInt<1>\n    input a : UInt<4>\n    output o : UInt<4>\n    reg r : UInt<4>, clock\n    when c :\n      r <= a\n    o <= r\n");
        match connect_of(&c, "r") {
            Expr::Mux(_, high, low) => {
                assert_eq!(**high, Expr::Ref("a".into()));
                assert_eq!(**low, Expr::Ref("r".into()), "register must hold");
            }
            other => panic!("expected mux, got {other:?}"),
        }
    }

    #[test]
    fn nested_whens_join_correctly() {
        let c = expand("circuit N :\n  module N :\n    input c1 : UInt<1>\n    input c2 : UInt<1>\n    input a : UInt<4>\n    input b : UInt<4>\n    input d : UInt<4>\n    output o : UInt<4>\n    o <= d\n    when c1 :\n      when c2 :\n        o <= a\n      else :\n        o <= b\n");
        // o = mux(c1, mux(c2, a, b), d)
        match connect_of(&c, "o") {
            Expr::Mux(sel, high, low) => {
                assert_eq!(**sel, Expr::Ref("c1".into()));
                assert_eq!(**low, Expr::Ref("d".into()));
                match high.as_ref() {
                    Expr::Mux(s2, h2, l2) => {
                        assert_eq!(**s2, Expr::Ref("c2".into()));
                        assert_eq!(**h2, Expr::Ref("a".into()));
                        assert_eq!(**l2, Expr::Ref("b".into()));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_resolves_to_live_branch() {
        let c = expand("circuit V :\n  module V :\n    input c : UInt<1>\n    input a : UInt<4>\n    output o : UInt<4>\n    o is invalid\n    when c :\n      o <= a\n");
        // firrtl folds validif(c, a) to a.
        assert_eq!(connect_of(&c, "o"), &Expr::Ref("a".into()));
    }

    #[test]
    fn never_driven_sink_resolves_to_zero() {
        let c = expand("circuit Z :\n  module Z :\n    output o : UInt<4>\n    o is invalid\n");
        assert!(matches!(connect_of(&c, "o"), Expr::UIntLit { .. }));
    }

    #[test]
    fn stop_enable_gets_guard() {
        let c = expand("circuit S :\n  module S :\n    input clock : Clock\n    input c : UInt<1>\n    input e : UInt<1>\n    when c :\n      stop(clock, e, 1)\n");
        let stop_en = c
            .top()
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::Stop { en, .. } => Some(en.clone()),
                _ => None,
            })
            .unwrap();
        match stop_en {
            Expr::Prim { op, args, .. } => {
                assert_eq!(op, PrimOp::And);
                assert_eq!(args[0], Expr::Ref("c".into()));
                assert_eq!(args[1], Expr::Ref("e".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn complex_condition_is_hoisted_into_node() {
        let c = expand("circuit H :\n  module H :\n    input a : UInt<4>\n    input b : UInt<4>\n    output o : UInt<4>\n    o <= a\n    when eq(a, b) :\n      o <= b\n");
        let text = print_circuit(&c);
        assert!(text.contains("node _GEN_when_0 = eq(a, b)"), "{text}");
        assert!(text.contains("o <= mux(_GEN_when_0, b, a)"), "{text}");
    }

    #[test]
    fn mem_port_fields_are_sinks() {
        let c = expand("circuit M :\n  module M :\n    input clock : Clock\n    input c : UInt<1>\n    input a : UInt<2>\n    output o : UInt<8>\n    mem m :\n      data-type => UInt<8>\n      depth => 4\n      read-latency => 0\n      write-latency => 1\n      reader => r\n      writer => w\n    m.r.clk <= clock\n    m.r.en <= UInt<1>(1)\n    m.r.addr <= UInt<2>(0)\n    when c :\n      m.r.addr <= a\n    m.w.clk <= clock\n    m.w.en <= UInt<1>(0)\n    m.w.addr <= a\n    m.w.data <= UInt<8>(0)\n    m.w.mask <= UInt<1>(1)\n    o <= m.r.data\n");
        match connect_of(&c, "m.r.addr") {
            Expr::Mux(sel, ..) => assert_eq!(**sel, Expr::Ref("c".into())),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn declarations_inside_when_are_hoisted() {
        let c = expand("circuit D :\n  module D :\n    input c : UInt<1>\n    input a : UInt<4>\n    output o : UInt<4>\n    o <= UInt<4>(0)\n    when c :\n      node t = not(a)\n      o <= t\n");
        let text = print_circuit(&c);
        assert!(text.contains("node t = not(a)"), "{text}");
        // The node decl must appear before the connect using it.
        let node_pos = text.find("node t").unwrap();
        let conn_pos = text.find("o <= mux").unwrap();
        assert!(node_pos < conn_pos, "{text}");
    }

    #[test]
    fn identical_branch_values_skip_the_mux() {
        let c = expand("circuit E :\n  module E :\n    input c : UInt<1>\n    input a : UInt<4>\n    output o : UInt<4>\n    when c :\n      o <= a\n    else :\n      o <= a\n");
        assert_eq!(connect_of(&c, "o"), &Expr::Ref("a".into()));
    }
}
