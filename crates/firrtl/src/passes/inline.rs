//! **InlineInstances**: flattens the module hierarchy into the top module.
//!
//! Runs after LowerTypes, so every port is ground-typed and instance
//! references have the two-level form `inst.port`. Each `inst u of M`
//! becomes: one wire `u$p` per port `p` of `M`, followed by `M`'s body
//! with every local name prefixed `u$`. Parent references `u.p` become
//! `u$p`. The `$` separator cannot appear in user FIRRTL identifiers
//! produced by Chisel, so inlined names never collide with user names.
//!
//! The paper notes that module hierarchies are almost always *cyclic* as
//! module-level graphs (Section II), which is exactly why ESSENT flattens
//! the hierarchy and re-partitions the flat signal graph with its own
//! acyclic partitioner instead of coarsening by modules.

use crate::ast::*;
use crate::passes::LowerError;
use std::collections::{HashMap, HashSet};

const PASS: &str = "InlineInstances";

/// Runs the pass, producing a circuit containing only the flattened top
/// module.
///
/// # Errors
///
/// Returns an error on unknown module references or recursive
/// instantiation.
pub fn run(circuit: Circuit) -> Result<Circuit, LowerError> {
    let mut modules: HashMap<String, Module> = circuit
        .modules
        .into_iter()
        .map(|m| (m.name.clone(), m))
        .collect();
    let mut done: HashMap<String, Module> = HashMap::new();
    let mut visiting = HashSet::new();
    inline_module(&circuit.name, &mut modules, &mut done, &mut visiting)?;
    let top = done.remove(&circuit.name).expect("top was inlined");
    Ok(Circuit {
        name: circuit.name,
        modules: vec![top],
        info: circuit.info,
    })
}

/// Flattens module `name`, taken out of `modules`, into `done`, after
/// its children.
fn inline_module(
    name: &str,
    modules: &mut HashMap<String, Module>,
    done: &mut HashMap<String, Module>,
    visiting: &mut HashSet<String>,
) -> Result<(), LowerError> {
    if done.contains_key(name) {
        return Ok(());
    }
    if !visiting.insert(name.to_string()) {
        return Err(LowerError::new(
            PASS,
            format!("recursive instantiation of `{name}`"),
        ));
    }
    let module = modules
        .remove(name)
        .ok_or_else(|| LowerError::new(PASS, format!("unknown module `{name}`")))?;

    // Inline children first.
    let mut bindings = Vec::new();
    collect_instances(&module.body, &mut bindings);
    for (_, child) in &bindings {
        inline_module(child, modules, done, visiting)?;
    }

    // A leaf module's body is already flat.
    let body = if bindings.is_empty() {
        module.body
    } else {
        let instances: HashSet<String> = bindings.into_iter().map(|(inst, _)| inst).collect();
        let mut body = Vec::with_capacity(module.body.len());
        splice_stmts(module.body, &instances, done, &mut body)?;
        body
    };
    visiting.remove(name);
    done.insert(
        name.to_string(),
        Module {
            name: module.name,
            ports: module.ports,
            body,
            info: module.info,
        },
    );
    Ok(())
}

/// Every `(instance, module)` binding of a body, in statement order.
fn collect_instances(stmts: &[Stmt], out: &mut Vec<(String, String)>) {
    for stmt in stmts {
        match stmt {
            Stmt::Inst { name, module, .. } => out.push((name.clone(), module.clone())),
            Stmt::When {
                then_body,
                else_body,
                ..
            } => {
                collect_instances(then_body, out);
                collect_instances(else_body, out);
            }
            _ => {}
        }
    }
}

/// Moves `stmts` into `out`, each instance replaced by its port wires and
/// its module's prefixed body, and every `inst.port` reference resolved
/// in place.
fn splice_stmts(
    stmts: Vec<Stmt>,
    instances: &HashSet<String>,
    done: &HashMap<String, Module>,
    out: &mut Vec<Stmt>,
) -> Result<(), LowerError> {
    for mut stmt in stmts {
        match stmt {
            Stmt::Inst { name, module, info } => {
                let child = done
                    .get(&module)
                    .ok_or_else(|| LowerError::new(PASS, format!("unknown module `{module}`")))?;
                let prefix = format!("{name}$");
                // Port wires carry values across the former boundary.
                for port in &child.ports {
                    out.push(Stmt::Wire {
                        name: format!("{prefix}{}", port.name),
                        ty: port.ty.clone(),
                        info: info.clone(),
                    });
                }
                for child_stmt in &child.body {
                    out.push(rename_stmt(child_stmt, &prefix));
                }
            }
            Stmt::When {
                mut cond,
                then_body,
                else_body,
                info,
            } => {
                resolve_expr(&mut cond, instances);
                let mut then_out = Vec::with_capacity(then_body.len());
                splice_stmts(then_body, instances, done, &mut then_out)?;
                let mut else_out = Vec::with_capacity(else_body.len());
                splice_stmts(else_body, instances, done, &mut else_out)?;
                out.push(Stmt::When {
                    cond,
                    then_body: then_out,
                    else_body: else_out,
                    info,
                });
            }
            _ => {
                resolve_stmt(&mut stmt, instances);
                out.push(stmt);
            }
        }
    }
    Ok(())
}

/// Rewrites `inst.port` references into the inlined wire names.
fn resolve_expr(expr: &mut Expr, instances: &HashSet<String>) {
    match expr {
        Expr::SubField(base, field) => match base.as_mut() {
            Expr::Ref(root) if instances.contains(root.as_str()) => {
                let name = format!("{root}${field}");
                *expr = Expr::Ref(name);
            }
            base => resolve_expr(base, instances),
        },
        Expr::SubIndex(base, _) => resolve_expr(base, instances),
        Expr::SubAccess(base, index) => {
            resolve_expr(base, instances);
            resolve_expr(index, instances);
        }
        Expr::Mux(s, h, l) => {
            resolve_expr(s, instances);
            resolve_expr(h, instances);
            resolve_expr(l, instances);
        }
        Expr::ValidIf(c, v) => {
            resolve_expr(c, instances);
            resolve_expr(v, instances);
        }
        Expr::Prim { args, .. } => {
            for a in args {
                resolve_expr(a, instances);
            }
        }
        Expr::Ref(_) | Expr::UIntLit { .. } | Expr::SIntLit { .. } => {}
    }
}

/// Resolves every expression position of a statement (whens handled by
/// the caller).
fn resolve_stmt(stmt: &mut Stmt, instances: &HashSet<String>) {
    let f = |e: &mut Expr| resolve_expr(e, instances);
    match stmt {
        Stmt::Reg { clock, reset, .. } => {
            f(clock);
            if let Some((c, i)) = reset {
                f(c);
                f(i);
            }
        }
        Stmt::Node { value, .. } => f(value),
        Stmt::Connect { loc, value, .. } => {
            f(loc);
            f(value);
        }
        Stmt::Invalidate { loc, .. } => f(loc),
        Stmt::Stop { clock, en, .. } => {
            f(clock);
            f(en);
        }
        Stmt::Printf {
            clock, en, args, ..
        } => {
            f(clock);
            f(en);
            args.iter_mut().for_each(f);
        }
        Stmt::Wire { .. } | Stmt::Mem(_) | Stmt::Inst { .. } | Stmt::When { .. } | Stmt::Skip => {}
    }
}

/// Prefixes every local name in an already-inlined child statement.
fn rename_stmt(stmt: &Stmt, prefix: &str) -> Stmt {
    let rename = |e: &Expr| rename_expr(e, prefix);
    match stmt {
        Stmt::Wire { name, ty, info } => Stmt::Wire {
            name: format!("{prefix}{name}"),
            ty: ty.clone(),
            info: info.clone(),
        },
        Stmt::Reg {
            name,
            ty,
            clock,
            reset,
            info,
        } => Stmt::Reg {
            name: format!("{prefix}{name}"),
            ty: ty.clone(),
            clock: rename(clock),
            reset: reset.as_ref().map(|(c, i)| (rename(c), rename(i))),
            info: info.clone(),
        },
        Stmt::Mem(decl) => {
            let mut decl = decl.clone();
            decl.name = format!("{prefix}{}", decl.name);
            Stmt::Mem(decl)
        }
        Stmt::Node { name, value, info } => Stmt::Node {
            name: format!("{prefix}{name}"),
            value: rename(value),
            info: info.clone(),
        },
        Stmt::Connect { loc, value, info } => Stmt::Connect {
            loc: rename(loc),
            value: rename(value),
            info: info.clone(),
        },
        Stmt::Invalidate { loc, info } => Stmt::Invalidate {
            loc: rename(loc),
            info: info.clone(),
        },
        Stmt::When {
            cond,
            then_body,
            else_body,
            info,
        } => Stmt::When {
            cond: rename(cond),
            then_body: then_body.iter().map(|s| rename_stmt(s, prefix)).collect(),
            else_body: else_body.iter().map(|s| rename_stmt(s, prefix)).collect(),
            info: info.clone(),
        },
        Stmt::Stop {
            name,
            clock,
            en,
            code,
            info,
        } => Stmt::Stop {
            name: format!("{prefix}{name}"),
            clock: rename(clock),
            en: rename(en),
            code: *code,
            info: info.clone(),
        },
        Stmt::Printf {
            name,
            clock,
            en,
            fmt,
            args,
            info,
        } => Stmt::Printf {
            name: format!("{prefix}{name}"),
            clock: rename(clock),
            en: rename(en),
            fmt: fmt.clone(),
            args: args.iter().map(rename).collect(),
            info: info.clone(),
        },
        Stmt::Inst { .. } => unreachable!("children are fully inlined before splicing"),
        Stmt::Skip => Stmt::Skip,
    }
}

fn rename_expr(expr: &Expr, prefix: &str) -> Expr {
    match expr {
        Expr::Ref(name) => Expr::Ref(format!("{prefix}{name}")),
        Expr::SubField(base, field) => {
            Expr::SubField(Box::new(rename_expr(base, prefix)), field.clone())
        }
        Expr::SubIndex(base, index) => Expr::SubIndex(Box::new(rename_expr(base, prefix)), *index),
        Expr::SubAccess(base, index) => Expr::SubAccess(
            Box::new(rename_expr(base, prefix)),
            Box::new(rename_expr(index, prefix)),
        ),
        Expr::Mux(s, h, l) => Expr::Mux(
            Box::new(rename_expr(s, prefix)),
            Box::new(rename_expr(h, prefix)),
            Box::new(rename_expr(l, prefix)),
        ),
        Expr::ValidIf(c, v) => Expr::ValidIf(
            Box::new(rename_expr(c, prefix)),
            Box::new(rename_expr(v, prefix)),
        ),
        Expr::Prim { op, args, params } => Expr::Prim {
            op: *op,
            args: args.iter().map(|a| rename_expr(a, prefix)).collect(),
            params: params.clone(),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::passes::lower_types;
    use crate::printer::print_circuit;

    fn lower_and_inline(src: &str) -> Circuit {
        run(lower_types::run(parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn inlines_single_level() {
        let c = lower_and_inline("circuit O :\n  module I :\n    input a : UInt<4>\n    output b : UInt<4>\n    b <= not(a)\n  module O :\n    input x : UInt<4>\n    output y : UInt<4>\n    inst u of I\n    u.a <= x\n    y <= u.b\n");
        assert_eq!(c.modules.len(), 1);
        let text = print_circuit(&c);
        assert!(text.contains("wire u$a : UInt<4>"), "{text}");
        assert!(text.contains("u$b <= not(u$a)"), "{text}");
        assert!(text.contains("u$a <= x"), "{text}");
        assert!(text.contains("y <= u$b"), "{text}");
    }

    #[test]
    fn inlines_two_levels_with_nested_prefixes() {
        let c = lower_and_inline("circuit T :\n  module Leaf :\n    input a : UInt<2>\n    output b : UInt<2>\n    b <= a\n  module Mid :\n    input a : UInt<2>\n    output b : UInt<2>\n    inst l of Leaf\n    l.a <= a\n    b <= l.b\n  module T :\n    input x : UInt<2>\n    output y : UInt<2>\n    inst m of Mid\n    m.a <= x\n    y <= m.b\n");
        let text = print_circuit(&c);
        assert!(text.contains("wire m$l$a : UInt<2>"), "{text}");
        assert!(text.contains("m$l$a <= m$a"), "{text}");
    }

    #[test]
    fn inlines_registers_and_mems_with_prefix() {
        let c = lower_and_inline("circuit O :\n  module Cnt :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<4>\n    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))\n    r <= tail(add(r, UInt<4>(1)), 1)\n    q <= r\n  module O :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<4>\n    inst c of Cnt\n    c.clock <= clock\n    c.reset <= reset\n    q <= c.q\n");
        let text = print_circuit(&c);
        assert!(text.contains("reg c$r : UInt<4>, c$clock"), "{text}");
    }

    #[test]
    fn two_instances_of_same_module_are_independent() {
        let c = lower_and_inline("circuit D :\n  module I :\n    input a : UInt<1>\n    output b : UInt<1>\n    b <= a\n  module D :\n    input x : UInt<1>\n    output y : UInt<1>\n    output z : UInt<1>\n    inst p of I\n    inst q of I\n    p.a <= x\n    q.a <= p.b\n    y <= p.b\n    z <= q.b\n");
        let text = print_circuit(&c);
        assert!(text.contains("wire p$a"), "{text}");
        assert!(text.contains("wire q$a"), "{text}");
        assert!(text.contains("q$a <= p$b"), "{text}");
    }

    #[test]
    fn instance_inside_when_keeps_guarded_connects() {
        // The child's body is unconditional (module semantics); only the
        // parent's connects stay under the when.
        let c = lower_and_inline("circuit W :\n  module I :\n    input a : UInt<1>\n    output b : UInt<1>\n    b <= a\n  module W :\n    input c : UInt<1>\n    input x : UInt<1>\n    output y : UInt<1>\n    inst u of I\n    u.a <= UInt<1>(0)\n    when c :\n      u.a <= x\n    y <= u.b\n");
        let text = print_circuit(&c);
        assert!(text.contains("when c :"), "{text}");
        assert!(text.contains("u$a <= x"), "{text}");
    }

    #[test]
    fn rejects_recursion() {
        let src = "circuit R :\n  module R :\n    input a : UInt<1>\n    output b : UInt<1>\n    inst u of R\n    u.a <= a\n    b <= u.b\n";
        let lowered = lower_types::run(parse(src).unwrap()).unwrap();
        let e = run(lowered).unwrap_err();
        assert!(e.message.contains("recursive"), "{e}");
    }
}
