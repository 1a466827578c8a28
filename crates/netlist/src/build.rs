//! Builds a [`Netlist`] from a fully lowered FIRRTL circuit.
//!
//! Expects the output of [`essent_firrtl::passes::lower`]: a single
//! module, ground types only, no `when`s, and exactly one connect per
//! driven sink. Expressions are flattened into three-address form with
//! interned intermediates (structural hashing gives common-subexpression
//! elimination during construction), widths are inferred bottom-up with
//! the FIRRTL spec rules, and registers/memories are split into
//! source/sink node pairs so the resulting combinational graph is acyclic
//! for any synchronous design.

use crate::netlist::*;
use crate::width::{self, Ty};
use essent_bits::Bits;
use essent_firrtl::{Circuit, Direction, Expr, PrimOp, Stmt, Type};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// Error produced when a lowered circuit cannot be turned into a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError(pub String);

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist build error: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

impl From<width::WidthError> for BuildError {
    fn from(e: width::WidthError) -> Self {
        BuildError(e.to_string())
    }
}

impl Netlist {
    /// Builds the design graph from a lowered circuit.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when the circuit is not fully lowered, uses
    /// more than one clock for its registers, contains a combinational
    /// cycle, or fails width inference.
    pub fn from_circuit(circuit: &Circuit) -> Result<Netlist, BuildError> {
        if circuit.modules.len() != 1 {
            return Err(BuildError(
                "expected a lowered single-module circuit (run essent_firrtl::passes::lower)"
                    .into(),
            ));
        }
        let module = circuit.top();
        let mut b = Builder::default();
        b.netlist.name = circuit.name.clone();

        // Ports.
        for port in &module.ports {
            let ty = port_ty(&port.ty).ok_or_else(|| {
                BuildError(format!(
                    "port `{}` has aggregate type (not lowered)",
                    port.name
                ))
            })?;
            let id = b.declare(&port.name, ty, SignalDef::Input)?;
            match port.direction {
                Direction::Input => b.netlist.inputs.push(id),
                Direction::Output => {
                    b.netlist.signals[id.index()].def = SignalDef::Const(Bits::zero(ty.width));
                    b.netlist.outputs.push(id);
                }
            }
        }

        // Declarations and node definitions, in order.
        for stmt in &module.body {
            b.handle_decl(stmt)?;
        }
        // Connects and side effects.
        for stmt in &module.body {
            b.handle_connect(stmt)?;
        }
        b.finalize()?;

        let netlist = b.netlist;
        check_acyclic(&netlist)?;
        Ok(netlist)
    }
}

fn port_ty(ty: &Type) -> Option<Ty> {
    match ty {
        Type::UInt(Some(w)) => Some(Ty::new(*w, false)),
        Type::SInt(Some(w)) => Some(Ty::new(*w, true)),
        Type::Clock | Type::Reset => Some(Ty::new(1, false)),
        _ => None,
    }
}

/// Structural interning key for an op definition: kind, operands, static
/// parameters, width, and signedness, held inline (an op has at most
/// three operands and two parameters).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct OpKey {
    kind: OpKind,
    args: [u32; 3],
    params: [u64; 2],
    nargs: u8,
    nparams: u8,
    width: u32,
    signed: bool,
}

impl OpKey {
    fn new(kind: OpKind, args: &[SignalId], params: &[u64], ty: Ty) -> OpKey {
        let mut key = OpKey {
            kind,
            args: [0; 3],
            params: [0; 2],
            nargs: args.len() as u8,
            nparams: params.len() as u8,
            width: ty.width,
            signed: ty.signed,
        };
        for (k, a) in key.args.iter_mut().zip(args) {
            *k = a.0;
        }
        key.params[..params.len()].copy_from_slice(params);
        key
    }
}

/// Builder state. Names, literals and register clocks and resets are
/// borrowed from the circuit; only generated names are owned.
#[derive(Default)]
struct Builder<'a> {
    netlist: Netlist,
    names: HashMap<Cow<'a, str>, SignalId>,
    intern: HashMap<OpKey, SignalId>,
    /// (literal, signedness) → its constant signal.
    consts: HashMap<(&'a Bits, bool), SignalId>,
    temp_counter: usize,
    /// Per register: the converted driving value (from its connect).
    reg_drive: Vec<Option<SignalId>>,
    /// Per register: (reset cond expr, init expr) from its declaration.
    reg_reset: Vec<Option<&'a (Expr, Expr)>>,
    /// Per register: (name, clock expr) for the single-clock check.
    reg_clocks: Vec<(&'a str, &'a Expr)>,
}

impl<'a> Builder<'a> {
    fn declare(
        &mut self,
        name: impl Into<Cow<'a, str>>,
        ty: Ty,
        def: SignalDef,
    ) -> Result<SignalId, BuildError> {
        let id = SignalId(self.netlist.signals.len() as u32);
        let name = match self.names.entry(name.into()) {
            Entry::Occupied(e) => {
                return Err(BuildError(format!("duplicate signal `{}`", e.key())))
            }
            Entry::Vacant(e) => {
                let name = e.key().to_string();
                e.insert(id);
                name
            }
        };
        self.netlist.signals.push(Signal {
            name,
            width: ty.width,
            signed: ty.signed,
            def,
        });
        Ok(id)
    }

    fn ty_of(&self, id: SignalId) -> Ty {
        let s = &self.netlist.signals[id.index()];
        Ty::new(s.width, s.signed)
    }

    fn emit_const(&mut self, value: &'a Bits, signed: bool) -> SignalId {
        let count = self.consts.len();
        match self.consts.entry((value, signed)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = SignalId(self.netlist.signals.len() as u32);
                self.netlist.signals.push(Signal {
                    name: format!("_C{count}"),
                    width: value.width(),
                    signed,
                    def: SignalDef::Const(value.clone()),
                });
                e.insert(id);
                id
            }
        }
    }

    fn emit_op(&mut self, kind: OpKind, args: &[SignalId], params: &[u64], ty: Ty) -> SignalId {
        match self.intern.entry(OpKey::new(kind, args, params, ty)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = SignalId(self.netlist.signals.len() as u32);
                let name = format!("_T{}", self.temp_counter);
                self.temp_counter += 1;
                self.netlist.signals.push(Signal {
                    name,
                    width: ty.width,
                    signed: ty.signed,
                    def: SignalDef::Op(Op {
                        kind,
                        args: args.to_vec(),
                        params: params.to_vec(),
                    }),
                });
                e.insert(id);
                id
            }
        }
    }

    /// Emits a width/sign-adapting copy unless the source already matches.
    fn adapt(&mut self, src: SignalId, ty: Ty) -> SignalId {
        if self.ty_of(src) == ty {
            src
        } else {
            self.emit_op(OpKind::Copy, &[src], &[], ty)
        }
    }

    /// The signal named by a reference or a memory port field.
    fn lookup(&self, expr: &Expr) -> Option<SignalId> {
        match expr {
            Expr::Ref(name) => self.names.get(name.as_str()).copied(),
            // Memory port field: its canonical dotted name was declared.
            other => self
                .names
                .get(essent_firrtl::print_expr(other).as_str())
                .copied(),
        }
    }

    fn convert(&mut self, expr: &'a Expr) -> Result<SignalId, BuildError> {
        match expr {
            Expr::Ref(name) => self
                .lookup(expr)
                .ok_or_else(|| BuildError(format!("reference to unknown signal `{name}`"))),
            Expr::SubField(..) => self.lookup(expr).ok_or_else(|| {
                BuildError(format!(
                    "unknown memory port field `{}`",
                    essent_firrtl::print_expr(expr)
                ))
            }),
            Expr::UIntLit { value, .. } => Ok(self.emit_const(value, false)),
            Expr::SIntLit { value, .. } => Ok(self.emit_const(value, true)),
            Expr::Mux(sel, high, low) => {
                let s = self.convert(sel)?;
                let h = self.convert(high)?;
                let l = self.convert(low)?;
                let ty = width::infer(
                    OpKind::Mux,
                    &[self.ty_of(s), self.ty_of(h), self.ty_of(l)],
                    &[],
                )?;
                Ok(self.emit_op(OpKind::Mux, &[s, h, l], &[], ty))
            }
            Expr::ValidIf(_cond, value) => {
                // validif(c, v) simulates as v (don't-care resolved to the
                // value), matching the firrtl reference lowering.
                self.convert(value)
            }
            Expr::Prim { op, args, params } => self.convert_prim(*op, args, params),
            other => Err(BuildError(format!(
                "expression not lowered: `{}`",
                essent_firrtl::print_expr(other)
            ))),
        }
    }

    fn convert_prim(
        &mut self,
        op: PrimOp,
        args: &'a [Expr],
        params: &[u64],
    ) -> Result<SignalId, BuildError> {
        if args.len() != op.arg_count() || params.len() != op.param_count() {
            return Err(BuildError(format!(
                "`{}` takes {} operands and {} parameters, got {} and {}",
                op.name(),
                op.arg_count(),
                op.param_count(),
                args.len(),
                params.len()
            )));
        }
        // Primitive ops take at most two operands.
        let mut ids = [SignalId(0); 2];
        let mut tys = [Ty::new(0, false); 2];
        for (i, a) in args.iter().enumerate() {
            ids[i] = self.convert(a)?;
            tys[i] = self.ty_of(ids[i]);
        }
        let (ids, tys) = (&ids[..args.len()], &tys[..args.len()]);

        // Normalize spec sugar into the netlist op set.
        let bits: [u64; 2];
        let (kind, params): (OpKind, &[u64]) = match op {
            PrimOp::Pad => {
                let ty = Ty::new(tys[0].width.max(params[0] as u32), tys[0].signed);
                return Ok(self.adapt(ids[0], ty));
            }
            PrimOp::AsUInt => {
                let ty = Ty::new(tys[0].width, false);
                // Reinterpretation, not extension: same width, so the raw
                // pattern is preserved by Copy.
                return Ok(self.adapt(ids[0], ty));
            }
            PrimOp::AsSInt => {
                let ty = Ty::new(tys[0].width, true);
                return Ok(self.adapt(ids[0], ty));
            }
            PrimOp::AsClock => {
                let ty = Ty::new(1, false);
                return Ok(self.adapt(ids[0], ty));
            }
            PrimOp::Cvt => {
                let ty = Ty::new(tys[0].width + (!tys[0].signed) as u32, true);
                return Ok(self.adapt(ids[0], ty));
            }
            PrimOp::Head => {
                let n = params[0] as u32;
                if n == 0 || n > tys[0].width {
                    return Err(BuildError(format!(
                        "head({n}) out of range for width {}",
                        tys[0].width
                    )));
                }
                bits = [(tys[0].width - 1) as u64, (tys[0].width - n) as u64];
                (OpKind::Bits, &bits)
            }
            PrimOp::Tail => {
                let n = params[0] as u32;
                if n >= tys[0].width {
                    return Err(BuildError(format!(
                        "tail({n}) out of range for width {}",
                        tys[0].width
                    )));
                }
                bits = [(tys[0].width - n - 1) as u64, 0];
                (OpKind::Bits, &bits)
            }
            PrimOp::Add => (OpKind::Add, &[]),
            PrimOp::Sub => (OpKind::Sub, &[]),
            PrimOp::Mul => (OpKind::Mul, &[]),
            PrimOp::Div => (OpKind::Div, &[]),
            PrimOp::Rem => (OpKind::Rem, &[]),
            PrimOp::Lt => (OpKind::Lt, &[]),
            PrimOp::Leq => (OpKind::Leq, &[]),
            PrimOp::Gt => (OpKind::Gt, &[]),
            PrimOp::Geq => (OpKind::Geq, &[]),
            PrimOp::Eq => (OpKind::Eq, &[]),
            PrimOp::Neq => (OpKind::Neq, &[]),
            PrimOp::Shl => (OpKind::Shl, params),
            PrimOp::Shr => (OpKind::Shr, params),
            PrimOp::Dshl => (OpKind::Dshl, &[]),
            PrimOp::Dshr => (OpKind::Dshr, &[]),
            PrimOp::Neg => (OpKind::Neg, &[]),
            PrimOp::Not => (OpKind::Not, &[]),
            PrimOp::And => (OpKind::And, &[]),
            PrimOp::Or => (OpKind::Or, &[]),
            PrimOp::Xor => (OpKind::Xor, &[]),
            PrimOp::Andr => (OpKind::Andr, &[]),
            PrimOp::Orr => (OpKind::Orr, &[]),
            PrimOp::Xorr => (OpKind::Xorr, &[]),
            PrimOp::Cat => (OpKind::Cat, &[]),
            PrimOp::Bits => (OpKind::Bits, params),
        };
        let ty = width::infer(kind, tys, params)?;
        Ok(self.emit_op(kind, ids, params, ty))
    }

    fn handle_decl(&mut self, stmt: &'a Stmt) -> Result<(), BuildError> {
        match stmt {
            Stmt::Wire { name, ty, .. } => {
                let ty = port_ty(ty)
                    .ok_or_else(|| BuildError(format!("wire `{name}` not lowered to ground")))?;
                self.declare(name, ty, SignalDef::Const(Bits::zero(ty.width)))?;
            }
            Stmt::Reg {
                name,
                ty,
                clock,
                reset,
                ..
            } => {
                let ty = port_ty(ty)
                    .ok_or_else(|| BuildError(format!("reg `{name}` not lowered to ground")))?;
                let reg_id = RegId(self.netlist.regs.len() as u32);
                let out = self.declare(name, ty, SignalDef::RegOut(reg_id))?;
                let next = self.declare(
                    format!("{name}$next"),
                    ty,
                    SignalDef::Const(Bits::zero(ty.width)),
                )?;
                self.netlist.regs.push(Register {
                    name: name.clone(),
                    width: ty.width,
                    signed: ty.signed,
                    out,
                    next,
                });
                self.reg_drive.push(None);
                self.reg_reset.push(reset.as_ref());
                self.reg_clocks.push((name, clock));
            }
            Stmt::Mem(decl) => self.declare_mem(decl)?,
            Stmt::Node { name, value, .. } => {
                let src = self.convert(value)?;
                // Give the interned value a stable public name by aliasing:
                // the node becomes a zero-cost Copy of the computed signal.
                let ty = self.ty_of(src);
                self.declare(
                    name,
                    ty,
                    SignalDef::Op(Op {
                        kind: OpKind::Copy,
                        args: vec![src],
                        params: vec![],
                    }),
                )?;
            }
            _ => {}
        }
        Ok(())
    }

    fn declare_mem(&mut self, decl: &essent_firrtl::MemDecl) -> Result<(), BuildError> {
        let data_ty = port_ty(&decl.data_type).ok_or_else(|| {
            BuildError(format!("memory `{}` data-type must be ground", decl.name))
        })?;
        if decl.depth == 0 {
            return Err(BuildError(format!("memory `{}` has zero depth", decl.name)));
        }
        let aw = addr_width(decl.depth);
        let mem_id = MemId(self.netlist.mems.len() as u32);
        let mut memory = Memory {
            name: decl.name.clone(),
            width: data_ty.width,
            signed: data_ty.signed,
            depth: decl.depth,
            readers: Vec::new(),
            writers: Vec::new(),
        };
        let bit = Ty::new(1, false);
        let addr_ty = Ty::new(aw, false);
        let zero_def = |w: u32| SignalDef::Const(Bits::zero(w));
        for r in &decl.readers {
            let base = format!("{}.{r}", decl.name);
            let addr = self.declare(format!("{base}.addr"), addr_ty, zero_def(aw))?;
            let en = self.declare(format!("{base}.en"), bit, zero_def(1))?;
            self.declare(format!("{base}.clk"), bit, zero_def(1))?;
            let port = memory.readers.len();
            let data = self.declare(
                format!("{base}.data"),
                data_ty,
                SignalDef::MemRead { mem: mem_id, port },
            )?;
            memory.readers.push(ReadPort {
                name: r.clone(),
                addr,
                en,
                data,
            });
        }
        for w in &decl.writers {
            let base = format!("{}.{w}", decl.name);
            let addr = self.declare(format!("{base}.addr"), addr_ty, zero_def(aw))?;
            let en = self.declare(format!("{base}.en"), bit, zero_def(1))?;
            self.declare(format!("{base}.clk"), bit, zero_def(1))?;
            let data = self.declare(format!("{base}.data"), data_ty, zero_def(data_ty.width))?;
            let mask = self.declare(format!("{base}.mask"), bit, zero_def(1))?;
            memory.writers.push(WritePort {
                name: w.clone(),
                addr,
                en,
                mask,
                data,
            });
        }
        // Readwriters lower to a reader + writer pair with wmode gating;
        // the gating ops are created in `finalize` once connects are known.
        for rw in &decl.readwriters {
            let base = format!("{}.{rw}", decl.name);
            let addr = self.declare(format!("{base}.addr"), addr_ty, zero_def(aw))?;
            let en = self.declare(format!("{base}.en"), bit, zero_def(1))?;
            self.declare(format!("{base}.clk"), bit, zero_def(1))?;
            let wmode = self.declare(format!("{base}.wmode"), bit, zero_def(1))?;
            let wdata = self.declare(format!("{base}.wdata"), data_ty, zero_def(data_ty.width))?;
            let wmask = self.declare(format!("{base}.wmask"), bit, zero_def(1))?;
            let port = memory.readers.len();
            let rdata = self.declare(
                format!("{base}.rdata"),
                data_ty,
                SignalDef::MemRead { mem: mem_id, port },
            )?;
            // Placeholder enables; replaced by gated versions in finalize.
            memory.readers.push(ReadPort {
                name: format!("{rw}$r"),
                addr,
                en,
                data: rdata,
            });
            memory.writers.push(WritePort {
                name: format!("{rw}$w"),
                addr,
                en: wmode,
                mask: wmask,
                data: wdata,
            });
            let _ = (en, wdata);
        }
        self.netlist.mems.push(memory);
        Ok(())
    }

    fn handle_connect(&mut self, stmt: &'a Stmt) -> Result<(), BuildError> {
        match stmt {
            Stmt::Connect { loc, value, .. } => {
                let Some(target) = self.lookup(loc) else {
                    return Err(BuildError(format!(
                        "connect to unknown sink `{}`",
                        essent_firrtl::print_expr(loc)
                    )));
                };
                match self.netlist.signals[target.index()].def {
                    SignalDef::RegOut(r) => {
                        let src = self.convert(value)?;
                        self.reg_drive[r.index()] = Some(src);
                    }
                    SignalDef::MemRead { .. } => {
                        return Err(BuildError(format!(
                            "cannot drive memory read data `{}`",
                            essent_firrtl::print_expr(loc)
                        )));
                    }
                    _ => {
                        let src = self.convert(value)?;
                        let ty = self.ty_of(target);
                        let adapted = self.adapt(src, ty);
                        self.netlist.signals[target.index()].def = SignalDef::Op(Op {
                            kind: OpKind::Copy,
                            args: vec![adapted],
                            params: vec![],
                        });
                    }
                }
            }
            Stmt::Invalidate { .. } => {
                // Leftover invalidates mean "drive zero", which is already
                // the placeholder default.
            }
            Stmt::Stop { name, en, code, .. } => {
                let en = self.convert(en)?;
                self.netlist.stops.push(Stop {
                    name: name.clone(),
                    en,
                    code: *code,
                });
            }
            Stmt::Printf {
                name,
                en,
                fmt,
                args,
                ..
            } => {
                let en = self.convert(en)?;
                let args = args
                    .iter()
                    .map(|a| self.convert(a))
                    .collect::<Result<Vec<_>, _>>()?;
                self.netlist.printfs.push(Printf {
                    name: name.clone(),
                    en,
                    fmt: fmt.clone(),
                    args,
                });
            }
            _ => {}
        }
        Ok(())
    }

    fn finalize(&mut self) -> Result<(), BuildError> {
        // Single-clock check: resolve each register's clock through wire
        // copies down to its defining input signal.
        let mut clock_roots: Vec<SignalId> = Vec::new();
        for (reg_name, clock) in std::mem::take(&mut self.reg_clocks) {
            let mut id = self
                .convert(clock)
                .map_err(|e| BuildError(format!("register `{reg_name}` clock: {e}")))?;
            // Chase copy/alias chains to the source.
            let mut hops = 0;
            while let SignalDef::Op(op) = &self.netlist.signals[id.index()].def {
                if op.kind == OpKind::Copy {
                    id = op.args[0];
                    hops += 1;
                    if hops > self.netlist.signals.len() {
                        break;
                    }
                } else {
                    break;
                }
            }
            if !clock_roots.contains(&id) {
                clock_roots.push(id);
            }
        }
        if clock_roots.len() > 1 {
            let names: Vec<&str> = clock_roots
                .iter()
                .map(|&id| self.netlist.signals[id.index()].name.as_str())
                .collect();
            return Err(BuildError(format!(
                "multi-clock designs are not supported (registers clocked by {names:?})"
            )));
        }

        // Register next-values: driven value (or hold), with reset folded in.
        let drives = std::mem::take(&mut self.reg_drive);
        let resets = std::mem::take(&mut self.reg_reset);
        for (i, (drive, reset)) in drives.into_iter().zip(resets).enumerate() {
            let reg = &self.netlist.regs[i];
            let (out, next, ty) = (reg.out, reg.next, Ty::new(reg.width, reg.signed));
            let driven = self.adapt(drive.unwrap_or(out), ty);
            let final_src = if let Some((cond, init)) = reset {
                let c = self.convert(cond)?;
                if self.ty_of(c).width != 1 {
                    return Err(BuildError(format!(
                        "reset condition of `{}` must be 1 bit",
                        self.netlist.regs[i].name
                    )));
                }
                let init = self.convert(init)?;
                let init = self.adapt(init, ty);
                self.emit_op(OpKind::Mux, &[c, init, driven], &[], ty)
            } else {
                driven
            };
            self.netlist.signals[next.index()].def = SignalDef::Op(Op {
                kind: OpKind::Copy,
                args: vec![final_src],
                params: vec![],
            });
        }

        // Readwriter gating: reader enabled when `en & !wmode`, writer when
        // `en & wmode` (mask handled separately).
        let bit = Ty::new(1, false);
        for m in 0..self.netlist.mems.len() {
            for r in 0..self.netlist.mems[m].readers.len() {
                let mem = &self.netlist.mems[m];
                let port = &mem.readers[r];
                let Some(base) = port.name.strip_suffix("$r") else {
                    continue;
                };
                let (wmode_name, en) = (format!("{}.{base}.wmode", mem.name), port.en);
                let wmode = self.names[wmode_name.as_str()];
                let not_w = self.emit_op(OpKind::Not, &[wmode], &[], bit);
                let gated = self.emit_op(OpKind::And, &[en, not_w], &[], bit);
                self.netlist.mems[m].readers[r].en = gated;
            }
            for w in 0..self.netlist.mems[m].writers.len() {
                let mem = &self.netlist.mems[m];
                let port = &mem.writers[w];
                let Some(base) = port.name.strip_suffix("$w") else {
                    continue;
                };
                let (en_name, wmode) = (format!("{}.{base}.en", mem.name), port.en);
                let en = self.names[en_name.as_str()];
                let gated = self.emit_op(OpKind::And, &[en, wmode], &[], bit);
                self.netlist.mems[m].writers[w].en = gated;
            }
        }
        Ok(())
    }
}

fn addr_width(depth: usize) -> u32 {
    let mut w = 0u32;
    while (1usize << w) < depth {
        w += 1;
    }
    w.max(1)
}

/// Verifies the combinational graph is acyclic (paper Section II: true
/// combinational loops would need supernode convergence iteration, which
/// the supported subset excludes).
fn check_acyclic(netlist: &Netlist) -> Result<(), BuildError> {
    match crate::graph::topo_order(netlist) {
        Ok(_) => Ok(()),
        Err(cycle) => {
            let names: Vec<&str> = cycle
                .iter()
                .take(8)
                .map(|id| netlist.signal(*id).name.as_str())
                .collect();
            Err(BuildError(format!(
                "combinational cycle through: {}",
                names.join(" -> ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn netlist_of(src: &str) -> Netlist {
        let circuit = essent_firrtl::parse(src).unwrap();
        let lowered = essent_firrtl::passes::lower(circuit).unwrap();
        Netlist::from_circuit(&lowered).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"))
    }

    #[test]
    fn builds_combinational_pipeline() {
        let n = netlist_of("circuit C :\n  module C :\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<9>\n    o <= add(a, b)\n");
        let o = n.find("o").unwrap();
        assert_eq!(n.signal(o).width, 9);
        // o is a Copy of the interned add.
        match &n.signal(o).def {
            SignalDef::Op(op) => {
                assert_eq!(op.kind, OpKind::Copy);
                let add = &n.signal(op.args[0]);
                match &add.def {
                    SignalDef::Op(op) => assert_eq!(op.kind, OpKind::Add),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cse_interns_identical_expressions() {
        let n = netlist_of("circuit D :\n  module D :\n    input a : UInt<8>\n    input b : UInt<8>\n    output x : UInt<9>\n    output y : UInt<9>\n    x <= add(a, b)\n    y <= add(a, b)\n");
        let adds = n
            .signals()
            .iter()
            .filter(|s| matches!(&s.def, SignalDef::Op(op) if op.kind == OpKind::Add))
            .count();
        assert_eq!(adds, 1, "identical adds must intern to one node");
    }

    #[test]
    fn register_with_reset_folds_mux() {
        let n = netlist_of("circuit R :\n  module R :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<4>\n    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(7)))\n    r <= tail(add(r, UInt<4>(1)), 1)\n    q <= r\n");
        assert_eq!(n.regs().len(), 1);
        let reg = &n.regs()[0];
        // next = Copy(mux(reset, 7, tail(add(r, 1))))
        match &n.signal(reg.next).def {
            SignalDef::Op(op) => {
                assert_eq!(op.kind, OpKind::Copy);
                match &n.signal(op.args[0]).def {
                    SignalDef::Op(mux) => assert_eq!(mux.kind, OpKind::Mux),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn undriven_register_holds() {
        let n = netlist_of("circuit H :\n  module H :\n    input clock : Clock\n    output q : UInt<4>\n    reg r : UInt<4>, clock\n    q <= r\n");
        let reg = &n.regs()[0];
        match &n.signal(reg.next).def {
            SignalDef::Op(op) => {
                assert_eq!(op.kind, OpKind::Copy);
                assert_eq!(op.args[0], reg.out);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn memory_ports_wire_up() {
        let n = netlist_of("circuit M :\n  module M :\n    input clock : Clock\n    input addr : UInt<3>\n    input wen : UInt<1>\n    input wdata : UInt<8>\n    output rdata : UInt<8>\n    mem m :\n      data-type => UInt<8>\n      depth => 8\n      read-latency => 0\n      write-latency => 1\n      reader => r\n      writer => w\n      read-under-write => undefined\n    m.r.clk <= clock\n    m.r.en <= UInt<1>(1)\n    m.r.addr <= addr\n    m.w.clk <= clock\n    m.w.en <= wen\n    m.w.addr <= addr\n    m.w.data <= wdata\n    m.w.mask <= UInt<1>(1)\n    rdata <= m.r.data\n");
        assert_eq!(n.mems().len(), 1);
        let m = &n.mems()[0];
        assert_eq!(m.depth, 8);
        assert_eq!(m.readers.len(), 1);
        assert_eq!(m.writers.len(), 1);
        // rdata forwards the MemRead signal.
        let rdata = n.find("rdata").unwrap();
        match &n.signal(rdata).def {
            SignalDef::Op(op) => {
                assert!(matches!(
                    n.signal(op.args[0]).def,
                    SignalDef::MemRead { .. }
                ));
            }
            other => panic!("{other:?}"),
        }
        // The read port depends on addr and en.
        let data_sig = m.readers[0].data;
        let deps = n.deps(data_sig);
        assert!(deps.contains(&m.readers[0].addr));
        assert!(deps.contains(&m.readers[0].en));
    }

    #[test]
    fn head_tail_pad_normalize() {
        let n = netlist_of("circuit N :\n  module N :\n    input a : UInt<8>\n    output h : UInt<3>\n    output t : UInt<5>\n    output p : UInt<12>\n    h <= head(a, 3)\n    t <= tail(a, 3)\n    p <= pad(a, 12)\n");
        let kinds: Vec<OpKind> = n
            .signals()
            .iter()
            .filter_map(|s| match &s.def {
                SignalDef::Op(op) if op.kind != OpKind::Copy => Some(op.kind),
                _ => None,
            })
            .collect();
        // head/tail become Bits; pad becomes Copy (filtered out).
        assert!(kinds.iter().all(|k| *k == OpKind::Bits), "{kinds:?}");
    }

    #[test]
    fn detects_combinational_cycle() {
        let src = "circuit L :\n  module L :\n    output o : UInt<1>\n    wire a : UInt<1>\n    wire b : UInt<1>\n    a <= b\n    b <= a\n    o <= a\n";
        let circuit = essent_firrtl::parse(src).unwrap();
        let lowered = essent_firrtl::passes::lower(circuit).unwrap();
        let err = Netlist::from_circuit(&lowered).unwrap_err();
        assert!(err.0.contains("cycle"), "{err}");
    }

    #[test]
    fn register_feedback_is_not_a_cycle() {
        // r -> add -> r$next is fine: the register split breaks the loop.
        netlist_of("circuit F :\n  module F :\n    input clock : Clock\n    output q : UInt<4>\n    reg r : UInt<4>, clock\n    r <= tail(add(r, UInt<4>(1)), 1)\n    q <= r\n");
    }

    #[test]
    fn rejects_multi_clock() {
        let src = "circuit K :\n  module K :\n    input clk1 : Clock\n    input clk2 : Clock\n    output q : UInt<1>\n    reg a : UInt<1>, clk1\n    reg b : UInt<1>, clk2\n    a <= b\n    b <= a\n    q <= a\n";
        let circuit = essent_firrtl::parse(src).unwrap();
        let lowered = essent_firrtl::passes::lower(circuit).unwrap();
        let err = Netlist::from_circuit(&lowered).unwrap_err();
        assert!(err.0.contains("multi-clock"), "{err}");
    }

    #[test]
    fn stats_and_sinks() {
        let n = netlist_of("circuit S :\n  module S :\n    input clock : Clock\n    input a : UInt<4>\n    output o : UInt<4>\n    reg r : UInt<4>, clock\n    r <= a\n    o <= r\n");
        let stats = n.stats();
        assert_eq!(stats.regs, 1);
        assert!(stats.signals >= 4);
        let sinks = n.sink_signals();
        assert!(sinks.contains(&n.regs()[0].next));
        assert!(sinks.contains(&n.find("o").unwrap()));
    }
}
