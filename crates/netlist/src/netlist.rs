//! Core netlist data structures: signals, defining operations, registers,
//! memories, and simulation side effects (stops and printfs).

use essent_bits::Bits;
use std::fmt;

/// Index of a signal in [`Netlist::signals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub u32);

impl SignalId {
    /// The index as a `usize`, for slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Index of a register in [`Netlist::regs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

impl RegId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a memory in [`Netlist::mems`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemId(pub u32);

impl MemId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The operation kinds of the three-address netlist form.
///
/// FIRRTL primops whose semantics reduce to another op are normalized by
/// the builder: `pad`/`asUInt`/`asSInt`/`asClock`/`cvt` become [`Copy`]
/// (extension and reinterpretation are encoded in the destination
/// width/signedness), and `head`/`tail` become [`Bits`].
///
/// [`Copy`]: OpKind::Copy
/// [`Bits`]: OpKind::Bits
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Leq,
    Gt,
    Geq,
    Eq,
    Neq,
    /// Static left shift; `params[0]` is the shift amount.
    Shl,
    /// Static right shift (arithmetic when the operand is signed);
    /// `params[0]` is the shift amount.
    Shr,
    /// Dynamic left shift by the second operand.
    Dshl,
    /// Dynamic right shift by the second operand.
    Dshr,
    /// Arithmetic negation (result is signed, one bit wider).
    Neg,
    Not,
    And,
    Or,
    Xor,
    /// AND-reduction to one bit.
    Andr,
    /// OR-reduction to one bit.
    Orr,
    /// XOR-reduction to one bit.
    Xorr,
    /// Concatenation; the first operand forms the high bits.
    Cat,
    /// Bit extraction; `params` are `[hi, lo]`.
    Bits,
    /// Two-way multiplexer; operands are `[sel, high, low]`.
    Mux,
    /// Width-adapting copy: extends (sign-aware, by the *source*'s
    /// signedness) or truncates the operand to the destination width.
    Copy,
}

/// A defining operation: `dst = kind(args, params)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Op {
    pub kind: OpKind,
    pub args: Vec<SignalId>,
    pub params: Vec<u64>,
}

/// How a signal obtains its value each cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum SignalDef {
    /// External input; the testbench pokes it.
    Input,
    /// Compile-time constant.
    Const(Bits),
    /// Computed from other signals.
    Op(Op),
    /// The output of a register (a graph *source*: its value is the state
    /// at the start of the cycle).
    RegOut(RegId),
    /// Combinational read of memory `mem` through reader port `port`.
    MemRead { mem: MemId, port: usize },
}

/// A signal: one node of the design graph.
#[derive(Debug, Clone)]
pub struct Signal {
    pub name: String,
    pub width: u32,
    pub signed: bool,
    pub def: SignalDef,
}

/// A register: split into an output source signal and a next-value sink.
///
/// At the end of each simulated cycle the value of `next` becomes the
/// value of `out`. Synchronous reset is already folded into `next` by the
/// builder (`next = mux(reset, init, connected-value)`).
#[derive(Debug, Clone)]
pub struct Register {
    pub name: String,
    pub width: u32,
    pub signed: bool,
    /// The source signal carrying the current state.
    pub out: SignalId,
    /// The sink signal whose end-of-cycle value becomes the new state.
    pub next: SignalId,
}

/// A combinational-read port of a memory.
#[derive(Debug, Clone)]
pub struct ReadPort {
    pub name: String,
    pub addr: SignalId,
    pub en: SignalId,
    /// The signal carrying the read data (def = [`SignalDef::MemRead`]).
    pub data: SignalId,
}

/// A synchronous write port of a memory: commits at end of cycle when
/// `en & mask`.
#[derive(Debug, Clone)]
pub struct WritePort {
    pub name: String,
    pub addr: SignalId,
    pub en: SignalId,
    pub mask: SignalId,
    pub data: SignalId,
}

/// A memory bank: combinational read, synchronous write (read-latency 0,
/// write-latency 1 — the subset the frontend admits).
#[derive(Debug, Clone)]
pub struct Memory {
    pub name: String,
    pub width: u32,
    pub signed: bool,
    pub depth: usize,
    pub readers: Vec<ReadPort>,
    pub writers: Vec<WritePort>,
}

/// A `stop` side effect: when `en` is one at the end of a cycle the
/// simulation halts with `code`.
#[derive(Debug, Clone)]
pub struct Stop {
    pub name: String,
    pub en: SignalId,
    pub code: u64,
}

/// A `printf` side effect: when `en` is one at the end of a cycle, `fmt`
/// is rendered with the argument signal values.
#[derive(Debug, Clone)]
pub struct Printf {
    pub name: String,
    pub en: SignalId,
    pub fmt: String,
    pub args: Vec<SignalId>,
}

/// The flat design graph.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    pub(crate) signals: Vec<Signal>,
    pub(crate) regs: Vec<Register>,
    pub(crate) mems: Vec<Memory>,
    pub(crate) inputs: Vec<SignalId>,
    pub(crate) outputs: Vec<SignalId>,
    pub(crate) stops: Vec<Stop>,
    pub(crate) printfs: Vec<Printf>,
    /// The circuit's name (for reports and generated code).
    pub name: String,
}

impl Netlist {
    /// Number of signals (graph nodes).
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Number of operand references (graph edges).
    pub fn edge_count(&self) -> usize {
        self.signals
            .iter()
            .map(|s| self.deps_of(s).len())
            .sum::<usize>()
    }

    /// All signals, indexed by [`SignalId`].
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// One signal.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// Mutable access to one signal, for optimization passes and test
    /// harnesses that need to adjust a declaration in place.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn signal_mut(&mut self, id: SignalId) -> &mut Signal {
        &mut self.signals[id.index()]
    }

    /// All registers.
    pub fn regs(&self) -> &[Register] {
        &self.regs
    }

    /// All memories.
    pub fn mems(&self) -> &[Memory] {
        &self.mems
    }

    /// External input signals, in port order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// External output signals, in port order.
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// Stop side effects.
    pub fn stops(&self) -> &[Stop] {
        &self.stops
    }

    /// Printf side effects.
    pub fn printfs(&self) -> &[Printf] {
        &self.printfs
    }

    /// Finds a signal by name.
    pub fn find(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(|i| SignalId(i as u32))
    }

    /// Finds a signal by name, or explains the failure: the error names
    /// the closest existing signal (by edit distance), which turns the
    /// classic "no signal named `io_out`" dead end into an actionable
    /// typo diagnosis.
    pub fn lookup(&self, name: &str) -> Result<SignalId, String> {
        match self.find(name) {
            Some(id) => Ok(id),
            None => Err(match self.nearest_signal(name) {
                Some(near) => {
                    format!("no signal named `{name}` (did you mean `{near}`?)")
                }
                None => format!("no signal named `{name}` (netlist has no signals)"),
            }),
        }
    }

    /// [`Netlist::lookup`] for call sites that treat a bad name as a
    /// caller bug: panics with the suggesting message.
    pub fn expect_signal(&self, name: &str) -> SignalId {
        self.lookup(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The existing signal name closest to `name` by Levenshtein
    /// distance (ties broken by first appearance).
    fn nearest_signal(&self, name: &str) -> Option<&str> {
        self.signals
            .iter()
            .map(|s| (edit_distance(name, &s.name), s.name.as_str()))
            .min_by_key(|&(d, _)| d)
            .map(|(_, n)| n)
    }

    /// Finds a memory by name.
    pub fn find_mem(&self, name: &str) -> Option<MemId> {
        self.mems
            .iter()
            .position(|m| m.name == name)
            .map(|i| MemId(i as u32))
    }

    /// The combinational dependencies of a signal: the signals that must
    /// be evaluated before it within a cycle, borrowed from the netlist.
    ///
    /// Register outputs have none (their value is state); memory reads
    /// depend on their address and enable.
    pub fn deps_of<'a>(&'a self, signal: &'a Signal) -> Deps<'a> {
        match &signal.def {
            SignalDef::Input | SignalDef::Const(_) | SignalDef::RegOut(_) => Deps::Args(&[]),
            SignalDef::Op(op) => Deps::Args(&op.args),
            SignalDef::MemRead { mem, port } => {
                let p = &self.mems[mem.index()].readers[*port];
                Deps::Port([p.addr, p.en])
            }
        }
    }

    /// The combinational dependencies of the signal with the given id.
    pub fn deps(&self, id: SignalId) -> Deps<'_> {
        self.deps_of(&self.signals[id.index()])
    }

    /// Every *sink* of the design: signals whose end-of-cycle values are
    /// observed (register next-values, memory write-port fields, external
    /// outputs, stop/printf enables and arguments). Dead-code elimination
    /// preserves everything reachable from these.
    pub fn sink_signals(&self) -> Vec<SignalId> {
        let mut sinks = Vec::new();
        for reg in &self.regs {
            sinks.push(reg.next);
        }
        for mem in &self.mems {
            for w in &mem.writers {
                sinks.extend([w.addr, w.en, w.mask, w.data]);
            }
            for r in &mem.readers {
                sinks.extend([r.addr, r.en]);
            }
        }
        sinks.extend(self.outputs.iter().copied());
        for s in &self.stops {
            sinks.push(s.en);
        }
        for p in &self.printfs {
            sinks.push(p.en);
            sinks.extend(p.args.iter().copied());
        }
        sinks
    }

    /// Summary statistics used by the Table I reproduction.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats {
            signals: self.signal_count(),
            edges: self.edge_count(),
            regs: self.regs.len(),
            mems: self.mems.len(),
            mem_bits: self.mems.iter().map(|m| m.depth * m.width as usize).sum(),
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
        }
    }
}

/// The combinational dependencies of one signal ([`Netlist::deps`]): an
/// op's operands, borrowed, or a memory read port's `addr` and `en`. It
/// dereferences to a slice, so walks over the graph allocate nothing.
#[derive(Debug, Clone, Copy)]
pub enum Deps<'a> {
    /// An op's operands (empty for sources).
    Args(&'a [SignalId]),
    /// A memory read port's `[addr, en]`.
    Port([SignalId; 2]),
}

impl std::ops::Deref for Deps<'_> {
    type Target = [SignalId];

    fn deref(&self) -> &[SignalId] {
        match self {
            Deps::Args(args) => args,
            Deps::Port(fields) => fields,
        }
    }
}

/// Levenshtein edit distance, single-row dynamic program. Signal name
/// sets are small enough (≤ a few hundred thousand short names) that the
/// O(|a|·|b|) cost per name only matters on the already-failing path.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev_diag + usize::from(ca != cb);
            prev_diag = row[j + 1];
            row[j + 1] = sub.min(row[j] + 1).min(prev_diag + 1);
        }
    }
    row[b.len()]
}

/// Size statistics of a netlist (the Table I columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetlistStats {
    pub signals: usize,
    pub edges: usize,
    pub regs: usize,
    pub mems: usize,
    pub mem_bits: usize,
    pub inputs: usize,
    pub outputs: usize,
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} edges, {} regs, {} mems ({} bits)",
            self.signals, self.edges, self.regs, self.mems, self.mem_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::edit_distance;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("io_out", "io_outs"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
