//! Random synchronous-circuit generation for differential testing, the
//! engine switch matrix the differential suites run it under, and the
//! one lockstep driver ([`Lockstep`]) every such suite states its law
//! with.
//!
//! [`gen_circuit`] produces valid FIRRTL text with registers, memories,
//! `when` blocks and a spread of primitive operations. A law is then a
//! set of *rows* — engines, or lanes of a [`BatchSim`] — each fed one
//! seeded stimulus stream and held to that stream's golden
//! [`Interpreter`] on every output after every step, plus *twins*: row
//! pairs that must also agree on their work counters, cycle and halt
//! code every step, and on every signal, memory word, printf line and
//! profile at the end.

use crate::batch::BatchSim;
use crate::engine::{EngineConfig, Simulator};
use crate::essent::EssentSim;
use crate::machine::Machine;
use crate::profile::ProfileReport;
use essent_bits::Bits;
use essent_netlist::interp::Interpreter;
use essent_netlist::{opt, Netlist, SignalId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::fmt::Write;

/// A generated circuit: FIRRTL source plus its interface.
pub struct GenCircuit {
    pub source: String,
    pub inputs: Vec<(String, u32)>,
    pub outputs: Vec<String>,
}

/// Generates a random synchronous circuit as FIRRTL text.
///
/// The generator tracks widths so every op application is well-typed by
/// the FIRRTL rules; connects rely on the frontend's width adaptation.
pub fn gen_circuit(seed: u64) -> GenCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut body = String::new();
    // (name, width) pool of unsigned signals usable as operands.
    let mut pool: Vec<(String, u32)> = Vec::new();

    let n_inputs = rng.gen_range(2..=4);
    let mut inputs = Vec::new();
    let mut ports = String::new();
    ports.push_str("    input clock : Clock\n    input reset : UInt<1>\n");
    inputs.push(("reset".to_string(), 1));
    for i in 0..n_inputs {
        let w = *[1u32, 4, 8, 13, 20, 33, 65]
            .get(rng.gen_range(0usize..7))
            .unwrap();
        let name = format!("in{i}");
        let _ = writeln!(ports, "    input {name} : UInt<{w}>");
        inputs.push((name.clone(), w));
        pool.push((name, w));
    }

    // Registers (declared up front, driven later).
    let n_regs = rng.gen_range(1..=4);
    let mut regs = Vec::new();
    for i in 0..n_regs {
        let w: u32 = rng.gen_range(1..=24);
        let name = format!("r{i}");
        let init = rng.gen_range(0..(1u64 << w.min(30)));
        let _ = writeln!(
            body,
            "    reg {name} : UInt<{w}>, clock with : (reset => (reset, UInt<{w}>({init})))"
        );
        regs.push((name.clone(), w));
        pool.push((name, w));
    }

    // Optional memory.
    let has_mem = rng.gen_bool(0.5);
    if has_mem {
        body.push_str("    mem m :\n      data-type => UInt<8>\n      depth => 8\n      read-latency => 0\n      write-latency => 1\n      reader => rd\n      writer => wr\n      read-under-write => undefined\n");
    }

    // Random expression nodes.
    let n_nodes = rng.gen_range(5..=25);
    for i in 0..n_nodes {
        let pick = |rng: &mut StdRng, pool: &[(String, u32)]| -> (String, u32) {
            pool[rng.gen_range(0..pool.len())].clone()
        };
        let (a, aw) = pick(&mut rng, &pool);
        let (b, bw) = pick(&mut rng, &pool);
        let name = format!("n{i}");
        let (expr, w) = match rng.gen_range(0..20) {
            0 => (format!("add({a}, {b})"), aw.max(bw) + 1),
            1 => (format!("sub({a}, {b})"), aw.max(bw) + 1),
            2 if aw + bw <= 70 => (format!("mul({a}, {b})"), aw + bw),
            3 => (format!("and({a}, {b})"), aw.max(bw)),
            4 => (format!("or({a}, {b})"), aw.max(bw)),
            5 => (format!("xor({a}, {b})"), aw.max(bw)),
            6 if aw + bw <= 70 => (format!("cat({a}, {b})"), aw + bw),
            7 => {
                let hi = rng.gen_range(0..aw);
                let lo = rng.gen_range(0..=hi);
                (format!("bits({a}, {hi}, {lo})"), hi - lo + 1)
            }
            8 => (format!("eq({a}, {b})"), 1),
            9 => (format!("lt({a}, {b})"), 1),
            10 => (format!("not({a})"), aw),
            11 => {
                let sel = pool
                    .iter()
                    .filter(|(_, w)| *w == 1)
                    .map(|(n, _)| n.clone())
                    .next()
                    .unwrap_or_else(|| "reset".to_string());
                // mux needs equal-width branches: pad the narrower.
                let w = aw.max(bw);
                (format!("mux({sel}, pad({a}, {w}), pad({b}, {w}))"), w)
            }
            12 => (format!("orr({a})"), 1),
            13 => {
                let sh = rng.gen_range(0u32..8);
                (format!("shl({a}, {sh})"), aw + sh)
            }
            // Signed arithmetic: reinterpret/convert to SInt, compute,
            // and cast the result back so the pool stays uniformly
            // unsigned. Exercises sign extension, arithmetic shifts,
            // and signed comparison in every engine.
            14 => (
                format!("asUInt(add(asSInt({a}), asSInt({b})))"),
                aw.max(bw) + 1,
            ),
            15 => (
                // cvt on a UInt appends a zero sign bit, so this is a
                // true signed subtraction of non-negative operands.
                format!("asUInt(sub(cvt({a}), cvt({b})))"),
                aw.max(bw) + 2,
            ),
            16 => (format!("lt(asSInt({a}), asSInt({b}))"), 1),
            17 => (format!("asUInt(neg({a}))"), aw + 1),
            18 if aw + bw <= 70 => (format!("asUInt(mul(asSInt({a}), asSInt({b})))"), aw + bw),
            19 => {
                let sh = rng.gen_range(0u32..aw.min(8));
                // Arithmetic right shift of a sign-reinterpreted value.
                (format!("asUInt(shr(asSInt({a}), {sh}))"), (aw - sh).max(1))
            }
            _ => (format!("xor({a}, {b})"), aw.max(bw)),
        };
        let _ = writeln!(body, "    node {name} = {expr}");
        pool.push((name, w));
    }

    // Drive registers, some under `when` — including two-deep nested
    // blocks with `else` arms, the shape that stresses the frontend's
    // mux-tree construction and the conditional-mux-way compiler.
    for (name, _w) in &regs {
        let (src, _sw) = pool[rng.gen_range(0..pool.len())].clone();
        let bools: Vec<String> = pool
            .iter()
            .filter(|(_, w)| *w == 1)
            .map(|(n, _)| n.clone())
            .collect();
        let cond = |rng: &mut StdRng| -> String {
            if bools.is_empty() {
                "reset".to_string()
            } else {
                bools[rng.gen_range(0..bools.len())].clone()
            }
        };
        match rng.gen_range(0..10) {
            0..=2 => {
                let c = cond(&mut rng);
                let _ = writeln!(body, "    when {c} :\n      {name} <= {src}");
            }
            3..=4 => {
                // Nested: when c1 : when c2 : ... else : ... — two
                // priority levels deep, with a fallthrough arm.
                let (c1, c2) = (cond(&mut rng), cond(&mut rng));
                let (alt, _) = pool[rng.gen_range(0..pool.len())].clone();
                let _ = writeln!(
                    body,
                    "    when {c1} :\n      when {c2} :\n        {name} <= {src}\n      else :\n        {name} <= {alt}"
                );
            }
            5 => {
                // when/else chain at top level.
                let c = cond(&mut rng);
                let (alt, _) = pool[rng.gen_range(0..pool.len())].clone();
                let _ = writeln!(
                    body,
                    "    when {c} :\n      {name} <= {src}\n    else :\n      {name} <= {alt}"
                );
            }
            _ => {
                let _ = writeln!(body, "    {name} <= {src}");
            }
        }
    }

    // Wire the memory.
    if has_mem {
        let addr_src = pool[0].0.clone();
        let en_src = pool
            .iter()
            .filter(|(_, w)| *w == 1)
            .map(|(n, _)| n.clone())
            .next()
            .unwrap_or_else(|| "reset".to_string());
        let data_src = pool[pool.len() - 1].0.clone();
        let _ = writeln!(body, "    m.rd.clk <= clock");
        let _ = writeln!(body, "    m.rd.en <= UInt<1>(1)");
        let _ = writeln!(body, "    m.rd.addr <= bits(pad({addr_src}, 3), 2, 0)");
        let _ = writeln!(body, "    m.wr.clk <= clock");
        let _ = writeln!(body, "    m.wr.en <= {en_src}");
        let _ = writeln!(body, "    m.wr.addr <= bits(pad({data_src}, 3), 2, 0)");
        let _ = writeln!(body, "    m.wr.data <= bits(pad({data_src}, 8), 7, 0)");
        let _ = writeln!(body, "    m.wr.mask <= UInt<1>(1)");
        pool.push(("m_read".into(), 8));
        let _ = writeln!(body, "    node m_read = m.rd.data");
    }

    // Outputs: observe a spread of pool signals.
    let n_outputs = rng.gen_range(2usize..=4).min(pool.len());
    let mut outputs = Vec::new();
    let mut out_ports = String::new();
    for i in 0..n_outputs {
        let (src, w) = pool[rng.gen_range(0..pool.len())].clone();
        let name = format!("out{i}");
        let _ = writeln!(out_ports, "    output {name} : UInt<{w}>");
        let _ = writeln!(body, "    {name} <= {src}");
        outputs.push(name);
    }

    let source = format!("circuit Rand :\n  module Rand :\n{ports}{out_ports}{body}");
    GenCircuit {
        source,
        inputs,
        outputs,
    }
}

/// One [`gen_circuit`] module instantiated `copies` times under a top
/// module: copy `k` reads its own inputs `in{j}_{k}` (`reset` is
/// shared) and drives its own outputs `out{i}_{k}` — the replicated
/// shape whose partitions differ only in arena offsets and wake targets.
pub fn gen_replicated(seed: u64, copies: usize) -> GenCircuit {
    let cell = gen_circuit(seed);
    let module = cell.source.replacen("circuit Rand :\n", "", 1).replacen(
        "module Rand :",
        "module Cell :",
        1,
    );
    let mut ports = String::from("    input clock : Clock\n    input reset : UInt<1>\n");
    let mut wiring = String::new();
    let mut inputs = vec![("reset".to_string(), 1)];
    let mut outputs = Vec::new();
    for k in 0..copies {
        let _ = writeln!(wiring, "    inst c{k} of Cell");
        let _ = writeln!(wiring, "    c{k}.clock <= clock");
        let _ = writeln!(wiring, "    c{k}.reset <= reset");
        for (name, w) in cell.inputs.iter().filter(|(name, _)| name != "reset") {
            let _ = writeln!(ports, "    input {name}_{k} : UInt<{w}>");
            let _ = writeln!(wiring, "    c{k}.{name} <= {name}_{k}");
            inputs.push((format!("{name}_{k}"), *w));
        }
        for name in &cell.outputs {
            // The cell's output width, read back from its port list.
            let decl = format!("    output {name} : ");
            let width = module
                .lines()
                .find_map(|l| l.strip_prefix(&decl))
                .expect("every output is declared");
            let _ = writeln!(ports, "    output {name}_{k} : {width}");
            let _ = writeln!(wiring, "    {name}_{k} <= c{k}.{name}");
            outputs.push(format!("{name}_{k}"));
        }
    }
    GenCircuit {
        source: format!("circuit Top :\n{module}  module Top :\n{ports}{wiring}"),
        inputs,
        outputs,
    }
}

/// The CCSS switch matrix the differential suites share: all 16
/// combinations of push triggering, mux conditionalization, state
/// elision and trigger fusion at `c_p = 4`, each labelled by the switches
/// it turns on (`"push+mux+elide+fuse"`, …, `""`).
pub fn switch_matrix() -> Vec<(String, EngineConfig)> {
    (0..16u32)
        .map(|bits| {
            let on = |i: usize| bits & (1 << i) != 0;
            let config = EngineConfig {
                trigger_push: on(0),
                mux_conditional: on(1),
                elide_state: on(2),
                fuse_triggers: on(3),
                c_p: 4,
                ..EngineConfig::default()
            };
            let label: Vec<&str> = ["push", "mux", "elide", "fuse"]
                .into_iter()
                .enumerate()
                .filter_map(|(i, name)| on(i).then_some(name))
                .collect();
            (label.join("+"), config)
        })
        .collect()
}

/// Parses, lowers and builds `source` into a netlist, then runs the
/// optimizer over it when `optimize` is set.
///
/// # Panics
///
/// Panics, quoting the source, if any stage rejects it.
pub fn build(source: &str, optimize: bool) -> Netlist {
    let parsed = essent_firrtl::parse(source)
        .unwrap_or_else(|e| panic!("test FIRRTL must parse: {e}\n{source}"));
    let lowered = essent_firrtl::passes::lower(parsed)
        .unwrap_or_else(|e| panic!("test FIRRTL must lower: {e}\n{source}"));
    let mut netlist = Netlist::from_circuit(&lowered)
        .unwrap_or_else(|e| panic!("test FIRRTL must build: {e}\n{source}"));
    if optimize {
        opt::optimize(&mut netlist, &opt::OptConfig::default());
    }
    netlist
}

/// How [`Lockstep::run`] drives the input named `reset`.
#[derive(Debug, Clone, Copy)]
pub enum Reset {
    /// High in cycles 0 and 1; from cycle 2 on, one draw per step makes
    /// it high with probability 1/20.
    Random,
    /// High on exactly the steps that start at one of these cycles; no
    /// draw.
    At(&'static [u64]),
}

/// What a pair of twin rows must agree on every step, beyond `cycle()`
/// and `halted()`.
#[derive(Debug, Clone, Copy)]
pub enum Match {
    /// All five [`WorkCounters`](crate::WorkCounters) fields.
    Counters,
    /// `cycles` and `ops_evaluated` only: the dataflow engine's checks
    /// are its own, its evaluated work is the sequential engine's.
    Ops,
}

/// A row's engine, downcastable to [`EssentSim`] for its raw machine.
trait Engine: Simulator + Any {
    fn as_any(&self) -> &dyn Any;
}

impl<T: Simulator + Any> Engine for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

enum Sim {
    One(Box<dyn Engine>),
    /// Lane `.1` of fleet `.0`.
    Lane(usize, usize),
}

struct Row {
    label: String,
    stream: usize,
    sim: Sim,
}

/// The lockstep driver (see the module docs): rows, their stimulus
/// streams' golden interpreters, and the twin pairs among the rows.
pub struct Lockstep<'a> {
    ctx: String,
    circuit: &'a GenCircuit,
    netlist: &'a Netlist,
    goldens: Vec<Interpreter>,
    rows: Vec<Row>,
    /// Each fleet with its lanes' streams.
    fleets: Vec<(BatchSim, Vec<usize>)>,
    twins: Vec<(usize, usize, Match)>,
}

impl<'a> Lockstep<'a> {
    /// A driver for `circuit`, built as `netlist`; `ctx` (seed, config)
    /// opens every failure message.
    pub fn new(ctx: impl Into<String>, circuit: &'a GenCircuit, netlist: &'a Netlist) -> Self {
        Lockstep {
            ctx: ctx.into(),
            circuit,
            netlist,
            goldens: Vec::new(),
            rows: Vec::new(),
            fleets: Vec::new(),
            twins: Vec::new(),
        }
    }

    fn push(&mut self, label: String, stream: usize, sim: Sim) -> usize {
        while self.goldens.len() <= stream {
            self.goldens.push(Interpreter::new(self.netlist));
        }
        self.rows.push(Row { label, stream, sim });
        self.rows.len() - 1
    }

    /// Adds an engine on stimulus stream 0; returns its row.
    pub fn row(&mut self, label: &str, sim: impl Simulator + 'static) -> usize {
        self.row_in(0, label, sim)
    }

    /// Adds an engine on stimulus stream `stream`; returns its row.
    pub fn row_in(&mut self, stream: usize, label: &str, sim: impl Simulator + 'static) -> usize {
        self.push(label.to_string(), stream, Sim::One(Box::new(sim)))
    }

    /// Adds every lane of `fleet` as a row, lane `l` on stream
    /// `streams[l]`; returns the lanes' rows. The fleet is stepped
    /// whole, through [`BatchSim::step`].
    pub fn fleet(&mut self, label: &str, fleet: BatchSim, streams: &[usize]) -> Vec<usize> {
        assert_eq!(fleet.lanes(), streams.len(), "one stream per lane");
        self.fleets.push((fleet, streams.to_vec()));
        let f = self.fleets.len() - 1;
        streams
            .iter()
            .enumerate()
            .map(|(l, &s)| self.push(format!("{label} lane {l}"), s, Sim::Lane(f, l)))
            .collect()
    }

    /// Declares rows `a` and `b` twins that must `m`atch.
    pub fn twin(&mut self, a: usize, b: usize, m: Match) {
        self.twins.push((a, b, m));
    }

    /// One row, as the engine it is.
    pub fn sim(&self, row: usize) -> &dyn Simulator {
        match self.rows[row].sim {
            Sim::One(ref sim) => &**sim,
            Sim::Lane(f, l) => self.fleets[f].0.lane(l),
        }
    }

    /// A CCSS row's machine: its raw arena and memory banks.
    fn machine(&self, row: usize) -> Option<&Machine> {
        match self.rows[row].sim {
            Sim::One(ref sim) => sim.as_any().downcast_ref().map(EssentSim::machine),
            Sim::Lane(f, l) => Some(self.fleets[f].0.lane(l).machine()),
        }
    }

    /// Pokes `name` on stream `stream`'s golden interpreter and rows.
    pub fn poke(&mut self, stream: usize, name: &str, value: Bits) {
        self.goldens[stream].poke(name, value.clone());
        for row in self.rows.iter_mut().filter(|r| r.stream == stream) {
            match &mut row.sim {
                Sim::One(sim) => sim.poke(name, value.clone()),
                Sim::Lane(f, l) => self.fleets[*f].0.lane_mut(*l).poke(name, value.clone()),
            }
        }
    }

    /// Runs the law: one step per entry of `steps` (cycles per step,
    /// e.g. `&[1; 40]` per cycle or `&[2, 16]` batched). Before each
    /// step, stream `s` — drawing from `seed ^ s·0x9E3779B97F4A7C15` —
    /// pokes the circuit's inputs in interface order: `reset` by
    /// `reset`, every other input two fresh random limbs. After it, each
    /// row's step count and outputs must be its golden's and each twin
    /// pair must match; at the end, the twins' whole state must too.
    ///
    /// # Panics
    ///
    /// Panics on the first disagreement, naming the rows, the cycle and
    /// the circuit.
    pub fn run(&mut self, seed: u64, reset: Reset, steps: &[u64]) {
        let circuit = self.circuit;
        let mut rngs: Vec<StdRng> = (0..self.goldens.len() as u64)
            .map(|s| StdRng::seed_from_u64(seed ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let mut cycle = 0;
        for &n in steps {
            for (s, rng) in rngs.iter_mut().enumerate() {
                for (name, width) in &circuit.inputs {
                    let value = if name != "reset" {
                        Bits::from_limbs(vec![rng.gen(), rng.gen()], *width)
                    } else if let Reset::At(cycles) = reset {
                        Bits::from_u64(cycles.contains(&cycle) as u64, 1)
                    } else {
                        Bits::from_u64((cycle < 2 || rng.gen_bool(0.05)) as u64, 1)
                    };
                    self.poke(s, name, value);
                }
            }
            let at = format!("{} cycle {cycle}+{n}", self.ctx);
            let ran: Vec<u64> = self.goldens.iter_mut().map(|g| g.step(n)).collect();
            for row in &mut self.rows {
                if let Sim::One(sim) = &mut row.sim {
                    let got = sim.step(n);
                    assert_eq!(got, ran[row.stream], "{at}: {} cycles run", row.label);
                }
            }
            for (fleet, streams) in &mut self.fleets {
                // A fleet's step runs as long as its longest lane.
                let longest = streams.iter().map(|&s| ran[s]).max();
                assert_eq!(Some(fleet.step(n)), longest, "{at}: fleet cycles run");
            }
            cycle += n;
            self.check_step(&at);
        }
        self.check_end();
    }

    fn check_step(&self, at: &str) {
        let source = &self.circuit.source;
        for (r, row) in self.rows.iter().enumerate() {
            let (sim, golden) = (self.sim(r), &self.goldens[row.stream]);
            for out in &self.circuit.outputs {
                assert_eq!(
                    sim.peek(out),
                    golden.peek(out),
                    "{at}: {} disagrees with golden on `{out}`\n{source}",
                    row.label
                );
            }
        }
        for &(a, b, m) in &self.twins {
            let (x, y) = (self.sim(a), self.sim(b));
            let (cx, cy) = (x.counters(), y.counters());
            let pair = format!("{at}: {} vs {}", self.rows[a].label, self.rows[b].label);
            match m {
                Match::Counters => assert_eq!(cx, cy, "{pair}: counters\n{source}"),
                Match::Ops => assert_eq!(
                    (cx.cycles, cx.ops_evaluated),
                    (cy.cycles, cy.ops_evaluated),
                    "{pair}: evaluated ops\n{source}"
                ),
            }
            assert_eq!(x.cycle(), y.cycle(), "{pair}: cycle");
            assert_eq!(x.halted(), y.halted(), "{pair}: halt");
        }
    }

    fn check_end(&self) {
        for &(a, b, _) in &self.twins {
            let (x, y) = (self.sim(a), self.sim(b));
            let pair = format!(
                "{}: {} vs {}",
                self.ctx, self.rows[a].label, self.rows[b].label
            );
            for (i, signal) in self.netlist.signals().iter().enumerate() {
                let id = SignalId(i as u32);
                assert_eq!(x.peek_id(id), y.peek_id(id), "{pair}: `{}`", signal.name);
            }
            for mem in self.netlist.mems() {
                for addr in 0..mem.depth {
                    let (u, v) = (x.read_mem(&mem.name, addr), y.read_mem(&mem.name, addr));
                    assert_eq!(u, v, "{pair}: `{}[{addr}]`", mem.name);
                }
            }
            assert_eq!(x.printf_log(), y.printf_log(), "{pair}: printf");
            // Two CCSS engines: also the raw words, bits past each
            // signal's width included.
            if let (Some(m), Some(n)) = (self.machine(a), self.machine(b)) {
                assert!(m.arena == n.arena, "{pair}: arena words");
                let same = m
                    .mems
                    .iter()
                    .map(|b| &b.data)
                    .eq(n.mems.iter().map(|b| &b.data));
                assert!(same, "{pair}: memory bank words");
            }
            if let (Some(p), Some(q)) = (x.profile_report(), y.profile_report()) {
                let fields = |r: ProfileReport| (r.cycles, r.units, r.state_causes, r.input_causes);
                assert_eq!(fields(p), fields(q), "{pair}: profile");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every corpus seed must produce a valid design, and across the
    /// corpus the generator must actually exercise its feature set:
    /// signed arithmetic, memories, and two-deep nested `when`s. A
    /// generator change that silently stops producing one of these
    /// weakens every differential suite downstream.
    #[test]
    fn corpus_is_valid_and_feature_complete() {
        let (mut signed, mut mems, mut nested, mut elses) = (0, 0, 0, 0);
        for seed in 0..60u64 {
            let c = gen_circuit(seed);
            let netlist = build(&c.source, false);
            assert!(!c.outputs.is_empty(), "seed {seed} has no outputs");
            assert!(netlist.signal_count() > 0);
            signed += c.source.contains("asSInt") as u32;
            mems += c.source.contains("mem m :") as u32;
            // Two-deep nesting is identifiable by the deeper indent.
            nested += c.source.contains("      when ") as u32;
            elses += c.source.contains("else :") as u32;
        }
        assert!(signed >= 10, "only {signed}/60 seeds use signed ops");
        assert!(mems >= 10, "only {mems}/60 seeds instantiate a memory");
        assert!(nested >= 5, "only {nested}/60 seeds nest `when` blocks");
        assert!(elses >= 5, "only {elses}/60 seeds emit an `else` arm");
    }

    /// Fixed seeds pin the generator's output shape: interface sizes and
    /// source line counts must not drift. Deliberate generator changes
    /// update these constants; accidental ones (a reordered `rng` draw,
    /// a changed range) fail here with an explicit diff instead of
    /// surfacing as an unexplained equivalence-suite seed shift.
    #[test]
    fn fixed_seed_corpus_shape_is_pinned() {
        let pinned: [(u64, usize, usize, usize); 4] = [
            (0, 5, 4, 65),
            (1, 4, 4, 37),
            (42, 3, 2, 26),
            (0xE55E, 4, 2, 36),
        ];
        for (seed, n_inputs, n_outputs, n_lines) in pinned {
            let c = gen_circuit(seed);
            let got = (
                seed,
                c.inputs.len(),
                c.outputs.len(),
                c.source.lines().count(),
            );
            assert_eq!(
                got,
                (seed, n_inputs, n_outputs, n_lines),
                "seed {seed} shape drifted\n{}",
                c.source
            );
        }
    }
}
