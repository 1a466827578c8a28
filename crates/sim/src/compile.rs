//! Compilation of a netlist into flat bytecode over a word arena.
//!
//! Every signal gets a fixed slice of a single `Vec<u64>` arena
//! ([`Layout`]); every computed signal becomes one [`Step`] with
//! pre-resolved offsets so the engines' inner loops touch no hash maps
//! and allocate nothing.
//!
//! The compiler also implements the paper's **conditional multiplexer-way
//! evaluation** (Section III-B): when a mux way is a chain of operations
//! consumed *only* by that mux (and invisible to the engine — not a
//! partition output, state input, or side-effect operand), the chain is
//! nested under the mux and evaluated only when selected.

use crate::engine::EngineConfig;
use essent_core::CcssPlan;
use essent_netlist::{graph, Netlist, OpKind, SignalDef, SignalId};
use std::collections::HashSet;

/// Arena placement of every signal.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    offsets: Vec<u32>,
    words: Vec<u32>,
    total: usize,
}

impl Layout {
    /// Assigns each signal a contiguous word range.
    pub fn new(netlist: &Netlist) -> Layout {
        let mut offsets = Vec::with_capacity(netlist.signal_count());
        let mut words_v = Vec::with_capacity(netlist.signal_count());
        let mut total = 0u32;
        for s in netlist.signals() {
            let w = essent_bits::words(s.width) as u32;
            offsets.push(total);
            words_v.push(w);
            total += w;
        }
        Layout {
            offsets,
            words: words_v,
            total: total as usize,
        }
    }

    /// Word offset of a signal's value.
    #[inline]
    pub fn offset(&self, sig: SignalId) -> usize {
        self.offsets[sig.index()] as usize
    }

    /// Number of words a signal occupies.
    #[inline]
    pub fn words(&self, sig: SignalId) -> usize {
        self.words[sig.index()] as usize
    }

    /// Total arena size in words.
    pub fn total_words(&self) -> usize {
        self.total
    }
}

/// A resolved operand reference.
#[derive(Debug, Clone, Copy)]
pub struct ArgRef {
    pub off: u32,
    pub words: u16,
    pub width: u32,
    pub signed: bool,
}

/// A resolved destination reference.
#[derive(Debug, Clone, Copy)]
pub struct DstRef {
    pub off: u32,
    pub words: u16,
    pub width: u32,
}

/// What a step computes.
#[derive(Debug, Clone)]
pub enum StepKind {
    /// An arithmetic/logic operation from the netlist op set.
    Op(OpKind),
    /// A combinational memory read: `dst = en ? mem[addr] : 0`.
    MemRead { mem: u32, port: u32 },
}

/// One three-address instruction.
#[derive(Debug, Clone)]
pub struct Step {
    pub kind: StepKind,
    pub dst: DstRef,
    pub args: Vec<ArgRef>,
    pub params: Vec<u64>,
    /// The defined signal (for diagnostics and the event-driven engine).
    pub sig: SignalId,
}

/// A bytecode item: a plain step, or a mux with lazily evaluated ways.
#[derive(Debug, Clone)]
pub enum Item {
    Step(Step),
    /// `dst = sel ? eval(high_items); high : eval(low_items); low`
    CondMux {
        sel: ArgRef,
        dst: DstRef,
        high_items: Vec<Item>,
        high: ArgRef,
        low_items: Vec<Item>,
        low: ArgRef,
        sig: SignalId,
    },
}

impl Item {
    /// Number of steps in this item counting all nested ways.
    pub fn step_count(&self) -> usize {
        match self {
            Item::Step(_) => 1,
            Item::CondMux {
                high_items,
                low_items,
                ..
            } => {
                1 + high_items.iter().map(Item::step_count).sum::<usize>()
                    + low_items.iter().map(Item::step_count).sum::<usize>()
            }
        }
    }
}

/// An elided register's in-place commit (Section III-B1): after the
/// block's items, `out` takes the value of `next`, and on a change the
/// register's readers wake for the next cycle.
#[derive(Debug, Clone)]
pub struct Commit {
    /// Arena offset of the next-value slot (a member of this block).
    pub next: u32,
    /// Arena offset of the register's output slot.
    pub out: u32,
    /// Words in either slot.
    pub words: u16,
    /// Index into [`CcssPlan::reg_plans`] (wake attribution).
    pub reg_plan: u32,
    /// Scheduled partitions to wake when the stored value changes.
    pub consumers: Vec<u32>,
    /// The register's output signal (diagnostics).
    pub sig: SignalId,
}

/// A straight-line block of items (one partition, or the whole design),
/// followed by the partition's elided register commits.
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub items: Vec<Item>,
    /// In [`PartitionPlan::elided_regs`](essent_core::plan::PartitionPlan)
    /// order; empty for a full-cycle block.
    pub commits: Vec<Commit>,
}

/// Builds the [`ArgRef`] for a signal.
pub fn arg_ref(netlist: &Netlist, layout: &Layout, sig: SignalId) -> ArgRef {
    let s = netlist.signal(sig);
    ArgRef {
        off: layout.offset(sig) as u32,
        words: layout.words(sig) as u16,
        width: s.width,
        signed: s.signed,
    }
}

/// Builds the [`DstRef`] for a signal.
pub fn dst_ref(netlist: &Netlist, layout: &Layout, sig: SignalId) -> DstRef {
    let s = netlist.signal(sig);
    DstRef {
        off: layout.offset(sig) as u32,
        words: layout.words(sig) as u16,
        width: s.width,
    }
}

/// Compiles the step for one computed signal; `None` for inputs,
/// constants, and register outputs.
pub fn step_for(netlist: &Netlist, layout: &Layout, sig: SignalId) -> Option<Step> {
    let s = netlist.signal(sig);
    match &s.def {
        SignalDef::Op(op) => Some(Step {
            kind: StepKind::Op(op.kind),
            dst: dst_ref(netlist, layout, sig),
            args: op
                .args
                .iter()
                .map(|&a| arg_ref(netlist, layout, a))
                .collect(),
            params: op.params.clone(),
            sig,
        }),
        SignalDef::MemRead { mem, port } => {
            let p = &netlist.mems()[mem.index()].readers[*port];
            Some(Step {
                kind: StepKind::MemRead {
                    mem: mem.0,
                    port: *port as u32,
                },
                dst: dst_ref(netlist, layout, sig),
                args: vec![
                    arg_ref(netlist, layout, p.addr),
                    arg_ref(netlist, layout, p.en),
                ],
                params: vec![],
                sig,
            })
        }
        _ => None,
    }
}

/// Signals the engine reads outside of step evaluation: state inputs,
/// memory port fields, external outputs, side-effect operands. These may
/// never be buried inside a conditional mux way.
fn engine_visible(netlist: &Netlist) -> Vec<bool> {
    let mut visible = vec![false; netlist.signal_count()];
    for sink in netlist.sink_signals() {
        visible[sink.index()] = true;
    }
    visible
}

/// Builds blocks of items for an ordered list of signals, applying the
/// conditional-mux optimization when enabled.
///
/// `ordered` must be in dependency order; `cross_read` marks signals read
/// outside this block (cross-partition outputs), which stay eagerly
/// evaluated.
fn build_block(
    netlist: &Netlist,
    layout: &Layout,
    ordered: &[SignalId],
    cross_read: &HashSet<SignalId>,
    mux_cond: bool,
    fanout_count: &[u32],
) -> Block {
    let visible = engine_visible(netlist);
    let in_block: HashSet<SignalId> = ordered.iter().copied().collect();

    // A signal is absorbable into its consuming mux when: computed here,
    // single consumer, not engine-visible, not read across partitions.
    let absorbable = |sig: SignalId| -> bool {
        mux_cond
            && fanout_count[sig.index()] == 1
            && !visible[sig.index()]
            && !cross_read.contains(&sig)
            && in_block.contains(&sig)
            && matches!(
                netlist.signal(sig).def,
                SignalDef::Op(_) | SignalDef::MemRead { .. }
            )
    };

    // Recursively build the item for `sig`, consuming absorbed producers.
    fn item_for(
        netlist: &Netlist,
        layout: &Layout,
        sig: SignalId,
        absorbable: &dyn Fn(SignalId) -> bool,
        absorbed: &mut HashSet<SignalId>,
    ) -> Item {
        if let SignalDef::Op(op) = &netlist.signal(sig).def {
            if op.kind == OpKind::Mux {
                let (sel, high, low) = (op.args[0], op.args[1], op.args[2]);
                let mut high_items = Vec::new();
                let mut low_items = Vec::new();
                collect_way(netlist, layout, high, absorbable, absorbed, &mut high_items);
                collect_way(netlist, layout, low, absorbable, absorbed, &mut low_items);
                if !high_items.is_empty() || !low_items.is_empty() {
                    return Item::CondMux {
                        sel: arg_ref(netlist, layout, sel),
                        dst: dst_ref(netlist, layout, sig),
                        high_items,
                        high: arg_ref(netlist, layout, high),
                        low_items,
                        low: arg_ref(netlist, layout, low),
                        sig,
                    };
                }
            }
        }
        Item::Step(step_for(netlist, layout, sig).expect("computed signal"))
    }

    /// Gathers the absorbable producer chain of a mux way, in dependency
    /// order, marking signals as absorbed.
    fn collect_way(
        netlist: &Netlist,
        layout: &Layout,
        way: SignalId,
        absorbable: &dyn Fn(SignalId) -> bool,
        absorbed: &mut HashSet<SignalId>,
        out: &mut Vec<Item>,
    ) {
        if !absorbable(way) || absorbed.contains(&way) {
            return;
        }
        absorbed.insert(way);
        // Dependencies first.
        for dep in netlist.deps(way) {
            collect_way(netlist, layout, dep, absorbable, absorbed, out);
        }
        out.push(item_for(netlist, layout, way, absorbable, absorbed));
    }

    let mut absorbed: HashSet<SignalId> = HashSet::new();
    let mut items = Vec::new();
    // Walk in reverse so a mux absorbs its ways before we reach them; then
    // emit in forward order skipping absorbed signals.
    let mut planned: Vec<(SignalId, Item)> = Vec::new();
    for &sig in ordered.iter().rev() {
        if absorbed.contains(&sig) {
            continue;
        }
        let item = item_for(netlist, layout, sig, &absorbable, &mut absorbed);
        planned.push((sig, item));
    }
    planned.reverse();
    for (_sig, item) in planned {
        items.push(item);
    }
    Block {
        items,
        commits: Vec::new(),
    }
}

/// A fully compiled design for the full-cycle engine: one block covering
/// every computed signal in topological order.
pub fn compile_full(netlist: &Netlist, layout: &Layout, config: &EngineConfig) -> Block {
    let order: Vec<SignalId> = graph::topo_order(netlist)
        .expect("netlist is acyclic")
        .into_iter()
        .filter(|&s| {
            matches!(
                netlist.signal(s).def,
                SignalDef::Op(_) | SignalDef::MemRead { .. }
            )
        })
        .collect();
    let fanouts = fanout_counts(netlist);
    build_block(
        netlist,
        layout,
        &order,
        &HashSet::new(),
        config.mux_conditional,
        &fanouts,
    )
}

/// Compiles one block per plan partition (members are already in
/// dependency order); cross-partition outputs stay eager. Each block
/// ends with the partition's elided register commits.
pub fn compile_plan(
    netlist: &Netlist,
    layout: &Layout,
    plan: &CcssPlan,
    config: &EngineConfig,
) -> Vec<Block> {
    let fanouts = fanout_counts(netlist);
    plan.partitions
        .iter()
        .map(|p| {
            let cross: HashSet<SignalId> = p.outputs.iter().map(|o| o.signal).collect();
            let mut block = build_block(
                netlist,
                layout,
                &p.members,
                &cross,
                config.mux_conditional,
                &fanouts,
            );
            block.commits = p
                .elided_regs
                .iter()
                .map(|&ri| {
                    let reg = &netlist.regs()[ri];
                    Commit {
                        next: layout.offset(reg.next) as u32,
                        out: layout.offset(reg.out) as u32,
                        words: layout.words(reg.out) as u16,
                        reg_plan: ri as u32,
                        consumers: plan.reg_plans[ri].wake_on_change.clone(),
                        sig: reg.out,
                    }
                })
                .collect();
            block
        })
        .collect()
}

/// Per-signal fanout counts over the extended consumer set (signal
/// readers plus memory write-port field usage and side effects), used by
/// the single-consumer test of the mux optimization.
pub fn fanout_counts(netlist: &Netlist) -> Vec<u32> {
    let mut counts = vec![0u32; netlist.signal_count()];
    for i in 0..netlist.signal_count() {
        for dep in netlist.deps(SignalId(i as u32)) {
            counts[dep.index()] += 1;
        }
    }
    // Engine-side readers (sinks) are handled via `engine_visible`, but
    // count them too so "single consumer" stays conservative.
    for sink in netlist.sink_signals() {
        counts[sink.index()] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn netlist_of(src: &str) -> Netlist {
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        Netlist::from_circuit(&lowered).unwrap()
    }

    #[test]
    fn layout_is_contiguous_and_sized() {
        let n = netlist_of("circuit L :\n  module L :\n    input a : UInt<100>\n    output o : UInt<100>\n    o <= not(a)\n");
        let layout = Layout::new(&n);
        assert_eq!(
            layout.total_words(),
            n.signals()
                .iter()
                .map(|s| essent_bits::words(s.width))
                .sum::<usize>()
        );
        // Offsets strictly increase and don't overlap.
        let mut ranges: Vec<(usize, usize)> = (0..n.signal_count())
            .map(|i| {
                let s = SignalId(i as u32);
                (layout.offset(s), layout.offset(s) + layout.words(s))
            })
            .collect();
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping slots");
        }
    }

    #[test]
    fn full_compile_covers_all_computed_signals() {
        let n = netlist_of("circuit F :\n  module F :\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<8>\n    o <= bits(add(a, b), 7, 0)\n");
        let layout = Layout::new(&n);
        let block = compile_full(&n, &layout, &EngineConfig::default());
        let computed = n
            .signals()
            .iter()
            .filter(|s| matches!(s.def, SignalDef::Op(_) | SignalDef::MemRead { .. }))
            .count();
        let steps: usize = block.items.iter().map(Item::step_count).sum();
        assert_eq!(steps, computed);
    }

    #[test]
    fn mux_ways_absorb_single_consumer_chains() {
        // Each way is an expensive single-consumer chain.
        let n = netlist_of("circuit M :\n  module M :\n    input c : UInt<1>\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<16>\n    node hi = mul(a, a)\n    node lo = mul(b, b)\n    o <= mux(c, hi, lo)\n");
        let layout = Layout::new(&n);
        let block = compile_full(&n, &layout, &EngineConfig::default());
        let has_condmux = block
            .items
            .iter()
            .any(|i| matches!(i, Item::CondMux { high_items, low_items, .. } if !high_items.is_empty() && !low_items.is_empty()));
        assert!(has_condmux, "single-consumer ways must nest: {block:#?}");
    }

    #[test]
    fn shared_way_stays_eager() {
        // `hi` is used by the mux AND by output p: must not be absorbed.
        let n = netlist_of("circuit S :\n  module S :\n    input c : UInt<1>\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<16>\n    output p : UInt<16>\n    node hi = mul(a, a)\n    node lo = mul(b, b)\n    o <= mux(c, hi, lo)\n    p <= hi\n");
        let layout = Layout::new(&n);
        let block = compile_full(&n, &layout, &EngineConfig::default());
        for item in &block.items {
            if let Item::CondMux { high_items, .. } = item {
                // hi feeds two consumers; its mul must not be under the mux.
                assert!(high_items.is_empty(), "shared producer was absorbed");
            }
        }
    }

    #[test]
    fn disabling_mux_conditional_yields_plain_steps() {
        let n = netlist_of("circuit M :\n  module M :\n    input c : UInt<1>\n    input a : UInt<8>\n    input b : UInt<8>\n    output o : UInt<16>\n    o <= mux(c, mul(a, a), mul(b, b))\n");
        let layout = Layout::new(&n);
        let config = EngineConfig {
            mux_conditional: false,
            ..EngineConfig::default()
        };
        let block = compile_full(&n, &layout, &config);
        assert!(block.items.iter().all(|i| matches!(i, Item::Step(_))));
    }
}
