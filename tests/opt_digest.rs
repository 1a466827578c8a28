//! The optimized netlists of the four built-in SoC designs are pinned by
//! digest: a change to any optimizer pass that moves, renames, retypes or
//! redefines a single signal of tiny, r16, r18 or boom changes these
//! numbers. A change meant to keep the optimizer's output (a faster
//! fixpoint, a pass folded into another) must pass this test unchanged.
//!
//! The front end is pinned the same way: the printed text of the lowered
//! circuit and the unoptimised netlist the builder makes of it. A faster
//! lowering pass or netlist builder must pass those unchanged too.

use essent::designs::soc::{generate_soc, SocConfig};
use essent::firrtl::{parse, passes, print_circuit};
use essent::netlist::{opt, Netlist, SignalDef};

/// FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so adjacent strings cannot run together.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn ids(&mut self, ids: impl ExactSizeIterator<Item = u64>) {
        self.u64(ids.len() as u64);
        for id in ids {
            self.u64(id);
        }
    }
}

/// FNV-1a over a canonical dump of the netlist: each signal's name,
/// width, signedness and definition in signal order, then registers,
/// memories, ports, stops and printfs.
fn digest(n: &Netlist) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(n.signal_count() as u64);
    for s in n.signals() {
        h.str(&s.name);
        h.u64(u64::from(s.width));
        h.u64(u64::from(s.signed));
        match &s.def {
            SignalDef::Input => h.u64(0),
            SignalDef::Const(c) => {
                h.u64(1);
                h.ids(c.limbs().iter().copied());
            }
            SignalDef::Op(op) => {
                h.u64(2);
                h.str(&format!("{:?}", op.kind));
                h.ids(op.args.iter().map(|a| u64::from(a.0)));
                h.ids(op.params.iter().copied());
            }
            SignalDef::RegOut(r) => {
                h.u64(3);
                h.u64(u64::from(r.0));
            }
            SignalDef::MemRead { mem, port } => {
                h.u64(4);
                h.u64(u64::from(mem.0));
                h.u64(*port as u64);
            }
        }
    }
    h.u64(n.regs().len() as u64);
    for r in n.regs() {
        h.str(&r.name);
        h.u64(u64::from(r.width));
        h.u64(u64::from(r.signed));
        h.u64(u64::from(r.out.0));
        h.u64(u64::from(r.next.0));
    }
    h.u64(n.mems().len() as u64);
    for m in n.mems() {
        h.str(&m.name);
        h.u64(u64::from(m.width));
        h.u64(u64::from(m.signed));
        h.u64(m.depth as u64);
        h.u64(m.readers.len() as u64);
        for r in &m.readers {
            h.str(&r.name);
            h.ids([r.addr, r.en, r.data].iter().map(|a| u64::from(a.0)));
        }
        h.u64(m.writers.len() as u64);
        for w in &m.writers {
            h.str(&w.name);
            h.ids(
                [w.addr, w.en, w.mask, w.data]
                    .iter()
                    .map(|a| u64::from(a.0)),
            );
        }
    }
    h.ids(n.inputs().iter().map(|a| u64::from(a.0)));
    h.ids(n.outputs().iter().map(|a| u64::from(a.0)));
    h.u64(n.stops().len() as u64);
    for s in n.stops() {
        h.str(&s.name);
        h.u64(u64::from(s.en.0));
        h.u64(s.code);
    }
    h.u64(n.printfs().len() as u64);
    for p in n.printfs() {
        h.str(&p.name);
        h.u64(u64::from(p.en.0));
        h.str(&p.fmt);
        h.ids(p.args.iter().map(|a| u64::from(a.0)));
    }
    h.0
}

#[test]
fn optimized_soc_netlists_are_pinned() {
    for (config, signals, expected) in [
        (SocConfig::tiny(), 388, 0xf394_bb27_6ec8_5bdc),
        (SocConfig::r16(), 3_719, 0x896d_b96c_a541_0858),
        (SocConfig::r18(), 10_488, 0x9e03_6761_3aaa_877d),
        (SocConfig::boom(), 24_859, 0x57e5_303b_bb33_8b42),
    ] {
        let mut netlist = essent::compile_unoptimized(&generate_soc(&config)).expect("builds");
        opt::optimize(&mut netlist, &opt::OptConfig::default());
        assert_eq!(
            (netlist.signal_count(), digest(&netlist)),
            (signals, expected),
            "design `{}`",
            config.name
        );
    }
}

#[test]
fn lowered_circuits_and_unoptimised_netlists_are_pinned() {
    for (config, text_bytes, text_digest, signals, netlist_digest) in [
        (
            SocConfig::tiny(),
            14_082,
            0xb940_312e_0e09_bc23,
            572,
            0x08c7_92aa_1e75_3d82,
        ),
        (
            SocConfig::r16(),
            174_702,
            0x2948_3c1a_c6ef_ccde,
            5_180,
            0xaa0c_3069_c689_7b87,
        ),
        (
            SocConfig::r18(),
            501_378,
            0x0fb0_6729_9cf7_c85c,
            14_909,
            0x74cc_5aec_0112_92de,
        ),
        (
            SocConfig::boom(),
            1_770_279,
            0x943b_710f_a949_3a80,
            35_639,
            0x7a11_3983_8f0a_03c3,
        ),
    ] {
        let lowered =
            passes::lower(parse(&generate_soc(&config)).expect("parses")).expect("lowers");
        let text = print_circuit(&lowered);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.bytes(text.as_bytes());
        let netlist = Netlist::from_circuit(&lowered).expect("builds");
        assert_eq!(
            (text.len(), h.0, netlist.signal_count(), digest(&netlist)),
            (text_bytes, text_digest, signals, netlist_digest),
            "design `{}`",
            config.name
        );
    }
}
