//! Value Change Dump (VCD) waveform writer.
//!
//! The paper points out that even the ubiquitous VCD format exploits
//! inactivity: it only records signals when they change. This writer does
//! exactly that — it tracks previous values and emits deltas — so dumping
//! a low-activity design is cheap. It samples any engine through
//! [`Simulator::peek_id`], so the waveform is the one the engine being
//! run computed.

use crate::engine::Simulator;
use essent_netlist::{Netlist, SignalDef, SignalId};
use std::io::{self, Write};

/// Streaming VCD writer over a design's named signals.
pub struct VcdWriter<W: Write> {
    out: W,
    tracked: Vec<Tracked>,
    started: bool,
}

struct Tracked {
    sig: SignalId,
    code: String,
    width: u32,
    prev: Option<Vec<u64>>,
}

/// Short printable-ASCII identifier codes, VCD style.
fn code_for(index: usize) -> String {
    let mut i = index;
    let mut code = String::new();
    loop {
        code.push((b'!' + (i % 94) as u8) as char);
        i /= 94;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    code
}

/// VCD identifiers cannot contain whitespace of any kind (tabs and
/// newlines are legal in FIRRTL-escaped ids and would corrupt the
/// stream); every ASCII whitespace or control character becomes `_`.
/// Dots from memory ports are kept (legal), `$` from inlining too.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_whitespace() || c.is_ascii_control() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

impl<W: Write> VcdWriter<W> {
    /// Creates a writer tracking every *named* signal (generated
    /// temporaries `_T*`/`_C*`/`_GEN*` are skipped) plus all ports.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(mut out: W, netlist: &Netlist, design_name: &str) -> io::Result<VcdWriter<W>> {
        writeln!(out, "$date\n  (essent-rs)\n$end")?;
        writeln!(out, "$version\n  essent-rs VCD dumper\n$end")?;
        writeln!(out, "$timescale 1ns $end")?;
        writeln!(out, "$scope module {} $end", sanitize(design_name))?;
        let mut tracked = Vec::new();
        for (i, s) in netlist.signals().iter().enumerate() {
            if s.name.starts_with("_T")
                || s.name.starts_with("_C")
                || s.name.starts_with("_GEN")
                || matches!(s.def, SignalDef::Const(_))
            {
                continue;
            }
            let code = code_for(tracked.len());
            writeln!(
                out,
                "$var wire {} {} {} $end",
                s.width.max(1),
                code,
                sanitize(&s.name)
            )?;
            tracked.push(Tracked {
                sig: SignalId(i as u32),
                code,
                width: s.width,
                prev: None,
            });
        }
        writeln!(out, "$upscope $end")?;
        writeln!(out, "$enddefinitions $end")?;
        Ok(VcdWriter {
            out,
            tracked,
            started: false,
        })
    }

    /// Number of tracked signals.
    pub fn tracked_signals(&self) -> usize {
        self.tracked.len()
    }

    /// Emits one timestep of `sim`: only signals whose value changed are
    /// dumped (the first sample dumps everything under `$dumpvars`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn sample(&mut self, sim: &(impl Simulator + ?Sized), time: u64) -> io::Result<()> {
        if !self.started {
            // Viewers expect the initial `$dumpvars` block at time zero
            // — even when sampling starts later, every variable needs a
            // defined value from #0 on.
            writeln!(self.out, "#0")?;
            writeln!(self.out, "$dumpvars")?;
            for t in &mut self.tracked {
                let cur = sim.peek_id(t.sig);
                write_value(&mut self.out, cur.limbs(), t.width, &t.code)?;
                t.prev = Some(cur.limbs().to_vec());
            }
            writeln!(self.out, "$end")?;
            self.started = true;
            if time != 0 {
                writeln!(self.out, "#{time}")?;
            }
            return Ok(());
        }
        writeln!(self.out, "#{time}")?;
        for t in &mut self.tracked {
            let cur = sim.peek_id(t.sig);
            let changed = match &t.prev {
                Some(prev) => prev.as_slice() != cur.limbs(),
                None => true,
            };
            if changed {
                write_value(&mut self.out, cur.limbs(), t.width, &t.code)?;
                t.prev = Some(cur.limbs().to_vec());
            }
        }
        Ok(())
    }
}

fn write_value<W: Write>(out: &mut W, words: &[u64], width: u32, code: &str) -> io::Result<()> {
    if width <= 1 {
        writeln!(out, "{}{}", words[0] & 1, code)
    } else {
        let mut s = String::with_capacity(width as usize + code.len() + 2);
        s.push('b');
        for bit in (0..width).rev() {
            let w = (bit / 64) as usize;
            let set = (words.get(w).copied().unwrap_or(0) >> (bit % 64)) & 1 == 1;
            s.push(if set { '1' } else { '0' });
        }
        s.push(' ');
        s.push_str(code);
        writeln!(out, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::full_cycle::FullCycleSim;
    use essent_bits::Bits;

    #[test]
    fn dumps_only_changes() {
        let src = "circuit V :\n  module V :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<4>\n    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))\n    r <= tail(add(r, UInt<4>(1)), 1)\n    q <= r\n";
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        let n = essent_netlist::Netlist::from_circuit(&lowered).unwrap();
        let mut sim = FullCycleSim::new(&n, &EngineConfig::default());
        let mut buf = Vec::new();
        let mut vcd = VcdWriter::new(&mut buf, &n, "V").unwrap();
        sim.poke("reset", Bits::from_u64(1, 1));
        for t in 0..6 {
            sim.step(1);
            vcd.sample(&sim, t).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("$var wire 4"));
        assert!(text.contains("$dumpvars"));
        // Under reset nothing changes after the first dump: later
        // timesteps are bare markers.
        let after_dump = text.split("$end").last().unwrap();
        let change_lines = after_dump
            .lines()
            .filter(|l| l.starts_with('b') || l.starts_with('0') || l.starts_with('1'))
            .count();
        assert_eq!(
            change_lines, 0,
            "reset-held design must dump nothing:\n{text}"
        );
    }

    #[test]
    fn sanitize_escapes_all_ascii_whitespace() {
        assert_eq!(sanitize("a b\tc\nd\re"), "a_b_c_d_e");
        assert_eq!(sanitize("m.r.data$0"), "m.r.data$0");
        assert_eq!(sanitize("x\u{b}y\u{c}z"), "x_y_z");
    }

    /// Id code → `(name, width)` from the header var table.
    type VcdVars = std::collections::HashMap<String, (String, u32)>;
    /// `(time, code, bits-as-string)` value changes in stream order.
    type VcdEvents = Vec<(u64, String, String)>;

    /// Minimal VCD reader: header var table, then timestamped value
    /// changes. Panics on malformed structure.
    fn parse_vcd(text: &str) -> (VcdVars, VcdEvents) {
        let mut vars = std::collections::HashMap::new();
        let mut events = Vec::new();
        let mut lines = text.lines();
        // Header.
        for line in lines.by_ref() {
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks.as_slice() {
                ["$var", "wire", w, code, name, "$end"] => {
                    let width: u32 = w.parse().expect("var width");
                    vars.insert(code.to_string(), (name.to_string(), width));
                }
                ["$enddefinitions", "$end"] => break,
                _ => {
                    assert!(
                        !line.contains("$var"),
                        "malformed $var line (whitespace in a name?): {line:?}"
                    );
                }
            }
        }
        // Body.
        let mut time: Option<u64> = None;
        let mut in_dump = false;
        for line in lines {
            if let Some(t) = line.strip_prefix('#') {
                time = Some(t.parse().expect("timestamp"));
            } else if line == "$dumpvars" {
                in_dump = true;
            } else if line == "$end" {
                assert!(in_dump, "stray $end");
                in_dump = false;
            } else if let Some(rest) = line.strip_prefix('b') {
                let (bits, code) = rest.split_once(' ').expect("vector change");
                events.push((
                    time.expect("change before #time"),
                    code.to_string(),
                    bits.to_string(),
                ));
            } else {
                let (v, code) = line.split_at(1);
                assert!(v == "0" || v == "1", "scalar change: {line:?}");
                events.push((
                    time.expect("change before #time"),
                    code.to_string(),
                    v.to_string(),
                ));
            }
        }
        for (_, code, _) in &events {
            assert!(
                vars.contains_key(code),
                "change for undeclared var {code:?}"
            );
        }
        (vars, events)
    }

    #[test]
    fn roundtrips_through_parser_with_hostile_names_and_late_start() {
        let src = "circuit V :\n  module V :\n    input clock : Clock\n    input reset : UInt<1>\n    output q : UInt<4>\n    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))\n    r <= tail(add(r, UInt<4>(1)), 1)\n    q <= r\n";
        let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
        let mut n = essent_netlist::Netlist::from_circuit(&lowered).unwrap();
        // A FIRRTL-escaped-id-style name with tabs and newlines.
        let q = n.find("q").unwrap();
        n.signal_mut(q).name = "out\tport\nq".into();
        let mut sim = FullCycleSim::new(&n, &EngineConfig::default());
        let mut buf = Vec::new();
        let mut vcd = VcdWriter::new(&mut buf, &n, "V design").unwrap();
        sim.poke("reset", Bits::from_u64(1, 1));
        sim.step(2);
        sim.poke("reset", Bits::from_u64(0, 1));
        // First sample at a nonzero time: the writer must still open
        // with a #0 $dumpvars block.
        for t in 3..8u64 {
            sim.step(1);
            vcd.sample(&sim, t).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let (vars, events) = parse_vcd(&text);
        assert!(vars
            .values()
            .any(|(name, w)| name == "out_port_q" && *w == 4));

        // Timestamps start at zero and increase monotonically.
        let times: Vec<u64> = events.iter().map(|(t, ..)| *t).collect();
        assert_eq!(times.first(), Some(&0), "initial dump must be at #0");
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "non-monotonic: {times:?}"
        );

        // The #0 dump covers every declared variable.
        let at_zero: std::collections::BTreeSet<&String> = events
            .iter()
            .filter(|(t, ..)| *t == 0)
            .map(|(_, code, _)| code)
            .collect();
        assert_eq!(at_zero.len(), vars.len(), "$dumpvars must cover all vars");

        // Replaying the deltas reproduces the machine's final values.
        let mut finals: std::collections::HashMap<String, String> = Default::default();
        for (_, code, bits) in &events {
            finals.insert(code.clone(), bits.clone());
        }
        let (q_code, _) = vars
            .iter()
            .find(|(_, (name, _))| name == "out_port_q")
            .unwrap();
        let got = u64::from_str_radix(&finals[q_code], 2).unwrap();
        assert_eq!(Some(got), sim.peek_id(q).to_u64());
    }

    #[test]
    fn code_generation_is_unique() {
        let codes: Vec<String> = (0..500).map(code_for).collect();
        let mut dedup = codes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
    }
}
