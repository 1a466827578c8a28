//! Netlist optimizations — the "classic compiler optimizations" ESSENT
//! applies before partitioning (paper Section III-B): constant
//! propagation, copy forwarding, common-subexpression elimination, and
//! dead-code elimination.
//!
//! [`optimize`] runs one fixed pipeline; no pass is switchable.

pub mod const_prop;
pub mod cse;
pub mod dce;
pub mod forward;
pub mod narrow;

use crate::analysis;
use crate::netlist::Netlist;

/// Fixpoint rounds: each round runs every pass once, and the loop stops
/// early at a round that changes nothing.
const ROUNDS: usize = 3;

/// The argument [`optimize`] ignores.
///
/// It has no fields: it used to switch each pass and the round count,
/// and no caller outside the tests ever changed them. It survives only
/// because the `bench` package still passes `&OptConfig::default()`, and
/// goes when that package next changes (ROADMAP item 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptConfig {}

/// Optimizes the netlist in place: up to three rounds of
/// analysis-driven folding ([`const_prop::run_analysis`]), width
/// narrowing ([`narrow`]), copy forwarding, CSE and DCE. `_inert` is
/// inert (see [`OptConfig`]).
///
/// # Examples
///
/// ```
/// use essent_netlist::{opt, Netlist, SignalDef};
/// let src = "circuit C :\n  module C :\n    input a : UInt<8>\n    output o : UInt<9>\n    node t = add(UInt<8>(2), UInt<8>(3))\n    o <= add(a, bits(t, 7, 0))\n";
/// let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src)?)?;
/// let mut n = Netlist::from_circuit(&lowered)?;
/// let before = n.signal_count();
/// opt::optimize(&mut n, &opt::OptConfig::default());
/// assert!(n.signal_count() < before);
/// // `t` folded to 5: the only constant left is the one `o` adds.
/// let consts: Vec<_> = n
///     .signals()
///     .iter()
///     .filter_map(|s| match &s.def {
///         SignalDef::Const(c) => c.to_u64(),
///         _ => None,
///     })
///     .collect();
/// assert_eq!(consts, [5]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize(netlist: &mut Netlist, _inert: &OptConfig) {
    for _ in 0..ROUNDS {
        let mut changed = false;
        match analysis::analyze(netlist) {
            // Narrowing after the folds keeps the analysis sound: they
            // only replace ops with the constants it proved.
            Ok(facts) => {
                changed |= const_prop::run_analysis(netlist, &facts) > 0;
                changed |= narrow::run(netlist, &facts) > 0;
            }
            Err(cycle) => {
                debug_assert!(false, "optimize on cyclic netlist: {cycle:?}");
            }
        }
        changed |= forward::run(netlist) > 0;
        changed |= cse::run(netlist) > 0;
        changed |= dce::run(netlist) > 0;
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
pub(crate) fn build_test_netlist(src: &str) -> Netlist {
    let lowered = essent_firrtl::passes::lower(essent_firrtl::parse(src).unwrap()).unwrap();
    Netlist::from_circuit(&lowered).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use essent_bits::Bits;

    /// Optimization must preserve observable behavior: run the same
    /// stimulus through optimized and unoptimized copies.
    #[test]
    fn optimization_preserves_behavior() {
        let src = "circuit B :\n  module B :\n    input clock : Clock\n    input reset : UInt<1>\n    input a : UInt<8>\n    output o : UInt<8>\n    node two = UInt<8>(2)\n    node doubled = mul(a, two)\n    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n    r <= bits(doubled, 7, 0)\n    node dead = xor(a, UInt<8>(\"hff\"))\n    o <= r\n";
        let reference = build_test_netlist(src);
        let mut optimized = reference.clone();
        optimize(&mut optimized, &OptConfig::default());
        assert!(optimized.signal_count() < reference.signal_count());

        let mut ref_sim = Interpreter::new(&reference);
        let mut opt_sim = Interpreter::new(&optimized);
        for cycle in 0..20u64 {
            let a = Bits::from_u64(cycle * 7 + 3, 8);
            ref_sim.poke("a", a.clone());
            opt_sim.poke("a", a);
            let rst = Bits::from_u64((cycle == 0) as u64, 1);
            ref_sim.poke("reset", rst.clone());
            opt_sim.poke("reset", rst);
            ref_sim.step(1);
            opt_sim.step(1);
            assert_eq!(ref_sim.peek("o"), opt_sim.peek("o"), "cycle {cycle}");
        }
    }
}
