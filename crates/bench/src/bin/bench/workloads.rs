//! The four benchmark workloads and their seeded inputs.
//!
//! Everything random flows from one [`SplitMix64`] seeded by `--seed`:
//! program sizes (perturbed within ±2 % so different seeds give different
//! `tohost` checksums while the simulated rate stays comparable) and the
//! lane → program assignment of the batch workload. The engines receive
//! only the assembled words.

use essent_designs::soc::SocConfig;
use essent_designs::workloads::{dhrystone, matmul, pchase};

/// Which engine a workload drives (built in `engines.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `EssentSim` with `EngineConfig::default()` — what `essent-cli` runs.
    Tier1,
    /// `EssentSim` with `jit: true`.
    Jit,
    /// `BatchSim` with this many lanes.
    Batch(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Design {
    #[cfg(test)]
    Tiny,
    R16,
    R18,
    Boom,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Program {
    /// `pchase(nodes, steps)`.
    Pchase { nodes: u32, steps: u32 },
    /// `dhrystone(iterations)`.
    Dhrystone { iterations: u32 },
    /// Lane `l` runs `matmul(n, reps + offset_l)`.
    MatmulLanes { n: u32, reps: u32 },
}

/// One row of the benchmark: a design, a program family at a nominal
/// size, and the engine that runs it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is in the set (also in
    /// `BENCHMARK.json`).
    pub why: &'static str,
    pub engine: EngineKind,
    design: Design,
    program: Program,
    /// The same program family small enough for the golden netlist
    /// interpreter, which runs r18 at ≈ 1.3 kHz and boom at ≈ 0.45 kHz.
    reference: Program,
}

/// The workload set. Sizes are what gave ≥ 4 s timed runs on the 2-core
/// reference host; they are inputs, not a baseline claim.
pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "r18.pchase.jit",
        why: "lowest activity (1.6% of ops per cycle): flag scan and state commit are ~40% of a cycle, native dispatch the rest",
        engine: EngineKind::Jit,
        design: Design::R18,
        program: Program::Pchase {
            nodes: 512,
            steps: 180_000,
        },
        reference: Program::Pchase {
            nodes: 16,
            steps: 16,
        },
    },
    Workload {
        name: "boom.dhrystone.jit",
        why: "highest activity (~200 partitions wake per cycle), memory-bound, JIT at parity; the only large set-up",
        engine: EngineKind::Jit,
        design: Design::Boom,
        program: Program::Dhrystone { iterations: 480 },
        reference: Program::Dhrystone { iterations: 1 },
    },
    Workload {
        name: "r16.dhrystone.tier1",
        why: "the default user path: scalar Inst1 dispatch does the work, JIT and batch code are bypassed",
        engine: EngineKind::Tier1,
        design: Design::R16,
        program: Program::Dhrystone { iterations: 6_000 },
        reference: Program::Dhrystone { iterations: 8 },
    },
    Workload {
        name: "r16.matmul.batch8",
        why: "throughput over 8 stimuli that halt at different cycles: lane loop, wake masks, AVX2 and compaction",
        engine: EngineKind::Batch(8),
        design: Design::R16,
        program: Program::MatmulLanes { n: 8, reps: 40 },
        reference: Program::MatmulLanes { n: 2, reps: 1 },
    },
];

/// Looks a workload up by its name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64 (Steele, Lea & Flood): the benchmark's only random source.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these sizes).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `nominal / scale_div`, moved by a seeded amount within ±2 %.
fn perturbed(rng: &mut SplitMix64, nominal: u32, scale_div: u32) -> u32 {
    let n = u64::from((nominal / scale_div).max(1));
    let span = n / 50;
    (n - span + rng.below(2 * span + 1)) as u32
}

/// Lane offsets of the batch workload: a fixed multiset, so the total
/// work and the longest lane are the same for every seed and only the
/// lane → program assignment (and with it the compaction order) moves.
const LANE_OFFSETS: [u32; 8] = [0, 0, 1, 2, 2, 3, 4, 4];

/// The generated inputs of one run: a design and one program per lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub config: SocConfig,
    /// Assembled words, one program per lane (one lane for the
    /// single-instance engines).
    pub programs: Vec<Vec<u32>>,
}

impl Workload {
    /// Generates the inputs for `seed`, with every program size divided
    /// by `scale_div` (1 = the measured size, 8 = the traced run, 50 = `--smoke`).
    ///
    /// # Panics
    ///
    /// Panics if a generated program fails to assemble (a bug in
    /// `essent-designs`, covered by its tests).
    pub fn inputs(&self, seed: u64, scale_div: u32) -> Inputs {
        self.generate(self.program, seed, scale_div)
    }

    /// The inputs of the golden-interpreter reference run.
    pub fn reference_inputs(&self) -> Inputs {
        self.generate(self.reference, 0, 1)
    }

    fn generate(&self, program: Program, seed: u64, scale_div: u32) -> Inputs {
        // One stream per workload, so adding a workload does not move
        // the others' inputs.
        let salt = self
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
        let mut rng = SplitMix64::new(seed ^ salt);
        let config = match self.design {
            #[cfg(test)]
            Design::Tiny => SocConfig::tiny(),
            Design::R16 => SocConfig::r16(),
            Design::R18 => SocConfig::r18(),
            Design::Boom => SocConfig::boom(),
        };
        let lanes = match self.engine {
            EngineKind::Batch(n) => n,
            EngineKind::Tier1 | EngineKind::Jit => 1,
        };
        let programs = match program {
            Program::Pchase { nodes, steps } => {
                vec![pchase(nodes, perturbed(&mut rng, steps, scale_div))]
            }
            Program::Dhrystone { iterations } => {
                vec![dhrystone(perturbed(&mut rng, iterations, scale_div))]
            }
            Program::MatmulLanes { n, reps } => {
                // Fisher–Yates over the fixed offsets.
                let mut offsets = LANE_OFFSETS;
                for i in (1..offsets.len()).rev() {
                    offsets.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let base = (reps / scale_div).max(1);
                (0..lanes)
                    .map(|l| matmul(n, base + offsets[l % offsets.len()]))
                    .collect()
            }
        };
        Inputs {
            config,
            programs: programs
                .into_iter()
                .map(|p| p.expect("generated workload assembles").words)
                .collect(),
        }
    }
}

/// The driver's own tests run it over the tiny SoC: the same code paths
/// in seconds, unoptimized.
#[cfg(test)]
pub static TEST_WORKLOADS: [Workload; 2] = [
    Workload {
        name: "tiny.pchase.jit",
        why: "test",
        engine: EngineKind::Jit,
        design: Design::Tiny,
        program: Program::Pchase {
            nodes: 64,
            steps: 4_000,
        },
        reference: Program::Pchase {
            nodes: 16,
            steps: 20,
        },
    },
    Workload {
        name: "tiny.matmul.batch3",
        why: "test",
        engine: EngineKind::Batch(3),
        design: Design::Tiny,
        program: Program::MatmulLanes { n: 3, reps: 50 },
        reference: Program::MatmulLanes { n: 2, reps: 1 },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 0 from the reference implementation.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn same_seed_same_programs_other_seed_other_programs() {
        for w in &WORKLOADS {
            assert_eq!(w.inputs(7, 50), w.inputs(7, 50), "{}", w.name);
            assert_ne!(w.inputs(7, 1), w.inputs(8, 1), "{}", w.name);
        }
    }

    #[test]
    fn sizes_stay_within_two_percent() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let n = perturbed(&mut rng, 180_000, 1);
            assert!((176_400..=183_600).contains(&n), "{n}");
        }
        assert_eq!(perturbed(&mut rng, 30, 50), 1);
    }

    #[test]
    fn batch_lanes_get_a_permutation_of_the_fixed_offsets() {
        let w = find("r16.matmul.batch8").unwrap();
        let a = w.inputs(1, 1);
        assert_eq!(a.programs.len(), 8);
        // Lanes differ among themselves (they must halt at different
        // cycles) and the assignment moves with the seed.
        assert!(a.programs.iter().any(|p| p != &a.programs[0]));
        assert!((2..20).any(|s| w.inputs(s, 1).programs != a.programs));
    }
}
