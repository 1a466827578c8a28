//! One sample: a cold set-up and a timed run of one workload, taken in
//! a fresh child process so each has its own set-up cost and its own
//! peak memory, and the checks that decide whether it counts.

use crate::engines::{self, Engine};
use crate::iss::{self, IssResult};
use crate::json::{obj, Json};
use crate::workloads::{EngineKind, Inputs, Workload};
use essent_designs::soc::generate_soc;
use essent_designs::workloads::RunResult;
use essent_sim::WorkCounters;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// What one child measured and what its design computed.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// FIRRTL text in hand → engine ready with the program loaded.
    pub setup_s: f64,
    /// Reset release → `stop` (last lane's, for the batch workload).
    pub run_s: f64,
    /// The process's `VmHWM` at exit.
    pub peak_rss_kb: u64,
    /// Per lane: cycles, retired instructions, checksum, reached `stop`.
    pub lanes: Vec<RunResult>,
    pub counters: WorkCounters,
    /// Partitions running native code (0 unless the workload asks for
    /// the JIT — or the host cannot JIT, which fails the run).
    pub jit_compiled: usize,
}

impl Sample {
    /// Simulated cycles, summed over lanes.
    pub fn cycles(&self) -> u64 {
        self.lanes.iter().map(|l| l.cycles).sum()
    }

    /// Simulated kilocycles per host second of the timed run.
    pub fn sim_khz(&self) -> f64 {
        self.cycles() as f64 / self.run_s / 1e3
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_kb as f64 / 1024.0
    }

    /// The simulated statistics, which must repeat exactly.
    pub fn simulated(&self) -> (&[RunResult], WorkCounters) {
        (&self.lanes, self.counters)
    }

    /// The part of a sample that must repeat exactly, run after run.
    pub fn simulated_json(&self) -> Vec<(String, Json)> {
        let lane = |f: fn(&RunResult) -> u64| -> Json {
            self.lanes.iter().map(f).collect::<Vec<u64>>().into()
        };
        let Json::Obj(fields) = obj([
            ("lane_cycles", lane(|l| l.cycles)),
            ("instret", lane(|l| l.instret)),
            ("tohost", lane(|l| l.tohost)),
            ("finished", lane(|l| u64::from(l.finished))),
            ("ops_evaluated", self.counters.ops_evaluated.into()),
            ("static_checks", self.counters.static_checks.into()),
            ("dynamic_checks", self.counters.dynamic_checks.into()),
            ("counted_cycles", self.counters.cycles.into()),
            ("jit_compiled", self.jit_compiled.into()),
        ]) else {
            unreachable!("`obj` builds an object")
        };
        fields
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("setup_s".to_string(), self.setup_s.into()),
            ("run_s".to_string(), self.run_s.into()),
            ("peak_rss_kb".to_string(), self.peak_rss_kb.into()),
        ];
        fields.extend(self.simulated_json());
        Json::Obj(fields)
    }

    pub fn from_json(json: &Json) -> Option<Sample> {
        let num = |key: &str| json.get(key).and_then(Json::as_u64);
        let list = |key: &str| -> Option<Vec<u64>> {
            json.get(key)?
                .as_array()?
                .iter()
                .map(Json::as_u64)
                .collect()
        };
        let (cycles, instret, tohost, finished) = (
            list("lane_cycles")?,
            list("instret")?,
            list("tohost")?,
            list("finished")?,
        );
        let n = cycles.len();
        if [instret.len(), tohost.len(), finished.len()] != [n; 3] {
            return None;
        }
        Some(Sample {
            setup_s: json.get("setup_s")?.as_f64()?,
            run_s: json.get("run_s")?.as_f64()?,
            peak_rss_kb: num("peak_rss_kb")?,
            lanes: (0..n)
                .map(|i| RunResult {
                    cycles: cycles[i],
                    instret: instret[i],
                    tohost: tohost[i],
                    finished: finished[i] != 0,
                })
                .collect(),
            counters: WorkCounters {
                ops_evaluated: num("ops_evaluated")?,
                static_checks: num("static_checks")?,
                dynamic_checks: num("dynamic_checks")?,
                events: 0,
                cycles: num("counted_cycles")?,
            },
            jit_compiled: num("jit_compiled")? as usize,
        })
    }
}

/// Sets the engine up from FIRRTL text, timed, and runs it to `stop`,
/// timed: what a child process does, in this process.
pub fn take(kind: EngineKind, inputs: &Inputs, max_cycles: u64) -> Sample {
    let source = generate_soc(&inputs.config);
    let start = Instant::now();
    let netlist = Arc::new(engines::netlist_from_firrtl(&source));
    let mut engine = Engine::new(netlist, kind);
    engine.load(&inputs.programs);
    let setup_s = start.elapsed().as_secs_f64();
    let run = engine.run_to_halt(max_cycles, |_| {});
    Sample {
        setup_s,
        run_s: run.elapsed.as_secs_f64(),
        peak_rss_kb: crate::host::peak_rss_kb(),
        lanes: run.lanes,
        counters: run.counters,
        jit_compiled: engine.facts.jit_parts,
    }
}

/// Takes one sample in a fresh single-threaded child process
/// (`bench --child ...`), waits for it, and reads the sample back from
/// the last line of its output.
pub fn take_in_child(
    workload: &Workload,
    seed: u64,
    scale_div: u32,
    max_cycles: u64,
) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--scale-div", &scale_div.to_string()])
        .args(["--max-cycles", &max_cycles.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(Sample::from_json)
        .ok_or_else(|| format!("child printed no sample: {line:?}"))
}

/// The first reference: every lane's program on the instruction-set
/// model, at the scale the engine runs it.
pub fn expected(inputs: &Inputs) -> Result<Vec<IssResult>, String> {
    inputs
        .programs
        .iter()
        .map(|p| iss::run(&inputs.config, p, 1 << 32).map_err(|e| e.to_string()))
        .collect()
}

/// A cycle budget no correct run reaches: the SoC retires an
/// instruction within `2 + max latency` cycles.
pub fn cycle_cap(inputs: &Inputs, expected: &[IssResult]) -> u64 {
    let c = &inputs.config;
    let per_inst = u64::from(c.mem_latency.max(c.far_latency).max(c.mul_latency)) + 4;
    expected.iter().map(|e| e.instret + 16).max().unwrap_or(16) * per_inst
}

/// Whether a sample counts: every lane reached `stop` with the
/// reference's checksum and instruction count, and a workload that asks
/// for native code got some.
pub fn check(
    kind: EngineKind,
    lanes: &[RunResult],
    jit_compiled: usize,
    expected: &[IssResult],
) -> Result<(), String> {
    if lanes.len() != expected.len() {
        return Err(format!(
            "{} lanes reported, {} expected",
            lanes.len(),
            expected.len()
        ));
    }
    for (lane, (got, want)) in lanes.iter().zip(expected).enumerate() {
        if !got.finished {
            return Err(format!(
                "lane {lane} did not reach stop in {} cycles",
                got.cycles
            ));
        }
        if (got.tohost, got.instret) != (u64::from(want.tohost), want.instret) {
            return Err(format!(
                "lane {lane}: engine tohost {:#x} instret {}, instruction-set model tohost {:#x} instret {}",
                got.tohost, got.instret, want.tohost, want.instret
            ));
        }
    }
    if kind == EngineKind::Jit && jit_compiled == 0 {
        return Err("`jit: true` compiled no partition (unsupported host?)".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{TEST_WORKLOADS, WORKLOADS};

    /// A real sample on the tiny SoC (fast even unoptimized).
    fn tiny_sample() -> (Inputs, Vec<IssResult>, Sample) {
        let inputs = TEST_WORKLOADS[0].inputs(1, 40);
        let want = expected(&inputs).unwrap();
        let sample = take(EngineKind::Tier1, &inputs, cycle_cap(&inputs, &want));
        (inputs, want, sample)
    }

    fn check_sample(kind: EngineKind, s: &Sample, want: &[IssResult]) -> Result<(), String> {
        check(kind, &s.lanes, s.jit_compiled, want)
    }

    #[test]
    fn a_correct_sample_passes_and_round_trips() {
        let (_, want, sample) = tiny_sample();
        assert_eq!(check_sample(EngineKind::Tier1, &sample, &want), Ok(()));
        assert!(sample.sim_khz() > 0.0 && sample.setup_s > 0.0);
        assert_eq!(sample.counters.cycles, sample.cycles() + 2);
        let line = sample.to_json().to_line();
        assert_eq!(
            Sample::from_json(&Json::parse(&line).unwrap()),
            Some(sample)
        );
    }

    #[test]
    fn a_corrupted_checksum_is_a_failed_run() {
        let (_, want, mut sample) = tiny_sample();
        sample.lanes[0].tohost ^= 1;
        let err = check_sample(EngineKind::Tier1, &sample, &want).unwrap_err();
        assert!(err.contains("tohost"), "{err}");
    }

    #[test]
    fn unfinished_miscounted_and_unjitted_runs_fail() {
        let (inputs, want, sample) = tiny_sample();
        let mut short = sample.clone();
        short.lanes[0].instret -= 1;
        assert!(check_sample(EngineKind::Tier1, &short, &want).is_err());
        let capped = take(EngineKind::Tier1, &inputs, 50);
        assert!(check_sample(EngineKind::Tier1, &capped, &want)
            .unwrap_err()
            .contains("did not reach stop"));
        // The sample ran without the JIT, so a JIT workload rejects it.
        assert!(check_sample(EngineKind::Jit, &sample, &want)
            .unwrap_err()
            .contains("jit"));
        assert!(check_sample(EngineKind::Tier1, &sample, &[]).is_err());
    }

    #[test]
    fn other_seeds_compute_other_checksums() {
        for w in &WORKLOADS[..3] {
            let a = expected(&w.inputs(1, 1)).unwrap();
            let b = expected(&w.inputs(2, 1)).unwrap();
            assert_ne!(a[0].tohost, b[0].tohost, "{}", w.name);
        }
        // Matmul's checksum does not depend on the repetition count; its
        // lanes differ in instructions retired instead.
        let a = expected(&WORKLOADS[3].inputs(1, 1)).unwrap();
        let b = expected(&WORKLOADS[3].inputs(2, 1)).unwrap();
        assert_ne!(
            a.iter().map(|e| e.instret).collect::<Vec<_>>(),
            b.iter().map(|e| e.instret).collect::<Vec<_>>()
        );
    }
}
