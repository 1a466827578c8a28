//! What machine and toolchain produced a result file, and this process's
//! peak memory.

use crate::json::{obj, Json};
use essent_bits::Bits;
use essent_designs::soc::SocConfig;
use essent_netlist::interp::Interpreter;
use std::process::Command;
use std::time::{Duration, Instant};

/// First line of a command's standard output; `"unknown"` when the
/// command is missing or fails (the driver's checkout is not a git
/// repository, for one).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Machine-speed calibration: the golden netlist interpreter's rate on
/// the tiny SoC held in reset, over 0.2 s. It contains no engine code,
/// so the ratio of two calibrations tells machines apart without being
/// moved by any change the benchmark is meant to measure.
fn calibration_khz() -> f64 {
    const WINDOW: Duration = Duration::from_millis(200);
    let netlist = crate::engines::build_netlist(&SocConfig::tiny());
    let mut golden = Interpreter::new(&netlist);
    golden.poke("reset", Bits::from_u64(1, 1));
    let start = Instant::now();
    let mut cycles = 0u64;
    while start.elapsed() < WINDOW {
        cycles += golden.step(256);
    }
    cycles as f64 / start.elapsed().as_secs_f64() / 1e3
}

/// The host fingerprint written into every result file.
pub fn fingerprint() -> Json {
    obj([
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .into(),
        ),
        ("arch", std::env::consts::ARCH.into()),
        ("os", std::env::consts::OS.into()),
        ("cpu_model", cpu_model().into()),
        ("rustc", first_line_of("rustc", &["-V"]).into()),
        (
            "git_rev",
            first_line_of("git", &["rev-parse", "HEAD"]).into(),
        ),
        ("jit_supported", essent_sim::jit::supported().into()),
        ("calibration_khz", calibration_khz().into()),
    ])
}

/// This process's peak resident set (`VmHWM`) in kB; 0 where `/proc`
/// does not provide it.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_the_host() {
        let host = fingerprint();
        assert!(host.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
        assert!(host.get("calibration_khz").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(host.get("rustc").and_then(Json::as_str).is_some());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_read_on_linux() {
        assert!(peak_rss_kb() > 0);
    }
}
