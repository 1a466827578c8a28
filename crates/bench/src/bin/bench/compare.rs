//! `bench compare A.json B.json`: is B (the change, or a second run of
//! the same commit) worse than A (the parent) by more than the bound the
//! benchmark fixed, for any pairing of end-to-end metric and workload?

use crate::json::Json;
use crate::stats::Summary;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Same,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// B's median is better than A's by more than the bound.
    Improved,
    /// A's own inter-quartile spread exceeds the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`'s median (negative
/// when better), and the verdict under `bound`.
pub fn judge(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let worse = if higher_is_better {
        (a.median - b.median) / a.median
    } else {
        (b.median - a.median) / a.median
    };
    let verdict = if a.spread() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Same
    };
    (worse, verdict)
}

fn workloads(file: &Json) -> Result<&[Json], String> {
    file.get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| "not a bench result file: no `workloads`".to_string())
}

fn failed_share(workload: &Json) -> Option<f64> {
    let attempted = workload.get("attempted")?.as_u64()?;
    let failed = workload.get("failed")?.as_u64()?;
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

/// Compares two result files; returns the report and whether B passes
/// (no `regressed` row and no rise in the share of failed runs).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut pass = true;
    for (side, file) in [("A", a), ("B", b)] {
        let host = file.get("host");
        let field = |k: &str| host.and_then(|h| h.get(k));
        let _ = writeln!(
            out,
            "{side}: git {} seed {} calibration {:.1} kHz on {} x {}",
            field("git_rev").and_then(Json::as_str).unwrap_or("?"),
            file.get("seed")
                .and_then(Json::as_u64)
                .map_or("?".into(), |s| s.to_string()),
            field("calibration_khz")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            field("nproc").and_then(Json::as_u64).unwrap_or(0),
            field("cpu_model").and_then(Json::as_str).unwrap_or("?"),
        );
    }
    let _ = writeln!(
        out,
        "{:<22} {:<12} {:>28} {:>28} {:>16} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A (base A)", "bound"
    );
    let b_workloads = workloads(b)?;
    for wa in workloads(a)? {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let Some(wb) = b_workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            let _ = writeln!(out, "{name:<22} missing from B: regressed");
            pass = false;
            continue;
        };
        let Some(Json::Obj(metrics)) = wa.get("metrics") else {
            return Err(format!("{name}: no `metrics` in A"));
        };
        for (metric, ma) in metrics {
            // Derived columns carry no bound and are not judged.
            let Some(bound) = ma.get("bound").and_then(Json::as_f64) else {
                continue;
            };
            let higher = ma.get("better").and_then(Json::as_str) == Some("higher");
            let sa = Summary::from_json(ma)
                .ok_or_else(|| format!("{name}/{metric}: bad summary in A"))?;
            let Some(sb) = wb
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(Summary::from_json)
            else {
                let _ = writeln!(out, "{name:<22} {metric:<12} missing from B: regressed");
                pass = false;
                continue;
            };
            let (_, verdict) = judge(&sa, &sb, higher, bound);
            pass &= verdict != Verdict::Regressed;
            let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            let _ = writeln!(
                out,
                "{name:<22} {metric:<12} {:>28} {:>28} {:>16.4} {:>5}%  {}",
                cell(&sa),
                cell(&sb),
                sb.median / sa.median,
                bound * 100.0,
                match verdict {
                    Verdict::Same => "same",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Improved => "improved",
                    Verdict::Unresolved => "unresolved (A's spread exceeds the bound)",
                }
            );
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            let _ = writeln!(out, "{name:<22} failed-run share rose: {fa:?} -> {fb:?}");
            pass = false;
        }
        let same_seed = a.get("seed") == b.get("seed");
        let simulated = match (wa.get("simulated"), wb.get("simulated")) {
            _ if !same_seed => "not comparable (different seeds)",
            (Some(x), Some(y)) if x == y => "bit-identical",
            _ => "DIFFER",
        };
        let _ = writeln!(out, "{name:<22} simulated statistics: {simulated}");
    }
    let _ = writeln!(out, "{}", if pass { "PASS" } else { "FAIL" });
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn summary(median: f64, half_spread: f64) -> Summary {
        Summary {
            n: 5,
            min: median - 2.0 * half_spread,
            q1: median - half_spread,
            median,
            q3: median + half_spread,
            max: median + 2.0 * half_spread,
        }
    }

    fn file(khz: Summary, setup: Summary, failed: u64) -> Json {
        let metric = |s: Summary, better: &str, bound: f64| {
            let Json::Obj(mut fields) = s.to_json() else {
                unreachable!()
            };
            fields.push(("better".into(), better.into()));
            fields.push(("bound".into(), bound.into()));
            Json::Obj(fields)
        };
        obj([
            ("seed", 1u64.into()),
            (
                "workloads",
                Json::Arr(vec![obj([
                    ("name", "w".into()),
                    ("attempted", 5u64.into()),
                    ("failed", failed.into()),
                    ("simulated", obj([("tohost", vec![7u64].into())])),
                    (
                        "metrics",
                        obj([
                            ("sim_khz", metric(khz, "higher", 0.08)),
                            ("setup_s", metric(setup, "lower", 0.15)),
                            ("run_s", summary(1.0, 0.0).to_json()),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn judge_knows_direction_bound_and_noise() {
        let a = summary(100.0, 1.0);
        assert_eq!(judge(&a, &summary(95.0, 1.0), true, 0.08).1, Verdict::Same);
        assert_eq!(
            judge(&a, &summary(90.0, 1.0), true, 0.08).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &summary(110.0, 1.0), true, 0.08).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(&a, &summary(110.0, 1.0), false, 0.08).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &summary(90.0, 1.0), false, 0.08).1,
            Verdict::Improved
        );
        // A's quartiles are 10% apart: nothing within reach is resolved.
        let noisy = summary(100.0, 5.0);
        assert_eq!(
            judge(&noisy, &summary(80.0, 1.0), true, 0.08).1,
            Verdict::Unresolved
        );
        let (worse, _) = judge(&a, &summary(90.0, 1.0), true, 0.08);
        assert!((worse - 0.1).abs() < 1e-12);
    }

    #[test]
    fn same_commit_twice_passes() {
        let a = file(summary(100.0, 1.0), summary(1.0, 0.01), 0);
        let b = file(summary(101.0, 1.0), summary(1.02, 0.01), 0);
        let (report, pass) = compare(&a, &b).unwrap();
        assert!(pass, "{report}");
        assert!(report.contains("same") && report.contains("bit-identical"));
        assert!(!report.contains("run_s"), "derived columns are not judged");
    }

    #[test]
    fn a_regression_or_more_failed_runs_fails() {
        let a = file(summary(100.0, 1.0), summary(1.0, 0.01), 0);
        let slow = file(summary(85.0, 1.0), summary(1.0, 0.01), 0);
        let (report, pass) = compare(&a, &slow).unwrap();
        assert!(!pass && report.contains("REGRESSED"), "{report}");
        let failing = file(summary(100.0, 1.0), summary(1.0, 0.01), 1);
        let (report, pass) = compare(&a, &failing).unwrap();
        assert!(
            !pass && report.contains("failed-run share rose"),
            "{report}"
        );
        let (_, pass) = compare(&failing, &a).unwrap();
        assert!(pass, "fewer failed runs is not a regression");
    }

    #[test]
    fn files_that_are_not_results_are_errors() {
        assert!(compare(&Json::Null, &Json::Null).is_err());
        let a = file(summary(100.0, 1.0), summary(1.0, 0.01), 0);
        let (report, pass) = compare(&a, &obj([("workloads", Json::Arr(vec![]))])).unwrap();
        assert!(!pass && report.contains("missing from B"));
    }
}
