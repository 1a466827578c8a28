//! Order statistics over small samples.

use crate::json::{obj, Json};

/// Five-number summary plus the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so the spread the benchmark prints is the
/// spread its driver computes. One value is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return [sorted[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // May exceed 4 or fall below 0 at the clamped ends, where the
        // method extrapolates.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

impl Summary {
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        let [q1, median, q3] = quartiles(&sorted);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    pub fn to_json(self) -> Json {
        obj([
            ("n", self.n.into()),
            ("min", self.min.into()),
            ("q1", self.q1.into()),
            ("median", self.median.into()),
            ("q3", self.q3.into()),
            ("max", self.max.into()),
        ])
    }

    pub fn from_json(json: &Json) -> Option<Summary> {
        let num = |key: &str| json.get(key).and_then(Json::as_f64);
        Some(Summary {
            n: json.get("n").and_then(Json::as_u64)? as usize,
            min: num("min")?,
            q1: num("q1")?,
            median: num("median")?,
            q3: num("q3")?,
            max: num("max")?,
        })
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` below eleven samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    let at = n.checked_sub(11)?;
    Some((100.0 * (at + 1) as f64 / n as f64, sorted[at]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), [1.25, 3.0, 7.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn summary_sorts_and_round_trips() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
        assert_eq!(Summary::from_json(&Json::Null), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v[..10]), None);
        assert_eq!(tail(&v[..11]), Some((100.0 / 11.0, 0.0)));
        assert_eq!(tail(&v), Some((90.0, 89.0)));
    }
}
