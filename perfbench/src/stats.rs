//! Small order statistics: medians of run samples and the per-call
//! summaries (count, total, median, deepest well-populated percentile)
//! of the traced timings.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Per-call durations of one traced function, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Calls {
    ns: Vec<u64>,
}

/// Percentiles a tail is reported at, shallowest first.
const TAIL_LADDER: [f64; 5] = [90.0, 99.0, 99.9, 99.99, 99.999];

/// What a [`Calls`] summarizes to (its total is [`Calls::total_s`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallSummary {
    pub count: usize,
    pub p50_us: f64,
    /// The deepest percentile of [`TAIL_LADDER`] that still has at least
    /// ten samples beyond it (0 when there are too few calls for any).
    pub tail_pct: f64,
    pub tail_us: f64,
}

impl Calls {
    pub fn record(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn absorb(&mut self, other: Calls) {
        self.ns.extend(other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn total_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 * 1e-9
    }

    pub fn summary(&self) -> CallSummary {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let at = |pct: f64| -> f64 {
            let rank = ((pct / 100.0) * n as f64).ceil() as usize;
            sorted[rank.clamp(1, n) - 1] as f64 * 1e-3
        };
        let tail_pct = TAIL_LADDER
            .iter()
            .copied()
            .rev()
            .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(0.0);
        CallSummary {
            count: n,
            p50_us: if n == 0 { 0.0 } else { at(50.0) },
            tail_pct,
            tail_us: if tail_pct == 0.0 { 0.0 } else { at(tail_pct) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_the_deepest_percentile_with_ten_samples_beyond() {
        let mut calls = Calls::default();
        for ns in 1..=1000u64 {
            calls.record(ns * 1000);
        }
        let s = calls.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.p50_us, 500.0);
        assert_eq!(s.tail_us, 990.0);
        assert!(Calls::default().summary().tail_pct == 0.0);
    }
}
