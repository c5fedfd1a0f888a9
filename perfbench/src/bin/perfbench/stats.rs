//! Exact quantiles over every kept sample (nearest rank), and the
//! summary each timing metric reports: median, the highest tail
//! percentile that still has at least ten samples beyond it, and the
//! sample count.

/// Tail percentiles tried, highest first.
const TAILS: [f64; 4] = [0.999, 0.99, 0.95, 0.9];

/// Samples a tail percentile needs beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q · n` samples at or below it. `q` is clamped to
/// `[0, 1]`; an empty slice gives `NaN`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// One-based nearest rank of quantile `q` among `n` samples. The small
/// slack keeps `0.99 · 1000` from rounding up to rank 991.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median and tail of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples kept.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (0.99 means p99).
    pub tail_q: f64,
    /// Its value.
    pub tail: f64,
    /// Samples strictly beyond the tail percentile's rank.
    pub beyond: usize,
}

impl Summary {
    /// Summarise `samples` (sorted in place). The tail is the highest of
    /// p99.9, p99, p95 and p90 with at least ten samples beyond it; with
    /// fewer than a hundred samples it falls back to p90 and reports how
    /// few lie beyond.
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let tail_q = TAILS
            .iter()
            .copied()
            .find(|&q| n - rank(n.max(1), q).min(n) >= MIN_BEYOND)
            .unwrap_or(TAILS[TAILS.len() - 1]);
        Summary {
            n,
            p50: quantile(samples, 0.5),
            tail_q,
            tail: quantile(samples, tail_q),
            beyond: n.saturating_sub(rank(n.max(1), tail_q)),
        }
    }

    /// The note printed next to a metric built from this summary.
    pub fn note(&self, unit: &str) -> String {
        let pct = format!("{:.1}", self.tail_q * 100.0);
        format!(
            "n={} p50={:.4}{unit} p{}={:.4}{unit} ({} beyond)",
            self.n,
            self.p50,
            pct.trim_end_matches(".0"),
            self.tail,
            self.beyond
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.51), 6.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.99), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn quantiles_are_exact_not_bucketed() {
        // Two samples 1% apart must stay 1% apart: no histogram steps.
        let mut v = vec![1.00; 50];
        v.extend(vec![1.01; 51]);
        assert_eq!(Summary::of(&mut v).p50, 1.01);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let mut v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!((s.tail_q, s.tail, s.beyond), (0.999, 99_900.0, 100));

        let mut v: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!((s.tail_q, s.tail, s.beyond), (0.99, 990.0, 10));

        let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!((s.tail_q, s.beyond), (0.95, 49));

        let mut v = vec![3.0, 1.0, 2.0];
        let s = Summary::of(&mut v);
        assert_eq!((s.n, s.p50, s.tail_q, s.beyond), (3, 2.0, 0.9, 0));
    }
}
