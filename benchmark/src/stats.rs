//! Percentiles over latency samples.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// The percentiles worth printing for `n` samples: a percentile is
/// reported only when at least ten samples lie beyond it.
pub fn supported_percentiles(n: usize) -> Vec<(&'static str, f64)> {
    [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)]
        .into_iter()
        .filter(|&(_, q)| n as f64 - (q * n as f64).ceil() >= 10.0)
        .collect()
}

/// Latency samples of one measured window, in microseconds.
pub struct Latencies {
    sorted_us: Vec<f64>,
}

impl Latencies {
    pub fn from_nanos(samples: impl IntoIterator<Item = u64>) -> Latencies {
        let mut sorted_us: Vec<f64> = samples.into_iter().map(|ns| ns as f64 / 1e3).collect();
        sorted_us.sort_by(f64::total_cmp);
        Latencies { sorted_us }
    }

    pub fn len(&self) -> usize {
        self.sorted_us.len()
    }

    pub fn at(&self, q: f64) -> f64 {
        percentile(&self.sorted_us, q)
    }

    pub fn max(&self) -> f64 {
        *self.sorted_us.last().expect("at least one sample")
    }

    /// `p50=… p90=… max=… n=…`, printing only supported percentiles.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (label, q) in supported_percentiles(self.len()) {
            out.push_str(&format!("{label}={:.1}us ", self.at(q)));
        }
        out.push_str(&format!("max={:.1}us n={}", self.max(), self.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_computed_vectors() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 0.9), 90.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        let five = [3.0, 5.0, 8.0, 13.0, 21.0];
        assert_eq!(percentile(&five, 0.5), 8.0); // rank ceil(2.5) = 3
        assert_eq!(percentile(&five, 0.9), 21.0); // rank ceil(4.5) = 5
        assert_eq!(percentile(&five, 0.2), 3.0); // rank 1
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(median(&[9.0, 1.0, 4.0, 2.0]), 2.0); // rank 2 of 1,2,4,9
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let labels = |n| -> Vec<&str> {
            supported_percentiles(n)
                .into_iter()
                .map(|(label, _)| label)
                .collect()
        };
        assert!(labels(19).is_empty()); // 9 beyond the median
        assert_eq!(labels(20), ["p50"]);
        assert_eq!(labels(99), ["p50"]); // p90 is rank 90: 9 beyond
        assert_eq!(labels(100), ["p50", "p90"]);
        assert_eq!(labels(999), ["p50", "p90"]);
        assert_eq!(labels(1000), ["p50", "p90", "p99"]);
        assert_eq!(labels(10_000), ["p50", "p90", "p99", "p999"]);
    }

    #[test]
    fn latencies_convert_and_sort() {
        let l = Latencies::from_nanos([3_000, 1_000, 2_000]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.at(0.5), 2.0);
        assert_eq!(l.max(), 3.0);
    }
}
