//! Order statistics over timing samples.

/// A set of timing samples in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, nanos: u64) {
        self.0.push(nanos);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`), in nanoseconds, and
    /// the number of samples strictly above it. `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<(u64, usize)> {
        if self.0.is_empty() {
            return None;
        }
        self.0.sort_unstable();
        let n = self.0.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let value = self.0[rank - 1];
        let beyond = n - self.0.partition_point(|&x| x <= value);
        Some((value, beyond))
    }
}

/// The median of `values` (mean of the two middles for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_count_the_tail() {
        let mut s = Samples::default();
        for x in 1..=100 {
            s.push(x);
        }
        assert_eq!(s.quantile(0.5), Some((50, 50)));
        assert_eq!(s.quantile(0.99), Some((99, 1)));
        assert_eq!(Samples::default().quantile(0.5), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
