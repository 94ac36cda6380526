//! Order statistics and a small seeded generator for the benchmark's own
//! randomness (arrival schedules, window picks).

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (need not be
/// sorted; non-finite entries sort last, so a failed request that is
/// recorded as `f64::INFINITY` counts as missing every latency limit).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || sorted[hi] == sorted[lo] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// splitmix64: derives independent sub-seeds from the workload seed and
/// drives [`SplitMix`].
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of stream `stream` under workload seed `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream))
}

/// A splitmix64 stream.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0.wrapping_sub(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform in `(0, 1]`.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Standard exponential variate.
    pub fn exponential(&mut self) -> f64 {
        -self.next_unit().ln()
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
    }

    #[test]
    fn streams_are_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(sub_seed(7, 1));
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(sub_seed(7, 1));
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
        assert!((0..1000).map(|_| r.exponential()).all(|x| x.is_finite() && x >= 0.0));
    }
}
