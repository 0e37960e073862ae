//! Summary statistics, digests and dispatch orders: the benchmark's own
//! arithmetic, kept apart from the code that runs the simulator so the
//! tests below can pin it down.

/// The number of samples a reported percentile must leave beyond it.
/// With fewer, a single outlier moves the figure, so it is not reported.
pub const MIN_TAIL: usize = 10;

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q` quantile (`0 < q < 1`), reported only when at
/// least [`MIN_TAIL`] samples lie beyond it: the 90th percentile needs
/// 100 samples, the 99th needs 1000.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = values.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_TAIL {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Ranks on each side of a quantile's own rank that [`smoothed`]
/// averages over, as a share of the sample count.
pub const WINDOW: f64 = 0.05;

/// The `q` quantile smoothed over neighbouring ranks: the mean of the
/// samples whose rank lies within `WINDOW × n` of the nearest rank of
/// `q`. A single order statistic jumps across any gap in the samples'
/// distribution that sits at the quantile; with `inject`'s discrete mix
/// of units, the plain median moved between runs by half as much again
/// as the throughput did. Reported only when [`percentile`] would be.
pub fn smoothed(values: &[f64], q: f64) -> Option<f64> {
    percentile(values, q)?;
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * n as f64).ceil() as usize;
    let w = (WINDOW * n as f64).round() as usize;
    let near = &v[rank.saturating_sub(w).max(1) - 1..(rank + w).min(n)];
    Some(near.iter().sum::<f64>() / near.len() as f64)
}

/// Busy time as a share of the time `workers` could have been busy.
pub fn worker_util(busy_s: f64, wall_s: f64, workers: usize) -> f64 {
    if wall_s > 0.0 && workers > 0 {
        busy_s / (wall_s * workers as f64)
    } else {
        0.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by (a layer a
/// workload never enters).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A 64-bit FNV-1a hash, stable across platforms and releases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one value, length-prefixed so adjacent values cannot run
    /// into each other.
    pub fn field(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }
}

/// SplitMix64: a tiny seeded generator for dispatch orders, so the
/// order depends on nothing but the seed.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Nearest rank 90 of 100 leaves exactly 10 samples above it.
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.9), None);
        let v: Vec<f64> = (1..=250).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(225.0));
        assert_eq!(percentile(&v, 0.5), Some(125.0));
        // p99 of 250 samples would leave only 2 beyond it.
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn smoothed_quantiles_average_the_neighbouring_ranks() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(smoothed(&v, 0.5), Some(50.0));
        assert_eq!(smoothed(&v, 0.9), Some(90.0));
        assert_eq!(smoothed(&v[..99], 0.9), None);
        // A gap at the median: ranks 45..=55 hold six 10s and five 20s.
        let gap: Vec<f64> = [10.0, 20.0].iter().flat_map(|&x| [x; 50]).collect();
        assert_eq!(smoothed(&gap, 0.5), Some(160.0 / 11.0));
    }

    #[test]
    fn worker_util_is_busy_over_capacity() {
        assert_eq!(worker_util(3.0, 2.0, 2), 0.75);
        assert_eq!(worker_util(4.0, 2.0, 2), 1.0);
        assert_eq!(worker_util(1.0, 0.0, 2), 0.0);
        assert_eq!(worker_util(1.0, 1.0, 0), 0.0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fields_do_not_run_together() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.field("ab");
        a.field("c");
        b.field("a");
        b.field("bc");
        assert_ne!(a, b);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            SplitMix::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(7), shuffled(7));
        assert_ne!(shuffled(7), shuffled(8));
        let mut v = shuffled(7);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
