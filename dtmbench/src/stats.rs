//! Small numeric helpers: order statistics, a seeded generator, and the
//! FNV-1a digest the correctness checks pin.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// A latency summary: the median and the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples above it (capped at p99).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// The tail value.
    pub tail: f64,
    /// Which percentile `tail` is (99 when the sample supports it).
    pub tail_pct: f64,
    /// Sample count.
    pub n: usize,
}

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

impl Tail {
    /// Summarizes `values`; `None` when there are too few samples for
    /// a tail at or above the median (fewer than `2 * TAIL_BEYOND`).
    pub fn of(values: &[f64]) -> Option<Tail> {
        let n = values.len();
        if n < 2 * TAIL_BEYOND {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        // The largest rank r (1-based) with at least TAIL_BEYOND samples
        // above it is n - TAIL_BEYOND; p99 needs rank ceil(0.99 n).
        let p99_rank = (0.99 * n as f64).ceil() as usize;
        let rank = p99_rank.min(n - TAIL_BEYOND).max(1);
        let p90_rank = (0.9 * n as f64).ceil() as usize;
        Some(Tail {
            p50: median(&v),
            p90: v[p90_rank - 1],
            tail: v[rank - 1],
            tail_pct: 100.0 * rank as f64 / n as f64,
            n,
        })
    }
}

/// The median across `windows` of each window's [`Tail`]: a burst of
/// host noise moves one window's figures, not the result. `None` unless
/// every window has enough samples for its own tail.
pub fn windowed_tail(windows: &[Vec<f64>]) -> Option<Tail> {
    let tails: Vec<Tail> = windows.iter().map(|w| Tail::of(w)).collect::<Option<_>>()?;
    let pick = |f: fn(&Tail) -> f64| median(&tails.iter().map(f).collect::<Vec<_>>());
    Some(Tail {
        p50: pick(|t| t.p50),
        p90: pick(|t| t.p90),
        tail: pick(|t| t.tail),
        tail_pct: tails.iter().map(|t| t.tail_pct).fold(100.0, f64::min),
        n: tails.iter().map(|t| t.n).sum(),
    })
}

/// SplitMix64: a tiny, well-mixed generator for seeded load streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed` and `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Incremental FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds the exact bit pattern of `v` in.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    /// Folds `v` in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = Tail::of(&v).unwrap();
        assert_eq!(t.tail, 90.0);
        assert_eq!(t.tail_pct, 90.0);
        assert_eq!((t.p50, t.p90), (50.5, 90.0));
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = Tail::of(&v).unwrap();
        assert_eq!(t.tail, 1980.0);
        assert_eq!(t.tail_pct, 99.0);
        assert!(Tail::of(&v[..19]).is_none());
        let t = Tail::of(&v[..20]).unwrap();
        assert_eq!((t.tail, t.tail_pct), (10.0, 50.0));
    }

    #[test]
    fn windowed_tail_takes_medians_across_windows() {
        let w = |k: f64| (1..=100).map(|i| k * f64::from(i)).collect::<Vec<_>>();
        let t = windowed_tail(&[w(1.0), w(2.0), w(100.0)]).unwrap();
        assert_eq!((t.p50, t.tail, t.n), (101.0, 180.0, 300));
        assert!(windowed_tail(&[w(1.0), vec![1.0; 5]]).is_none());
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
