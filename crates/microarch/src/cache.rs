//! Set-associative LRU caches.

use crate::config::CacheGeometry;
use serde::{Deserialize, Serialize};

/// A set-associative cache with true-LRU replacement.
///
/// Tags are stored per way; LRU state is an age stamp per line. A
/// capacity fraction below 1.0 restricts the visible sets, modeling the
/// paper's quarter-capacity L2 quota for single-threaded trace runs.
///
/// # Examples
///
/// ```
/// use dtm_microarch::{CacheGeometry, SetAssocCache};
///
/// let geo = CacheGeometry { size_bytes: 1024, ways: 2, block_bytes: 64 };
/// let mut c = SetAssocCache::new(geo, 1.0);
/// assert!(!c.access(0x100)); // cold miss
/// assert!(c.access(0x100));  // hit
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    sets: usize,
    ways: usize,
    block_shift: u32,
    tags: Vec<u64>,
    ages: Vec<u64>,
    valid: Vec<bool>,
    tick: u64,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache; `capacity_fraction` in `(0, 1]` limits the number
    /// of usable sets (rounded to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent or the fraction is outside
    /// `(0, 1]`.
    pub fn new(geometry: CacheGeometry, capacity_fraction: f64) -> Self {
        assert!(
            capacity_fraction > 0.0 && capacity_fraction <= 1.0,
            "capacity fraction must be in (0, 1]"
        );
        let full_sets = geometry.sets();
        assert!(
            full_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        let mut sets = ((full_sets as f64 * capacity_fraction) as usize).max(1);
        // Round down to a power of two so simple masking works.
        sets = 1 << (usize::BITS - 1 - sets.leading_zeros());
        let ways = geometry.ways;
        SetAssocCache {
            geometry,
            sets,
            ways,
            block_shift: geometry.block_bytes.trailing_zeros(),
            tags: vec![0; sets * ways],
            ages: vec![0; sets * ways],
            valid: vec![false; sets * ways],
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// The configured geometry (pre-quota).
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of usable sets after the capacity quota.
    pub fn usable_sets(&self) -> usize {
        self.sets
    }

    /// Accesses `addr`; returns `true` on a hit. Misses allocate (the
    /// model is write-allocate for stores too).
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.accesses += 1;
        let block = addr >> self.block_shift;
        let set = (block as usize) & (self.sets - 1);
        let tag = block >> self.sets.trailing_zeros();
        // The set's ways, sliced once so the way loops need no bounds
        // checks.
        let ways = set * self.ways..(set + 1) * self.ways;
        let tags = &mut self.tags[ways.clone()];
        let ages = &mut self.ages[ways.clone()];
        let valid = &mut self.valid[ways];

        for ((&t, age), &v) in tags.iter().zip(ages.iter_mut()).zip(valid.iter()) {
            if v && t == tag {
                *age = self.tick;
                return true;
            }
        }
        self.misses += 1;
        // Choose an invalid way, else LRU.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (w, (&age, &v)) in ages.iter().zip(valid.iter()).enumerate() {
            if !v {
                victim = w;
                break;
            }
            if age < oldest {
                oldest = age;
                victim = w;
            }
        }
        tags[victim] = tag;
        ages[victim] = self.tick;
        valid[victim] = true;
        false
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (0 before any access).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Clears statistics but keeps cache contents.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }

    /// Invalidates all contents (e.g., after a context switch, to model
    /// the cold-cache component of the migration penalty).
    pub fn flush(&mut self) {
        self.valid.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheGeometry {
        CacheGeometry {
            size_bytes: 1024,
            ways: 2,
            block_bytes: 64,
        }
    }

    #[test]
    fn hit_after_miss() {
        let mut c = SetAssocCache::new(small(), 1.0);
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert!(c.access(0x7f)); // same block
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way: fill a set with A, B; touch A; insert C → B evicted.
        let mut c = SetAssocCache::new(small(), 1.0);
        let sets = c.usable_sets() as u64;
        let stride = 64 * sets; // same set, different tags
        let (a, b, d) = (0, stride, 2 * stride);
        c.access(a);
        c.access(b);
        c.access(a); // refresh A
        c.access(d); // evicts B
        assert!(c.access(a), "A must survive");
        assert!(!c.access(b), "B must have been evicted");
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = SetAssocCache::new(small(), 1.0);
        let blocks: Vec<u64> = (0..16).map(|i| i * 64).collect(); // 1 KB
        for &b in &blocks {
            c.access(b);
        }
        c.reset_stats();
        for _ in 0..10 {
            for &b in &blocks {
                assert!(c.access(b));
            }
        }
        assert_eq!(c.miss_ratio(), 0.0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = SetAssocCache::new(small(), 1.0);
        // 4 KB streaming over a 1 KB cache.
        for round in 0..10 {
            for i in 0..64u64 {
                let hit = c.access(i * 64);
                if round > 0 {
                    // Streaming with LRU: everything misses forever.
                    assert!(!hit);
                }
            }
        }
    }

    #[test]
    fn capacity_fraction_quarters_sets() {
        let geo = CacheGeometry {
            size_bytes: 4096,
            ways: 2,
            block_bytes: 64,
        };
        let full = SetAssocCache::new(geo, 1.0);
        let quarter = SetAssocCache::new(geo, 0.25);
        assert_eq!(quarter.usable_sets() * 4, full.usable_sets());
    }

    #[test]
    fn quota_raises_miss_rate() {
        let geo = CacheGeometry {
            size_bytes: 4096,
            ways: 2,
            block_bytes: 64,
        };
        let mut full = SetAssocCache::new(geo, 1.0);
        let mut quarter = SetAssocCache::new(geo, 0.25);
        // Working set = 2 KB: fits in 4 KB, not in 1 KB.
        for _ in 0..20 {
            for i in 0..32u64 {
                full.access(i * 64);
                quarter.access(i * 64);
            }
        }
        assert!(quarter.miss_ratio() > full.miss_ratio());
    }

    #[test]
    fn flush_invalidates() {
        let mut c = SetAssocCache::new(small(), 1.0);
        c.access(0x40);
        c.flush();
        assert!(!c.access(0x40));
    }

    #[test]
    #[should_panic(expected = "capacity fraction")]
    fn zero_fraction_rejected() {
        SetAssocCache::new(small(), 0.0);
    }
}
