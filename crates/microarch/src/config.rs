//! Core and memory-hierarchy configuration (Table 3 of the paper).

use serde::{Deserialize, Serialize};

/// Design parameters of the modeled out-of-order core and its memory
/// hierarchy.
///
/// Defaults reproduce Table 3: a 3.6 GHz PowerPC-class core with 2 FXU,
/// 2 FPU, 2 LSU, 1 BXU, 2×20-entry mem/int issue queues, 2×5-entry FP
/// queues, 120 GPR / 108 FPR / 90 SPR, a 16K-entry combining branch
/// predictor, 32 KB/64 KB L1 caches, a shared 4 MB L2, and 100-cycle
/// memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Nominal clock rate (Hz).
    pub clock_hz: f64,
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions dispatched (renamed) per cycle. Table 3's value, kept
    /// for reporting: the timing model does not read it (dispatch is
    /// bounded by `fetch_width`, the window and the issue queues).
    pub dispatch_width: usize,
    /// Fixed-point execution units.
    pub n_fxu: usize,
    /// Floating-point execution units.
    pub n_fpu: usize,
    /// Load/store units.
    pub n_lsu: usize,
    /// Branch execution units.
    pub n_bxu: usize,
    /// Combined mem/int issue-queue capacity (2×20 in Table 3).
    pub int_queue: usize,
    /// FP issue-queue capacity (2×5).
    pub fp_queue: usize,
    /// In-flight window (bounded by rename registers: 120 GPR, 108 FPR).
    pub window: usize,
    /// Pipeline refill penalty after a branch mispredict (cycles).
    pub mispredict_penalty: u64,
    /// Entries in each branch-predictor table (bimodal/gshare/selector).
    pub bpred_entries: usize,
    /// L1 I-cache geometry.
    pub l1i: CacheGeometry,
    /// L1 D-cache geometry.
    pub l1d: CacheGeometry,
    /// Shared L2 geometry.
    pub l2: CacheGeometry,
    /// Fraction of the L2 available to a single-threaded trace run (the
    /// paper capacity-limits single-thread simulations to one quarter).
    pub l2_capacity_fraction: f64,
    /// L1 hit latency (cycles). Table 3's value, kept for reporting: the
    /// timing model does not read it. An L1 hit costs the instruction's
    /// base `InstrKind::latency`; misses add `l2_latency` or
    /// `mem_latency`.
    pub l1_latency: u64,
    /// L2 hit latency (cycles).
    pub l2_latency: u64,
    /// Main-memory latency (cycles).
    pub mem_latency: u64,
}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total size in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Block size in bytes.
    pub block_bytes: usize,
}

impl CacheGeometry {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self) -> usize {
        assert!(
            self.size_bytes.is_multiple_of(self.ways * self.block_bytes),
            "cache size must be a multiple of ways × block size"
        );
        self.size_bytes / (self.ways * self.block_bytes)
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            clock_hz: 3.6e9,
            fetch_width: 8,
            dispatch_width: 5,
            n_fxu: 2,
            n_fpu: 2,
            n_lsu: 2,
            n_bxu: 1,
            int_queue: 40,
            fp_queue: 10,
            window: 120,
            mispredict_penalty: 12,
            bpred_entries: 16 * 1024,
            l1i: CacheGeometry {
                size_bytes: 64 * 1024,
                ways: 2,
                block_bytes: 128,
            },
            l1d: CacheGeometry {
                size_bytes: 32 * 1024,
                ways: 2,
                block_bytes: 128,
            },
            l2: CacheGeometry {
                size_bytes: 4 * 1024 * 1024,
                ways: 4,
                block_bytes: 128,
            },
            l2_capacity_fraction: 0.25,
            l1_latency: 1,
            l2_latency: 9,
            mem_latency: 100,
        }
    }
}

impl CoreConfig {
    /// Cycles per power-trace sample (100 000 in the study).
    pub const CYCLES_PER_SAMPLE: u64 = 100_000;

    /// Duration of one power-trace sample at nominal frequency (s).
    pub fn sample_period(&self) -> f64 {
        Self::CYCLES_PER_SAMPLE as f64 / self.clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table3() {
        let c = CoreConfig::default();
        assert_eq!(c.n_fxu, 2);
        assert_eq!(c.n_fpu, 2);
        assert_eq!(c.n_lsu, 2);
        assert_eq!(c.n_bxu, 1);
        assert_eq!(c.int_queue, 40);
        assert_eq!(c.fp_queue, 10);
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l1i.size_bytes, 64 * 1024);
        assert_eq!(c.l2.size_bytes, 4 * 1024 * 1024);
        assert_eq!(c.mem_latency, 100);
        assert_eq!(c.l2_latency, 9);
    }

    #[test]
    fn sample_period_is_about_28_microseconds() {
        let c = CoreConfig::default();
        let t = c.sample_period();
        assert!((t - 27.78e-6).abs() < 0.01e-6, "t = {t}");
    }

    #[test]
    fn cache_sets_compute() {
        let c = CoreConfig::default();
        assert_eq!(c.l1d.sets(), 128);
        assert_eq!(c.l1i.sets(), 256);
        assert_eq!(c.l2.sets(), 8192);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn ragged_cache_geometry_panics() {
        CacheGeometry {
            size_bytes: 1000,
            ways: 3,
            block_bytes: 128,
        }
        .sets();
    }
}
