//! Synthetic instruction streams.
//!
//! SPEC 2000 binaries and SimPoint traces are not redistributable, so the
//! performance model is driven by statistically-shaped synthetic streams:
//! each [`StreamProfile`] fixes an instruction mix, dependence-distance
//! distribution (ILP), branch behaviour, and memory working-set
//! parameters. The profiles in `dtm-workloads` are calibrated so the
//! resulting IPC and per-unit activity match the published character of
//! each benchmark.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Operation class of a synthetic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstrKind {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Multi-cycle integer multiply/divide.
    IntMul,
    /// Pipelined FP add/multiply.
    FpOp,
    /// Long-latency FP divide/sqrt.
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
}

impl InstrKind {
    /// Execution latency in cycles (L1-hit latency for loads; cache
    /// misses add on top in the pipeline model).
    pub fn latency(self) -> u64 {
        match self {
            InstrKind::IntAlu => 1,
            InstrKind::IntMul => 7,
            InstrKind::FpOp => 4,
            InstrKind::FpDiv => 20,
            InstrKind::Load => 1,
            InstrKind::Store => 1,
            InstrKind::Branch => 1,
        }
    }

    /// Whether the instruction executes in the floating-point cluster.
    pub fn is_fp(self) -> bool {
        matches!(self, InstrKind::FpOp | InstrKind::FpDiv)
    }
}

/// One synthetic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Instr {
    /// Operation class.
    pub kind: InstrKind,
    /// Distance (in instructions) back to the producer of this
    /// instruction's input; 0 means no register dependence.
    pub dep_distance: u32,
    /// Memory address for loads/stores (block-aligned by the caches).
    pub addr: u64,
    /// Program counter (for branch-predictor indexing).
    pub pc: u64,
    /// Branch outcome (meaningful only for branches).
    pub taken: bool,
    /// Whether this branch follows the stream's learnable pattern (true)
    /// or is inherently random (false).
    pub pattern_branch: bool,
}

/// Statistical description of a benchmark's instruction stream.
///
/// Mix fractions must sum to at most 1; the remainder is `IntAlu`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamProfile {
    /// Fraction of integer multiplies.
    pub frac_int_mul: f64,
    /// Fraction of pipelined FP operations.
    pub frac_fp: f64,
    /// Fraction of FP divides.
    pub frac_fp_div: f64,
    /// Fraction of loads.
    pub frac_load: f64,
    /// Fraction of stores.
    pub frac_store: f64,
    /// Fraction of branches.
    pub frac_branch: f64,
    /// Mean register-dependence distance (higher ⇒ more ILP).
    pub mean_dep_distance: f64,
    /// Fraction of branches that follow a learnable repeating pattern.
    pub branch_predictability: f64,
    /// Taken bias of pattern branches.
    pub branch_taken_bias: f64,
    /// Data working-set size in bytes.
    pub data_working_set: u64,
    /// Fraction of memory references that re-touch a recent block
    /// (temporal locality, mostly L1 hits).
    pub data_locality: f64,
    /// Instruction working-set (code footprint) in bytes.
    pub code_working_set: u64,
}

impl StreamProfile {
    /// A generic compute-bound integer profile.
    pub fn generic_int() -> Self {
        StreamProfile {
            frac_int_mul: 0.01,
            frac_fp: 0.0,
            frac_fp_div: 0.0,
            frac_load: 0.25,
            frac_store: 0.10,
            frac_branch: 0.15,
            mean_dep_distance: 6.0,
            branch_predictability: 0.95,
            branch_taken_bias: 0.6,
            data_working_set: 256 * 1024,
            data_locality: 0.9,
            code_working_set: 32 * 1024,
        }
    }

    /// A generic floating-point profile.
    pub fn generic_fp() -> Self {
        StreamProfile {
            frac_int_mul: 0.01,
            frac_fp: 0.45,
            frac_fp_div: 0.01,
            frac_load: 0.22,
            frac_store: 0.08,
            frac_branch: 0.05,
            mean_dep_distance: 10.0,
            branch_predictability: 0.99,
            branch_taken_bias: 0.8,
            data_working_set: 2 * 1024 * 1024,
            data_locality: 0.85,
            code_working_set: 16 * 1024,
        }
    }

    /// Validates that fractions are sane probabilities.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first bad field.
    pub fn validate(&self) {
        let fracs = [
            ("frac_int_mul", self.frac_int_mul),
            ("frac_fp", self.frac_fp),
            ("frac_fp_div", self.frac_fp_div),
            ("frac_load", self.frac_load),
            ("frac_store", self.frac_store),
            ("frac_branch", self.frac_branch),
            ("branch_predictability", self.branch_predictability),
            ("branch_taken_bias", self.branch_taken_bias),
            ("data_locality", self.data_locality),
        ];
        for (name, v) in fracs {
            assert!((0.0..=1.0).contains(&v), "{name} = {v} out of [0,1]");
        }
        let sum = self.frac_int_mul
            + self.frac_fp
            + self.frac_fp_div
            + self.frac_load
            + self.frac_store
            + self.frac_branch;
        assert!(sum <= 1.0 + 1e-9, "mix fractions sum to {sum} > 1");
        assert!(self.mean_dep_distance >= 1.0, "dep distance < 1");
        assert!(self.data_working_set >= 1024, "working set too small");
    }
}

/// Smallest uniform draw the dependence-distance map sees: draws below
/// it (including 0, whose `ln` is −∞) are clamped up to it.
const DEP_U_MIN: f64 = 1e-12;

/// The dependence-distance map: a uniform draw `u` in `[0, 1)` to a
/// geometric-ish distance whose mean is `mean`. This expression defines
/// the stream; [`DepTable`] reproduces it exactly and calls it for the
/// few draws its table cannot settle.
fn dep_distance_ref(u: f64, mean: f64) -> u32 {
    (1.0 - u.max(DEP_U_MIN).ln() * (mean - 1.0)).round() as u32
}

/// Draws within this many raw-bit steps of a crossing are settled by
/// [`dep_distance_ref`] itself.
const DEP_GUARD: u64 = 1 << 16;

/// Largest mean with a bucketed table; larger means would need more
/// than 32 KiB of buckets and take [`dep_distance_ref`] on every draw.
const DEP_TABLE_MAX_MEAN: f64 = 17.0;

/// Exact table form of [`dep_distance_ref`] for one mean.
///
/// The map is a non-increasing step function of `u`, so it is fixed by
/// its crossings: the draws where the rounded distance drops by one.
/// Positive `f64`s order like their raw bits, so the table buckets draws
/// by `u.to_bits() >> shift`, each bucket spanning `2^shift` bits. In
/// `ln u` a bucket is at most `2^(shift−52)` wide (at the bottom of a
/// binade) while crossings sit `1/(mean−1)` apart, so `shift` is chosen
/// to make a bucket at most half a crossing gap wide: no bucket, even
/// widened by the guard band on both sides, can hold two crossings
/// (asserted while building). Each bucket stores the raw bits `t` of
/// its one crossing (found by bisection on the reference fn) and the
/// distance `lo` at and above it; a draw's distance is `lo + (bits < t)`.
///
/// `ln` is not guaranteed monotone to the last ulp, so within a few
/// hundred ulps of a crossing the rounded reference could disagree with
/// a step function. Draws within ±[`DEP_GUARD`] raw bits of `t` call the
/// reference fn, so the table is exact wherever the reference is
/// monotone outside that band — which `dep_table_matches_reference`
/// checks for every catalog mean.
#[derive(Debug, Clone)]
struct DepTable {
    mean: f64,
    shift: u32,
    /// Index of the bucket holding [`DEP_U_MIN`].
    base: u64,
    /// Half-width of the band around `t` that takes the reference fn:
    /// [`DEP_GUARD`], or everything for a mean past the table's range.
    guard: u64,
    buckets: Vec<DepBucket>,
}

#[derive(Debug, Clone, Copy)]
struct DepBucket {
    /// Raw bits of the bucket's crossing (0 when it has none).
    t: u64,
    /// Distance at and above the crossing.
    lo: u32,
}

impl DepTable {
    fn new(mean: f64) -> Self {
        if mean > DEP_TABLE_MAX_MEAN {
            // One bucket, wholly guarded: every draw takes the reference.
            return DepTable {
                mean,
                shift: 63,
                base: 0,
                guard: u64::MAX,
                buckets: vec![DepBucket { t: 0, lo: 0 }],
            };
        }
        // 2^k buckets per binade, 2^k ≥ 2(mean − 1): ≤ half a gap each.
        let mut k = 0;
        while f64::from(1u32 << k) < 2.0 * (mean - 1.0) {
            k += 1;
        }
        let shift = 52 - k;
        let first = DEP_U_MIN.to_bits();
        let last = 1f64.to_bits() - 1;
        let d = |bits: u64| dep_distance_ref(f64::from_bits(bits), mean);
        let buckets = (first >> shift..=last >> shift)
            .map(|i| {
                // The bucket widened by the guard band, clipped to the
                // draws that can occur.
                let a = ((i << shift).saturating_sub(DEP_GUARD)).max(first);
                let b = ((i + 1) << shift).saturating_add(DEP_GUARD - 1).min(last);
                let (da, db) = (d(a), d(b));
                match da.checked_sub(db) {
                    Some(0) => DepBucket { t: 0, lo: db },
                    Some(1) => {
                        // Invariant: d(lo) = da, d(hi) = db.
                        let (mut lo, mut hi) = (a, b);
                        while hi - lo > 1 {
                            let mid = lo + (hi - lo) / 2;
                            if d(mid) == db {
                                hi = mid;
                            } else {
                                lo = mid;
                            }
                        }
                        DepBucket { t: hi, lo: db }
                    }
                    _ => panic!(
                        "dependence table bucket {i} for mean {mean} spans distances {da}..{db}, \
                         not at most one crossing"
                    ),
                }
            })
            .collect();
        DepTable {
            mean,
            shift,
            base: first >> shift,
            guard: DEP_GUARD,
            buckets,
        }
    }

    /// [`dep_distance_ref`]`(u, self.mean)`, bit for bit.
    #[inline]
    fn sample(&self, u: f64) -> u32 {
        let bits = u.max(DEP_U_MIN).to_bits();
        let b = self.buckets[((bits >> self.shift) - self.base) as usize];
        if bits.abs_diff(b.t) <= self.guard {
            dep_distance_ref(u, self.mean)
        } else {
            b.lo + u32::from(bits < b.t)
        }
    }
}

/// Instruction kinds in the order a profile's mix fractions are summed;
/// `IntAlu` takes the remainder.
const MIX_ORDER: [InstrKind; 7] = [
    InstrKind::IntMul,
    InstrKind::FpOp,
    InstrKind::FpDiv,
    InstrKind::Load,
    InstrKind::Store,
    InstrKind::Branch,
    InstrKind::IntAlu,
];

/// Cumulative mix bounds of `p` in [`MIX_ORDER`], summed in that order.
fn mix_bounds(p: &StreamProfile) -> [f64; 6] {
    let mut bounds = [0.0; 6];
    let mut acc = 0.0;
    let fracs = [
        p.frac_int_mul,
        p.frac_fp,
        p.frac_fp_div,
        p.frac_load,
        p.frac_store,
        p.frac_branch,
    ];
    for (bound, frac) in bounds.iter_mut().zip(fracs) {
        acc += frac;
        *bound = acc;
    }
    bounds
}

/// Cache-block size of the synthetic data stream (bytes).
const BLOCK: u64 = 128;

/// Deterministic generator of synthetic instructions for one profile.
#[derive(Debug, Clone)]
pub struct StreamGenerator {
    profile: StreamProfile,
    rng: StdRng,
    count: u64,
    recent_blocks: [u64; 32],
    recent_pos: usize,
    /// Streaming-walk pointer, kept below the data working set.
    stride_ptr: u64,
    pattern_state: u64,
    /// [`mix_bounds`] of the active profile.
    mix_bounds: [f64; 6],
    /// `count · 4 mod code footprint`: the next sequential PC's offset.
    pc_offset: u64,
    /// Dependence-distance table for the active profile's mean.
    deps: DepTable,
    /// The table of the previous mean, so a phase switch back and forth
    /// between two profiles swaps tables instead of rebuilding them.
    spare_deps: Option<DepTable>,
}

impl StreamGenerator {
    /// Creates a generator with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`StreamProfile::validate`].
    pub fn new(profile: StreamProfile, seed: u64) -> Self {
        profile.validate();
        StreamGenerator {
            profile,
            rng: StdRng::seed_from_u64(seed),
            count: 0,
            recent_blocks: [0; 32],
            recent_pos: 0,
            stride_ptr: 0,
            pattern_state: 0,
            mix_bounds: mix_bounds(&profile),
            pc_offset: 0,
            deps: DepTable::new(profile.mean_dep_distance),
            spare_deps: None,
        }
    }

    /// The active profile.
    pub fn profile(&self) -> &StreamProfile {
        &self.profile
    }

    /// Swaps the profile (phase change) while keeping RNG and locality
    /// state, so caches and predictors see a continuous program.
    pub fn set_profile(&mut self, profile: StreamProfile) {
        profile.validate();
        let mean = profile.mean_dep_distance;
        if mean != self.deps.mean {
            match &mut self.spare_deps {
                Some(spare) if spare.mean == mean => std::mem::swap(&mut self.deps, spare),
                _ => {
                    let old = std::mem::replace(&mut self.deps, DepTable::new(mean));
                    self.spare_deps = Some(old);
                }
            }
        }
        self.profile = profile;
        self.mix_bounds = mix_bounds(&profile);
        // Re-establish the running offsets' invariants for the new
        // footprints. Reducing the walk pointer modulo the (possibly
        // smaller) working set leaves every later address unchanged.
        self.pc_offset = self.count.wrapping_mul(4) % code_footprint(&profile);
        self.stride_ptr %= profile.data_working_set.max(BLOCK);
    }

    /// Generates the next instruction.
    pub fn next_instr(&mut self) -> Instr {
        let p = self.profile;
        let r: f64 = self.rng.random();
        // The kind is the first in `MIX_ORDER` whose cumulative bound
        // exceeds `r`. The bounds never decrease, so its index is the
        // number of bounds at or below `r`: a sum with no branches to
        // mispredict on a random mix.
        let below = self.mix_bounds.iter().map(|&b| usize::from(r >= b));
        let kind = MIX_ORDER[below.sum::<usize>()];

        // Geometric-ish dependence distance with the configured mean.
        let dep_distance = self.deps.sample(self.rng.random());

        let addr = match kind {
            InstrKind::Load | InstrKind::Store => self.next_data_addr(),
            _ => 0,
        };

        let (pc, taken, pattern_branch) = if kind == InstrKind::Branch {
            if self.rng.random::<f64>() < p.branch_predictability {
                // Learnable: a small pool of recurring branch PCs, each
                // with a *static* direction chosen so the overall taken
                // fraction matches the configured bias. A table predictor
                // learns these to ~100 % after warm-up, so the profile's
                // `branch_predictability` directly sets the fraction of
                // easy branches.
                self.pattern_state = self.pattern_state.wrapping_add(1);
                let slot = self.pattern_state % 256;
                let pc = 0x8000_0000 + slot * 4;
                let taken = (slot % 100) as f64 / 100.0 < p.branch_taken_bias;
                (pc, taken, true)
            } else {
                // Inherently unpredictable: random PC pool, coin-flip
                // outcome.
                let pc = 0x9000_0000 + self.rng.random_range(0..1024u64) * 4;
                (pc, self.rng.random::<f64>() < 0.5, false)
            }
        } else {
            (0x4000_0000 + self.pc_offset, false, false)
        };

        self.count += 1;
        self.pc_offset += 4;
        if self.pc_offset >= code_footprint(&p) {
            self.pc_offset -= code_footprint(&p);
        }
        Instr {
            kind,
            dep_distance,
            addr,
            pc,
            taken,
            pattern_branch,
        }
    }

    fn next_data_addr(&mut self) -> u64 {
        let p = self.profile;
        if self.rng.random::<f64>() < p.data_locality && self.count > 0 {
            // Re-touch a recently used block.
            let idx = self.rng.random_range(0..self.recent_blocks.len());
            self.recent_blocks[idx]
        } else {
            // Streaming walk with occasional random jump inside the
            // working set.
            let addr = if self.rng.random::<f64>() < 0.7 {
                // `stride_ptr < ws` and `BLOCK ≤ ws`, so one subtraction
                // is the modulo.
                let ws = p.data_working_set.max(BLOCK);
                self.stride_ptr += BLOCK;
                if self.stride_ptr >= ws {
                    self.stride_ptr -= ws;
                }
                self.stride_ptr
            } else {
                self.rng.random_range(0..p.data_working_set.max(BLOCK)) / BLOCK * BLOCK
            };
            self.recent_blocks[self.recent_pos] = addr;
            self.recent_pos = (self.recent_pos + 1) % self.recent_blocks.len();
            addr
        }
    }
}

/// Code footprint the sequential (non-branch) PCs wrap around in, for
/// I-cache traffic.
fn code_footprint(p: &StreamProfile) -> u64 {
    p.code_working_set.max(1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let p = StreamProfile::generic_int();
        let mut a = StreamGenerator::new(p, 42);
        let mut b = StreamGenerator::new(p, 42);
        for _ in 0..1000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = StreamProfile::generic_int();
        let mut a = StreamGenerator::new(p, 1);
        let mut b = StreamGenerator::new(p, 2);
        let same = (0..100)
            .filter(|_| a.next_instr() == b.next_instr())
            .count();
        assert!(same < 100);
    }

    #[test]
    fn mix_fractions_are_respected() {
        let p = StreamProfile::generic_fp();
        let mut g = StreamGenerator::new(p, 7);
        let n = 100_000;
        let mut fp = 0;
        let mut loads = 0;
        let mut branches = 0;
        for _ in 0..n {
            match g.next_instr().kind {
                InstrKind::FpOp => fp += 1,
                InstrKind::Load => loads += 1,
                InstrKind::Branch => branches += 1,
                _ => {}
            }
        }
        let nf = n as f64;
        assert!((fp as f64 / nf - p.frac_fp).abs() < 0.01);
        assert!((loads as f64 / nf - p.frac_load).abs() < 0.01);
        assert!((branches as f64 / nf - p.frac_branch).abs() < 0.01);
    }

    #[test]
    fn int_profile_has_no_fp_instructions() {
        let mut g = StreamGenerator::new(StreamProfile::generic_int(), 3);
        for _ in 0..10_000 {
            assert!(!g.next_instr().kind.is_fp());
        }
    }

    #[test]
    fn dep_distance_mean_approximates_profile() {
        let mut p = StreamProfile::generic_int();
        p.mean_dep_distance = 8.0;
        let mut g = StreamGenerator::new(p, 11);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| g.next_instr().dep_distance as f64).sum();
        let mean = sum / n as f64;
        assert!((mean - 8.0).abs() < 0.5, "mean = {mean}");
    }

    /// The distinct `mean_dep_distance`s of the `dtm-workloads` catalog,
    /// plus the no-spread mean 1.0 and an odd mean off the half-integer
    /// grid.
    const TABLE_MEANS: [f64; 16] = [
        1.0, 2.5, 3.3, 4.0, 4.5, 5.0, 6.0, 6.5, 7.0, 7.5, 8.0, 9.0, 9.5, 10.0, 12.0, 13.0,
    ];

    /// Every crossing of the reference map, found by bisection over the
    /// whole draw range independently of the table, in draw order: for
    /// each distance `v` below the largest, the smallest draw bits
    /// mapping to `≤ v`.
    fn reference_crossings(mean: f64) -> Vec<u64> {
        let first = DEP_U_MIN.to_bits();
        let last = 1f64.to_bits() - 1;
        let d = |bits: u64| dep_distance_ref(f64::from_bits(bits), mean);
        (d(last)..d(first))
            .rev()
            .map(|v| {
                let (mut lo, mut hi) = (first, last);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if d(mid) <= v {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                hi
            })
            .collect()
    }

    #[test]
    fn dep_table_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0xdeb7);
        for mean in TABLE_MEANS {
            let table = DepTable::new(mean);
            let check = |bits: u64| {
                let u = f64::from_bits(bits);
                assert_eq!(
                    table.sample(u),
                    dep_distance_ref(u, mean),
                    "mean {mean}, u = {u:e} ({bits:#x})"
                );
            };
            // Around every crossing, on both sides, out to 2^10 draws or
            // half the gap to the next crossing.
            let crossings = reference_crossings(mean);
            let mut table_crossings: Vec<u64> = table
                .buckets
                .iter()
                .map(|b| b.t)
                .filter(|&t| t != 0)
                .collect();
            table_crossings.dedup();
            assert_eq!(table_crossings, crossings, "mean {mean}");
            for (j, &t) in crossings.iter().enumerate() {
                let gap = [j.checked_sub(1), Some(j + 1)]
                    .into_iter()
                    .flatten()
                    .filter_map(|k| crossings.get(k))
                    .map(|&n| n.abs_diff(t) / 2)
                    .min()
                    .unwrap_or(u64::MAX);
                let r = gap.min(1 << 10);
                (t - r..=t + r).for_each(check);
            }
            // Both sides of every bucket edge.
            let first = DEP_U_MIN.to_bits();
            for i in 0..table.buckets.len() as u64 {
                let edge = (table.base + i) << table.shift;
                if edge > first {
                    check(edge - 1);
                    check(edge);
                }
            }
            // Seeded draws as the generator makes them, plus the clamp.
            for _ in 0..1_000_000 / TABLE_MEANS.len() {
                check(rng.random::<f64>().to_bits());
            }
            for u in [0.0, 1e-300, DEP_U_MIN, 0.5, 1.0 - f64::EPSILON / 2.0] {
                check(u.to_bits());
            }
        }
    }

    #[test]
    fn dep_table_stays_small_and_covers_large_means() {
        let bytes = |t: &DepTable| t.buckets.len() * std::mem::size_of::<DepBucket>();
        assert!(bytes(&DepTable::new(DEP_TABLE_MAX_MEAN)) <= 32 * 1024);
        // Past the table's range every draw takes the reference fn.
        let mut rng = StdRng::seed_from_u64(17);
        for mean in [DEP_TABLE_MAX_MEAN + 0.5, 100.0, 1e6] {
            let table = DepTable::new(mean);
            assert!(bytes(&table) <= 32);
            for _ in 0..1000 {
                let u: f64 = rng.random();
                assert_eq!(table.sample(u), dep_distance_ref(u, mean));
            }
        }
    }

    #[test]
    fn phase_switches_reuse_both_tables() {
        let base = StreamProfile::generic_int();
        let alt = StreamProfile::generic_fp();
        let mut g = StreamGenerator::new(base, 1);
        g.set_profile(alt);
        let alt_table = g.deps.buckets.as_ptr();
        g.set_profile(base);
        assert_eq!(
            g.spare_deps.as_ref().map(|t| t.buckets.as_ptr()),
            Some(alt_table)
        );
        g.set_profile(alt);
        assert_eq!(
            g.deps.buckets.as_ptr(),
            alt_table,
            "switch back rebuilt the table"
        );
    }

    #[test]
    fn set_profile_keeps_the_running_offsets_exact() {
        let big = StreamProfile::generic_fp();
        let mut small = StreamProfile::generic_int();
        small.code_working_set = 3002; // not a multiple of 4
        small.data_working_set = 5000; // nor of the block
        let mut g = StreamGenerator::new(big, 4);
        for (profile, n) in [(big, 20_000), (small, 20_000), (big, 20_000)] {
            g.set_profile(profile);
            assert!(g.stride_ptr < profile.data_working_set);
            for _ in 0..n {
                let count = g.count;
                let i = g.next_instr();
                if i.kind != InstrKind::Branch {
                    assert_eq!(i.pc, 0x4000_0000 + count * 4 % code_footprint(&profile));
                }
            }
        }
    }

    #[test]
    fn memory_addresses_stay_in_working_set() {
        let p = StreamProfile::generic_int();
        let mut g = StreamGenerator::new(p, 5);
        for _ in 0..10_000 {
            let i = g.next_instr();
            if matches!(i.kind, InstrKind::Load | InstrKind::Store) {
                assert!(i.addr < p.data_working_set + 128);
            }
        }
    }

    #[test]
    fn set_profile_switches_mix() {
        let mut g = StreamGenerator::new(StreamProfile::generic_int(), 9);
        g.set_profile(StreamProfile::generic_fp());
        let fp = (0..10_000).filter(|_| g.next_instr().kind.is_fp()).count();
        assert!(fp > 2000);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn invalid_fraction_panics() {
        let mut p = StreamProfile::generic_int();
        p.frac_load = 1.5;
        StreamGenerator::new(p, 0);
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn oversubscribed_mix_panics() {
        let mut p = StreamProfile::generic_int();
        p.frac_load = 0.6;
        p.frac_store = 0.6;
        StreamGenerator::new(p, 0);
    }

    #[test]
    fn latencies_are_positive_and_ordered() {
        assert!(InstrKind::FpDiv.latency() > InstrKind::FpOp.latency());
        assert!(InstrKind::IntMul.latency() > InstrKind::IntAlu.latency());
        for k in [
            InstrKind::IntAlu,
            InstrKind::IntMul,
            InstrKind::FpOp,
            InstrKind::FpDiv,
            InstrKind::Load,
            InstrKind::Store,
            InstrKind::Branch,
        ] {
            assert!(k.latency() >= 1);
        }
    }
}
