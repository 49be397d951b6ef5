//! OS-level thread-migration policies (the taxonomy's third axis).
//!
//! Both policies implement the decision algorithm of Figure 4 — sort
//! cores by critical-hotspot imbalance, then greedily match each core
//! with the least-intense remaining thread for its critical hotspot —
//! and differ only in how per-thread hotspot *intensities* are estimated:
//!
//! - [`CounterMigration`] uses performance-counter proxies (register-file
//!   accesses per adjusted cycle).
//! - [`SensorMigration`] maintains the OS thread×core thermal-trend table
//!   of Figure 6, filled from the inner PI loop's temperature telemetry
//!   (scaled by the cubic DVFS relation), and profiles unseen
//!   thread/core pairs by rotating assignments until the table supports
//!   estimating every combination.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Index of the integer-RF sensor in per-core sensor arrays.
pub const HOTSPOT_INT: usize = 0;
/// Index of the FP-RF sensor in per-core sensor arrays.
pub const HOTSPOT_FP: usize = 1;

/// Windowed performance-counter state for one thread, maintained by the
/// simulator from the thread's consumed trace samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadCounters {
    /// Integer register-file accesses per (adjusted) cycle.
    pub int_rf_per_cycle: f64,
    /// FP register-file accesses per (adjusted) cycle.
    pub fp_rf_per_cycle: f64,
}

impl ThreadCounters {
    /// The counter proxy for a hotspot unit.
    pub fn intensity(&self, unit: usize) -> f64 {
        match unit {
            HOTSPOT_INT => self.int_rf_per_cycle,
            HOTSPOT_FP => self.fp_rf_per_cycle,
            _ => panic!("unknown hotspot unit index {unit}"),
        }
    }
}

/// Everything the OS sees at a timer interrupt.
#[derive(Debug, Clone)]
pub struct OsObservation<'a> {
    /// Current simulation time (s).
    pub time: f64,
    /// Core → thread assignment.
    pub assignment: &'a [usize],
    /// Per-core current frequency scale factor (0 when stalled).
    pub scale: &'a [f64],
    /// Per-core hotspot sensor readings `[int_rf, fp_rf]` (°C).
    pub sensor_temps: &'a [[f64; 2]],
    /// Per-thread windowed counters.
    pub counters: &'a [ThreadCounters],
    /// Per-core: did the local thermal control signal a trip (stop-go
    /// stall) since the last migration decision? A mid-stall core reads
    /// cool, so without this signal the OS would mistake the most
    /// thermally troubled cores for the healthiest ones.
    pub tripped: &'a [bool],
    /// The hotspot unit that caused each core's most recent trip
    /// (meaningful where `tripped` is set).
    pub trip_unit: &'a [usize],
}

impl OsObservation<'_> {
    /// The hotter sensor index (critical hotspot) of a core; for a core
    /// that tripped since the last decision, the unit that tripped it.
    pub fn critical_unit(&self, core: usize) -> usize {
        if self.tripped[core] {
            return self.trip_unit[core];
        }
        let t = self.sensor_temps[core];
        if t[HOTSPOT_INT] >= t[HOTSPOT_FP] {
            HOTSPOT_INT
        } else {
            HOTSPOT_FP
        }
    }

    /// Hotspot imbalance of a core: critical minus secondary hotspot
    /// temperature (Figure 4's sort key).
    pub fn imbalance(&self, core: usize) -> f64 {
        let t = self.sensor_temps[core];
        (t[HOTSPOT_INT] - t[HOTSPOT_FP]).abs()
    }
}

/// A migration policy: observes the chip at OS ticks and occasionally
/// proposes a new core→thread assignment.
pub trait MigrationPolicy: std::fmt::Debug + Send {
    /// Called when the OS is willing to migrate (the engine enforces the
    /// 10 ms rate limit). `plan` holds one slot per core and enters as a
    /// copy of the current assignment; a policy that proposes a new
    /// core → thread assignment writes it there and returns `true`.
    /// Writing into the caller's buffer keeps decisions allocation-free.
    fn decide(&mut self, obs: &OsObservation<'_>, plan: &mut [usize]) -> bool;

    /// Called every OS tick regardless of migration eligibility, letting
    /// policies accumulate telemetry.
    fn observe(&mut self, _obs: &OsObservation<'_>) {}
}

/// The no-migration base case.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMigration;

impl MigrationPolicy for NoMigration {
    fn decide(&mut self, _obs: &OsObservation<'_>, _plan: &mut [usize]) -> bool {
        false
    }
}

/// Figure 4's greedy matching: cores in order of decreasing hotspot
/// imbalance each claim the remaining thread with the least intensity
/// for their critical hotspot.
///
/// The incumbent thread of each core receives a 20 % intensity discount:
/// "in some cases, the best candidate for a thread to migrate will be
/// itself, in which case a migration is not done" — the discount keeps
/// near-tied estimates from churning the whole assignment every
/// decision interval.
#[derive(Debug, Clone, Default)]
struct Greedy {
    /// Scratch reused across decisions.
    order: Vec<usize>,
    remaining: Vec<usize>,
}

impl Greedy {
    /// Writes the matching into `out` (one slot per core) and returns
    /// whether it differs from the current assignment.
    /// `intensity(thread, core, unit)` supplies the estimate.
    fn assign<F>(&mut self, obs: &OsObservation<'_>, intensity: F, out: &mut [usize]) -> bool
    where
        F: Fn(usize, usize, usize) -> f64,
    {
        let n = obs.assignment.len();
        let order = &mut self.order;
        order.clear();
        order.extend(0..n);
        // Tripped cores are the most thermally troubled regardless of
        // their (mid-stall, cooled) sensor readings; they sort first.
        // (Stable sort; below 20 elements it sorts in place.)
        let key = |c: usize| obs.imbalance(c) + if obs.tripped[c] { 1e3 } else { 0.0 };
        order.sort_by(|&a, &b| key(b).total_cmp(&key(a)));

        let remaining = &mut self.remaining;
        remaining.clear();
        remaining.extend_from_slice(obs.assignment);
        for &core in order.iter() {
            let unit = obs.critical_unit(core);
            let incumbent = obs.assignment[core];
            let score = |t: usize| {
                let raw = intensity(t, core, unit);
                if t == incumbent {
                    raw - 0.2 * raw.abs()
                } else {
                    raw
                }
            };
            let (pos, &thread) = remaining
                .iter()
                .enumerate()
                .min_by(|(_, &t1), (_, &t2)| score(t1).total_cmp(&score(t2)))
                .expect("one thread per core");
            out[core] = thread;
            remaining.swap_remove(pos);
        }
        out != obs.assignment
    }
}

/// Tracks each core's critical hotspot across decisions, implementing
/// the paper's trigger: "migration decisions are actuated when the local
/// thermal control of at least two individual cores signals that their
/// critical hotspots have changed".
#[derive(Debug, Clone, Default)]
struct CriticalTracker {
    last: Vec<usize>,
}

impl CriticalTracker {
    /// Returns whether a decision should fire now, updating the
    /// remembered critical hotspots in place. The first call always
    /// fires.
    fn should_fire(&mut self, obs: &OsObservation<'_>) -> bool {
        let n = obs.assignment.len();
        let first = self.last.is_empty();
        let mut changed = 0;
        for (c, last) in self.last.iter_mut().enumerate().take(n) {
            let now = obs.critical_unit(c);
            changed += usize::from(now != *last);
            *last = now;
        }
        self.last.truncate(n);
        let known = self.last.len();
        self.last.extend((known..n).map(|c| obs.critical_unit(c)));
        first || changed >= 2
    }
}

/// Performance-counter-based migration (§6.1).
#[derive(Debug, Clone, Default)]
pub struct CounterMigration {
    tracker: CriticalTracker,
    greedy: Greedy,
}

impl CounterMigration {
    /// Creates the policy.
    pub fn new() -> Self {
        CounterMigration::default()
    }
}

impl MigrationPolicy for CounterMigration {
    fn decide(&mut self, obs: &OsObservation<'_>, plan: &mut [usize]) -> bool {
        let fire = self.tracker.should_fire(obs) || obs.tripped.iter().any(|&t| t);
        fire && self
            .greedy
            .assign(obs, |t, _core, unit| obs.counters[t].intensity(unit), plan)
    }
}

/// A fixed-cadence round-robin rotation, in the spirit of
/// activity-migration / "heat-and-run" proposals the paper compares
/// against (Heo et al., Powell et al.): every eligible decision it
/// shifts every thread to the next core, regardless of temperatures.
///
/// Not part of the paper's taxonomy — provided as a comparison baseline
/// to quantify what the Figure-4 *informed* matching adds over blind
/// rotation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RotationMigration;

impl RotationMigration {
    /// Creates the policy.
    pub fn new() -> Self {
        RotationMigration
    }
}

impl MigrationPolicy for RotationMigration {
    fn decide(&mut self, obs: &OsObservation<'_>, plan: &mut [usize]) -> bool {
        rotate(obs.assignment, plan);
        true
    }
}

/// Shifts every thread to the next core.
fn rotate(assignment: &[usize], out: &mut [usize]) {
    let n = assignment.len();
    for (c, slot) in out.iter_mut().enumerate() {
        *slot = assignment[(c + 1) % n];
    }
}

/// Accumulated thermal-trend statistics for one (thread, core) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
struct TrendStat {
    sum: [f64; 2],
    n: u32,
}

impl TrendStat {
    fn mean(&self, unit: usize) -> Option<f64> {
        (self.n > 0).then(|| self.sum[unit] / self.n as f64)
    }
}

/// Sensor-based migration (§6.3, Figure 6).
///
/// The OS maintains a thread×core table of thermal trends. Each OS tick,
/// the per-core intensity observed for the thread running there —
/// combining the hotspot's elevation over the chip mean with its slope,
/// both normalized by the cubic DVFS relation — is folded into the
/// table. When the table cannot yet estimate every thread-core
/// combination, migration targets are set to profile more (a rotation);
/// once coverage is sufficient, an additive thread+core-effects model
/// estimates all combinations and Figure 4's algorithm runs on the
/// estimates.
#[derive(Debug, Clone)]
pub struct SensorMigration {
    table: HashMap<(usize, usize), TrendStat>,
    last_temps: Vec<[f64; 2]>,
    last_assignment: Vec<usize>,
    last_time: f64,
    min_samples_per_pair: u32,
    tracker: CriticalTracker,
    greedy: Greedy,
    /// Fitted `(thread, core)` effects per hotspot unit, reused across
    /// decisions.
    effects: [(Vec<f64>, Vec<f64>); 2],
}

impl SensorMigration {
    /// Creates the policy; `min_samples_per_pair` OS ticks of data are
    /// required before a (thread, core) cell counts as profiled.
    pub fn new(min_samples_per_pair: u32) -> Self {
        SensorMigration {
            table: HashMap::new(),
            last_temps: Vec::new(),
            last_assignment: Vec::new(),
            last_time: f64::NAN,
            min_samples_per_pair: min_samples_per_pair.max(1),
            tracker: CriticalTracker::default(),
            greedy: Greedy::default(),
            effects: Default::default(),
        }
    }

    /// Number of profiled (thread, core) cells.
    pub fn profiled_pairs(&self) -> usize {
        self.table
            .values()
            .filter(|s| s.n >= self.min_samples_per_pair)
            .count()
    }

    /// Whether the table supports estimating every thread-core
    /// combination: each thread profiled on at least one core and each
    /// core profiled with at least one thread (the additive model then
    /// fills in the rest).
    fn coverage_ok(&self, n_threads: usize, n_cores: usize) -> bool {
        let profiled = |t: usize, c: usize| {
            self.table
                .get(&(t, c))
                .is_some_and(|s| s.n >= self.min_samples_per_pair)
        };
        (0..n_threads).all(|t| (0..n_cores).any(|c| profiled(t, c)))
            && (0..n_cores).all(|c| (0..n_threads).any(|t| profiled(t, c)))
    }
}

impl MigrationPolicy for SensorMigration {
    fn observe(&mut self, obs: &OsObservation<'_>) {
        let n_cores = obs.assignment.len();
        // Every (thread, core) pair fits from the first tick on, so
        // profiling never grows the table mid-run.
        self.table
            .reserve((obs.counters.len() * n_cores).saturating_sub(self.table.len()));
        if self.last_temps.len() == n_cores && self.last_time.is_finite() {
            let dt = obs.time - self.last_time;
            if dt > 0.0 {
                let chip_mean: f64 = obs.sensor_temps.iter().flat_map(|t| t.iter()).sum::<f64>()
                    / (2 * n_cores) as f64;
                for core in 0..n_cores {
                    // Attribute the interval to the thread only if it ran
                    // on this core for the whole tick.
                    if self.last_assignment.get(core) != Some(&obs.assignment[core]) {
                        continue;
                    }
                    let s = obs.scale[core];
                    if s < 1e-6 {
                        continue; // stalled: no thermal signal to attribute
                    }
                    let s3 = s * s * s;
                    let thread = obs.assignment[core];
                    let stat = self.table.entry((thread, core)).or_default();
                    for unit in 0..2 {
                        let level = obs.sensor_temps[core][unit] - chip_mean;
                        let slope =
                            (obs.sensor_temps[core][unit] - self.last_temps[core][unit]) / dt;
                        // Intensity: level plus slope weighted by a
                        // thermal-time-constant-scale window (10 ms),
                        // normalized by the cubic frequency relation.
                        stat.sum[unit] += (level + 0.01 * slope) / s3;
                        stat.n += 1;
                    }
                }
            }
        }
        self.last_temps.clear();
        self.last_temps.extend_from_slice(obs.sensor_temps);
        self.last_assignment.clear();
        self.last_assignment.extend_from_slice(obs.assignment);
        self.last_time = obs.time;
    }

    fn decide(&mut self, obs: &OsObservation<'_>, plan: &mut [usize]) -> bool {
        let n_cores = obs.assignment.len();
        let n_threads = obs.counters.len();
        let fire = self.tracker.should_fire(obs) || obs.tripped.iter().any(|&t| t);
        if !self.coverage_ok(n_threads, n_cores) {
            // Insufficient profiling data: rotate assignments to fill the
            // thread-core thermal table (Figure 6's "profile more" arm).
            rotate(obs.assignment, plan);
            return true;
        }
        if !fire {
            return false;
        }
        // Coverage is sufficient: fit the additive model and estimate
        // every (thread, core, unit) intensity.
        let min_n = self.min_samples_per_pair;
        let table = &self.table;
        let fit = |unit: usize, (thread_eff, core_eff): &mut (Vec<f64>, Vec<f64>)| {
            thread_eff.clear();
            thread_eff.resize(n_threads, 0.0);
            core_eff.clear();
            core_eff.resize(n_cores, 0.0);
            for _ in 0..4 {
                for (t, te) in thread_eff.iter_mut().enumerate() {
                    let (mut acc, mut n) = (0.0, 0);
                    for (c, ce) in core_eff.iter().enumerate() {
                        if let Some(v) = table
                            .get(&(t, c))
                            .filter(|s| s.n >= min_n)
                            .and_then(|s| s.mean(unit))
                        {
                            acc += v - ce;
                            n += 1;
                        }
                    }
                    if n > 0 {
                        *te = acc / n as f64;
                    }
                }
                for (c, ce) in core_eff.iter_mut().enumerate() {
                    let (mut acc, mut n) = (0.0, 0);
                    for (t, te) in thread_eff.iter().enumerate() {
                        if let Some(v) = table
                            .get(&(t, c))
                            .filter(|s| s.n >= min_n)
                            .and_then(|s| s.mean(unit))
                        {
                            acc += v - te;
                            n += 1;
                        }
                    }
                    if n > 0 {
                        *ce = acc / n as f64;
                    }
                }
            }
        };
        let [int_fit, fp_fit] = &mut self.effects;
        fit(HOTSPOT_INT, int_fit);
        fit(HOTSPOT_FP, fp_fit);
        let ((int_t, int_c), (fp_t, fp_c)) = (&*int_fit, &*fp_fit);
        self.greedy.assign(
            obs,
            |t, c, unit| match unit {
                HOTSPOT_INT => int_t[t] + int_c[c],
                _ => fp_t[t] + fp_c[c],
            },
            plan,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs<'a>(
        assignment: &'a [usize],
        scale: &'a [f64],
        temps: &'a [[f64; 2]],
        counters: &'a [ThreadCounters],
    ) -> OsObservation<'a> {
        OsObservation {
            time: 0.1,
            assignment,
            scale,
            sensor_temps: temps,
            counters,
            tripped: &[false; 4][..assignment.len().min(4)],
            trip_unit: &[0; 4][..assignment.len().min(4)],
        }
    }

    /// One decision, returning the proposed assignment if there is one.
    fn decide(pol: &mut dyn MigrationPolicy, o: &OsObservation<'_>) -> Option<Vec<usize>> {
        let mut plan = o.assignment.to_vec();
        pol.decide(o, &mut plan).then_some(plan)
    }

    fn counters4() -> Vec<ThreadCounters> {
        vec![
            // thread 0: int-heavy (gzip-like)
            ThreadCounters {
                int_rf_per_cycle: 5.0,
                fp_rf_per_cycle: 0.1,
            },
            // thread 1: moderate int
            ThreadCounters {
                int_rf_per_cycle: 3.0,
                fp_rf_per_cycle: 0.1,
            },
            // thread 2: fp-heavy (lucas-like)
            ThreadCounters {
                int_rf_per_cycle: 1.0,
                fp_rf_per_cycle: 4.0,
            },
            // thread 3: cool (mcf-like)
            ThreadCounters {
                int_rf_per_cycle: 0.8,
                fp_rf_per_cycle: 0.05,
            },
        ]
    }

    #[test]
    fn no_migration_never_proposes() {
        let assignment = [0, 1, 2, 3];
        let scale = [1.0; 4];
        let temps = [[90.0, 60.0]; 4];
        let c = counters4();
        assert!(decide(&mut NoMigration, &obs(&assignment, &scale, &temps, &c)).is_none());
    }

    #[test]
    fn counter_migration_swaps_hot_int_thread_away() {
        // Core 0 runs the int-heavy thread and its int RF is critical and
        // imbalanced; core 2 runs the fp-heavy thread with an fp-critical
        // hotspot. The best matching sends the least-int-intense thread
        // to core 0 and the least-fp-intense to core 2.
        let assignment = [0, 1, 2, 3];
        let scale = [1.0; 4];
        let temps = [
            [84.0, 60.0], // int-critical, very imbalanced
            [75.0, 62.0],
            [63.0, 83.0], // fp-critical, very imbalanced
            [60.0, 58.0],
        ];
        let c = counters4();
        let plan = decide(
            &mut CounterMigration::new(),
            &obs(&assignment, &scale, &temps, &c),
        )
        .expect("should migrate");
        // Core 0's int hotspot gets the lowest-int thread (3: mcf-like).
        assert_eq!(plan[0], 3);
        // Core 2's fp hotspot must not keep the fp-heavy thread 2.
        assert_ne!(plan[2], 2);
        // Every thread appears exactly once.
        let mut sorted = plan.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn counter_migration_is_stable_when_already_optimal() {
        // Cool chip, balanced temps, assignment already matches: the
        // greedy pass should reproduce the current mapping (every core's
        // claimed thread is its own) and return None... but ties may
        // reorder; verify at minimum that a balanced situation with
        // strongly distinct intensities where current placement is
        // optimal yields no churn.
        let assignment = [3, 1, 2, 0];
        let scale = [1.0; 4];
        let temps = [
            [80.0, 55.0], // int critical ⇒ wants lowest int thread (3) ✓
            [70.0, 60.0],
            [55.0, 78.0], // fp critical ⇒ wants low fp: thread 2 is worst
            [65.0, 56.0],
        ];
        let mut c = counters4();
        // Make thread 2 the *least* fp-intense so core 2 keeps it.
        c[2].fp_rf_per_cycle = 0.01;
        let plan = decide(
            &mut CounterMigration::new(),
            &obs(&assignment, &scale, &temps, &c),
        );
        if let Some(p) = &plan {
            // If a plan is emitted it must be a permutation.
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn critical_unit_and_imbalance() {
        let assignment = [0];
        let scale = [1.0];
        let temps = [[70.0, 75.0]];
        let c = vec![ThreadCounters::default()];
        let o = obs(&assignment, &scale, &temps, &c);
        assert_eq!(o.critical_unit(0), HOTSPOT_FP);
        assert!((o.imbalance(0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sensor_migration_profiles_first() {
        // With an empty table the policy must propose a profiling
        // rotation rather than a matching.
        let assignment = [0, 1, 2, 3];
        let scale = [1.0; 4];
        let temps = [[70.0, 60.0]; 4];
        let c = counters4();
        let plan = decide(
            &mut SensorMigration::new(3),
            &obs(&assignment, &scale, &temps, &c),
        )
        .expect("profiling rotation expected");
        assert_eq!(plan, vec![1, 2, 3, 0]);
    }

    #[test]
    fn sensor_migration_learns_thread_intensities() {
        // Feed synthetic observations: thread 0 always shows a hot int
        // RF wherever it runs; thread 2 a hot fp RF. After profiling,
        // the policy's estimates should assign like the counter policy.
        let mut pol = SensorMigration::new(2);
        let scale = [1.0; 4];
        let c = counters4();
        // Rotate threads over cores, observing each placement 4 ticks.
        for rot in 0..4usize {
            let assignment: Vec<usize> = (0..4).map(|core| (core + rot) % 4).collect();
            for tick in 0..5 {
                let temps: Vec<[f64; 2]> = assignment
                    .iter()
                    .map(|&t| match t {
                        0 => [82.0, 58.0],
                        1 => [74.0, 58.0],
                        2 => [60.0, 80.0],
                        _ => [56.0, 54.0],
                    })
                    .collect();
                let o = OsObservation {
                    time: rot as f64 * 0.01 + tick as f64 * 1e-3,
                    assignment: &assignment,
                    scale: &scale,
                    sensor_temps: &temps,
                    counters: &c,
                    tripped: &[false; 4],
                    trip_unit: &[0; 4],
                };
                pol.observe(&o);
            }
        }
        assert!(
            pol.profiled_pairs() >= 8,
            "pairs = {}",
            pol.profiled_pairs()
        );
        // Now: core 0 int-critical imbalanced, currently running thread 0.
        let assignment = [0, 1, 2, 3];
        let temps = [[84.0, 60.0], [74.0, 60.0], [60.0, 82.0], [56.0, 54.0]];
        let plan = decide(&mut pol, &obs(&assignment, &scale, &temps, &c)).expect("should migrate");
        // The int-critical core must not keep the int-hottest thread 0.
        assert_ne!(plan[0], 0);
        let mut sorted = plan.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn observe_skips_stalled_cores() {
        let mut pol = SensorMigration::new(1);
        let assignment = [0, 1];
        let scale = [0.0, 1.0];
        let temps = [[70.0, 60.0], [72.0, 61.0]];
        let c = vec![ThreadCounters::default(); 2];
        let o1 = OsObservation {
            time: 0.001,
            assignment: &assignment,
            scale: &scale,
            sensor_temps: &temps,
            counters: &c,
            tripped: &[false; 2],
            trip_unit: &[0; 2],
        };
        pol.observe(&o1);
        let o2 = OsObservation {
            time: 0.002,
            assignment: &assignment,
            scale: &scale,
            sensor_temps: &temps,
            counters: &c,
            tripped: &[false; 2],
            trip_unit: &[0; 2],
        };
        pol.observe(&o2);
        // Core 0 stalled: only the (thread 1, core 1) pair is recorded.
        assert_eq!(pol.profiled_pairs(), 1);
    }

    #[test]
    fn incumbency_discount_prevents_churn_on_ties() {
        // All threads identical: the greedy must keep the current
        // assignment (each core's incumbent wins its tie).
        let assignment = [0, 1, 2, 3];
        let scale = [1.0; 4];
        let temps = [[80.0, 70.0]; 4];
        let c = vec![
            ThreadCounters {
                int_rf_per_cycle: 3.0,
                fp_rf_per_cycle: 1.0,
            };
            4
        ];
        let plan = decide(
            &mut CounterMigration::new(),
            &obs(&assignment, &scale, &temps, &c),
        );
        assert!(plan.is_none(), "identical threads must not churn: {plan:?}");
    }

    #[test]
    fn trip_signal_overrides_cool_sensor_reading() {
        // Core 0 is mid-stall and reads cool, but it tripped on its int
        // RF since the last decision: it must sort first and use the
        // trip unit as its critical hotspot.
        let assignment = [0, 1, 2, 3];
        let scale = [0.0, 1.0, 1.0, 1.0];
        let temps = [
            [70.0, 69.0], // cooled during stall
            [80.0, 70.0],
            [78.0, 70.0],
            [76.0, 70.0],
        ];
        let c = counters4();
        let tripped = [true, false, false, false];
        let trip_unit = [HOTSPOT_INT, 0, 0, 0];
        let o = OsObservation {
            time: 0.1,
            assignment: &assignment,
            scale: &scale,
            sensor_temps: &temps,
            counters: &c,
            tripped: &tripped,
            trip_unit: &trip_unit,
        };
        assert_eq!(o.critical_unit(0), HOTSPOT_INT);
        let plan = decide(&mut CounterMigration::new(), &o).expect("trip forces a decision");
        // The tripped core must shed its int-heavy thread 0 for the
        // least-int-intense candidate (thread 3).
        assert_eq!(plan[0], 3);
    }

    #[test]
    fn no_trips_and_stable_criticals_suppress_decisions() {
        // Second call with unchanged criticals and no trips: the
        // tracker must suppress the decision entirely.
        let assignment = [0, 1, 2, 3];
        let scale = [1.0; 4];
        let temps = [[84.0, 60.0], [75.0, 62.0], [63.0, 83.0], [60.0, 58.0]];
        let c = counters4();
        let mut pol = CounterMigration::new();
        let first = decide(&mut pol, &obs(&assignment, &scale, &temps, &c));
        assert!(first.is_some(), "first decision always fires");
        let second = decide(&mut pol, &obs(&assignment, &scale, &temps, &c));
        assert!(second.is_none(), "no new signals: must stay quiet");
    }

    #[test]
    fn rotation_always_shifts_by_one() {
        let assignment = [2, 0, 3, 1];
        let scale = [1.0; 4];
        let temps = [[70.0, 60.0]; 4];
        let c = counters4();
        let plan = decide(
            &mut RotationMigration::new(),
            &obs(&assignment, &scale, &temps, &c),
        )
        .expect("always proposes");
        assert_eq!(plan, vec![0, 3, 1, 2]);
    }

    #[test]
    fn thread_counters_intensity_lookup() {
        let t = ThreadCounters {
            int_rf_per_cycle: 2.0,
            fp_rf_per_cycle: 3.0,
        };
        assert_eq!(t.intensity(HOTSPOT_INT), 2.0);
        assert_eq!(t.intensity(HOTSPOT_FP), 3.0);
    }

    #[test]
    #[should_panic(expected = "unknown hotspot")]
    fn bad_unit_index_panics() {
        ThreadCounters::default().intensity(7);
    }
}
