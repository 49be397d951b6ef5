//! Package initialization: the leakage–temperature fixpoint that picks
//! each run's starting temperatures, memoized process-wide.
//!
//! The heat sink's time constant (~1 min) dwarfs the 0.5 s runs, so the
//! package state is effectively an initial condition. A run starts at
//! the *throttled equilibrium*: the steady state of the largest fraction
//! of full-speed mean power whose hottest sensor stays
//! `init_hotspot_margin` °C below the threshold (capped at full power for
//! workloads that never overheat), with the leakage feedback converged
//! by fixed-point iteration at every probed fraction.
//!
//! The search costs a few hundred dense steady-state solves, and none of
//! its inputs is the DTM policy: a sweep that runs every policy on one
//! workload solves the same fixpoint once per policy. [`InitFixpoint`]
//! gathers everything the search reads; its key hashes all of it, and
//! [`InitFixpoint::power`] serves repeats from a bounded memo. The
//! search is a pure function of those inputs, so a hit returns exactly
//! the vector a fresh search would compute.

use crate::engine::SimError;
use dtm_thermal::{ContentHash, LeakageModel, SharedMemo, ThermalModel};
use std::sync::Arc;

/// Resident fixpoint answers (one per distinct workload/chip/threshold
/// combination; Table 8 needs 12), evicted first-in first-out.
const INIT_MEMO_CAP: usize = 64;

static INIT_MEMO: SharedMemo<Vec<f64>> = SharedMemo::new(INIT_MEMO_CAP);

#[cfg(test)]
thread_local! {
    /// Searches run on this thread (memo misses), for the memo tests.
    pub(crate) static SEARCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Everything the initial-temperature search reads, and nothing else.
pub(crate) struct InitFixpoint<'a> {
    /// Full-speed mean power per block (W): the assigned traces' unit
    /// means mapped onto their blocks, plus the L2 idle power.
    pub p_full: Vec<f64>,
    /// Hottest-sensor target (°C): threshold − `init_hotspot_margin`.
    pub target: f64,
    /// Temperature every fixpoint iteration starts from (°C).
    pub t_start: f64,
    pub leakage: &'a LeakageModel,
    pub model: &'a ThermalModel,
    /// Floorplan blocks of each core's `[int_rf, fp_rf]` sensors.
    pub sensor_blocks: &'a [[usize; 2]],
}

impl InitFixpoint<'_> {
    /// Memo key over the raw bits of every field.
    pub(crate) fn key(&self) -> u128 {
        let mut h = ContentHash::new();
        h.f64s(&self.p_full);
        h.f64(self.target);
        h.f64(self.t_start);
        self.leakage.hash_into(&mut h);
        self.model.hash_steady_inputs(&mut h);
        h.usize(self.sensor_blocks.len());
        for &[int_rf, fp_rf] in self.sensor_blocks {
            h.usize(int_rf);
            h.usize(fp_rf);
        }
        h.finish()
    }

    /// The block power whose steady state initializes the package,
    /// searched on the first request for these inputs and served from
    /// the process-wide memo afterwards.
    ///
    /// # Errors
    ///
    /// Propagates steady-state solver failures (which are not memoized).
    pub(crate) fn power(&self) -> Result<Arc<Vec<f64>>, SimError> {
        INIT_MEMO.get_or_try_insert(self.key(), || self.search())
    }

    /// Bisects the power fraction against the hottest-sensor target.
    fn search(&self) -> Result<Vec<f64>, SimError> {
        #[cfg(test)]
        SEARCHES.with(|n| n.set(n.get() + 1));
        let nb = self.p_full.len();
        // Steady temperatures at a power fraction, with the leakage
        // feedback converged by fixed-point iteration.
        let steady = |alpha: f64| -> Result<(Vec<f64>, Vec<f64>), SimError> {
            let mut temps = vec![self.t_start; self.model.n_nodes()];
            let mut p: Vec<f64> = Vec::new();
            for _ in 0..20 {
                p = self.p_full.iter().map(|w| w * alpha).collect();
                self.leakage.add_power(&temps[..nb], &mut p);
                let solved = self.model.steady_state(&p)?;
                // Damped update, clamped: keeps the iteration finite even
                // when the chip is past the thermal-runaway point (the
                // binary search then backs the power fraction off).
                for (t, s) in temps.iter_mut().zip(&solved) {
                    *t = (0.5 * *t + 0.5 * s).min(250.0);
                }
            }
            Ok((temps, p))
        };
        let fast_r = self.model.fast_resistance();
        let hottest_sensor = |temps: &[f64], power: &[f64]| -> f64 {
            self.sensor_blocks
                .iter()
                .flat_map(|pair| pair.iter())
                .map(|&b| temps[b] + fast_r[b] * power[b])
                .fold(f64::NEG_INFINITY, f64::max)
        };

        let (full_temps, full_power) = steady(1.0)?;
        if !(self.target.is_finite() && hottest_sensor(&full_temps, &full_power) > self.target) {
            return Ok(full_power);
        }
        // `steady` is a pure function of the fraction, so the answer is
        // the power already computed for the final `lo`; only a search
        // that never raised `lo` off its floor has not evaluated it.
        let (mut lo, mut hi) = (0.02, 1.0);
        let mut lo_power = None;
        for _ in 0..20 {
            let mid = 0.5 * (lo + hi);
            let (temps, p) = steady(mid)?;
            if hottest_sensor(&temps, &p) > self.target {
                hi = mid;
            } else {
                lo = mid;
                lo_power = Some(p);
            }
        }
        match lo_power {
            Some(p) => Ok(p),
            None => Ok(steady(lo)?.1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DtmConfig, SimConfig};
    use crate::engine::ThermalTimingSim;
    use crate::policy::{MigrationKind, PolicySpec, Scope, ThrottleKind};
    use dtm_power::{CorePowerSample, PowerTrace};

    /// A constant trace hot enough to need throttled initialization.
    fn trace(int_rf: f64) -> Arc<PowerTrace> {
        let mut s = CorePowerSample::zero();
        s.units = [0.6; dtm_power::N_CORE_UNITS];
        s.units[7] = int_rf;
        s.units[8] = 0.3;
        s.l2 = 0.2;
        s.instructions = 200_000;
        s.int_rf_per_cycle = 10.0 * int_rf;
        s.fp_rf_per_cycle = 3.0;
        Arc::new(PowerTrace::new("const", 1.0e5 / 3.6e9, vec![s]))
    }

    fn quad(int_rf: f64) -> Vec<Arc<PowerTrace>> {
        vec![trace(int_rf), trace(0.4), trace(1.1), trace(0.2)]
    }

    fn searches() -> u64 {
        SEARCHES.with(|n| n.get())
    }

    /// Builds a sim, returning it with its fixpoint key and whether the
    /// build searched (missed the memo).
    fn build(
        cfg: SimConfig,
        dtm: DtmConfig,
        policy: PolicySpec,
        traces: Vec<Arc<PowerTrace>>,
    ) -> (ThermalTimingSim, u128, bool) {
        let before = searches();
        let sim = ThermalTimingSim::new(cfg, dtm, policy, traces).expect("build");
        let missed = searches() > before;
        let key = sim.init_fixpoint().key();
        (sim, key, missed)
    }

    /// A threshold no other test uses, so this file's first builds miss.
    fn dtm(threshold: f64) -> DtmConfig {
        DtmConfig::with_threshold(threshold)
    }

    #[test]
    fn a_memo_hit_runs_byte_identically_to_a_miss() {
        let cfg = SimConfig {
            duration: 0.01,
            ..SimConfig::fast_test()
        };
        let policy = PolicySpec::best();
        let (mut first, key, missed) = build(cfg.clone(), dtm(80.37), policy, quad(2.4));
        assert!(missed, "a fresh configuration must search");
        let (mut second, key2, missed2) = build(cfg, dtm(80.37), policy, quad(2.4));
        assert_eq!(key, key2);
        assert!(!missed2, "a repeated configuration must hit");
        let fresh = first.init_fixpoint().search().expect("search");
        let memo = second.init_fixpoint().power().expect("memo");
        assert_eq!(
            fresh.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            memo.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
        );
        let (a, b) = (first.run().expect("run"), second.run().expect("run"));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    type Mutation = (
        &'static str,
        fn(&mut SimConfig, &mut DtmConfig, &mut Vec<Arc<PowerTrace>>),
    );

    #[test]
    fn every_fixpoint_input_misses_the_memo() {
        let must_miss: &[Mutation] = &[
            ("threshold", |_, d, _| d.threshold += 0.5),
            ("init_hotspot_margin", |c, _, _| {
                c.init_hotspot_margin += 0.25
            }),
            ("leakage.t_ref", |c, _, _| c.leakage.t_ref += 1.0),
            ("leakage.beta", |c, _, _| c.leakage.beta *= 1.01),
            ("leakage.logic_density", |c, _, _| {
                c.leakage.logic_density *= 1.01
            }),
            ("leakage.sram_density", |c, _, _| {
                c.leakage.sram_density *= 1.01
            }),
            ("package.t_silicon", |c, _, _| c.package.t_silicon *= 1.01),
            ("package.k_silicon", |c, _, _| c.package.k_silicon *= 1.01),
            ("package.t_interface", |c, _, _| {
                c.package.t_interface *= 1.01
            }),
            ("package.k_interface", |c, _, _| {
                c.package.k_interface *= 1.01
            }),
            ("package.spreader_side", |c, _, _| {
                c.package.spreader_side *= 1.01
            }),
            ("package.spreader_thickness", |c, _, _| {
                c.package.spreader_thickness *= 1.01
            }),
            ("package.sink_side", |c, _, _| c.package.sink_side *= 1.01),
            ("package.sink_thickness", |c, _, _| {
                c.package.sink_thickness *= 1.01
            }),
            ("package.k_copper", |c, _, _| c.package.k_copper *= 1.01),
            ("package.r_convection", |c, _, _| {
                c.package.r_convection *= 1.01
            }),
            ("package.local_constriction", |c, _, _| {
                c.package.local_constriction *= 1.01
            }),
            ("package.ambient", |c, _, _| c.package.ambient += 0.5),
            ("one trace's power", |_, _, t| t[1] = trace(0.41)),
        ];
        // Inputs the search never reads: these must share the entry.
        // The clock reaches the search only through the L2 idle power
        // (part of `p_full`), which the 90 nm calibration does not scale
        // with frequency.
        let must_hit: &[Mutation] = &[
            ("core.clock_hz", |c, _, _| c.core.clock_hz *= 1.01),
            ("duration", |c, _, _| c.duration *= 2.0),
            ("seed", |c, _, _| c.seed += 1),
            ("package.c_silicon", |c, _, _| c.package.c_silicon *= 1.01),
            ("package.c_copper", |c, _, _| c.package.c_copper *= 1.01),
            ("package.local_tau", |c, _, _| c.package.local_tau *= 1.01),
            ("os_tick", |_, d, _| d.os_tick *= 2.0),
        ];
        let base = || (SimConfig::fast_test(), dtm(81.13), quad(2.2));
        let policy = PolicySpec::new(ThrottleKind::Dvfs, Scope::Global, MigrationKind::None);
        let (c, d, t) = base();
        let (_, base_key, _) = build(c, d, policy, t);
        let mut keys = vec![base_key];
        for (name, mutate) in must_miss {
            let (mut c, mut d, mut t) = base();
            mutate(&mut c, &mut d, &mut t);
            let (_, key, missed) = build(c, d, policy, t);
            assert!(missed, "changing {name} must miss the memo");
            assert!(!keys.contains(&key), "changing {name} must change the key");
            keys.push(key);
        }
        for (name, mutate) in must_hit {
            let (mut c, mut d, mut t) = base();
            mutate(&mut c, &mut d, &mut t);
            let (_, key, missed) = build(c, d, policy, t);
            assert!(!missed, "changing {name} must not miss the memo");
            assert_eq!(key, base_key, "{name} is not a fixpoint input");
        }
        // Nor does the policy.
        let (c, d, t) = base();
        let (_, key, missed) = build(c, d, PolicySpec::best(), t);
        assert!(
            !missed && key == base_key,
            "the policy is not a fixpoint input"
        );
    }
}
