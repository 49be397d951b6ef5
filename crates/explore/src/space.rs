//! The search space: continuous DTM knobs × discrete policies, and the
//! mapping from abstract points to the concrete [`ConfigVariant`]s the
//! sweep harness executes.
//!
//! Strategies navigate in *normalized* coordinates — every knob is a
//! `t ∈ [0, 1]` mapped onto its engineering range (linearly or
//! log-linearly). Concrete values are snapped to six significant
//! digits, so two strategies that land on nearly the same point share
//! one memo entry, one journal row, and one cache cell.

use dtm_core::{DtmConfig, GainScheduleConfig, PolicySpec, SimConfig};
use dtm_harness::json::Json;
use dtm_harness::ConfigVariant;

/// One gain-schedule arm of the search: which DVFS controller family a
/// point runs. `Fixed` is the paper's clipped PI; the adaptive arms
/// give the schedule's parameters to the `adapt_*` knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleChoice {
    /// The paper's fixed-gain clipped PI.
    Fixed,
    /// Rao-style adjustable-gain law (knobs: `adapt_rate` → `alpha`,
    /// `adapt_window_s` → `tau_s`).
    Rao,
    /// Windowed self-tuning (knobs: `adapt_rate` → `rate` via
    /// `v/(1+v)`, `adapt_window_s` → `window_s`).
    SelfTune,
}

impl ScheduleChoice {
    /// Stable wire spelling, matching the serve protocol.
    pub fn wire_name(self) -> &'static str {
        match self {
            ScheduleChoice::Fixed => "fixed",
            ScheduleChoice::Rao => "rao",
            ScheduleChoice::SelfTune => "selftune",
        }
    }
}

/// Whether a knob only parameterizes adaptive gain schedules (and so
/// is inert — and elided from memo keys — on the `Fixed` arm).
pub fn is_adaptive_knob(name: &str) -> bool {
    matches!(name, "adapt_rate" | "adapt_window_s")
}

/// One tunable dimension of the search space.
#[derive(Debug, Clone)]
pub struct Knob {
    /// Stable name, matching the wire/journal spelling.
    pub name: &'static str,
    /// Lower bound of the engineering range.
    pub min: f64,
    /// Upper bound of the engineering range.
    pub max: f64,
    /// Sample log-linearly (for ranges spanning decades).
    pub log: bool,
}

impl Knob {
    /// Maps a normalized coordinate `t ∈ [0, 1]` onto the range.
    pub fn value_at(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, 1.0);
        let v = if self.log {
            (self.min.ln() + t * (self.max.ln() - self.min.ln())).exp()
        } else {
            self.min + t * (self.max - self.min)
        };
        snap(v.clamp(self.min, self.max))
    }

    /// The normalized coordinate of an engineering value (inverse of
    /// [`Knob::value_at`], up to snapping).
    pub fn t_of(&self, v: f64) -> f64 {
        let v = v.clamp(self.min, self.max);
        if self.log {
            (v.ln() - self.min.ln()) / (self.max.ln() - self.min.ln())
        } else {
            (v - self.min) / (self.max - self.min)
        }
    }
}

/// Rounds to six significant digits through the decimal spelling —
/// deterministic, platform-independent, and short in JSON.
pub fn snap(v: f64) -> f64 {
    format!("{v:.5e}").parse().expect("snapped float re-parses")
}

/// One candidate configuration: a policy plus concrete knob values
/// (parallel to [`SearchSpace::knobs`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Index into [`SearchSpace::policies`].
    pub policy: usize,
    /// Index into [`SearchSpace::schedules`].
    pub schedule: usize,
    /// Snapped engineering values, one per knob.
    pub values: Vec<f64>,
}

/// The exploration domain: knobs, candidate policies, and the base
/// simulation configuration every point shares.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Tunable dimensions.
    pub knobs: Vec<Knob>,
    /// The policy axis (a subset of the paper's 12-policy grid).
    pub policies: Vec<PolicySpec>,
    /// The gain-schedule axis (`Fixed` first, so arm indices below
    /// `policies.len()` reproduce the pre-adaptive search verbatim).
    pub schedules: Vec<ScheduleChoice>,
    /// Base simulation configuration (duration, cores, seed, solver).
    pub base_sim: SimConfig,
}

impl SearchSpace {
    /// The paper's knob set: PI gains, trigger/setpoint margins,
    /// stop-go gate duration, migration interval, and control period,
    /// each spanning the plausible engineering range around the Table 3
    /// defaults.
    pub fn paper(base_sim: SimConfig, policies: Vec<PolicySpec>) -> Self {
        SearchSpace {
            knobs: vec![
                Knob {
                    name: "pi_kp",
                    min: 1e-3,
                    max: 0.1,
                    log: true,
                },
                Knob {
                    name: "pi_ki",
                    min: 10.0,
                    max: 2000.0,
                    log: true,
                },
                Knob {
                    name: "setpoint_margin_c",
                    min: 0.5,
                    max: 8.0,
                    log: false,
                },
                Knob {
                    name: "trip_margin_c",
                    min: 0.05,
                    max: 2.0,
                    log: true,
                },
                Knob {
                    name: "stall_s",
                    min: 1e-3,
                    max: 0.1,
                    log: true,
                },
                Knob {
                    name: "migration_interval_s",
                    min: 2e-3,
                    max: 0.1,
                    log: true,
                },
                Knob {
                    name: "os_tick_s",
                    min: 5e-4,
                    max: 0.01,
                    log: true,
                },
            ],
            policies,
            schedules: vec![ScheduleChoice::Fixed],
            base_sim,
        }
    }

    /// The paper space widened with the adaptive-controller arms: every
    /// gain schedule becomes a discrete axis and two knobs parameterize
    /// the adaptation (strength and window). The `Fixed` arm ignores
    /// both knobs, so its points — and their memo keys, journal rows,
    /// and cache cells — are exactly the ones [`SearchSpace::paper`]
    /// produces.
    pub fn paper_adaptive(base_sim: SimConfig, policies: Vec<PolicySpec>) -> Self {
        let mut s = SearchSpace::paper(base_sim, policies);
        s.schedules = vec![
            ScheduleChoice::Fixed,
            ScheduleChoice::Rao,
            ScheduleChoice::SelfTune,
        ];
        s.knobs.push(Knob {
            name: "adapt_rate",
            min: 0.05,
            max: 2.0,
            log: true,
        });
        s.knobs.push(Knob {
            name: "adapt_window_s",
            min: 2e-4,
            max: 2e-2,
            log: true,
        });
        s
    }

    /// Dimensionality of the continuous part.
    pub fn dims(&self) -> usize {
        self.knobs.len()
    }

    /// Number of discrete arms: every (schedule, policy) pair. Arm `a`
    /// decodes as schedule `a / policies.len()`, policy
    /// `a % policies.len()`, so arms below `policies.len()` are the
    /// fixed-gain policies in order — strategies written against the
    /// pre-adaptive policy axis keep their exact meaning.
    pub fn arms(&self) -> usize {
        self.schedules.len() * self.policies.len()
    }

    /// The Table 3 default value of each knob, snapped — the anchor
    /// coordinates every search starts from.
    pub fn default_values(&self) -> Vec<f64> {
        let d = DtmConfig::default();
        self.knobs
            .iter()
            .map(|k| {
                let v = match k.name {
                    "pi_kp" => d.pi_kp,
                    "pi_ki" => d.pi_ki,
                    "setpoint_margin_c" => d.dvfs_setpoint_margin,
                    "trip_margin_c" => d.stopgo_trip_margin,
                    "stall_s" => d.stopgo_stall,
                    "migration_interval_s" => d.migration_interval,
                    "os_tick_s" => d.os_tick,
                    // Adaptation anchors: unit strength, one control
                    // window of the paper's outer loop.
                    "adapt_rate" => 1.0,
                    "adapt_window_s" => 2e-3,
                    other => unreachable!("unknown knob {other}"),
                };
                snap(v.clamp(k.min, k.max))
            })
            .collect()
    }

    /// Builds a concrete point from normalized coordinates. `arm`
    /// indexes the flattened (schedule, policy) grid (see
    /// [`SearchSpace::arms`]).
    ///
    /// # Panics
    ///
    /// Panics if `t` has the wrong dimensionality or `arm` is out of
    /// range.
    pub fn point(&self, arm: usize, t: &[f64]) -> Point {
        assert_eq!(t.len(), self.dims(), "wrong dimensionality");
        assert!(arm < self.arms(), "arm index out of range");
        Point {
            policy: arm % self.policies.len(),
            schedule: arm / self.policies.len(),
            values: self
                .knobs
                .iter()
                .zip(t)
                .map(|(k, &ti)| k.value_at(ti))
                .collect(),
        }
    }

    /// The normalized coordinates of a concrete point.
    pub fn normalize(&self, p: &Point) -> Vec<f64> {
        self.knobs
            .iter()
            .zip(&p.values)
            .map(|(k, &v)| k.t_of(v))
            .collect()
    }

    /// The [`DtmConfig`] a point denotes. The migration interval is
    /// clamped up to the control period (the engine requires at least
    /// one OS tick between migration decisions), deterministically, so
    /// every point in the box is feasible.
    pub fn dtm_for(&self, p: &Point) -> DtmConfig {
        let mut dtm = DtmConfig::default();
        let mut adapt_rate = 1.0;
        let mut adapt_window_s = 2e-3;
        for (k, &v) in self.knobs.iter().zip(&p.values) {
            match k.name {
                "pi_kp" => dtm.pi_kp = v,
                "pi_ki" => dtm.pi_ki = v,
                "setpoint_margin_c" => dtm.dvfs_setpoint_margin = v,
                "trip_margin_c" => dtm.stopgo_trip_margin = v,
                "stall_s" => dtm.stopgo_stall = v,
                "migration_interval_s" => dtm.migration_interval = v,
                "os_tick_s" => dtm.os_tick = v,
                "adapt_rate" => adapt_rate = v,
                "adapt_window_s" => adapt_window_s = v,
                other => unreachable!("unknown knob {other}"),
            }
        }
        if dtm.migration_interval < dtm.os_tick {
            dtm.migration_interval = dtm.os_tick;
        }
        dtm.gain_schedule = match self.schedules[p.schedule] {
            ScheduleChoice::Fixed => GainScheduleConfig::Fixed,
            ScheduleChoice::Rao => GainScheduleConfig::Rao {
                alpha: adapt_rate,
                tau_s: adapt_window_s,
            },
            // The knob spans (0, 2]; the self-tuning rate must sit in
            // [0, 1), so squash through v/(1+v) (snapped, to keep the
            // wire spelling short and the dist round-trip exact).
            ScheduleChoice::SelfTune => GainScheduleConfig::SelfTuning {
                rate: snap(adapt_rate / (1.0 + adapt_rate)),
                window_s: adapt_window_s,
            },
        };
        dtm
    }

    /// The sweep-harness variant a point denotes. The variant name is
    /// the point's memo key, so ledger and cache describe records stay
    /// attributable to exploration coordinates.
    pub fn variant_for(&self, p: &Point) -> ConfigVariant {
        ConfigVariant::new(self.memo_key(p), self.base_sim.clone(), self.dtm_for(p))
    }

    /// A deterministic, human-readable identity for a point:
    /// `policy|knob=value|…` with shortest-round-trip float spellings,
    /// plus a trailing `|schedule=<name>` on adaptive arms. Fixed-arm
    /// points elide the (inert) adaptation knobs, so two points that
    /// simulate identically share one key — and fixed-arm keys are
    /// byte-identical to the pre-adaptive spelling.
    /// Equal keys ⇔ equal simulated configurations.
    pub fn memo_key(&self, p: &Point) -> String {
        let fixed = self.schedules[p.schedule] == ScheduleChoice::Fixed;
        let mut s = self.policies[p.policy].wire_name();
        for (k, &v) in self.knobs.iter().zip(&p.values) {
            if fixed && is_adaptive_knob(k.name) {
                continue;
            }
            s.push('|');
            s.push_str(k.name);
            s.push('=');
            s.push_str(&Json::f64(v).emit());
        }
        if !fixed {
            s.push_str("|schedule=");
            s.push_str(self.schedules[p.schedule].wire_name());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SearchSpace {
        SearchSpace::paper(SimConfig::fast_test(), PolicySpec::all())
    }

    #[test]
    fn knob_mapping_round_trips() {
        for k in &space().knobs {
            for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let v = k.value_at(t);
                assert!((k.min..=k.max).contains(&v), "{}: {v}", k.name);
                let back = k.value_at(k.t_of(v));
                assert!(
                    (back - v).abs() <= 1e-9 * v.abs().max(1.0),
                    "{}: {v} vs {back}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn default_point_is_the_paper_config() {
        let s = space();
        let p = Point {
            policy: 0,
            schedule: 0,
            values: s.default_values(),
        };
        let dtm = s.dtm_for(&p);
        // Snapping must not perturb the Table 3 defaults (they are all
        // short decimals), so the anchor shares the paper config's
        // cache key.
        assert_eq!(dtm, DtmConfig::default());
    }

    #[test]
    fn memo_keys_identify_configs() {
        let s = space();
        let a = s.point(0, &vec![0.5; s.dims()]);
        let b = s.point(0, &vec![0.5; s.dims()]);
        let c = s.point(1, &vec![0.5; s.dims()]);
        assert_eq!(s.memo_key(&a), s.memo_key(&b));
        assert_ne!(s.memo_key(&a), s.memo_key(&c));
        assert!(s.memo_key(&a).starts_with(&s.policies[0].wire_name()));
    }

    #[test]
    fn infeasible_migration_interval_is_clamped() {
        let s = space();
        let mut t = vec![0.5; s.dims()];
        // migration interval at its minimum, os tick at its maximum.
        t[5] = 0.0;
        t[6] = 1.0;
        let dtm = s.dtm_for(&s.point(0, &t));
        assert!(dtm.migration_interval >= dtm.os_tick);
        dtm.validate();
    }

    fn adaptive_space() -> SearchSpace {
        SearchSpace::paper_adaptive(SimConfig::fast_test(), PolicySpec::all())
    }

    #[test]
    fn adaptive_space_extends_without_perturbing_fixed_arms() {
        let s = space();
        let a = adaptive_space();
        assert_eq!(a.arms(), 3 * a.policies.len());
        assert_eq!(a.dims(), s.dims() + 2);

        // A fixed-arm point in the adaptive space keys and resolves
        // exactly like the paper space (adaptation knobs inert).
        let fixed = Point {
            policy: 2,
            schedule: 0,
            values: a.default_values(),
        };
        let paper = Point {
            policy: 2,
            schedule: 0,
            values: s.default_values(),
        };
        assert_eq!(a.memo_key(&fixed), s.memo_key(&paper));
        assert_eq!(a.dtm_for(&fixed), s.dtm_for(&paper));
        assert_eq!(a.dtm_for(&fixed), DtmConfig::default());

        // Varying only an adaptation knob on the fixed arm changes
        // neither the key nor the config — one memo entry per distinct
        // simulation.
        let mut t = a.normalize(&fixed);
        let rate_dim = a.knobs.iter().position(|k| k.name == "adapt_rate").unwrap();
        t[rate_dim] = 1.0;
        let moved = a.point(2, &t);
        assert_eq!(a.memo_key(&moved), a.memo_key(&fixed));
        assert_eq!(a.dtm_for(&moved), a.dtm_for(&fixed));
    }

    #[test]
    fn adaptive_arms_decode_and_resolve_schedules() {
        let a = adaptive_space();
        let np = a.policies.len();
        let t = a.normalize(&Point {
            policy: 0,
            schedule: 0,
            values: a.default_values(),
        });

        // Arm np + 1 is (Rao, policy 1); the default adaptation knobs
        // land on the Rao defaults.
        let rao = a.point(np + 1, &t);
        assert_eq!((rao.schedule, rao.policy), (1, 1));
        let dtm = a.dtm_for(&rao);
        assert_eq!(dtm.gain_schedule, GainScheduleConfig::rao_default());
        assert!(a.memo_key(&rao).ends_with("|schedule=rao"));
        assert!(a.memo_key(&rao).contains("|adapt_rate="));
        dtm.validate();

        // Arm 2·np is (SelfTune, policy 0); the rate knob squashes into
        // [0, 1).
        let st = a.point(2 * np, &t);
        assert_eq!((st.schedule, st.policy), (2, 0));
        let dtm = a.dtm_for(&st);
        match dtm.gain_schedule {
            GainScheduleConfig::SelfTuning { rate, window_s } => {
                assert!((rate - 0.5).abs() < 1e-12);
                assert!((window_s - 2e-3).abs() < 1e-15);
            }
            other => panic!("expected SelfTuning, got {other:?}"),
        }
        assert!(a.memo_key(&st).ends_with("|schedule=selftune"));
        dtm.validate();

        // Every arm across the whole grid yields a valid config.
        for arm in 0..a.arms() {
            a.dtm_for(&a.point(arm, &t)).validate();
        }
    }

    #[test]
    fn snap_is_idempotent_and_stable() {
        for v in [0.0107, 248.5, 1.0 / 3.0, 2.399999999] {
            let s1 = snap(v);
            assert_eq!(s1, snap(s1));
            assert_eq!(Json::f64(s1).emit(), Json::f64(snap(s1)).emit());
        }
        assert_eq!(snap(0.0107), 0.0107);
        assert_eq!(snap(248.5), 248.5);
    }
}
