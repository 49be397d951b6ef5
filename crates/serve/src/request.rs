//! Mapping wire requests onto experiment cells.
//!
//! A [`SimRequest`] is untrusted input: every field is validated here,
//! and the output is exactly the `(Workload, PolicySpec, ConfigVariant)`
//! triple the sweep harness runs — so a served simulation is
//! bit-identical to the same cell run by `SweepRunner`, shares its
//! content address, and therefore shares its cache entries.

use dtm_core::{DtmConfig, GainScheduleConfig, PolicySpec, SimConfig};
use dtm_faults::{FaultConfig, FaultScenario, WatchdogConfig};
use dtm_harness::json::Json;
use dtm_harness::ConfigVariant;
use dtm_workloads::Workload;

/// Widest simulated duration a request may ask for (s). The paper's
/// runs are 0.5 s; ten times that bounds worst-case worker occupancy
/// per request without constraining any legitimate experiment.
pub const MAX_DURATION_S: f64 = 5.0;

/// Most cores a request may configure.
pub const MAX_CORES: usize = 64;

/// The fault-scenario presets a request can name. Each maps onto the
/// same `FaultConfig` constructions the robustness experiment binary
/// uses, injected at 20% of the run.
pub const FAULT_PRESETS: &[&str] = &[
    "none",
    "stuck-hot",
    "stuck-hot+watchdog",
    "dropout+watchdog",
];

/// One simulation request, as decoded from the wire.
///
/// `workload` names a standard Table 4 workload by id (or display
/// name); `benchmarks` instead spells out an explicit 4-tuple of
/// catalog benchmarks. Optional overrides layer onto the server's base
/// configuration; everything absent stays at the server default, so a
/// bare `{"workload":"...","policy":"..."}` request is a paper-default
/// cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimRequest {
    /// Standard workload id or display name (exclusive with
    /// `benchmarks`).
    pub workload: Option<String>,
    /// Explicit benchmark names (exclusive with `workload`).
    pub benchmarks: Vec<String>,
    /// Policy triple in wire spelling, e.g. `dvfs/dist/sensor`.
    pub policy: String,
    /// Simulated duration override (s).
    pub duration_s: Option<f64>,
    /// Core-count override.
    pub cores: Option<usize>,
    /// Thermal-threshold override (°C).
    pub threshold_c: Option<f64>,
    /// Sensor-noise seed override.
    pub seed: Option<u64>,
    /// Fault-scenario preset name (see [`FAULT_PRESETS`]).
    pub fault: Option<String>,
    /// Deadline in ms: if no worker has started the request this long
    /// after admission, the server abandons it with a timeout response.
    pub deadline_ms: Option<u64>,
    /// PI proportional-gain override (`dtm-explore` knob).
    pub pi_kp: Option<f64>,
    /// PI integral-gain override.
    pub pi_ki: Option<f64>,
    /// DVFS setpoint margin override (°C below the threshold).
    pub setpoint_margin_c: Option<f64>,
    /// Stop-go trip margin override (°C below the threshold).
    pub trip_margin_c: Option<f64>,
    /// Stop-go stall-duration override (s).
    pub stall_s: Option<f64>,
    /// Migration-interval override (s).
    pub migration_interval_s: Option<f64>,
    /// OS tick (control period) override (s).
    pub os_tick_s: Option<f64>,
    /// Gain-schedule selection (`fixed` / `rao` / `selftune`); absent
    /// means the fixed-gain paper controller.
    pub schedule: Option<String>,
    /// Adaptation strength: Rao `alpha` or self-tuning `rate`
    /// (schedule-specific default when absent).
    pub adapt_rate: Option<f64>,
    /// Adaptation window: Rao `tau_s` or self-tuning `window_s` (s).
    pub adapt_window_s: Option<f64>,
}

/// The gain-schedule names a request can select.
pub const SCHEDULE_NAMES: &[&str] = &["fixed", "rao", "selftune"];

impl SimRequest {
    /// A paper-default request for a standard workload and wire policy.
    pub fn standard(workload: &str, policy: &str) -> Self {
        SimRequest {
            workload: Some(workload.to_string()),
            policy: policy.to_string(),
            ..SimRequest::default()
        }
    }

    /// Serializes into the JSON fields embedded in a `simulate` frame.
    pub fn to_fields(&self) -> Vec<(String, Json)> {
        let mut f = Vec::new();
        if let Some(w) = &self.workload {
            f.push(("workload".into(), Json::str(w)));
        }
        if !self.benchmarks.is_empty() {
            f.push((
                "benchmarks".into(),
                Json::Arr(self.benchmarks.iter().map(Json::str).collect()),
            ));
        }
        f.push(("policy".into(), Json::str(&self.policy)));
        if let Some(d) = self.duration_s {
            f.push(("duration_s".into(), Json::f64(d)));
        }
        if let Some(c) = self.cores {
            f.push(("cores".into(), Json::usize(c)));
        }
        if let Some(t) = self.threshold_c {
            f.push(("threshold_c".into(), Json::f64(t)));
        }
        if let Some(s) = self.seed {
            f.push(("seed".into(), Json::u64(s)));
        }
        if let Some(fault) = &self.fault {
            f.push(("fault".into(), Json::str(fault)));
        }
        if let Some(ms) = self.deadline_ms {
            f.push(("deadline_ms".into(), Json::u64(ms)));
        }
        for (name, v) in self.knob_fields() {
            if let Some(v) = v {
                f.push((name.into(), Json::f64(v)));
            }
        }
        if let Some(s) = &self.schedule {
            f.push(("schedule".into(), Json::str(s)));
        }
        if let Some(v) = self.adapt_rate {
            f.push(("adapt_rate".into(), Json::f64(v)));
        }
        if let Some(v) = self.adapt_window_s {
            f.push(("adapt_window_s".into(), Json::f64(v)));
        }
        f
    }

    /// The optional DTM-knob overrides as `(wire name, value)` pairs —
    /// the single list both codec directions and the dist-backend
    /// expressibility probe iterate.
    fn knob_fields(&self) -> [(&'static str, Option<f64>); 7] {
        [
            ("pi_kp", self.pi_kp),
            ("pi_ki", self.pi_ki),
            ("setpoint_margin_c", self.setpoint_margin_c),
            ("trip_margin_c", self.trip_margin_c),
            ("stall_s", self.stall_s),
            ("migration_interval_s", self.migration_interval_s),
            ("os_tick_s", self.os_tick_s),
        ]
    }

    /// Decodes the request fields of a `simulate` frame.
    ///
    /// # Errors
    ///
    /// Describes the first malformed field.
    pub fn from_json(json: &Json) -> Result<SimRequest, String> {
        let mut req = SimRequest::default();
        if let Ok(w) = json.field("workload") {
            req.workload = Some(
                w.as_str()
                    .map_err(|e| format!("bad `workload`: {e}"))?
                    .to_string(),
            );
        }
        if let Ok(b) = json.field("benchmarks") {
            req.benchmarks = b
                .as_arr()
                .map_err(|e| format!("bad `benchmarks`: {e}"))?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("bad `benchmarks`: {e}"))?;
        }
        req.policy = json
            .field("policy")
            .and_then(|v| v.as_str())
            .map_err(|e| format!("bad `policy`: {e}"))?
            .to_string();
        if let Ok(v) = json.field("duration_s") {
            req.duration_s = Some(v.as_f64().map_err(|e| format!("bad `duration_s`: {e}"))?);
        }
        if let Ok(v) = json.field("cores") {
            req.cores = Some(v.as_usize().map_err(|e| format!("bad `cores`: {e}"))?);
        }
        if let Ok(v) = json.field("threshold_c") {
            req.threshold_c = Some(v.as_f64().map_err(|e| format!("bad `threshold_c`: {e}"))?);
        }
        if let Ok(v) = json.field("seed") {
            req.seed = Some(v.as_u64().map_err(|e| format!("bad `seed`: {e}"))?);
        }
        if let Ok(v) = json.field("fault") {
            req.fault = Some(
                v.as_str()
                    .map_err(|e| format!("bad `fault`: {e}"))?
                    .to_string(),
            );
        }
        if let Ok(v) = json.field("deadline_ms") {
            req.deadline_ms = Some(v.as_u64().map_err(|e| format!("bad `deadline_ms`: {e}"))?);
        }
        for (name, slot) in [
            ("pi_kp", &mut req.pi_kp),
            ("pi_ki", &mut req.pi_ki),
            ("setpoint_margin_c", &mut req.setpoint_margin_c),
            ("trip_margin_c", &mut req.trip_margin_c),
            ("stall_s", &mut req.stall_s),
            ("migration_interval_s", &mut req.migration_interval_s),
            ("os_tick_s", &mut req.os_tick_s),
        ] {
            if let Ok(v) = json.field(name) {
                *slot = Some(v.as_f64().map_err(|e| format!("bad `{name}`: {e}"))?);
            }
        }
        if let Ok(v) = json.field("schedule") {
            req.schedule = Some(
                v.as_str()
                    .map_err(|e| format!("bad `schedule`: {e}"))?
                    .to_string(),
            );
        }
        for (name, slot) in [
            ("adapt_rate", &mut req.adapt_rate),
            ("adapt_window_s", &mut req.adapt_window_s),
        ] {
            if let Ok(v) = json.field(name) {
                *slot = Some(v.as_f64().map_err(|e| format!("bad `{name}`: {e}"))?);
            }
        }
        Ok(req)
    }

    /// Validates the request against a base configuration and resolves
    /// it into the exact cell the sweep harness would run.
    ///
    /// # Errors
    ///
    /// Describes the first invalid field — unknown workload/benchmark,
    /// unparsable policy, out-of-range override, unknown fault preset.
    pub fn resolve(&self, base_sim: &SimConfig) -> Result<ResolvedRequest, String> {
        let workload = match (&self.workload, self.benchmarks.is_empty()) {
            (Some(_), false) => {
                return Err("request names both `workload` and `benchmarks`".to_string())
            }
            (Some(name), true) => Workload::standard(name)
                .ok_or_else(|| format!("unknown standard workload `{name}`"))?,
            (None, false) => {
                let id = self.benchmarks.join("-");
                Workload::try_from_names(id, &self.benchmarks)?
            }
            (None, true) => {
                return Err("request names neither `workload` nor `benchmarks`".to_string())
            }
        };
        let policy = PolicySpec::parse_wire(&self.policy)?;

        let mut sim = base_sim.clone();
        if let Some(d) = self.duration_s {
            if !d.is_finite() || d <= 0.0 || d > MAX_DURATION_S {
                return Err(format!("duration_s {d} out of range (0, {MAX_DURATION_S}]"));
            }
            sim.duration = d;
        }
        if let Some(c) = self.cores {
            if c == 0 || c > MAX_CORES {
                return Err(format!("cores {c} out of range [1, {MAX_CORES}]"));
            }
            sim.cores = c;
        }
        if let Some(s) = self.seed {
            sim.seed = s;
        }

        let mut dtm = DtmConfig::default();
        if let Some(t) = self.threshold_c {
            if !t.is_finite() || !(40.0..=150.0).contains(&t) {
                return Err(format!("threshold_c {t} out of range [40, 150]"));
            }
            dtm = DtmConfig::with_threshold(t);
        }
        let knob_ranges: [(&str, Option<f64>, f64, f64, &mut f64); 7] = [
            ("pi_kp", self.pi_kp, 1e-6, 10.0, &mut dtm.pi_kp),
            ("pi_ki", self.pi_ki, 1e-3, 1e5, &mut dtm.pi_ki),
            (
                "setpoint_margin_c",
                self.setpoint_margin_c,
                0.1,
                20.0,
                &mut dtm.dvfs_setpoint_margin,
            ),
            (
                "trip_margin_c",
                self.trip_margin_c,
                0.01,
                10.0,
                &mut dtm.stopgo_trip_margin,
            ),
            ("stall_s", self.stall_s, 1e-4, 1.0, &mut dtm.stopgo_stall),
            (
                "migration_interval_s",
                self.migration_interval_s,
                1e-4,
                1.0,
                &mut dtm.migration_interval,
            ),
            ("os_tick_s", self.os_tick_s, 1e-4, 0.1, &mut dtm.os_tick),
        ];
        for (name, value, lo, hi, slot) in knob_ranges {
            if let Some(v) = value {
                if !v.is_finite() || !(lo..=hi).contains(&v) {
                    return Err(format!("{name} {v} out of range [{lo}, {hi}]"));
                }
                *slot = v;
            }
        }
        if dtm.migration_interval < dtm.os_tick {
            return Err(format!(
                "migration_interval_s {} shorter than os_tick_s {}",
                dtm.migration_interval, dtm.os_tick
            ));
        }
        dtm.gain_schedule = self.resolve_schedule()?;

        let faults = match self.fault.as_deref() {
            None | Some("none") => FaultConfig::ideal(),
            Some("stuck-hot") => FaultConfig::unprotected(FaultScenario::stuck_sensor(
                "stuck-hot",
                0,
                0,
                150.0,
                sim.duration * 0.2,
            )),
            Some("stuck-hot+watchdog") => FaultConfig::protected(
                FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, sim.duration * 0.2),
                WatchdogConfig::enabled(),
            ),
            Some("dropout+watchdog") => FaultConfig::protected(
                FaultScenario::dropout_sensor("dropout", 0, 0, sim.duration * 0.2),
                WatchdogConfig::enabled(),
            ),
            Some(other) => {
                return Err(format!(
                    "unknown fault preset `{other}` (known: {})",
                    FAULT_PRESETS.join(", ")
                ))
            }
        };

        let variant = ConfigVariant::new("serve", sim, dtm).with_faults(faults);
        Ok(ResolvedRequest {
            workload,
            policy,
            variant,
        })
    }

    /// Resolves the gain-schedule fields into a validated
    /// [`GainScheduleConfig`]. Adaptation parameters are only
    /// meaningful alongside an adaptive schedule, so supplying them
    /// with `fixed` (or no) schedule is rejected — every wire request
    /// has exactly one spelling per cell.
    fn resolve_schedule(&self) -> Result<GainScheduleConfig, String> {
        let name = self.schedule.as_deref().unwrap_or("fixed");
        if name == "fixed" {
            if self.adapt_rate.is_some() || self.adapt_window_s.is_some() {
                return Err(
                    "adapt_rate/adapt_window_s require an adaptive `schedule` (rao or selftune)"
                        .to_string(),
                );
            }
            return Ok(GainScheduleConfig::Fixed);
        }
        for (field, value, lo, hi) in [
            ("adapt_rate", self.adapt_rate, 0.0, 4.0),
            ("adapt_window_s", self.adapt_window_s, 1e-6, 1.0),
        ] {
            if let Some(v) = value {
                if !v.is_finite() || !(lo..=hi).contains(&v) {
                    return Err(format!("{field} {v} out of range [{lo}, {hi}]"));
                }
            }
        }
        let schedule = match name {
            "rao" => {
                let GainScheduleConfig::Rao { alpha, tau_s } = GainScheduleConfig::rao_default()
                else {
                    unreachable!()
                };
                GainScheduleConfig::Rao {
                    alpha: self.adapt_rate.unwrap_or(alpha),
                    tau_s: self.adapt_window_s.unwrap_or(tau_s),
                }
            }
            "selftune" => {
                let GainScheduleConfig::SelfTuning { rate, window_s } =
                    GainScheduleConfig::selftune_default()
                else {
                    unreachable!()
                };
                let rate = match self.adapt_rate {
                    Some(v) if v >= 1.0 => {
                        return Err(format!("adapt_rate {v} out of range [0, 1) for selftune"))
                    }
                    Some(v) => v,
                    None => rate,
                };
                GainScheduleConfig::SelfTuning {
                    rate,
                    window_s: self.adapt_window_s.unwrap_or(window_s),
                }
            }
            other => {
                return Err(format!(
                    "unknown schedule `{other}` (known: {})",
                    SCHEDULE_NAMES.join(", ")
                ))
            }
        };
        schedule.validate();
        Ok(schedule)
    }
}

/// A request resolved into the cell the harness vocabulary describes.
#[derive(Debug, Clone)]
pub struct ResolvedRequest {
    /// The workload to run.
    pub workload: Workload,
    /// The DTM policy.
    pub policy: PolicySpec,
    /// Configuration variant (sim + dtm + faults).
    pub variant: ConfigVariant,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(req: &SimRequest) -> Json {
        let mut fields = vec![("verb".into(), Json::str("simulate"))];
        fields.extend(req.to_fields());
        Json::parse(&Json::Obj(fields).emit()).unwrap()
    }

    #[test]
    fn wire_round_trip_preserves_every_field() {
        let req = SimRequest {
            workload: None,
            benchmarks: vec!["gzip".into(), "mcf".into(), "ammp".into(), "art".into()],
            policy: "dvfs/dist/sensor".into(),
            duration_s: Some(0.25),
            cores: Some(4),
            threshold_c: Some(90.0),
            seed: Some(7),
            fault: Some("stuck-hot".into()),
            deadline_ms: Some(500),
            pi_kp: Some(0.02),
            pi_ki: Some(300.0),
            setpoint_margin_c: Some(1.5),
            trip_margin_c: Some(0.3),
            stall_s: Some(0.02),
            migration_interval_s: Some(0.02),
            os_tick_s: Some(0.002),
            schedule: Some("rao".into()),
            adapt_rate: Some(1.5),
            adapt_window_s: Some(0.003),
        };
        let back = SimRequest::from_json(&parse(&req)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn schedule_requests_resolve_into_the_dtm_config() {
        let base = SimConfig::fast_test();
        // Bare adaptive schedule: schedule-specific defaults.
        let req = SimRequest {
            schedule: Some("rao".into()),
            ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
        };
        let r = req.resolve(&base).unwrap();
        assert_eq!(
            r.variant.dtm.gain_schedule,
            GainScheduleConfig::rao_default()
        );

        // Explicit adaptation parameters land verbatim.
        let req = SimRequest {
            schedule: Some("selftune".into()),
            adapt_rate: Some(0.3),
            adapt_window_s: Some(0.004),
            ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
        };
        let r = req.resolve(&base).unwrap();
        assert_eq!(
            r.variant.dtm.gain_schedule,
            GainScheduleConfig::SelfTuning {
                rate: 0.3,
                window_s: 0.004,
            }
        );

        // Explicit `fixed` and absent schedule resolve identically.
        let req = SimRequest {
            schedule: Some("fixed".into()),
            ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
        };
        let r = req.resolve(&base).unwrap();
        assert_eq!(r.variant.dtm.gain_schedule, GainScheduleConfig::Fixed);
        assert_eq!(
            r.variant.dtm,
            SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
                .resolve(&base)
                .unwrap()
                .variant
                .dtm
        );
    }

    #[test]
    fn bad_schedules_are_rejected() {
        let base = SimConfig::default();
        let std = |f: &dyn Fn(&mut SimRequest)| {
            let mut r = SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor");
            f(&mut r);
            r
        };
        let cases: Vec<(SimRequest, &str)> = vec![
            (
                std(&|r| r.schedule = Some("bangbang".into())),
                "unknown schedule",
            ),
            (
                std(&|r| r.adapt_rate = Some(0.5)),
                "require an adaptive `schedule`",
            ),
            (
                std(&|r| {
                    r.schedule = Some("fixed".into());
                    r.adapt_window_s = Some(0.01);
                }),
                "require an adaptive `schedule`",
            ),
            (
                std(&|r| {
                    r.schedule = Some("rao".into());
                    r.adapt_rate = Some(f64::NAN);
                }),
                "adapt_rate",
            ),
            (
                std(&|r| {
                    r.schedule = Some("selftune".into());
                    r.adapt_rate = Some(1.0);
                }),
                "out of range [0, 1)",
            ),
            (
                std(&|r| {
                    r.schedule = Some("rao".into());
                    r.adapt_window_s = Some(5.0);
                }),
                "adapt_window_s",
            ),
        ];
        for (req, needle) in cases {
            let err = req.resolve(&base).unwrap_err();
            assert!(
                err.contains(needle),
                "error `{err}` should mention `{needle}`"
            );
        }
    }

    #[test]
    fn knob_overrides_land_in_the_dtm_config() {
        let req = SimRequest {
            pi_kp: Some(0.02),
            setpoint_margin_c: Some(1.2),
            migration_interval_s: Some(0.05),
            ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
        };
        let r = req.resolve(&SimConfig::fast_test()).unwrap();
        assert!((r.variant.dtm.pi_kp - 0.02).abs() < 1e-15);
        assert!((r.variant.dtm.dvfs_setpoint_margin - 1.2).abs() < 1e-15);
        assert!((r.variant.dtm.migration_interval - 0.05).abs() < 1e-15);
        // Untouched knobs keep their paper defaults.
        assert!((r.variant.dtm.pi_ki - dtm_core::PAPER_PI_KI).abs() < 1e-12);
        r.variant.dtm.validate();
    }

    #[test]
    fn bad_knobs_are_rejected() {
        let base = SimConfig::default();
        let cases: Vec<(SimRequest, &str)> = vec![
            (
                SimRequest {
                    pi_kp: Some(f64::INFINITY),
                    ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
                },
                "pi_kp",
            ),
            (
                SimRequest {
                    pi_ki: Some(-1.0),
                    ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
                },
                "pi_ki",
            ),
            (
                SimRequest {
                    os_tick_s: Some(0.5),
                    ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
                },
                "os_tick_s",
            ),
            (
                SimRequest {
                    os_tick_s: Some(0.02),
                    migration_interval_s: Some(0.001),
                    ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
                },
                "shorter than os_tick_s",
            ),
        ];
        for (req, needle) in cases {
            let err = req.resolve(&base).unwrap_err();
            assert!(
                err.contains(needle),
                "error `{err}` should mention `{needle}`"
            );
        }
    }

    #[test]
    fn bare_requests_resolve_to_server_defaults() {
        let req = SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor");
        let base = SimConfig::fast_test();
        let r = req.resolve(&base).unwrap();
        assert_eq!(r.workload.display_name(), "gzip-twolf-ammp-lucas");
        assert_eq!(r.policy, PolicySpec::best());
        assert!((r.variant.sim.duration - base.duration).abs() < 1e-15);
        assert!(r.variant.faults.is_ideal());
    }

    #[test]
    fn overrides_land_in_the_variant() {
        let mut req = SimRequest::standard("gzip-twolf-ammp-lucas", "stopgo/global/none");
        req.duration_s = Some(0.125);
        req.threshold_c = Some(100.0);
        req.seed = Some(42);
        req.fault = Some("stuck-hot+watchdog".into());
        let r = req.resolve(&SimConfig::default()).unwrap();
        assert!((r.variant.sim.duration - 0.125).abs() < 1e-15);
        assert_eq!(r.variant.sim.seed, 42);
        assert!((r.variant.dtm.threshold - 100.0).abs() < 1e-12);
        assert!(!r.variant.faults.is_ideal());
        // Fault injection lands at 20% of the (overridden) run.
        assert!((r.variant.faults.scenario.events[0].start - 0.025).abs() < 1e-12);
    }

    #[test]
    fn invalid_requests_are_rejected_with_reasons() {
        let base = SimConfig::default();
        let cases: Vec<(SimRequest, &str)> = vec![
            (SimRequest::default(), "neither"),
            (
                SimRequest::standard("no-such-workload", "dvfs/dist/sensor"),
                "unknown standard workload",
            ),
            (
                SimRequest::standard("gzip-twolf-ammp-lucas", "warp/dist/none"),
                "throttle",
            ),
            (
                SimRequest {
                    duration_s: Some(1e9),
                    ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
                },
                "out of range",
            ),
            (
                SimRequest {
                    cores: Some(0),
                    ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
                },
                "out of range",
            ),
            (
                SimRequest {
                    threshold_c: Some(f64::NAN),
                    ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
                },
                "out of range",
            ),
            (
                SimRequest {
                    fault: Some("meltdown".into()),
                    ..SimRequest::standard("gzip-twolf-ammp-lucas", "dvfs/dist/sensor")
                },
                "unknown fault preset",
            ),
            (
                SimRequest {
                    workload: Some("gzip-twolf-ammp-lucas".into()),
                    benchmarks: vec!["gzip".into()],
                    policy: "dvfs/dist/sensor".into(),
                    ..SimRequest::default()
                },
                "both",
            ),
        ];
        for (req, needle) in cases {
            let err = req.resolve(&base).unwrap_err();
            assert!(
                err.contains(needle),
                "error `{err}` should mention `{needle}`"
            );
        }
    }

    #[test]
    fn explicit_benchmark_tuples_resolve() {
        let req = SimRequest {
            benchmarks: vec!["gzip".into(), "mcf".into(), "ammp".into(), "art".into()],
            policy: "dvfs/global/counter".into(),
            ..SimRequest::default()
        };
        let r = req.resolve(&SimConfig::fast_test()).unwrap();
        assert_eq!(r.workload.benchmarks.len(), 4);
        assert!(req.resolve(&SimConfig::fast_test()).is_ok());
    }
}
