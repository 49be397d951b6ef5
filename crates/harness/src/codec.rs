//! Hand-written JSON codec for [`RunResult`] (the workspace serde is a
//! marker-trait stub; see `vendor/README.md`). Floats use
//! shortest-round-trip formatting, so decode(encode(r)) is
//! bit-identical to `r` — the property the result cache relies on.

use crate::json::{Json, JsonError};
use dtm_core::{
    GainStats, PhaseNs, PhaseProfile, Robustness, RunResult, SteadyTempSummary, ThreadStats,
};

/// Encodes a run result as a JSON object.
pub fn result_to_json(r: &RunResult) -> Json {
    let mut fields = vec![
        ("duration".into(), Json::f64(r.duration)),
        ("cores".into(), Json::usize(r.cores)),
        ("instructions".into(), Json::f64(r.instructions)),
        ("duty_cycle".into(), Json::f64(r.duty_cycle)),
        ("max_temp".into(), Json::f64(r.max_temp)),
        ("emergency_time".into(), Json::f64(r.emergency_time)),
        ("migrations".into(), Json::u64(r.migrations)),
        ("dvfs_transitions".into(), Json::u64(r.dvfs_transitions)),
        ("stalls".into(), Json::u64(r.stalls)),
        ("energy".into(), Json::f64(r.energy)),
        (
            "robustness".into(),
            Json::Obj(vec![
                (
                    "violation_time".into(),
                    Json::f64(r.robustness.violation_time),
                ),
                (
                    "peak_overshoot".into(),
                    Json::f64(r.robustness.peak_overshoot),
                ),
                (
                    "false_throttle_time".into(),
                    Json::f64(r.robustness.false_throttle_time),
                ),
                (
                    "fallback_time".into(),
                    Json::f64(r.robustness.fallback_time),
                ),
                (
                    "fallback_entries".into(),
                    Json::u64(r.robustness.fallback_entries),
                ),
                (
                    "fallback_exits".into(),
                    Json::u64(r.robustness.fallback_exits),
                ),
                (
                    "watchdog_flags".into(),
                    Json::u64(r.robustness.watchdog_flags),
                ),
            ]),
        ),
        (
            "threads".into(),
            Json::Arr(
                r.threads
                    .iter()
                    .map(|t| {
                        Json::Obj(vec![
                            ("instructions".into(), Json::f64(t.instructions)),
                            ("scaled_work".into(), Json::f64(t.scaled_work)),
                            ("migrations".into(), Json::u64(t.migrations)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    // Optional fields are appended only when present: `None` means an
    // unprofiled run (`steady`, `phases`) or fixed gains (`gain_stats`).
    if let Some(s) = &r.steady {
        fields.push((
            "steady".into(),
            Json::Obj(vec![
                ("mean".into(), Json::f64(s.mean)),
                ("min".into(), Json::f64(s.min)),
                ("max".into(), Json::f64(s.max)),
            ]),
        ));
    }
    if let Some(p) = &r.phases {
        fields.push((
            "phases".into(),
            Json::Obj(vec![
                ("steps".into(), Json::u64(p.steps)),
                (
                    "phases".into(),
                    Json::Arr(
                        p.phases
                            .iter()
                            .map(|ph| {
                                Json::Obj(vec![
                                    ("name".into(), Json::str(&ph.name)),
                                    ("ns".into(), Json::u64(ph.ns)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    if let Some(g) = &r.gain_stats {
        fields.push((
            "gain_stats".into(),
            Json::Obj(vec![
                ("kp_min".into(), Json::f64(g.kp_min)),
                ("kp_max".into(), Json::f64(g.kp_max)),
                ("ki_min".into(), Json::f64(g.ki_min)),
                ("ki_max".into(), Json::f64(g.ki_max)),
                ("adaptations".into(), Json::u64(g.adaptations)),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// Decodes a run result from [`result_to_json`]'s layout.
///
/// # Errors
///
/// Fails on missing fields or type mismatches (e.g. a corrupt or
/// foreign cache file).
pub fn result_from_json(v: &Json) -> Result<RunResult, JsonError> {
    let threads = v
        .field("threads")?
        .as_arr()?
        .iter()
        .map(|t| {
            Ok(ThreadStats {
                instructions: t.field("instructions")?.as_f64()?,
                scaled_work: t.field("scaled_work")?.as_f64()?,
                migrations: t.field("migrations")?.as_u64()?,
            })
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    let rv = v.field("robustness")?;
    let robustness = Robustness {
        violation_time: rv.field("violation_time")?.as_f64()?,
        peak_overshoot: rv.field("peak_overshoot")?.as_f64()?,
        false_throttle_time: rv.field("false_throttle_time")?.as_f64()?,
        fallback_time: rv.field("fallback_time")?.as_f64()?,
        fallback_entries: rv.field("fallback_entries")?.as_u64()?,
        fallback_exits: rv.field("fallback_exits")?.as_u64()?,
        watchdog_flags: rv.field("watchdog_flags")?.as_u64()?,
    };
    // Absent optional objects decode to `None` (see `result_to_json`).
    let steady = match v.field("steady") {
        Ok(sv) => Some(SteadyTempSummary {
            mean: sv.field("mean")?.as_f64()?,
            min: sv.field("min")?.as_f64()?,
            max: sv.field("max")?.as_f64()?,
        }),
        Err(_) => None,
    };
    let phases = match v.field("phases") {
        Ok(pv) => Some(PhaseProfile {
            steps: pv.field("steps")?.as_u64()?,
            phases: pv
                .field("phases")?
                .as_arr()?
                .iter()
                .map(|ph| {
                    Ok(PhaseNs {
                        name: ph.field("name")?.as_str()?.to_string(),
                        ns: ph.field("ns")?.as_u64()?,
                    })
                })
                .collect::<Result<Vec<_>, JsonError>>()?,
        }),
        Err(_) => None,
    };
    let gain_stats = match v.field("gain_stats") {
        Ok(gv) => Some(GainStats {
            kp_min: gv.field("kp_min")?.as_f64()?,
            kp_max: gv.field("kp_max")?.as_f64()?,
            ki_min: gv.field("ki_min")?.as_f64()?,
            ki_max: gv.field("ki_max")?.as_f64()?,
            adaptations: gv.field("adaptations")?.as_u64()?,
        }),
        Err(_) => None,
    };
    Ok(RunResult {
        duration: v.field("duration")?.as_f64()?,
        cores: v.field("cores")?.as_usize()?,
        instructions: v.field("instructions")?.as_f64()?,
        duty_cycle: v.field("duty_cycle")?.as_f64()?,
        max_temp: v.field("max_temp")?.as_f64()?,
        emergency_time: v.field("emergency_time")?.as_f64()?,
        migrations: v.field("migrations")?.as_u64()?,
        dvfs_transitions: v.field("dvfs_transitions")?.as_u64()?,
        stalls: v.field("stalls")?.as_u64()?,
        energy: v.field("energy")?.as_f64()?,
        robustness,
        steady,
        phases,
        gain_stats,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            duration: 0.5,
            cores: 4,
            instructions: 5.678e9 + 1.0 / 3.0,
            duty_cycle: 0.815_372_910_4,
            max_temp: 84.199_999_999_9,
            emergency_time: 0.0,
            migrations: 17,
            dvfs_transitions: 12_345,
            stalls: 3,
            energy: 22.25,
            robustness: Robustness {
                violation_time: 0.012_5,
                peak_overshoot: 1.375 + 1.0 / 9.0,
                false_throttle_time: 0.031,
                fallback_time: 0.25,
                fallback_entries: 2,
                fallback_exits: 1,
                watchdog_flags: 4_321,
            },
            steady: Some(SteadyTempSummary {
                mean: 83.337_5 + 1.0 / 7.0,
                min: 82.9,
                max: 84.125,
            }),
            phases: Some(PhaseProfile {
                steps: 18_000,
                phases: vec![
                    PhaseNs {
                        name: "microarch".into(),
                        ns: 123_456_789,
                    },
                    PhaseNs {
                        name: "thermal".into(),
                        ns: 987_654_321,
                    },
                ],
            }),
            gain_stats: Some(GainStats {
                kp_min: 0.0107 * 0.75,
                kp_max: 0.0107 * (1.0 + 1.0 / 3.0),
                ki_min: 248.5 * 0.75,
                ki_max: 248.5 * (1.0 + 1.0 / 3.0),
                adaptations: 7_654,
            }),
            threads: vec![
                ThreadStats {
                    instructions: 1.5e9,
                    scaled_work: 0.41,
                    migrations: 5,
                },
                ThreadStats::default(),
            ],
        }
    }

    #[test]
    fn round_trip_is_equal() {
        let r = sample();
        let back = result_from_json(&Json::parse(&result_to_json(&r).emit()).unwrap()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let r = sample();
        let back = result_from_json(&Json::parse(&result_to_json(&r).emit()).unwrap()).unwrap();
        for (a, b) in [
            (r.instructions, back.instructions),
            (r.duty_cycle, back.duty_cycle),
            (r.max_temp, back.max_temp),
            (r.energy, back.energy),
            (r.threads[0].scaled_work, back.threads[0].scaled_work),
            (r.robustness.peak_overshoot, back.robustness.peak_overshoot),
            (r.robustness.violation_time, back.robustness.violation_time),
            (r.steady.unwrap().mean, back.steady.unwrap().mean),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(r.robustness, back.robustness);
        assert_eq!(r.steady, back.steady);
        assert_eq!(r.phases, back.phases);
        assert_eq!(r.gain_stats, back.gain_stats);
        let (g, bg) = (r.gain_stats.unwrap(), back.gain_stats.unwrap());
        assert_eq!(g.kp_max.to_bits(), bg.kp_max.to_bits());
        assert_eq!(g.ki_max.to_bits(), bg.ki_max.to_bits());
    }

    #[test]
    fn entries_without_robustness_are_rejected() {
        let mut encoded = result_to_json(&sample());
        if let Json::Obj(fields) = &mut encoded {
            fields.retain(|(k, _)| k != "robustness");
        }
        assert!(result_from_json(&Json::parse(&encoded.emit()).unwrap()).is_err());
    }

    #[test]
    fn pre_observability_entries_decode_without_steady_or_phases() {
        // An unprofiled run's entry: no steady/phases objects, which
        // decode to `None`s.
        let mut encoded = result_to_json(&sample());
        if let Json::Obj(fields) = &mut encoded {
            fields.retain(|(k, _)| k != "steady" && k != "phases");
        }
        let back = result_from_json(&Json::parse(&encoded.emit()).unwrap()).unwrap();
        assert_eq!(back.steady, None);
        assert_eq!(back.phases, None);
        assert_eq!(back.robustness, sample().robustness);
    }

    #[test]
    fn unprofiled_results_encode_without_optional_objects() {
        let r = RunResult {
            steady: None,
            phases: None,
            gain_stats: None,
            ..sample()
        };
        let text = result_to_json(&r).emit();
        assert!(!text.contains("\"steady\""));
        assert!(!text.contains("\"phases\""));
        assert!(!text.contains("\"gain_stats\""));
        let back = result_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn pre_adaptive_entries_decode_without_gain_stats() {
        // A fixed-gain run's entry: no gain_stats object, which decodes
        // to `None`.
        let mut encoded = result_to_json(&sample());
        if let Json::Obj(fields) = &mut encoded {
            fields.retain(|(k, _)| k != "gain_stats");
        }
        let back = result_from_json(&Json::parse(&encoded.emit()).unwrap()).unwrap();
        assert_eq!(back.gain_stats, None);
        assert_eq!(back.robustness, sample().robustness);
        assert_eq!(back.steady, sample().steady);
    }

    #[test]
    fn corrupt_layouts_are_errors() {
        assert!(result_from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(result_from_json(&Json::parse("{\"duration\":\"x\"}").unwrap()).is_err());
    }
}
