//! Cache-address identity.
//!
//! A cell's content address is FNV-1a-128 of the derived `Debug` text of
//! all its inputs. The literals below pin that encoding: any change to
//! those representations — a new field, a reordered field, a different
//! float spelling — rotates every key and orphans every existing cache
//! entry and wire memo, so it must show up here as a deliberate test
//! change. The mutation table checks the converse: every input field
//! reaches the key, and no two perturbations share one.

use dtm_core::{
    DtmConfig, FaultConfig, FaultScenario, GainScheduleConfig, PolicySpec, SimConfig,
    SolverBackend, WatchdogConfig, PAPER_PI_KI, PAPER_PI_KP,
};
use dtm_harness::{cell_key, CellKey};
use dtm_workloads::{standard_workloads, TraceGenConfig};

fn key(sim: &SimConfig, dtm: &DtmConfig, faults: &FaultConfig) -> CellKey {
    cell_key(
        &standard_workloads()[0],
        PolicySpec::baseline(),
        sim,
        dtm,
        faults,
        &TraceGenConfig::default(),
        "0.2.0",
    )
}

#[test]
fn default_config_cells_have_pinned_addresses() {
    let ws = standard_workloads();
    let tg = TraceGenConfig::default();
    let ideal = FaultConfig::ideal();
    let cases = [
        (
            &ws[0],
            PolicySpec::baseline(),
            SimConfig::default(),
            DtmConfig::default(),
            90156271941266298909220207063636285698,
        ),
        (
            &ws[6],
            PolicySpec::best(),
            SimConfig::default(),
            DtmConfig::default(),
            319222205809592409114740013927917005941,
        ),
        (
            &ws[0],
            PolicySpec::best(),
            SimConfig::fast_test(),
            DtmConfig::with_threshold(100.0),
            206387435997266705138466976377900504455,
        ),
    ];
    for (w, policy, sim, dtm, pinned) in cases {
        let k = cell_key(w, policy, &sim, &dtm, &ideal, &tg, "0.2.0");
        assert_eq!(
            k,
            CellKey(pinned),
            "{}/{} rekeyed — warm caches are orphaned",
            w.display_name(),
            policy.name()
        );
    }
}

#[test]
fn every_input_field_reaches_the_key() {
    let sim = SimConfig::default();
    let dtm = DtmConfig::default();
    let ideal = FaultConfig::ideal();
    let base = key(&sim, &dtm, &ideal);

    // Defaults spelled out in full are the default cell. The literal
    // names every field (no `..`), so a new `DtmConfig` field fails to
    // compile here until it joins the table below.
    let explicit = DtmConfig {
        threshold: 84.2,
        stopgo_trip_margin: 0.2,
        stopgo_stall: 30e-3,
        dvfs_setpoint_margin: 2.4,
        dvfs_min_scale: 0.2,
        dvfs_min_transition: 0.02,
        dvfs_transition_penalty: 10e-6,
        migration_penalty: 100e-6,
        os_tick: 1e-3,
        migration_interval: 10e-3,
        pi_kp: PAPER_PI_KP,
        pi_ki: PAPER_PI_KI,
        gain_schedule: GainScheduleConfig::Fixed,
    };
    let explicit_faults =
        FaultConfig::protected(FaultScenario::ideal(), WatchdogConfig::disabled());
    assert_eq!(key(&sim, &explicit, &explicit_faults), base);

    let d = |f: fn(&mut DtmConfig)| {
        let mut x = dtm;
        f(&mut x);
        (sim.clone(), x, ideal.clone())
    };
    let s = |f: fn(&mut SimConfig)| {
        let mut x = sim.clone();
        f(&mut x);
        (x, dtm, ideal.clone())
    };
    let f = |faults: FaultConfig| (sim.clone(), dtm, faults);
    let stuck = FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, 0.1);
    let wd_on = WatchdogConfig::enabled();
    let table = [
        ("threshold", d(|x| x.threshold = 100.0)),
        ("stopgo_trip_margin", d(|x| x.stopgo_trip_margin = 0.5)),
        ("stopgo_stall", d(|x| x.stopgo_stall = 20e-3)),
        ("dvfs_setpoint_margin", d(|x| x.dvfs_setpoint_margin = 1.2)),
        ("dvfs_min_scale", d(|x| x.dvfs_min_scale = 0.3)),
        ("dvfs_min_transition", d(|x| x.dvfs_min_transition = 0.05)),
        (
            "dvfs_transition_penalty",
            d(|x| x.dvfs_transition_penalty = 20e-6),
        ),
        ("migration_penalty", d(|x| x.migration_penalty = 200e-6)),
        ("os_tick", d(|x| x.os_tick = 2e-3)),
        ("migration_interval", d(|x| x.migration_interval = 20e-3)),
        ("pi_kp", d(|x| x.pi_kp = 0.02)),
        ("pi_ki", d(|x| x.pi_ki = 300.0)),
        (
            "gain_schedule",
            d(|x| x.gain_schedule = GainScheduleConfig::rao_default()),
        ),
        (
            "gain_schedule params",
            d(|x| {
                x.gain_schedule = GainScheduleConfig::Rao {
                    alpha: 0.5,
                    tau_s: 2e-3,
                }
            }),
        ),
        (
            "gain_schedule selftune",
            d(|x| x.gain_schedule = GainScheduleConfig::selftune_default()),
        ),
        (
            "watchdog",
            f(FaultConfig::protected(FaultScenario::ideal(), wd_on)),
        ),
        ("scenario", f(FaultConfig::unprotected(stuck.clone()))),
        (
            "scenario + watchdog",
            f(FaultConfig::protected(stuck, wd_on)),
        ),
        ("sim.cores", s(|x| x.cores = 8)),
        ("sim.duration", s(|x| x.duration = 0.25)),
        ("sim.thermal_substep", s(|x| x.thermal_substep = 14e-6)),
        (
            "sim.thermal_solver",
            s(|x| x.thermal_solver = SolverBackend::BackwardEuler),
        ),
        (
            "sim.init_hotspot_margin",
            s(|x| x.init_hotspot_margin = 2.0),
        ),
        ("sim.seed", s(|x| x.seed ^= 1)),
        (
            "sim.core_max_scale",
            s(|x| x.core_max_scale = vec![1.0, 1.0, 0.5, 0.5]),
        ),
        ("sim.leakage.beta", s(|x| x.leakage.beta *= 2.0)),
        ("sim.sensor.noise_std", s(|x| x.sensor.noise_std = 0.5)),
        ("sim.package.sink_side", s(|x| x.package.sink_side *= 2.0)),
    ];

    let mut seen = vec![("default", base)];
    for (name, (sim, dtm, faults)) in &table {
        let k = key(sim, dtm, faults);
        for (other, prev) in &seen {
            assert_ne!(k, *prev, "perturbing {name} collides with {other}");
        }
        seen.push((name, k));
    }
}
