//! Pins whole `RunResult`s bit for bit.
//!
//! The result cache, the batch-equivalence suite and the paper's tables
//! all compare a run against another run of the same code, so a speed-up
//! that moved every result the same way would pass them all. This test
//! holds an FNV-1a digest of `format!("{:?}", RunResult)` (every float
//! printed in shortest round-trip form, so the digest covers exact bit
//! patterns) for fixed `fast_test` cells, reached both through the scalar
//! `Experiment::run` and through one 8-lane `LockstepBatch`. A change to
//! the engine, the thermal solver or the initial-temperature search that
//! moves any result must re-pin on purpose.

use dtm_core::{
    Experiment, LockstepBatch, MigrationKind, PolicySpec, RunResult, Scope, ThrottleKind,
};
use dtm_workloads::{standard_workloads, Workload};

fn digest(r: &RunResult) -> u64 {
    format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn workload(id: &str) -> Workload {
    standard_workloads()
        .into_iter()
        .find(|w| w.id == id)
        .expect("standard workload")
}

/// Eight cells: two workloads (one integer-heavy, one floating-point
/// heavy) under four policies spanning both throttles, both scopes and
/// all three migration kinds. Cells sharing a workload share their
/// initial temperatures, whatever the policy.
fn cells() -> Vec<(Workload, PolicySpec, u64)> {
    let dvfs_dist = PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None);
    let stopgo_global_counter = PolicySpec::new(
        ThrottleKind::StopGo,
        Scope::Global,
        MigrationKind::CounterBased,
    );
    let dvfs_global_sensor = PolicySpec::new(
        ThrottleKind::Dvfs,
        Scope::Global,
        MigrationKind::SensorBased,
    );
    let stopgo_dist_sensor = PolicySpec::new(
        ThrottleKind::StopGo,
        Scope::Distributed,
        MigrationKind::SensorBased,
    );
    let pins: [(&str, PolicySpec, u64); 8] = [
        ("workload1", dvfs_dist, 0x9664_857f_27c0_f303),
        ("workload1", stopgo_global_counter, 0xf1f5_3021_d3e8_1034),
        ("workload1", dvfs_global_sensor, 0x1e80_a832_4a11_bb65),
        ("workload1", stopgo_dist_sensor, 0x44f8_4f76_b5ba_059a),
        ("workload11", dvfs_dist, 0x6329_ae9a_2e43_a290),
        ("workload11", stopgo_global_counter, 0x5a82_4b93_4e45_2571),
        ("workload11", dvfs_global_sensor, 0xf38a_f0af_fe0e_8932),
        ("workload11", stopgo_dist_sensor, 0xcf3c_8a4e_4895_8279),
    ];
    pins.into_iter()
        .map(|(id, p, pin)| (workload(id), p, pin))
        .collect()
}

#[test]
fn scalar_runs_match_their_pins() {
    let exp = Experiment::fast_test();
    for (w, p, pin) in cells() {
        let r = exp.run(&w, p).expect("run");
        assert_eq!(digest(&r), pin, "{} under {p:?}: {r:?}", w.id);
    }
}

#[test]
fn lockstep_lanes_match_their_pins() {
    let exp = Experiment::fast_test();
    let cells = cells();
    let sims = cells
        .iter()
        .map(|(w, p, _)| exp.build(w, *p).expect("build"))
        .collect();
    let results = LockstepBatch::new(sims).run().expect("batched run");
    assert_eq!(results.len(), cells.len());
    for ((w, p, pin), r) in cells.iter().zip(&results) {
        assert_eq!(digest(r), *pin, "lane {} under {p:?}: {r:?}", w.id);
    }
}
