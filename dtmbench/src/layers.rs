//! Direct probes of the thermal kernels and the engine step, for the
//! per-layer metrics no workload pass isolates on its own: each probe
//! calls one public function in a loop under a span and reports the
//! median per call.

use crate::common::Outcome;
use crate::spans::{by_name, Ctx, Recorder};
use crate::stats::{median, Rng};
use dtm_core::{DtmConfig, Experiment, ObsHandle, PolicySpec, SimConfig, ENGINE_PHASES};
use dtm_floorplan::Floorplan;
use dtm_thermal::linalg::{affine_matvec, matmul_strided, LANE_BLOCK};
use dtm_thermal::{
    step_lumped_batch, BatchWorkspace, PackageConfig, ThermalModel, TransientSolver,
};
use dtm_workloads::{standard_workloads, TraceGenConfig, TraceLibrary};
use std::hint::black_box;

/// Spans per probe; the metric is the median span over calls per span.
const REPS: u64 = 15;

/// Runs `f` `calls` times per span, [`REPS`] spans, and returns the
/// median ns per call.
fn probe(rec: &Recorder, name: &'static str, calls: u64, mut f: impl FnMut()) -> f64 {
    for r in 0..REPS {
        rec.span(name, Ctx::root(1 << 61 | r), |_| {
            for _ in 0..calls {
                f();
            }
        });
    }
    let agg = by_name(&rec.spans());
    median(&agg[name].durs_ns) / calls as f64
}

/// The lumped 4-core model's probes, the scalar engine step, and the
/// per-phase engine profile; every value lands in `out`.
pub fn probes(out: &mut Outcome) -> Recorder {
    let rec = Recorder::enabled();
    let fp = Floorplan::ppc_cmp(4);
    let pkg = PackageConfig::default();
    let model = ThermalModel::new(&fp, &pkg).expect("paper floorplan builds");
    let (n, k) = (model.n_nodes(), model.n_blocks());
    let cols = n + k;
    let dt = TraceGenConfig::default().core.sample_period();

    let build = probe(&rec, "ThermalModel::new", 4, || {
        black_box(ThermalModel::new(&fp, &pkg).expect("paper floorplan builds"));
    });
    // The propagator cache is process-wide and keyed by the exact step,
    // so a step nudged by 1e-12 relative forces a cold build each call.
    let mut nudge = 0u32;
    let prop = probe(&rec, "TransientSolver::prewarm", 1, || {
        nudge += 1;
        let mut s = TransientSolver::new(model.clone(), 7e-6);
        s.prewarm(dt * (1.0 + f64::from(nudge) * 1e-12))
            .expect("propagator builds");
        black_box(s);
    });

    let mut rng = Rng::new(0xd7, 0);
    let mut fill = |len: usize| -> Vec<f64> { (0..len).map(|_| rng.unit() * 1e-2).collect() };
    let a = fill(n * cols);
    let bias = fill(n);
    let x = fill(LANE_BLOCK * cols);
    let mut y = vec![0.0; LANE_BLOCK * n];
    let matvec = probe(&rec, "affine_matvec", 400, || {
        affine_matvec(cols, &a, &bias, &x[..cols], &mut y[..n]);
        black_box(&y);
    });
    let matmul = probe(&rec, "matmul_strided", 100, || {
        matmul_strided(n, cols, &a, &bias, &x, cols, &mut y, n, LANE_BLOCK);
        black_box(&y);
    }) / LANE_BLOCK as f64;

    let power = vec![1.5; k];
    let mut solvers: Vec<TransientSolver> = (0..LANE_BLOCK)
        .map(|_| {
            let mut s = TransientSolver::new(model.clone(), 7e-6);
            s.init_steady(&power).expect("steady state exists");
            s.prewarm(dt).expect("propagator builds");
            s
        })
        .collect();
    let scalar = probe(&rec, "TransientSolver::step", 400, || {
        solvers[0].step(&power, dt).expect("scalar step");
    });
    let mut ws = BatchWorkspace::new();
    let mut lanes: Vec<(&mut TransientSolver, &[f64])> =
        solvers.iter_mut().map(|s| (s, power.as_slice())).collect();
    let batched = probe(&rec, "step_lumped_batch", 100, || {
        let ran = step_lumped_batch(&mut lanes, dt, &mut ws).expect("batched step");
        assert!(ran, "8 lanes of one model step batched");
    }) / LANE_BLOCK as f64;

    // The engine, on the paper's configuration over fast-test traces
    // (step cost does not depend on trace length).
    let lib = std::sync::Arc::new(TraceLibrary::new(TraceGenConfig::fast_test()));
    let exp = Experiment::new_shared(lib, SimConfig::default(), DtmConfig::default());
    let w = &standard_workloads()[6];
    let mut sim = exp.build(w, PolicySpec::best()).expect("paper cell builds");
    let step = probe(&rec, "ThermalTimingSim::step", 400, || {
        sim.step().expect("engine step");
    });

    out.metric("thermal.model_build_us", build / 1e3, "us");
    out.metric("thermal.propagator_build_us", prop / 1e3, "us");
    out.metric("thermal.affine_matvec_ns", matvec, "ns");
    out.metric("thermal.matmul_strided_ns_per_lane", matmul, "ns");
    out.metric("thermal.step_scalar_ns", scalar, "ns");
    out.metric("thermal.step_batch_ns_per_lane", batched, "ns");
    out.metric("core.step_ns", step, "ns");

    // Phase profile of two paper-length cells (profiled runs step
    // scalar by contract).
    let obs = ObsHandle::enabled_default();
    let profiled = exp.with_obs(&obs);
    let mut steps = 0u64;
    let mut phase_ns = [0u64; ENGINE_PHASES.len()];
    for (i, p) in [PolicySpec::best(), PolicySpec::baseline()]
        .into_iter()
        .enumerate()
    {
        let r = rec
            .span(
                "Experiment::run(profiled)",
                Ctx::root(1 << 60 | i as u64),
                |_| profiled.run(w, p),
            )
            .expect("profiled run");
        let prof = r.phases.expect("an enabled obs handle profiles the run");
        steps += prof.steps;
        for (acc, name) in phase_ns.iter_mut().zip(ENGINE_PHASES) {
            *acc += prof.phase_ns(name);
        }
    }
    for (ns, name) in phase_ns.iter().zip(ENGINE_PHASES) {
        out.metric(
            &format!("core.phase.{name}_ns_per_step"),
            *ns as f64 / steps.max(1) as f64,
            "ns",
        );
    }
    rec
}
