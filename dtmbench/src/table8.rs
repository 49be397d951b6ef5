//! `table8-paper`: the paper's Table 8 grid (12 policies × 12
//! workloads, 0.5 s each) through the sweep harness, cold and warm.

use crate::check::{self, CellResult};
use crate::common::{floats, load_threads, ms, proc_status_kb, tail_json, Outcome, WorkDir};
use crate::spans::{by_name, Ctx, Recorder};
use crate::stats::{median, Tail};
use dtm_core::{Experiment, LockstepBatch, PolicySpec, RunResult};
use dtm_harness::json::Json;
use dtm_harness::{
    cell_key, CellIndex, ResultCache, SweepResults, SweepRunner, SweepSpec, DEFAULT_LANES,
};
use dtm_workloads::{standard_workloads, Benchmark, TraceGenConfig, TraceLibrary};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Simulated seconds per cell, as in the paper.
const DURATION_S: f64 = 0.5;

/// Share of the measured window spent on cold sweeps; warm replays
/// fill the rest.
const COLD_SHARE: f64 = 0.75;

/// Cold sweeps made even when the window is already spent (two give
/// the lane-batch tail enough samples).
const MIN_COLD_SWEEPS: usize = 2;

/// Warm replays after each cold sweep, at least.
const MIN_WARM_REPLAYS: usize = 5;

/// Paper-default traces backed by the checkout's disk trace cache.
fn library(work: &WorkDir) -> Arc<TraceLibrary> {
    Arc::new(TraceLibrary::new(TraceGenConfig::default()).with_disk_cache(work.trace_cache()))
}

/// Every distinct benchmark the standard workloads replay.
fn benchmarks() -> Vec<Benchmark> {
    let mut out: Vec<Benchmark> = Vec::new();
    for w in standard_workloads() {
        for b in w.resolve() {
            if !out.iter().any(|x| x.name == b.name) {
                out.push(b);
            }
        }
    }
    out
}

/// Generates any trace missing from the disk trace cache, so no timed
/// pass pays trace generation (`tracegen-cold` measures that).
pub fn fill_trace_cache(work: &WorkDir) {
    let lib = library(work);
    let benches = benchmarks();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..load_threads() {
            s.spawn(|| {
                while let Some(b) = benches.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let _ = lib.trace(b);
                }
            });
        }
    });
}

/// The paper's Table 8 grid, `SweepSpec::standard(0.5)` over every
/// policy. The grid is the experiment, so no part of it is random.
fn spec() -> SweepSpec {
    SweepSpec::standard(DURATION_S).policies(PolicySpec::all())
}

/// A sweep runner over `lib` writing to / reading from `cache_dir`.
fn runner(lib: Arc<TraceLibrary>, cache_dir: &Path) -> SweepRunner {
    SweepRunner::bare_shared(lib)
        .with_workers(load_threads())
        .with_lanes(DEFAULT_LANES)
        .with_cache(Some(ResultCache::new(cache_dir)))
}

fn cells_of(res: &SweepResults) -> Vec<CellResult> {
    let spec = res.spec();
    res.outcomes()
        .iter()
        .map(|o| CellResult {
            workload: spec.workload_axis()[o.index.workload].id.clone(),
            policy: spec.policy_axis()[o.index.policy],
            result: o.result.clone(),
        })
        .collect()
}

/// Set-up a cold Table 8 run pays before its first simulation step:
/// open the trace library on the disk cache and load every trace, key
/// every cell, probe the (empty) result cache for each, and build the
/// first lane batch's simulators (thermal model and propagator
/// included).
pub fn setup() -> f64 {
    let work = WorkDir::new();
    let cache = ResultCache::new(work.fresh("table8-setup"));
    let t0 = Instant::now();
    let lib = library(&work);
    for b in benchmarks() {
        let _ = lib.trace(&b);
    }
    let spec = spec();
    let variant = &spec.variant_axis()[0];
    let cells = spec.cells();
    for c in &cells {
        let key = cell_key(
            &spec.workload_axis()[c.workload],
            spec.policy_axis()[c.policy],
            &variant.sim,
            &variant.dtm,
            &variant.faults,
            lib.config(),
            // Any version string keys at the same cost; the cache is empty.
            "setup",
        );
        std::hint::black_box(cache.load(key));
    }
    let exp = Experiment::new_shared(Arc::clone(&lib), variant.sim.clone(), variant.dtm);
    for c in &cells[..DEFAULT_LANES] {
        let w = &spec.workload_axis()[c.workload];
        let traces = w.resolve().iter().map(|b| lib.trace(b)).collect();
        let sim = exp
            .build_with_traces(traces, spec.policy_axis()[c.policy])
            .expect("paper-default simulator builds");
        std::hint::black_box(sim);
    }
    let secs = t0.elapsed().as_secs_f64();
    work.clean();
    secs
}

/// Checks one sweep's cells against the pinned grid; counts failures.
fn check_sweep(out: &mut Outcome, res: &SweepResults, what: &str) -> Option<f64> {
    let n = res.outcomes().len() as u64;
    match check::check_table8(
        &cells_of(res),
        check::TABLE8_DIGEST,
        check::TABLE8_PAPER_ERR_BITS,
    ) {
        Ok(err) => Some(err),
        Err(e) => {
            out.failed += n;
            out.error(format!("{what}: {e}"));
            None
        }
    }
}

/// The measured run: cold sweeps, each into a fresh result cache and
/// each followed by warm replays of it, [`COLD_SHARE`] of the time cold.
/// `between_cycles` runs after each cycle, outside the timed sweeps.
pub fn run(seconds: f64, work: &WorkDir, between_cycles: &mut dyn FnMut()) -> Outcome {
    let mut out = Outcome::default();
    let spec = spec();
    let n = spec.cells().len();
    let start = Instant::now();

    let mut rates = Vec::new();
    let mut batch_ms = Vec::new();
    let mut warm_ms = Vec::new();
    // Peak RSS of the process through its first cold sweep: later
    // sweeps start from whatever the allocator kept, the first from a
    // fresh process, as `exp_table8` does.
    let mut peak_mb = None;
    let mut paper_err = None;
    let lib = library(work);
    // Cycles of one cold sweep, then warm replays of its cache, until
    // the window is spent; spreading both across the window keeps a
    // slow drift in host speed from landing on one of them alone.
    let mut cycle_s = 0.0;
    while rates.len() < MIN_COLD_SWEEPS || start.elapsed().as_secs_f64() + cycle_s / 2.0 < seconds {
        let cycle = Instant::now();
        let dir = work.fresh("table8-cold");
        let r = runner(library(work), &dir);
        let t0 = Instant::now();
        let res = r.run(spec.clone());
        let wall = t0.elapsed();
        peak_mb.get_or_insert_with(|| proc_status_kb("VmHWM").unwrap_or(f64::NAN) / 1024.0);
        out.attempted += n as u64;
        let res = match res {
            Ok(res) => res,
            Err(e) => {
                out.failed += n as u64;
                out.error(format!("cold sweep failed: {e}"));
                return out;
            }
        };
        if res.executed() != n {
            out.error(format!(
                "cold sweep simulated {} of {n} cells",
                res.executed()
            ));
        }
        paper_err = check_sweep(&mut out, &res, "cold sweep").or(paper_err);
        rates.push(n as f64 / wall.as_secs_f64());
        // Cells of one lane batch share its wall: one sample per batch.
        let mut batches: Vec<(Duration, Duration)> =
            res.outcomes().iter().map(|o| (o.queued, o.wall)).collect();
        batches.sort();
        batches.dedup();
        batch_ms.extend(batches.iter().map(|&(_, wall)| ms(wall)));

        let warm_s = wall.as_secs_f64() * (1.0 - COLD_SHARE) / COLD_SHARE;
        let warm_start = Instant::now();
        let mut replays = 0;
        while replays < MIN_WARM_REPLAYS || warm_start.elapsed().as_secs_f64() < warm_s {
            let r = runner(Arc::clone(&lib), &dir);
            let t0 = Instant::now();
            let res = r.run(spec.clone());
            let wall = t0.elapsed();
            out.attempted += n as u64;
            match res {
                Ok(res) => {
                    if res.cache_hits() != n {
                        out.error(format!("warm replay hit {} of {n} cells", res.cache_hits()));
                    }
                    check_sweep(&mut out, &res, "warm replay");
                }
                Err(e) => {
                    out.failed += n as u64;
                    out.error(format!("warm replay failed: {e}"));
                    return out;
                }
            }
            warm_ms.push(ms(wall) / n as f64);
            replays += 1;
        }
        between_cycles();
        cycle_s = cycle.elapsed().as_secs_f64();
    }

    let cold = Tail::of(&batch_ms).expect("two cold sweeps have more than twenty lane batches");
    let warm = Tail::of(&warm_ms).expect("MIN_WARM_REPLAYS replays per cold sweep");
    let cold_rate = median(&rates);
    out.metric("peak_rss_mb", peak_mb.unwrap_or(f64::NAN), "MB");
    out.metric("throughput_per_s", cold_rate, "1/s");
    out.metric("warm_p50_ms", warm.p50, "ms");
    out.metric("warm_p90_ms", warm.p90, "ms");
    out.metric("cold_p50_ms", cold.p50, "ms");
    let paper_err = paper_err.unwrap_or(f64::NAN);
    eprintln!(
        "table8-paper: cold_cells_per_s {cold_rate:.2} (median of {} sweeps), warm_cells_per_s {:.1}, table8_paper_err {paper_err:.6}",
        rates.len(),
        1e3 / warm.p50
    );
    out.detail("cold_cells_per_s", Json::f64(cold_rate));
    out.detail("warm_cells_per_s", Json::f64(1e3 / warm.p50));
    out.detail("table8_paper_err", Json::f64(paper_err));
    out.detail("cold_sweep_cells_per_s", floats(&rates));
    out.detail("warm_replays", Json::usize(warm_ms.len()));
    out.detail("cold_tail", tail_json(&cold));
    out.detail("warm_tail", tail_json(&warm));
    out
}

/// One replayed cell: flat cell index, key, simulated and read-back
/// results.
struct Replayed {
    cell: usize,
    key: String,
    result: RunResult,
    read_back: Option<RunResult>,
}

/// Replays `spec` through the crates' public calls, one span per call:
/// `TraceLibrary::trace` (disk hit) → `Experiment::build_with_traces`
/// → 8-lane `LockstepBatch::run` → `cell_key` + `ResultCache::store` /
/// `load`. With `paired`, every lane batch also runs once with spans
/// off into `off_dir`, next to its traced run (alternating which goes
/// first), and the on/off wall ratio of each pair is returned.
fn replay(
    spec: &SweepSpec,
    rec: &Recorder,
    version: &str,
    on_dir: &Path,
    off_dir: Option<&Path>,
    work: &WorkDir,
) -> Result<(Vec<f64>, Vec<Replayed>), String> {
    let lib = library(work);
    let variant = &spec.variant_axis()[0];
    let exp = Experiment::new_shared(Arc::clone(&lib), variant.sim.clone(), variant.dtm);
    let on_cache = ResultCache::new(on_dir);
    let off_cache = off_dir.map(ResultCache::new);
    let untraced = Recorder::disabled();
    let cells = spec.cells();
    let batches: Vec<&[CellIndex]> = cells.chunks(DEFAULT_LANES).collect();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(cells.len()));
    let ratios = Mutex::new(Vec::new());

    for (j, b) in benchmarks().iter().enumerate() {
        rec.span("TraceLibrary::trace", Ctx::root(1_000 + j as u64), |_| {
            lib.trace(b)
        });
    }
    let run_batch = |j: usize,
                     batch: &[CellIndex],
                     rec: &Recorder,
                     cache: &ResultCache|
     -> Result<(Duration, Vec<Replayed>), String> {
        let t0 = Instant::now();
        let replayed = rec.span(
            "cell_batch",
            Ctx::root(j as u64 + 1),
            |ctx| -> Result<_, String> {
                let mut sims = Vec::with_capacity(batch.len());
                for c in batch {
                    let w = &spec.workload_axis()[c.workload];
                    let traces = w.resolve().iter().map(|b| lib.trace(b)).collect();
                    let p = spec.policy_axis()[c.policy];
                    let sim = rec.span("Experiment::build_with_traces", ctx, |_| {
                        exp.build_with_traces(traces, p)
                    });
                    sims.push(sim.map_err(|e| e.to_string())?);
                }
                let results = rec
                    .span("LockstepBatch::run", ctx, |_| {
                        LockstepBatch::new(sims).run()
                    })
                    .map_err(|e| e.to_string())?;
                let mut replayed = Vec::with_capacity(batch.len());
                for (lane, (c, result)) in batch.iter().zip(results).enumerate() {
                    let w = &spec.workload_axis()[c.workload];
                    let p = spec.policy_axis()[c.policy];
                    let key = rec.span("cell_key", ctx, |_| {
                        cell_key(
                            w,
                            p,
                            &variant.sim,
                            &variant.dtm,
                            &variant.faults,
                            lib.config(),
                            version,
                        )
                    });
                    let describe = Json::Obj(vec![
                        ("workload".into(), Json::str(w.display_name())),
                        ("mix".into(), Json::str(w.mix_label())),
                        ("policy".into(), Json::str(p.name())),
                        ("variant".into(), Json::str(&variant.name)),
                        ("version".into(), Json::str(version)),
                    ]);
                    rec.span("ResultCache::store", ctx, |_| {
                        cache.store(key, &describe, &result)
                    });
                    let read_back = rec.span("ResultCache::load", ctx, |_| cache.load(key));
                    replayed.push(Replayed {
                        cell: j * DEFAULT_LANES + lane,
                        key: key.hex(),
                        result,
                        read_back,
                    });
                }
                Ok(replayed)
            },
        )?;
        Ok((t0.elapsed(), replayed))
    };
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..load_threads() {
            s.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let Some(&batch) = batches.get(j) else { break };
                let off = || {
                    off_cache
                        .as_ref()
                        .map(|c| run_batch(j, batch, &untraced, c))
                };
                let (off, on) = if j.is_multiple_of(2) {
                    let off = off();
                    (off, run_batch(j, batch, rec, &on_cache))
                } else {
                    let on = run_batch(j, batch, rec, &on_cache);
                    (off(), on)
                };
                match (on, off.transpose()) {
                    (Ok((on_wall, replayed)), Ok(off)) => {
                        if let Some((off_wall, _)) = off {
                            ratios
                                .lock()
                                .expect("ratio sink poisoned")
                                .push(on_wall.as_secs_f64() / off_wall.as_secs_f64());
                        }
                        done.lock().expect("replay sink poisoned").extend(replayed);
                    }
                    (Err(e), _) | (_, Err(e)) => {
                        errors.lock().expect("error sink poisoned").push(e);
                    }
                }
            });
        }
    });
    if let Some(e) = errors.into_inner().expect("error sink poisoned").pop() {
        return Err(e);
    }
    let mut done = done.into_inner().expect("replay sink poisoned");
    done.sort_by_key(|r| r.cell);
    Ok((ratios.into_inner().expect("ratio sink poisoned"), done))
}

/// The traced pass: an untraced harness sweep, then the same cells
/// replayed through public calls with spans on (and, when `overhead`,
/// each lane batch paired with an untraced run of itself to price the
/// tracing: the median pair ratio). The replay must
/// reproduce the sweep exactly: same keys, same results, same cache
/// bytes. `full` replays all 144 cells; otherwise the first two
/// workloads under every policy.
pub fn traced(full: bool, overhead: bool, work: &WorkDir, out: &mut Outcome) -> Recorder {
    let mut spec = spec();
    if !full {
        let workloads = spec.workload_axis()[..2].to_vec();
        spec = SweepSpec::new(workloads)
            .variant(spec.variant_axis()[0].clone())
            .policies(spec.policy_axis().to_vec());
    }
    let rec = Recorder::enabled();
    let sweep_dir = work.fresh("table8-traced-sweep");
    let res = match runner(library(work), &sweep_dir).run(spec.clone()) {
        Ok(res) => res,
        Err(e) => {
            out.error(format!("traced sweep failed: {e}"));
            return rec;
        }
    };
    let n = res.outcomes().len() as u64;
    out.attempted += 2 * n;
    if full {
        check_sweep(out, &res, "traced-run sweep");
    }
    let version =
        std::fs::read_to_string(sweep_dir.join(format!("{}.json", res.outcomes()[0].key)))
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .and_then(|j| {
                Some(
                    j.field("inputs")
                        .ok()?
                        .field("version")
                        .ok()?
                        .as_str()
                        .ok()?
                        .to_string(),
                )
            })
            .unwrap_or_default();

    let on_dir = work.fresh("table8-replay-on");
    let off_dir = overhead.then(|| work.fresh("table8-replay-off"));
    let (ratios, replayed) = match replay(&spec, &rec, &version, &on_dir, off_dir.as_deref(), work)
    {
        Ok(r) => r,
        Err(e) => {
            out.failed += n;
            out.error(format!("traced replay failed: {e}"));
            return rec;
        }
    };

    let mut wrong = 0;
    for r in &replayed {
        let o = &res.outcomes()[r.cell];
        let same_bytes = std::fs::read(sweep_dir.join(format!("{}.json", o.key))).ok()
            == std::fs::read(on_dir.join(format!("{}.json", r.key))).ok();
        if r.key != o.key
            || r.result != o.result
            || r.read_back.as_ref() != Some(&o.result)
            || !same_bytes
        {
            wrong += 1;
        }
    }
    if wrong > 0 || replayed.len() != res.outcomes().len() {
        out.failed += wrong;
        out.error(format!(
            "traced replay differs from the harness sweep in {wrong} of {n} cells"
        ));
    }

    let agg = by_name(&rec.spans());
    let med = |name: &str| agg.get(name).map_or(f64::NAN, |s| median(&s.durs_ns));
    let dt = library(work).trace(&benchmarks()[0]).dt();
    let steps = (spec.variant_axis()[0].sim.duration / dt).round();
    let lane_steps = n as f64 * steps;
    let lockstep_ns = agg
        .get("LockstepBatch::run")
        .map_or(f64::NAN, |s| s.total_ns as f64);
    let queued: Vec<f64> = res.outcomes().iter().map(|o| ms(o.queued)).collect();
    out.metric(
        "workloads.trace_load_ms",
        med("TraceLibrary::trace") / 1e6,
        "ms",
    );
    out.metric(
        "core.sim_build_us",
        med("Experiment::build_with_traces") / 1e3,
        "us",
    );
    out.metric(
        "core.lockstep_ns_per_lane_step",
        lockstep_ns / lane_steps,
        "ns",
    );
    out.metric("harness.cell_key_us", med("cell_key") / 1e3, "us");
    out.metric(
        "harness.cache_store_us",
        med("ResultCache::store") / 1e3,
        "us",
    );
    out.metric(
        "harness.cache_load_us",
        med("ResultCache::load") / 1e3,
        "us",
    );
    out.metric("harness.cell_queue_ms", median(&queued), "ms");
    if overhead {
        out.metric("obs.trace_overhead_frac", median(&ratios) - 1.0, "ratio");
    }
    out.detail("table8_traced_cells", Json::u64(n));
    rec
}
