//! `tracegen-cold`: power traces generated from nothing at the
//! paper-default `TraceGenConfig` (core model → power model), then read
//! back through the disk trace cache.

use crate::check;
use crate::common::{load_threads, ms, proc_status_kb, tail_json, Outcome, WorkDir};
use crate::spans::{by_name, Ctx, Recorder};
use crate::stats::{median, windowed_tail, Rng, Tail};
use dtm_harness::json::Json;
use dtm_microarch::CoreSim;
use dtm_power::PowerTrace;
use dtm_workloads::{benchmark, Benchmark, TraceGenConfig, TraceLibrary};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The fixed benchmark set: three integer and three floating-point
/// programs, two of them phase-varying.
pub const SET: [&str; 6] = ["gzip", "mcf", "bzip2", "swim", "art", "ammp"];

/// Share of the window spent generating; disk-cache reads fill the rest.
const COLD_SHARE: f64 = 0.85;

/// Generation passes made even when the window is already spent: four
/// passes give the latency tail enough samples to sit above the median.
const MIN_PASSES: usize = 4;

/// Trace reads after each pass, at least (enough for a per-pass tail).
const MIN_READS_PER_PASS: usize = 100;

fn set() -> Vec<Benchmark> {
    SET.iter().map(|n| benchmark(n)).collect()
}

/// Set-up before the first sample: build each core model and run its
/// cache/predictor warm-up.
pub fn setup() -> f64 {
    let cfg = TraceGenConfig::default();
    let t0 = Instant::now();
    for b in set() {
        let mut core = CoreSim::new(cfg.core.clone(), b.profile, b.seed());
        std::hint::black_box(core.run_cycles(cfg.warmup_cycles.max(1)));
    }
    t0.elapsed().as_secs_f64()
}

/// Reads (or, on a cold directory, generates and writes) one trace
/// through a fresh library, as a new process would.
fn through_library(b: &Benchmark, dir: &Path) -> Arc<PowerTrace> {
    TraceLibrary::new(TraceGenConfig::default())
        .with_disk_cache(dir)
        .trace(b)
}

/// One generation pass over the set on the load threads, in a
/// seed-chosen order. Returns each trace with its generation time.
fn pass(order: &[Benchmark], dir: &Path) -> Vec<(Arc<PowerTrace>, Duration)> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..load_threads() {
            s.spawn(|| {
                while let Some(b) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let t0 = Instant::now();
                    let t = through_library(b, dir);
                    let wall = t0.elapsed();
                    done.lock().expect("pass sink poisoned").push((t, wall));
                }
            });
        }
    });
    done.into_inner().expect("pass sink poisoned")
}

fn check_one(out: &mut Outcome, t: &PowerTrace) {
    if let Err(e) = check::check_trace(t, check::TRACE_DIGESTS) {
        out.failed += 1;
        out.error(e);
    }
}

/// The measured run: whole generation passes over the set, each
/// followed by reads of its traces back through the disk trace cache,
/// [`COLD_SHARE`] of the time generating. `between_cycles` runs after
/// each pass and its reads, outside the timed work.
pub fn run(seed: u64, seconds: f64, work: &WorkDir, between_cycles: &mut dyn FnMut()) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(seed, 0x7ace);
    let threads = load_threads() as f64;
    let start = Instant::now();

    let mut samples = 0usize;
    let mut busy = Duration::ZERO;
    let mut gen_ms = Vec::new();
    let mut read_ms = Vec::new();
    let mut passes = 0;
    // Peak RSS of the process through its first pass.
    let mut peak_mb = None;
    let benches = set();
    // Cycles of one generation pass, then reads of its traces, until the
    // window is spent, so a slow drift in host speed lands on both.
    let mut cycle_s = 0.0;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() + cycle_s / 2.0 < seconds {
        let cycle = Instant::now();
        let mut order = set();
        rng.shuffle(&mut order);
        let dir = work.fresh("tracegen-pass");
        let t0 = Instant::now();
        let generated = pass(&order, &dir);
        let pass_s = t0.elapsed().as_secs_f64();
        peak_mb.get_or_insert_with(|| proc_status_kb("VmHWM").unwrap_or(f64::NAN) / 1024.0);
        for (t, wall) in generated {
            out.attempted += 1;
            check_one(&mut out, &t);
            samples += t.len();
            busy += wall;
            gen_ms.push(ms(wall));
        }
        passes += 1;

        let read_s = pass_s * (1.0 - COLD_SHARE) / COLD_SHARE;
        let reads_start = Instant::now();
        let mut reads = Vec::new();
        while reads.len() < MIN_READS_PER_PASS || reads_start.elapsed().as_secs_f64() < read_s {
            let b = &benches[rng.below(benches.len())];
            let t0 = Instant::now();
            let t = through_library(b, &dir);
            reads.push(ms(t0.elapsed()));
            out.attempted += 1;
            check_one(&mut out, &t);
        }
        read_ms.push(reads);
        between_cycles();
        cycle_s = cycle.elapsed().as_secs_f64();
    }

    // Samples per second of generation with every load thread busy:
    // per-thread busy time excludes the idle tail of each pass.
    let rate = samples as f64 / (busy.as_secs_f64() / threads);
    let cold = Tail::of(&gen_ms).expect("MIN_PASSES passes generate enough traces for a tail");
    let warm = windowed_tail(&read_ms).expect("MIN_READS_PER_PASS reads per pass");
    out.metric("peak_rss_mb", peak_mb.unwrap_or(f64::NAN), "MB");
    out.metric("throughput_per_s", rate, "1/s");
    out.metric("warm_p50_ms", warm.p50, "ms");
    out.metric("warm_p90_ms", warm.p90, "ms");
    out.metric("cold_p50_ms", cold.p50, "ms");
    eprintln!(
        "tracegen-cold: trace_samples_per_s {rate:.1} over {passes} passes of {} traces",
        SET.len()
    );
    out.detail("trace_samples_per_s", Json::f64(rate));
    out.detail("passes", Json::usize(passes));
    out.detail("traces_generated", Json::usize(gen_ms.len()));
    out.detail("trace_reads", Json::usize(warm.n));
    out.detail("cold_tail", tail_json(&cold));
    out.detail("warm_tail", tail_json(&warm));
    out
}

/// `generate_trace` rebuilt from the public calls it makes, with a span
/// around each: `CoreSim::new`, the warm-up `CoreSim::run_cycles`, and
/// per sample `CoreSim::run_sample` then `PowerModel::convert`.
fn generate_spanned(b: &Benchmark, cfg: &TraceGenConfig, rec: &Recorder, root: Ctx) -> PowerTrace {
    rec.span("generate_trace", root, |ctx| {
        let mut target = cfg.samples.max(1);
        if let Some(phase) = &b.phase {
            let period = phase.period_samples as usize;
            target = target.div_ceil(period) * period;
        }
        let mut core = rec.span("CoreSim::new", ctx, |_| {
            CoreSim::new(cfg.core.clone(), b.profile, b.seed())
        });
        rec.span("CoreSim::run_cycles", ctx, |_| {
            core.run_cycles(cfg.warmup_cycles.max(1))
        });
        let mut samples = Vec::with_capacity(target);
        for i in 0..target {
            if let Some(phase) = &b.phase {
                let pos = i % phase.period_samples as usize;
                let in_base = (pos as f64) < phase.base_duty * phase.period_samples as f64;
                core.set_profile(if in_base { b.profile } else { phase.alt });
            }
            let activity = rec.span("CoreSim::run_sample", ctx, |_| {
                core.run_sample(cfg.sampling)
            });
            samples.push(rec.span("PowerModel::convert", ctx, |_| cfg.power.convert(&activity)));
        }
        PowerTrace::new(b.name.clone(), cfg.core.sample_period(), samples)
    })
}

/// Generates `order` on the load threads through [`generate_spanned`]
/// with spans on. With `paired`, each benchmark is also generated with
/// spans off next to its traced run (alternating which goes first), and
/// the on/off wall ratio of each pair is returned.
fn spanned_pass(order: &[Benchmark], rec: &Recorder, paired: bool) -> (Vec<f64>, Vec<PowerTrace>) {
    let cfg = TraceGenConfig::default();
    let untraced = Recorder::disabled();
    let next = AtomicUsize::new(0);
    let done = Mutex::new((Vec::new(), Vec::new()));
    std::thread::scope(|s| {
        for _ in 0..load_threads() {
            s.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let Some(b) = order.get(j) else { break };
                let timed = |rec: &Recorder| {
                    let t0 = Instant::now();
                    let t = generate_spanned(b, &cfg, rec, Ctx::root(j as u64 + 1));
                    (t0.elapsed(), t)
                };
                let off = || paired.then(|| timed(&untraced));
                let (off, (on_wall, t)) = if j.is_multiple_of(2) {
                    (off(), timed(rec))
                } else {
                    let on = timed(rec);
                    (off(), on)
                };
                let mut done = done.lock().expect("pass sink poisoned");
                if let Some((off_wall, off_trace)) = off {
                    done.0.push(on_wall.as_secs_f64() / off_wall.as_secs_f64());
                    done.1.push(off_trace);
                }
                done.1.push(t);
            });
        }
    });
    done.into_inner().expect("pass sink poisoned")
}

/// The traced pass: the set in seed order (or, unless `full`, its
/// first two benchmarks) generated through spanned public calls; every
/// trace must match its pinned digest, which `generate_trace` itself is
/// held to.
pub fn traced(seed: u64, full: bool, overhead: bool, out: &mut Outcome) -> Recorder {
    let mut order = set();
    if full {
        Rng::new(seed, 0x7ace).shuffle(&mut order);
    } else {
        order.truncate(2);
    }
    let rec = Recorder::enabled();
    let (ratios, traces) = spanned_pass(&order, &rec, overhead);
    for t in &traces {
        out.attempted += 1;
        check_one(out, t);
    }

    let agg = by_name(&rec.spans());
    let cfg = TraceGenConfig::default();
    let sample = agg.get("CoreSim::run_sample").cloned().unwrap_or_default();
    let simulated_cycles =
        sample.count as f64 * (dtm_microarch::CoreConfig::CYCLES_PER_SAMPLE / cfg.sampling) as f64;
    let convert = agg
        .get("PowerModel::convert")
        .map_or(f64::NAN, |s| median(&s.durs_ns));
    out.metric(
        "microarch.run_sample_us",
        median(&sample.durs_ns) / 1e3,
        "us",
    );
    out.metric(
        "microarch.mcycles_per_s",
        simulated_cycles / (sample.total_ns as f64 / 1e9) / 1e6,
        "Mcycle/s",
    );
    out.metric("power.convert_ns", convert, "ns");
    if overhead {
        out.metric("obs.trace_overhead_frac", median(&ratios) - 1.0, "ratio");
    }
    rec
}
