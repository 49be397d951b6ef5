//! `dtmbench`: one benchmark command for the DTM simulator.
//!
//! ```text
//! cargo run --release --manifest-path dtmbench/Cargo.toml -- \
//!     --workload <table8-paper|tracegen-cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics;
//! with `--trace 1` it makes the traced pass instead and reports the
//! per-layer metrics. Either way the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`, and
//! any wrong output makes the exit code non-zero. See `README.md`.

mod check;
mod common;
mod heap;
mod layers;
mod provenance;
mod serve;
mod spans;
mod stats;
mod table8;
mod tracegen;

use common::{floats, Metric, Outcome, WorkDir};
use dtm_harness::json::Json;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// The workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: [&str; 2] = ["table8-paper", "tracegen-cold"];

/// End-to-end metrics every `--trace 0` run reports, in order.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mb",
    "ok_frac",
    "throughput_per_s",
    "warm_p50_ms",
    "warm_p90_ms",
    "cold_p50_ms",
];

/// Per-layer metrics every `--trace 1` run reports (plus the nine
/// `core.phase.<phase>_ns_per_step` entries).
pub const PER_LAYER: [&str; 22] = [
    "microarch.run_sample_us",
    "microarch.mcycles_per_s",
    "power.convert_ns",
    "workloads.trace_load_ms",
    "thermal.model_build_us",
    "thermal.propagator_build_us",
    "thermal.matmul_strided_ns_per_lane",
    "thermal.step_batch_ns_per_lane",
    "thermal.affine_matvec_ns",
    "thermal.step_scalar_ns",
    "core.sim_build_us",
    "core.step_ns",
    "core.lockstep_ns_per_lane_step",
    "harness.cell_key_us",
    "harness.cache_load_us",
    "harness.cache_store_us",
    "harness.cell_queue_ms",
    "serve.queue_wait_us",
    "serve.memo_hit_frac",
    "serve.encode_us",
    "serve.memo_kb_per_unique_seed",
    "obs.trace_overhead_frac",
];

/// The fewest set-up samples a run reports, each from a fresh process:
/// more for the Table 8 set-up, which takes tens of milliseconds, than
/// for trace generation's, which takes a quarter of a second.
fn setup_samples(workload: &str) -> usize {
    if workload == "table8-paper" {
        15
    } else {
        11
    }
}

/// Set-up samples `table8-paper` and `tracegen-cold` take after each of
/// their cycles. The host's speed switches between modes that last
/// seconds, so samples spread over the run vary less from run to run
/// than samples taken back to back.
const SETUP_PER_CYCLE: usize = 3;

/// Seconds of mixed serving in the traced run's serving probe.
const SERVE_PROBE_S: f64 = 3.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: dtmbench --workload <table8-paper|tracegen-cold> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Set-up time samples, each taken in a fresh process so that every
/// sample pays the process-wide caches' cold start.
struct SetupProbe<'a> {
    workload: &'a str,
    samples: Vec<f64>,
    failures: usize,
}

impl<'a> SetupProbe<'a> {
    fn new(workload: &'a str) -> Self {
        SetupProbe {
            workload,
            samples: Vec::new(),
            failures: 0,
        }
    }

    /// Takes `n` more samples.
    fn take(&mut self, n: usize) {
        let exe = std::env::current_exe().expect("own executable path");
        for _ in 0..n {
            let child = Command::new(&exe)
                .args(["--setup-probe", self.workload])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let parsed = child.ok().filter(|o| o.status.success()).and_then(|o| {
                String::from_utf8(o.stdout)
                    .ok()?
                    .trim()
                    .strip_prefix("setup_s ")?
                    .parse::<f64>()
                    .ok()
            });
            match parsed {
                Some(s) => self.samples.push(s),
                None => self.failures += 1,
            }
        }
    }

    /// Tops the samples up to [`setup_samples`] and returns their
    /// median.
    fn finish(mut self, out: &mut Outcome) -> f64 {
        let want = setup_samples(self.workload);
        self.take(want.saturating_sub(self.samples.len() + self.failures));
        if self.failures > 0 {
            out.error(format!(
                "{} of {} {} set-up probes failed",
                self.failures,
                self.failures + self.samples.len(),
                self.workload
            ));
        }
        if self.samples.is_empty() {
            return f64::NAN;
        }
        out.detail("setup_samples_s", floats(&self.samples));
        stats::median(&self.samples)
    }
}

/// Fills the disk trace cache in a child process; true on success.
fn fill_trace_cache() -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    Command::new(exe)
        .arg("--fill-trace-cache")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// The measured (untraced) run of one workload.
fn measured(args: &Args, work: &WorkDir) -> Outcome {
    let mut probe = SetupProbe::new(&args.workload);
    let mut out = match args.workload.as_str() {
        "table8-paper" => table8::run(args.seconds, work, &mut || probe.take(SETUP_PER_CYCLE)),
        _ => tracegen::run(args.seed, args.seconds, work, &mut || {
            probe.take(SETUP_PER_CYCLE)
        }),
    };
    let setup_s = probe.finish(&mut out);
    let ok = (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted.max(1) as f64;
    out.metric("setup_s", setup_s, "s");
    out.metric("ok_frac", ok, "ratio");
    out
}

/// The traced run: the named workload's traced pass at full size with
/// its tracing overhead, the other workload's traced pass at probe size
/// (so every layer is reported on every workload), the serving probe,
/// and the direct kernel and engine probes. Spans are written under
/// `work/traces/`.
fn traced(args: &Args, work: &WorkDir) -> Outcome {
    let mut out = Outcome::default();
    let w = args.workload.as_str();
    let recs = [
        (
            "table8",
            table8::traced(w == "table8-paper", w == "table8-paper", work, &mut out),
        ),
        (
            "tracegen",
            tracegen::traced(
                args.seed,
                w == "tracegen-cold",
                w == "tracegen-cold",
                &mut out,
            ),
        ),
        ("serve", serve::traced(args.seed, SERVE_PROBE_S, &mut out)),
        ("probes", layers::probes(&mut out)),
    ];
    for (pass, rec) in &recs {
        print_self_times(pass, rec);
        let path = work
            .root()
            .join("traces")
            .join(format!("{w}-seed{}-{pass}.json", args.seed));
        if let Err(e) = rec.write_chrome(&path) {
            eprintln!("dtmbench: could not write {}: {e}", path.display());
        }
    }
    out
}

/// Per span name: count, total and self time (stderr).
fn print_self_times(pass: &str, rec: &spans::Recorder) {
    eprintln!(
        "{pass}: {:<34} {:>9} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, s) in spans::by_name(&rec.spans()) {
        eprintln!(
            "{pass}: {name:<34} {:>9} {:>12.3} {:>12.3}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }
}

fn result_json(out: &Outcome, metrics: &[Metric]) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.errors.is_empty())),
        ("attempted".into(), Json::u64(out.attempted.max(1))),
        ("failed".into(), Json::u64(out.failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::f64(m.value)),
                                ("unit".into(), Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 2 && argv[1] == "--fill-trace-cache" {
        table8::fill_trace_cache(&WorkDir::new());
        return ExitCode::SUCCESS;
    }
    if argv.len() == 3 && argv[1] == "--setup-probe" {
        let secs = match argv[2].as_str() {
            "table8-paper" => table8::setup(),
            "tracegen-cold" => tracegen::setup(),
            _ => return ExitCode::from(2),
        };
        println!("setup_s {secs:?}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dtmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir::new();
    // Table 8, measured or traced, replays paper-default traces from the
    // checkout's disk trace cache. A child process fills it outside any
    // timed region, so this process's VmHWM never holds the fill.
    if (args.trace || args.workload == "table8-paper") && !fill_trace_cache() {
        eprintln!("dtmbench: filling the trace cache failed");
        return ExitCode::FAILURE;
    }
    let ticks = provenance::cpu_ticks();
    let mut out = if args.trace {
        traced(&args, &work)
    } else {
        measured(&args, &work)
    };
    out.detail(
        "host_steal_frac",
        provenance::steal_frac(ticks, provenance::cpu_ticks()),
    );
    work.clean();
    if out.failed > 0 && out.errors.is_empty() {
        out.error(format!("{} operations failed", out.failed));
    }

    let expected: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|s| s.to_string())
            .chain(
                dtm_core::ENGINE_PHASES
                    .iter()
                    .map(|p| format!("core.phase.{p}_ns_per_step")),
            )
            .collect()
    } else {
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let mut metrics = Vec::new();
    for name in &expected {
        match out.metrics.iter().find(|m| &m.name == name) {
            Some(m) if m.value.is_finite() => metrics.push(m.clone()),
            _ => out.error(format!("metric {name} was not measured")),
        }
    }
    for m in &metrics {
        eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }

    let mut record = vec![
        ("workload".into(), Json::str(&args.workload)),
        ("seed".into(), Json::u64(args.seed)),
        ("seconds".into(), Json::f64(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "unix_time".into(),
            Json::u64(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs()),
            ),
        ),
    ];
    record.extend(provenance::fields());
    let provenance = Json::Obj(record.clone()).emit();
    record.extend(out.details.clone());
    record.push(("result".into(), result_json(&out, &metrics)));
    if let Err(e) = append_record(&work, &Json::Obj(record)) {
        eprintln!("dtmbench: could not append the run record: {e}");
    }

    println!("provenance {provenance}");
    println!("{}", result_json(&out, &metrics).emit());
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Appends one line to `work/runs.jsonl`: provenance, details, result.
fn append_record(work: &WorkDir, rec: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(work.root())?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(work.root().join("runs.jsonl"))?;
    f.write_all((rec.emit() + "\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this binary agree on the metric names.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            spec.field(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| m.field("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        let mut per_layer: Vec<String> = PER_LAYER.iter().map(|s| s.to_string()).collect();
        per_layer.extend(
            dtm_core::ENGINE_PHASES
                .iter()
                .map(|p| format!("core.phase.{p}_ns_per_step")),
        );
        let mut listed = names("per_layer");
        listed.sort();
        per_layer.sort();
        assert_eq!(listed, per_layer);
        assert_eq!(names("workloads"), WORKLOADS);
    }
}
