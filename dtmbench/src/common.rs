//! Types and helpers every workload shares: the result of one run, the
//! benchmark's working directory, and host facts.

use dtm_harness::json::Json;
use std::path::{Path, PathBuf};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, traces, requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Correctness failures, one line each; any entry fails the run.
    pub errors: Vec<String>,
    /// Measurements, in report order.
    pub metrics: Vec<Metric>,
    /// Extra facts for the run record (counts, sample sizes, phases).
    pub details: Vec<(String, Json)>,
}

impl Outcome {
    /// Adds a measurement.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a record-only fact.
    pub fn detail(&mut self, name: &str, value: Json) {
        self.details.push((name.to_string(), value));
    }

    /// Records a correctness failure.
    pub fn error(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("dtmbench: CHECK FAILED: {msg}");
        self.errors.push(msg);
    }
}

/// The benchmark's working directory (`work/` beside its manifest):
/// the persistent trace cache, per-run scratch space, span dumps and
/// the run record.
#[derive(Debug, Clone)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// The working directory of this build of the benchmark.
    pub fn new() -> Self {
        WorkDir(Path::new(env!("CARGO_MANIFEST_DIR")).join("work"))
    }

    /// Root of the working directory.
    pub fn root(&self) -> &Path {
        &self.0
    }

    /// Disk trace cache at the paper-default `TraceGenConfig`, shared
    /// by every run in this checkout.
    pub fn trace_cache(&self) -> PathBuf {
        self.0.join("trace-cache")
    }

    /// A fresh, empty scratch directory private to this process.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let d = self.scratch_root().join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create scratch directory");
        d
    }

    /// Parent of this process's scratch directories.
    fn scratch_root(&self) -> PathBuf {
        self.0.join("tmp").join(std::process::id().to_string())
    }

    /// Removes this process's scratch directories.
    pub fn clean(&self) {
        let _ = std::fs::remove_dir_all(self.scratch_root());
    }
}

/// Load threads / workers / connections the workloads use: at most two,
/// and no more than the host's parallelism.
pub fn load_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// A `VmHWM` / `VmRSS` style field of `/proc/self/status`, in KiB.
pub fn proc_status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A JSON array of numbers, for the run record.
pub fn floats(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::f64(x)).collect())
}

/// `{"n", "p50", "p90", "tail", "tail_pct"}` for the run record.
pub fn tail_json(t: &crate::stats::Tail) -> Json {
    Json::Obj(vec![
        ("n".into(), Json::usize(t.n)),
        ("p50".into(), Json::f64(t.p50)),
        ("p90".into(), Json::f64(t.p90)),
        ("tail".into(), Json::f64(t.tail)),
        ("tail_pct".into(), Json::f64(t.tail_pct)),
    ])
}
