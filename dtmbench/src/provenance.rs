//! Where a number came from: host, toolchain, build flags and source.

use crate::stats::Digest;
use dtm_harness::json::Json;
use std::path::{Path, PathBuf};

/// The provenance fields recorded beside every run.
pub fn fields() -> Vec<(String, Json)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();
    let flags = env!("DTMBENCH_RUSTFLAGS");
    vec![
        ("cpu_model".into(), Json::str(cpu_model())),
        (
            "nproc".into(),
            Json::usize(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("rustc".into(), Json::str(env!("DTMBENCH_RUSTC"))),
        ("rustflags".into(), Json::str(flags)),
        (
            "target_cpu_native".into(),
            Json::Bool(flags.contains("target-cpu=native")),
        ),
        ("git_rev".into(), Json::str(git_rev(&root))),
        (
            "source_digest".into(),
            Json::str(format!("{:016x}", source_digest(&root))),
        ),
    ]
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `git rev-parse HEAD` when the repository root is itself a git work
/// tree; `none` otherwise (a plain source checkout).
fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// FNV-1a over the workspace manifest, lock file and every file under
/// `crates/`, in path order: identifies the measured source even where
/// there is no git metadata.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            d.bytes(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            )
            .bytes(&bytes);
        }
    }
    d.finish()
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}

/// The host's CPU time counters from `/proc/stat`: (steal, total) in
/// clock ticks, summed over all CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = text
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user time.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Share of the host's CPU time the hypervisor gave to others between
/// two [`cpu_ticks`] readings: the noise a run could not control.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Json {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            Json::f64((s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => Json::Null,
    }
}
