//! Power-trace generation and caching.
//!
//! Mirrors the study's toolflow (Figure 2): each benchmark is run through
//! the performance model (Turandot role) and the power model (PowerTimer
//! role) to produce a looping power trace of 27.78 µs samples, which the
//! thermal/timing simulator then replays under DTM control.

use crate::profiles::Benchmark;
use dtm_microarch::{CoreConfig, CoreSim};
use dtm_power::{PowerModel, PowerTrace};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Trace-generation parameters.
#[derive(Debug, Clone)]
pub struct TraceGenConfig {
    /// Core model configuration.
    pub core: CoreConfig,
    /// Power calibration.
    pub power: PowerModel,
    /// Trace length in samples (before looping). 720 samples = 20 ms.
    pub samples: usize,
    /// Statistical sampling factor for the performance model (1 = exact;
    /// 5 simulates 20 k of every 100 k cycles and extrapolates).
    pub sampling: u64,
    /// Warm-up cycles before recording (cache/predictor warm-up).
    pub warmup_cycles: u64,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        let core = CoreConfig::default();
        let power = PowerModel::default_90nm(core.clock_hz);
        TraceGenConfig {
            core,
            power,
            samples: 720,
            sampling: 5,
            warmup_cycles: 500_000,
        }
    }
}

impl TraceGenConfig {
    /// A small/fast configuration for unit tests.
    pub fn fast_test() -> Self {
        TraceGenConfig {
            samples: 72,
            sampling: 10,
            warmup_cycles: 100_000,
            ..TraceGenConfig::default()
        }
    }
}

/// Generates the looping power trace for one benchmark.
///
/// Phase-varying benchmarks switch stream profiles inside the trace
/// according to their [`crate::PhaseSpec`]; the trace length is extended
/// to a whole number of phase periods so the loop is seamless.
pub fn generate_trace(bench: &Benchmark, cfg: &TraceGenConfig) -> PowerTrace {
    let mut samples_target = cfg.samples.max(1);
    if let Some(phase) = &bench.phase {
        let period = phase.period_samples as usize;
        samples_target = samples_target.div_ceil(period) * period;
    }

    let mut core = CoreSim::new(cfg.core.clone(), bench.profile, bench.seed());
    core.run_cycles(cfg.warmup_cycles.max(1));

    let mut samples = Vec::with_capacity(samples_target);
    // The core starts on the base profile; switch only on a transition.
    let mut in_base = true;
    for i in 0..samples_target {
        if let Some(phase) = &bench.phase {
            let pos = i % phase.period_samples as usize;
            let base_now = (pos as f64) < phase.base_duty * phase.period_samples as f64;
            if base_now != in_base {
                in_base = base_now;
                core.set_profile(if in_base { bench.profile } else { phase.alt });
            }
        }
        let activity = core.run_sample(cfg.sampling);
        samples.push(cfg.power.convert(&activity));
    }
    PowerTrace::new(bench.name.clone(), cfg.core.sample_period(), samples)
}

/// A thread-safe, lazily-populated cache of benchmark traces.
///
/// Trace generation is deterministic, so the cache is purely a
/// performance optimization for experiment drivers that replay the same
/// benchmark in many workloads and policies.
#[derive(Debug)]
pub struct TraceLibrary {
    cfg: TraceGenConfig,
    cache: Mutex<HashMap<String, Arc<PowerTrace>>>,
    disk_dir: Option<PathBuf>,
    decodes: AtomicU64,
}

impl TraceLibrary {
    /// Creates an empty library with the given generation parameters.
    pub fn new(cfg: TraceGenConfig) -> Self {
        TraceLibrary {
            cfg,
            cache: Mutex::new(HashMap::new()),
            disk_dir: None,
            decodes: AtomicU64::new(0),
        }
    }

    /// Enables a persistent on-disk cache: traces are stored under
    /// `dir` keyed by benchmark name and a fingerprint of the
    /// generation parameters, so reruns (and other processes) skip the
    /// expensive performance-model pass. Generation is deterministic,
    /// making the cache purely an optimization.
    pub fn with_disk_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_dir = Some(dir.into());
        self
    }

    /// A stable fingerprint of the generation parameters (FNV-1a over
    /// the salient fields), used in disk-cache file names.
    fn fingerprint(&self) -> u64 {
        let cfg = &self.cfg;
        let repr = format!(
            "{:?}|{:?}|{}|{}|{}",
            cfg.core, cfg.power, cfg.samples, cfg.sampling, cfg.warmup_cycles
        );
        repr.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn disk_path(&self, bench_name: &str) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{bench_name}-{:016x}.dtmtrace", self.fingerprint())))
    }

    /// The generation configuration.
    pub fn config(&self) -> &TraceGenConfig {
        &self.cfg
    }

    /// Returns (generating on first use) the trace for `bench`.
    pub fn trace(&self, bench: &Benchmark) -> Arc<PowerTrace> {
        if let Some(t) = self
            .cache
            .lock()
            .expect("trace cache poisoned")
            .get(&bench.name)
        {
            return Arc::clone(t);
        }
        // Try the disk cache, then generate. Both happen outside the
        // lock; duplicate generation on a race is harmless
        // (deterministic output).
        self.decodes.fetch_add(1, Ordering::Relaxed);
        let trace = Arc::new(self.load_or_generate(bench));
        let mut cache = self.cache.lock().expect("trace cache poisoned");
        Arc::clone(cache.entry(bench.name.clone()).or_insert(trace))
    }

    fn load_or_generate(&self, bench: &Benchmark) -> PowerTrace {
        if let Some(path) = self.disk_path(&bench.name) {
            if let Ok(file) = std::fs::File::open(&path) {
                if let Ok(trace) = PowerTrace::read_from(std::io::BufReader::new(file)) {
                    return trace;
                }
                // Corrupt cache entry: fall through and regenerate.
            }
            let trace = generate_trace(bench, &self.cfg);
            // Best-effort write; failures (read-only media, races) are
            // not errors.
            if std::fs::create_dir_all(path.parent().expect("cache path has parent")).is_ok() {
                let tmp = path.with_extension("tmp");
                if let Ok(file) = std::fs::File::create(&tmp) {
                    if trace.write_to(std::io::BufWriter::new(file)).is_ok() {
                        let _ = std::fs::rename(&tmp, &path);
                    }
                }
            }
            return trace;
        }
        generate_trace(bench, &self.cfg)
    }

    /// Number of traces currently cached.
    pub fn cached(&self) -> usize {
        self.cache.lock().expect("trace cache poisoned").len()
    }

    /// How many times a [`TraceLibrary::trace`] call missed the
    /// in-memory memo and had to decode (disk-load or regenerate) a
    /// trace. Executors that hoist trace resolution out of their hot
    /// loop assert this stays at one decode per distinct benchmark.
    pub fn decode_count(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }
}

impl Default for TraceLibrary {
    fn default() -> Self {
        TraceLibrary::new(TraceGenConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::benchmark;
    use dtm_floorplan::UnitKind;

    #[test]
    fn trace_generation_is_deterministic() {
        let cfg = TraceGenConfig::fast_test();
        let b = benchmark("gzip");
        let t1 = generate_trace(&b, &cfg);
        let t2 = generate_trace(&b, &cfg);
        assert_eq!(t1, t2);
    }

    #[test]
    fn gzip_trace_is_int_rf_dominated() {
        let t = generate_trace(&benchmark("gzip"), &TraceGenConfig::fast_test());
        assert!(t.mean_unit_power(UnitKind::IntRegFile) > t.mean_unit_power(UnitKind::FpRegFile));
        assert!(t.mean_core_power() > 3.0);
    }

    #[test]
    fn lucas_trace_is_fp_rf_dominated() {
        let t = generate_trace(&benchmark("lucas"), &TraceGenConfig::fast_test());
        assert!(t.mean_unit_power(UnitKind::FpRegFile) > t.mean_unit_power(UnitKind::IntRegFile));
    }

    #[test]
    fn mcf_is_much_cooler_than_gzip() {
        let cfg = TraceGenConfig::fast_test();
        let gzip = generate_trace(&benchmark("gzip"), &cfg);
        let mcf = generate_trace(&benchmark("mcf"), &cfg);
        assert!(mcf.mean_core_power() < 0.75 * gzip.mean_core_power());
        assert!(mcf.mean_ipc() < 0.5 * gzip.mean_ipc());
    }

    #[test]
    fn phased_benchmark_trace_length_is_whole_periods() {
        let cfg = TraceGenConfig::fast_test();
        let b = benchmark("bzip2");
        let t = generate_trace(&b, &cfg);
        let period = b.phase.unwrap().period_samples as usize;
        assert_eq!(t.len() % period, 0);
    }

    #[test]
    fn phased_benchmark_power_varies_within_trace() {
        let mut cfg = TraceGenConfig::fast_test();
        cfg.samples = 360;
        let b = benchmark("bzip2");
        let t = generate_trace(&b, &cfg);
        let period = b.phase.unwrap().period_samples as u64;
        let duty = b.phase.unwrap().base_duty;
        let split = (duty * period as f64) as u64;
        let base_mean: f64 =
            (0..split).map(|i| t.sample(i).core_power()).sum::<f64>() / split as f64;
        let alt_mean: f64 = (split..period)
            .map(|i| t.sample(i).core_power())
            .sum::<f64>()
            / (period - split) as f64;
        assert!(
            base_mean > alt_mean * 1.1,
            "base {base_mean} vs alt {alt_mean}"
        );
    }

    #[test]
    fn disk_cache_round_trips() {
        let dir = std::env::temp_dir().join(format!("dtm-trace-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = benchmark("eon");
        let lib1 = TraceLibrary::new(TraceGenConfig::fast_test()).with_disk_cache(&dir);
        let t1 = lib1.trace(&b);
        // A fresh library instance must read the cached file and produce
        // an identical trace.
        let lib2 = TraceLibrary::new(TraceGenConfig::fast_test()).with_disk_cache(&dir);
        let t2 = lib2.trace(&b);
        assert_eq!(*t1, *t2);
        // The cache file exists and has the fingerprinted name.
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_disk_cache_entry_is_regenerated_and_repaired() {
        let dir = std::env::temp_dir().join(format!("dtm-trace-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = benchmark("applu");
        let lib1 = TraceLibrary::new(TraceGenConfig::fast_test()).with_disk_cache(&dir);
        let t1 = lib1.trace(&b);

        // Truncate the cache file mid-record, as a crashed or
        // out-of-disk writer would leave it.
        let path = lib1.disk_path(&b.name).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 3]).unwrap();

        // A fresh library must fall back to regeneration, produce the
        // identical trace, and repair the cache entry on the way out.
        let lib2 = TraceLibrary::new(TraceGenConfig::fast_test()).with_disk_cache(&dir);
        let t2 = lib2.trace(&b);
        assert_eq!(*t1, *t2);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            full,
            "regeneration must rewrite the damaged entry"
        );

        // Same for garbage content (wrong magic / random bytes).
        std::fs::write(&path, b"not a trace file").unwrap();
        let lib3 = TraceLibrary::new(TraceGenConfig::fast_test()).with_disk_cache(&dir);
        assert_eq!(*lib3.trace(&b), *t1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_configs_use_different_cache_keys() {
        let lib_a = TraceLibrary::new(TraceGenConfig::fast_test());
        let mut cfg_b = TraceGenConfig::fast_test();
        cfg_b.samples *= 2;
        let lib_b = TraceLibrary::new(cfg_b);
        assert_ne!(lib_a.fingerprint(), lib_b.fingerprint());
    }

    #[test]
    fn library_caches_traces() {
        let lib = TraceLibrary::new(TraceGenConfig::fast_test());
        let b = benchmark("mesa");
        let t1 = lib.trace(&b);
        let t2 = lib.trace(&b);
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(lib.cached(), 1);
    }
}
