//! High-level experiment driver: workloads × policies → metrics.

use crate::config::{DtmConfig, SimConfig};
use crate::engine::{SimError, ThermalTimingSim};
use crate::metrics::RunResult;
pub use crate::metrics::SteadyTempSummary;
use crate::policy::PolicySpec;
use crate::telemetry::Telemetry;
use dtm_faults::FaultConfig;
use dtm_obs::ObsHandle;
use dtm_workloads::{Benchmark, TraceLibrary, Workload};
use std::sync::Arc;

/// A reusable experiment context: one trace library plus the simulation
/// and DTM configurations shared by all runs.
///
/// The trace library sits behind an [`Arc`], so contexts are cheap to
/// derive from one another (see [`Experiment::with_dtm`] and
/// [`Experiment::new_shared`]) and the whole context is `Send + Sync`:
/// the `dtm-harness` sweep engine shares one `Experiment` read-only
/// across its worker threads.
///
/// # Examples
///
/// ```no_run
/// use dtm_core::{Experiment, PolicySpec};
/// use dtm_workloads::standard_workloads;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let exp = Experiment::paper_defaults();
/// let w = &standard_workloads()[0];
/// let baseline = exp.run(w, PolicySpec::baseline())?;
/// let best = exp.run(w, PolicySpec::best())?;
/// println!("speedup: {:.2}×", best.relative_throughput(&baseline));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    lib: Arc<TraceLibrary>,
    sim: SimConfig,
    dtm: DtmConfig,
    faults: FaultConfig,
    obs: ObsHandle,
}

impl Experiment {
    /// Creates a context with explicit configurations.
    pub fn new(lib: TraceLibrary, sim: SimConfig, dtm: DtmConfig) -> Self {
        Experiment::new_shared(Arc::new(lib), sim, dtm)
    }

    /// Creates a context sharing an existing trace library. Deriving
    /// many contexts (config sweeps, per-variant overrides) from one
    /// library means every variant reuses the same generated traces.
    pub fn new_shared(lib: Arc<TraceLibrary>, sim: SimConfig, dtm: DtmConfig) -> Self {
        Experiment {
            lib,
            sim,
            dtm,
            faults: FaultConfig::ideal(),
            obs: ObsHandle::disabled(),
        }
    }

    /// The study's configuration: 4 cores, 0.5 s runs, 84.2 °C limit.
    /// Traces are cached on disk under `target/trace-cache` so repeated
    /// experiment processes skip regeneration.
    pub fn paper_defaults() -> Self {
        Experiment::new(
            TraceLibrary::default().with_disk_cache("target/trace-cache"),
            SimConfig::default(),
            DtmConfig::default(),
        )
    }

    /// A fast configuration for tests: short traces and runs.
    pub fn fast_test() -> Self {
        Experiment::new(
            TraceLibrary::new(dtm_workloads::TraceGenConfig::fast_test()),
            SimConfig::fast_test(),
            DtmConfig::default(),
        )
    }

    /// The trace library (exposed for cache pre-warming).
    pub fn library(&self) -> &TraceLibrary {
        &self.lib
    }

    /// A shared handle to the trace library, for building sibling
    /// contexts over the same traces.
    pub fn library_shared(&self) -> Arc<TraceLibrary> {
        Arc::clone(&self.lib)
    }

    /// Replaces the simulation configuration (e.g. for duration or
    /// sensor-noise sweeps), keeping the shared trace library.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// The simulation configuration.
    pub fn sim_config(&self) -> &SimConfig {
        &self.sim
    }

    /// The DTM configuration.
    pub fn dtm_config(&self) -> &DtmConfig {
        &self.dtm
    }

    /// Replaces the DTM configuration (e.g. for threshold sweeps).
    pub fn with_dtm(mut self, dtm: DtmConfig) -> Self {
        self.dtm = dtm;
        self
    }

    /// Replaces the robustness configuration (fault scenario plus
    /// watchdog) applied to every simulator this context builds. The
    /// default is [`FaultConfig::ideal`], which leaves the simulator
    /// bit-identical to a fault-unaware build.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// The robustness configuration.
    pub fn fault_config(&self) -> &FaultConfig {
        &self.faults
    }

    /// Attaches an observability handle to every simulator this context
    /// builds. The default (disabled) handle leaves runs unprofiled and
    /// their results bit-identical to an uninstrumented build.
    pub fn with_obs(mut self, obs: &ObsHandle) -> Self {
        self.obs = obs.clone();
        self
    }

    /// The observability handle.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Builds a simulator for one workload and policy.
    ///
    /// # Errors
    ///
    /// See [`ThermalTimingSim::new`].
    pub fn build(
        &self,
        workload: &Workload,
        policy: PolicySpec,
    ) -> Result<ThermalTimingSim, SimError> {
        let traces = workload
            .resolve()
            .iter()
            .map(|b| self.lib.trace(b))
            .collect();
        self.build_with_traces(traces, policy)
    }

    /// Builds a simulator from already-resolved traces, skipping the
    /// per-build trace-library lookups. Batch executors resolve each
    /// distinct workload's traces once per lane batch and hand the
    /// shared `Arc`s to every lane that replays them.
    ///
    /// # Errors
    ///
    /// See [`ThermalTimingSim::new`].
    pub fn build_with_traces(
        &self,
        traces: Vec<Arc<dtm_power::PowerTrace>>,
        policy: PolicySpec,
    ) -> Result<ThermalTimingSim, SimError> {
        let mut sim = ThermalTimingSim::new(self.sim.clone(), self.dtm, policy, traces)?;
        sim.set_fault_config(&self.faults);
        if self.obs.is_enabled() {
            sim.attach_obs(&self.obs);
        }
        Ok(sim)
    }

    /// Runs one workload under one policy.
    ///
    /// # Errors
    ///
    /// See [`ThermalTimingSim::new`] and [`ThermalTimingSim::run`].
    pub fn run(&self, workload: &Workload, policy: PolicySpec) -> Result<RunResult, SimError> {
        self.build(workload, policy)?.run()
    }

    /// Runs one workload under one policy while recording telemetry
    /// every `stride` steps.
    ///
    /// # Errors
    ///
    /// See [`ThermalTimingSim::run`].
    pub fn run_with_telemetry(
        &self,
        workload: &Workload,
        policy: PolicySpec,
        stride: usize,
    ) -> Result<(RunResult, Telemetry), SimError> {
        let mut sim = self.build(workload, policy)?;
        sim.attach_telemetry(Telemetry::every(stride));
        let result = sim.run()?;
        let telemetry = sim.take_telemetry().expect("telemetry was attached");
        Ok((result, telemetry))
    }
}

/// The single-core unconstrained simulation configuration behind the
/// Table 1 characterization: one core, no thermal limit, baseline
/// policy. Exposed so sweep grids can reproduce Table 1 through the
/// cached harness cell by cell.
pub fn unconstrained_single_core(duration: f64) -> (SimConfig, DtmConfig) {
    (
        SimConfig {
            cores: 1,
            duration,
            ..SimConfig::default()
        },
        DtmConfig::unconstrained(),
    )
}

/// Runs `bench` alone on a single-core chip with no thermal limit and
/// summarizes the hottest sensor over the second half of the run (the
/// engine's built-in steady-state sampling, [`RunResult::steady`]).
///
/// # Errors
///
/// Propagates simulator construction/run failures.
pub fn unconstrained_steady_temp(
    bench: &Benchmark,
    lib: &TraceLibrary,
    duration: f64,
) -> Result<SteadyTempSummary, SimError> {
    let (sim_cfg, dtm) = unconstrained_single_core(duration);
    let trace = lib.trace(bench);
    let mut sim = ThermalTimingSim::new(sim_cfg, dtm, PolicySpec::baseline(), vec![trace])?;
    let result = sim.run()?;
    Ok(result
        .steady
        .expect("a positive-duration run yields steady samples"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_is_shareable_across_threads() {
        // The harness shares one Experiment read-only among its worker
        // pool; a compile-time check that the context stays Send + Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Experiment>();
        assert_send_sync::<TraceLibrary>();
    }

    #[test]
    fn sibling_contexts_share_the_trace_library() {
        let base = Experiment::fast_test();
        let hot = base.clone().with_dtm(DtmConfig::with_threshold(100.0));
        assert!(Arc::ptr_eq(&base.library_shared(), &hot.library_shared()));
        assert!((hot.dtm_config().threshold - 100.0).abs() < 1e-12);
    }

    #[test]
    fn steady_summary_classification() {
        let s = SteadyTempSummary {
            mean: 70.0,
            min: 69.4,
            max: 70.4,
        };
        assert!(s.is_steady(1.5));
        let o = SteadyTempSummary {
            mean: 69.0,
            min: 66.0,
            max: 72.0,
        };
        assert!(!o.is_steady(1.5));
    }
}
