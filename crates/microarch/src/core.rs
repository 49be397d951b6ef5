//! Approximate out-of-order core timing model.
//!
//! The model processes the synthetic instruction stream in program order
//! and computes per-instruction issue/completion timestamps under the
//! structural constraints of Table 3: fetch width (with I-cache misses
//! and branch-mispredict redirects), the in-flight window implied by the
//! rename registers, per-cluster issue-queue depth, functional-unit
//! contention, and the three-level memory hierarchy. This
//! "timestamp-propagation" style model captures the first-order IPC
//! behaviour of an OOO core (dependence chains, MLP, structural hazards)
//! at a small fraction of the cost of a cycle-accurate simulator — the
//! right trade-off here, where thousands of 27.78 µs power samples must
//! be produced per benchmark.

use crate::activity::ActivityCounters;
use crate::bpred::BranchPredictor;
use crate::cache::SetAssocCache;
use crate::config::CoreConfig;
use crate::instr::{InstrKind, StreamGenerator, StreamProfile};

const RING: usize = 512;

/// A single simulated core running one synthetic instruction stream.
///
/// # Examples
///
/// ```
/// use dtm_microarch::{CoreConfig, CoreSim, StreamProfile};
///
/// let mut core = CoreSim::new(CoreConfig::default(), StreamProfile::generic_int(), 1);
/// let counters = core.run_cycles(50_000);
/// assert!(counters.ipc() > 0.1 && counters.ipc() < 8.0);
/// ```
#[derive(Debug, Clone)]
pub struct CoreSim {
    cfg: CoreConfig,
    generator: StreamGenerator,
    bpred: BranchPredictor,
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    /// Completion timestamps of the last `RING` instructions.
    completion: [u64; RING],
    /// Completion timestamps of recent int-cluster / fp-cluster
    /// instructions, for issue-queue backpressure.
    int_ring: [u64; RING],
    fp_ring: [u64; RING],
    seq: u64,
    int_seq: u64,
    fp_seq: u64,
    /// Monotone dispatch clock: the model's notion of elapsed time.
    now: u64,
    fetch_cycle: u64,
    fetched_this_cycle: usize,
    redirect_at: u64,
    /// Next-free cycle per functional unit instance.
    fxu_free: Vec<u64>,
    fpu_free: Vec<u64>,
    lsu_free: Vec<u64>,
    bxu_free: Vec<u64>,
}

impl CoreSim {
    /// Creates a core running `profile` with deterministic `seed`.
    pub fn new(cfg: CoreConfig, profile: StreamProfile, seed: u64) -> Self {
        let bpred = BranchPredictor::new(cfg.bpred_entries);
        let l1i = SetAssocCache::new(cfg.l1i, 1.0);
        let l1d = SetAssocCache::new(cfg.l1d, 1.0);
        let l2 = SetAssocCache::new(cfg.l2, cfg.l2_capacity_fraction);
        CoreSim {
            fxu_free: vec![0; cfg.n_fxu],
            fpu_free: vec![0; cfg.n_fpu],
            lsu_free: vec![0; cfg.n_lsu],
            bxu_free: vec![0; cfg.n_bxu],
            cfg,
            generator: StreamGenerator::new(profile, seed),
            bpred,
            l1i,
            l1d,
            l2,
            completion: [0; RING],
            int_ring: [0; RING],
            fp_ring: [0; RING],
            seq: 0,
            int_seq: 0,
            fp_seq: 0,
            now: 0,
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            redirect_at: 0,
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Switches the instruction stream profile (phase change) without
    /// disturbing cache or predictor state.
    pub fn set_profile(&mut self, profile: StreamProfile) {
        self.generator.set_profile(profile);
    }

    /// Flushes L1 caches, modeling the cold-start cost of a context
    /// switch onto this core.
    pub fn context_switch(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
    }

    /// Runs the model for (at least) `cycles` cycles and returns the
    /// activity of the interval.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn run_cycles(&mut self, cycles: u64) -> ActivityCounters {
        assert!(cycles > 0, "interval must be non-empty");
        let start = self.now;
        let end = start + cycles;
        let mut c = ActivityCounters {
            cycles,
            ..Default::default()
        };

        while self.now < end {
            let instr = self.generator.next_instr();
            self.execute(&instr, &mut c);
        }
        c
    }

    /// Runs one 100 000-cycle power-trace sample, optionally simulating
    /// only `1/sampling` of the cycles and extrapolating counters
    /// (statistical sampling; `sampling = 1` is exact).
    ///
    /// # Panics
    ///
    /// Panics if `sampling` is zero or does not divide the sample.
    pub fn run_sample(&mut self, sampling: u64) -> ActivityCounters {
        assert!(sampling > 0, "sampling factor must be positive");
        let total = CoreConfig::CYCLES_PER_SAMPLE;
        assert!(
            total.is_multiple_of(sampling),
            "sampling must divide {total}"
        );
        let burst = total / sampling;
        let mut counters = self.run_cycles(burst);
        counters = counters.scaled(sampling);
        counters.cycles = total;
        counters
    }

    fn execute(&mut self, instr: &crate::instr::Instr, c: &mut ActivityCounters) {
        let cfg = &self.cfg;

        // ---- Fetch ----
        if self.fetch_cycle < self.redirect_at {
            self.fetch_cycle = self.redirect_at;
            self.fetched_this_cycle = 0;
        }
        if self.fetched_this_cycle >= cfg.fetch_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        self.fetched_this_cycle += 1;
        c.fetches += 1;

        // I-cache: one access per fetched block (block = 32 instructions
        // of 4 bytes).
        if self.seq.is_multiple_of(32) {
            c.icache_accesses += 1;
            if !self.l1i.access(instr.pc) {
                c.l2_accesses += 1;
                let penalty = if self.l2.access(instr.pc) {
                    cfg.l2_latency
                } else {
                    c.mem_accesses += 1;
                    cfg.mem_latency
                };
                self.fetch_cycle += penalty;
            }
        }

        // The fetch engine may not run unboundedly ahead of dispatch
        // (finite fetch buffer), nor fall behind the dispatch clock.
        self.fetch_cycle = self
            .fetch_cycle
            .clamp(self.now.saturating_sub(8), self.now + 64);

        // ---- Dispatch / window and queue constraints ----
        c.rename_ops += 1;
        let mut dispatch = self.fetch_cycle + 5; // front-end depth
        let window = cfg.window as u64;
        if self.seq >= window {
            let oldest = self.completion[((self.seq - window) % RING as u64) as usize];
            dispatch = dispatch.max(oldest);
        }
        let is_fp = instr.kind.is_fp();
        if is_fp {
            let q = cfg.fp_queue as u64;
            if self.fp_seq >= q {
                let head = self.fp_ring[((self.fp_seq - q) % RING as u64) as usize];
                dispatch = dispatch.max(head);
            }
        } else {
            let q = cfg.int_queue as u64;
            if self.int_seq >= q {
                let head = self.int_ring[((self.int_seq - q) % RING as u64) as usize];
                dispatch = dispatch.max(head);
            }
        }

        // ---- Operand readiness ----
        let mut ready = dispatch;
        let dep = instr.dep_distance as u64;
        if dep > 0 && dep <= self.seq.min(RING as u64 - 1) {
            let producer = self.completion[((self.seq - dep) % RING as u64) as usize];
            ready = ready.max(producer);
        }

        // ---- Functional unit selection ----
        let (fu_free, pipelined): (&mut Vec<u64>, bool) = match instr.kind {
            InstrKind::IntAlu => (&mut self.fxu_free, true),
            InstrKind::IntMul => (&mut self.fxu_free, false),
            InstrKind::FpOp => (&mut self.fpu_free, true),
            InstrKind::FpDiv => (&mut self.fpu_free, false),
            InstrKind::Load | InstrKind::Store => (&mut self.lsu_free, true),
            InstrKind::Branch => (&mut self.bxu_free, true),
        };
        // The first least-busy unit.
        let mut slot = 0;
        let mut slot_free = u64::MAX;
        for (i, &t) in fu_free.iter().enumerate() {
            if t < slot_free {
                slot = i;
                slot_free = t;
            }
        }
        let issue = ready.max(slot_free);

        // ---- Execution latency ----
        let mut latency = instr.kind.latency();
        if matches!(instr.kind, InstrKind::Load | InstrKind::Store) {
            c.dcache_accesses += 1;
            if !self.l1d.access(instr.addr) {
                c.l2_accesses += 1;
                if self.l2.access(instr.addr) {
                    latency += cfg.l2_latency;
                } else {
                    c.mem_accesses += 1;
                    latency += cfg.mem_latency;
                }
            }
        }
        // Stores complete from the pipeline's view once issued.
        if instr.kind == InstrKind::Store {
            latency = 1;
        }
        fu_free[slot] = if pipelined {
            issue + 1
        } else {
            issue + latency
        };

        let complete = issue + latency;

        // ---- Branch resolution ----
        if instr.kind == InstrKind::Branch {
            c.bpred_lookups += 1;
            c.bxu_ops += 1;
            let correct = self.bpred.predict_and_update(instr.pc, instr.taken);
            if !correct {
                c.mispredicts += 1;
                self.redirect_at = self.redirect_at.max(complete + cfg.mispredict_penalty);
            }
        }

        // ---- Bookkeeping and activity ----
        self.completion[(self.seq % RING as u64) as usize] = complete;
        if is_fp {
            self.fp_ring[((self.fp_seq) % RING as u64) as usize] = complete;
            self.fp_seq += 1;
            c.issue_fp += 1;
            c.fp_rf_accesses += 3; // 2 reads + 1 write
            c.fpu_ops += 1;
        } else {
            self.int_ring[((self.int_seq) % RING as u64) as usize] = complete;
            self.int_seq += 1;
            c.issue_int += 1;
            match instr.kind {
                InstrKind::IntAlu | InstrKind::IntMul => {
                    c.int_rf_accesses += 3;
                    c.fxu_ops += 1;
                }
                InstrKind::Load => {
                    c.int_rf_accesses += 2; // address + destination
                    c.lsu_ops += 1;
                }
                InstrKind::Store => {
                    c.int_rf_accesses += 2; // address + data read
                    c.lsu_ops += 1;
                }
                InstrKind::Branch => {
                    c.int_rf_accesses += 1; // condition read
                }
                _ => unreachable!("fp kinds handled above"),
            }
        }
        // Advance the monotone dispatch clock.
        self.now = self.now.max(dispatch);
        self.seq += 1;
        c.instructions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(profile: StreamProfile, seed: u64) -> CoreSim {
        CoreSim::new(CoreConfig::default(), profile, seed)
    }

    #[test]
    fn ipc_is_in_plausible_range() {
        let mut s = sim(StreamProfile::generic_int(), 1);
        let c = s.run_cycles(200_000);
        let ipc = c.ipc();
        assert!(ipc > 0.3 && ipc < 6.0, "ipc = {ipc}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let mut a = sim(StreamProfile::generic_int(), 42);
        let mut b = sim(StreamProfile::generic_int(), 42);
        assert_eq!(a.run_cycles(50_000), b.run_cycles(50_000));
    }

    #[test]
    fn fp_profile_exercises_fp_units() {
        let mut s = sim(StreamProfile::generic_fp(), 2);
        let c = s.run_cycles(100_000);
        assert!(c.fpu_ops > 0);
        assert!(c.fp_rf_accesses > c.fpu_ops);
        // FP stream touches the FP register file far more than an int
        // stream does.
        let mut si = sim(StreamProfile::generic_int(), 2);
        let ci = si.run_cycles(100_000);
        assert!(c.fp_rf_per_cycle() > 10.0 * (ci.fp_rf_per_cycle() + 1e-9));
    }

    #[test]
    fn int_profile_stresses_int_register_file() {
        let mut s = sim(StreamProfile::generic_int(), 3);
        let c = s.run_cycles(100_000);
        assert!(c.int_rf_per_cycle() > c.fp_rf_per_cycle());
        assert!(c.fxu_ops > 0);
        assert_eq!(c.fpu_ops, 0);
    }

    #[test]
    fn memory_bound_profile_has_low_ipc() {
        // A huge, low-locality working set (mcf-like) must run much
        // slower than a cache-resident one.
        let mut mem_bound = StreamProfile::generic_int();
        mem_bound.data_working_set = 64 * 1024 * 1024;
        mem_bound.data_locality = 0.2;
        mem_bound.frac_load = 0.35;
        mem_bound.mean_dep_distance = 2.0;

        let mut cache_resident = StreamProfile::generic_int();
        cache_resident.data_working_set = 16 * 1024;

        let ipc_mem = sim(mem_bound, 4).run_cycles(300_000).ipc();
        let ipc_cache = sim(cache_resident, 4).run_cycles(300_000).ipc();
        assert!(
            ipc_cache > 2.0 * ipc_mem,
            "cache {ipc_cache} vs mem {ipc_mem}"
        );
    }

    #[test]
    fn low_ilp_reduces_ipc() {
        let mut serial = StreamProfile::generic_int();
        serial.mean_dep_distance = 1.2;
        let mut parallel = StreamProfile::generic_int();
        parallel.mean_dep_distance = 16.0;
        let ipc_serial = sim(serial, 5).run_cycles(200_000).ipc();
        let ipc_parallel = sim(parallel, 5).run_cycles(200_000).ipc();
        assert!(
            ipc_parallel > ipc_serial,
            "parallel {ipc_parallel} vs serial {ipc_serial}"
        );
    }

    #[test]
    fn poor_branch_prediction_reduces_ipc() {
        let mut bad = StreamProfile::generic_int();
        bad.branch_predictability = 0.3;
        bad.frac_branch = 0.2;
        let mut good = StreamProfile::generic_int();
        good.branch_predictability = 1.0;
        good.frac_branch = 0.2;
        let ipc_bad = sim(bad, 6).run_cycles(200_000).ipc();
        let ipc_good = sim(good, 6).run_cycles(200_000).ipc();
        assert!(ipc_good > 1.2 * ipc_bad, "good {ipc_good} vs bad {ipc_bad}");
    }

    #[test]
    fn run_sample_covers_sample_cycles() {
        let mut s = sim(StreamProfile::generic_int(), 7);
        let c = s.run_sample(1);
        assert_eq!(c.cycles, CoreConfig::CYCLES_PER_SAMPLE);
        assert!(c.instructions > 0);
    }

    #[test]
    fn sampled_run_approximates_full_run_rates() {
        let mut full = sim(StreamProfile::generic_int(), 8);
        let mut sampled = sim(StreamProfile::generic_int(), 8);
        // Warm caches and predictors first so the comparison measures
        // steady-state rates, not cold-start transients (filling the L2
        // takes a few hundred thousand cycles).
        full.run_cycles(400_000);
        sampled.run_cycles(400_000);
        let cf = full.run_sample(1);
        let cs = sampled.run_sample(5);
        assert_eq!(cs.cycles, cf.cycles);
        let rel = (cs.ipc() - cf.ipc()).abs() / cf.ipc();
        assert!(rel < 0.15, "sampled IPC off by {:.1}%", rel * 100.0);
    }

    #[test]
    fn context_switch_causes_transient_slowdown() {
        // A single 5 k-cycle window is dominated by instruction-stream
        // sampling noise (~1 % IPC), which can swamp the cold-start
        // penalty; average the transient over several switch cycles so
        // the test measures the effect, not one draw.
        let mut s = sim(StreamProfile::generic_int(), 9);
        s.run_cycles(100_000); // warm
        let rounds = 8;
        let mut warm = 0.0;
        let mut cold = 0.0;
        for _ in 0..rounds {
            warm += s.run_cycles(20_000).ipc();
            s.context_switch();
            cold += s.run_cycles(5_000).ipc();
            s.run_cycles(80_000); // re-warm before the next measurement
        }
        warm /= rounds as f64;
        cold /= rounds as f64;
        assert!(cold < warm, "cold {cold} vs warm {warm}");
    }

    #[test]
    fn activity_is_consistent_with_instruction_counts() {
        let mut s = sim(StreamProfile::generic_fp(), 10);
        let c = s.run_cycles(100_000);
        assert_eq!(c.issue_int + c.issue_fp, c.instructions);
        assert_eq!(c.fetches, c.instructions);
        assert_eq!(c.rename_ops, c.instructions);
        assert!(c.mispredicts <= c.bpred_lookups);
        assert!(c.mem_accesses <= c.l2_accesses);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_cycle_interval_rejected() {
        sim(StreamProfile::generic_int(), 0).run_cycles(0);
    }
}
