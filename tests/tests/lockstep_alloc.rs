//! A steady-state lockstep step allocates nothing.
//!
//! The lockstep engine is the inner loop of every sweep: 18,000 steps
//! per lane per Table 8 cell. Any per-step (or per-OS-tick) allocation
//! there is paid millions of times. This test counts heap allocations
//! made by `LockstepBatch::run` for a short and a five-times-longer run
//! of the same cells: one-time set-up (first-step buffer sizing, the
//! migration table filling) is the same in both, so equal counts mean
//! the steps themselves allocate nothing.

use dtm_core::{
    Experiment, LockstepBatch, MigrationKind, PolicySpec, Scope, SimConfig, ThrottleKind,
};
use dtm_workloads::standard_workloads;

mod alloc_count {
    //! A counting global allocator. The count is thread-local
    //! (const-initialised `Cell`, so the TLS access itself never
    //! allocates) to keep parallel test threads from polluting each
    //! other's measurements.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    struct CountingAlloc;

    // SAFETY: every call forwards to `System` with the caller's own
    // arguments, so `System` upholds the `GlobalAlloc` contract; the
    // thread-local counter neither allocates nor touches the memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|c| c.set(c.get() + 1));
            // SAFETY: forwarded unchanged from our caller.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.with(|c| c.set(c.get() + 1));
            // SAFETY: forwarded unchanged from our caller.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    pub fn allocations_on_this_thread() -> u64 {
        ALLOCS.with(|c| c.get())
    }
}

use alloc_count::allocations_on_this_thread;

/// Allocations made by one lockstep run of three `fast_test` cells
/// (distributed DVFS, global stop-go with counter migration, global DVFS
/// with sensor migration) lasting `duration` simulated seconds.
fn run_allocations(exp: &Experiment, duration: f64) -> u64 {
    let exp = exp.clone().with_sim(SimConfig {
        duration,
        ..SimConfig::fast_test()
    });
    let w = &standard_workloads()[0];
    let sims = [
        PolicySpec::new(ThrottleKind::Dvfs, Scope::Distributed, MigrationKind::None),
        PolicySpec::new(
            ThrottleKind::StopGo,
            Scope::Global,
            MigrationKind::CounterBased,
        ),
        PolicySpec::new(
            ThrottleKind::Dvfs,
            Scope::Global,
            MigrationKind::SensorBased,
        ),
    ]
    .into_iter()
    .map(|p| exp.build(w, p).expect("build"))
    .collect();
    let batch = LockstepBatch::new(sims);
    let before = allocations_on_this_thread();
    let results = batch.run().expect("run");
    let allocs = allocations_on_this_thread() - before;
    drop(results);
    allocs
}

#[test]
fn lockstep_steps_allocate_nothing_in_steady_state() {
    let exp = Experiment::fast_test();
    // Warm the trace library and the process-wide memos outside the
    // measured runs.
    run_allocations(&exp, 0.001);
    let short = run_allocations(&exp, 0.01);
    let long = run_allocations(&exp, 0.05);
    assert_eq!(
        long, short,
        "a 0.05 s lockstep run made {long} allocations, a 0.01 s run {short}: \
         something allocates per step"
    );
}
