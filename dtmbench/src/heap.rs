//! Heap accounting: a wrapper around the system allocator that, while
//! counting is on, keeps the net bytes allocated. The benchmark uses it
//! to price what a stretch of work retains on the heap. `VmRSS` cannot
//! show that: freed heap pages stay resident and are reused, so a few
//! hundred retained kilobytes vanish into the slack earlier work left.
//! With counting off, each call costs one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};

/// The counting allocator; installed as the global allocator in `main`.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static NET: AtomicI64 = AtomicI64::new(0);

fn count(bytes: i64) {
    if ON.load(Relaxed) {
        NET.fetch_add(bytes, Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// adds to a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Starts counting from zero.
pub fn start() {
    NET.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stops counting; returns the net bytes allocated since [`start`],
/// by every thread of the process.
pub fn stop() -> i64 {
    ON.store(false, Relaxed);
    NET.load(Relaxed)
}
