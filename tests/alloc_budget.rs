//! Heap-allocation budget of one cold design-space answer.
//!
//! A counting global allocator counts every block handed out while one
//! cold, single-worker, full-fidelity joint sweep of FIR (paper size,
//! all axes) runs. The ceiling sits halfway between the count before the
//! transform tail took the scalar-replaced body over by value and the
//! count after, so a change that brings back a per-point copy of the
//! statement trees (or a heap copy per copied name) fails here instead
//! of only showing up as lost throughput.

use defacto::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BLOCKS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each upholds `GlobalAlloc`'s contract exactly when the caller's
// arguments do; counting touches only an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` meets `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks allocated by the sweep before and after the change, counted
/// by this test in the profile `cargo test` builds (rustc 1.95.0,
/// x86_64 Linux); a release build counts the same.
const BEFORE: u64 = 870_722;
const AFTER: u64 = 664_103;
const CEILING: u64 = (BEFORE + AFTER) / 2;

#[test]
fn fir_joint_sweep_allocation_budget() {
    let kernel = defacto_kernels::fir::kernel();
    let explorer = Explorer::new(&kernel)
        .threads(1)
        .axes(&Axis::ALL)
        .fidelity(Fidelity::Full);
    COUNTING.store(true, Ordering::SeqCst);
    let sweep = explorer.joint_sweep();
    COUNTING.store(false, Ordering::SeqCst);
    let blocks = BLOCKS.load(Ordering::SeqCst);
    assert_eq!(sweep.expect("joint sweep succeeds").len(), 93);
    assert!(
        blocks <= CEILING,
        "one cold FIR joint sweep allocated {blocks} blocks, over the ceiling of {CEILING} \
         (before the owned transform tail: {BEFORE}, after: {AFTER})"
    );
}
