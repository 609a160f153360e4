//! Heap-allocation budgets of cold design-space answers.
//!
//! A counting global allocator counts every block handed out while one
//! cold, single-worker joint sweep (paper size, all axes) runs:
//!
//! - a full-fidelity sweep of FIR. Its ceiling sits halfway between the
//!   count before peeling shared the right-hand sides it does not change
//!   with the steady-state loop and the count after, so a change that
//!   brings back a deep copy of each peeled first iteration, a
//!   per-point offset copy of the statement trees, or a heap copy per
//!   copied name, fails here instead of only showing up as lost
//!   throughput;
//! - a tier-0-only (analytic) sweep of SOBEL. Its ceiling sits halfway
//!   between the count before the census stored jammed offsets as one
//!   row-major matrix per set and the count after, so a change that
//!   brings back a heap block per jammed offset fails here;
//! - a full-fidelity sweep of SOBEL. Its ceiling sits halfway between
//!   the count before peeling shared unchanged right-hand sides (and a
//!   window's rotates shared one register list) and the count after, so
//!   a change that brings back a deep copy of each peeled first
//!   iteration, a rotate list per shift, an offset copy per point, or a
//!   cloned access per reference, fails here.
//!
//! The counter is global, so the tests take turns.

use defacto::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Held for the whole of each test, so one test's work is never counted
/// in another's sweep.
static TURN: Mutex<()> = Mutex::new(());

/// Blocks allocated while `f` runs.
fn blocks_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    BLOCKS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, BLOCKS.load(Ordering::SeqCst))
}

/// Blocks allocated by the sweep before and after peeling shared the
/// right-hand sides it does not change, counted by this test in the
/// profile `cargo test` builds (rustc 1.95.0, x86_64 Linux); a release
/// build counts the same. (The ceiling before sat halfway between
/// 342,370 and 247,944, around scalar replacement making each unrolled
/// copy straight from the base body and the DFG builder resolving
/// scalars once per design; before that, halfway between 870,722 and
/// 664,103, around the transform tail taking the scalar-replaced body
/// over by value.)
const BEFORE: u64 = 249_736;
const AFTER: u64 = 226_890;
const CEILING: u64 = (BEFORE + AFTER) / 2;

#[test]
fn fir_joint_sweep_allocation_budget() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let kernel = defacto_kernels::fir::kernel();
    let explorer = Explorer::new(&kernel)
        .threads(1)
        .axes(&Axis::ALL)
        .fidelity(Fidelity::Full);
    let (sweep, blocks) = blocks_during(|| explorer.joint_sweep());
    assert_eq!(sweep.expect("joint sweep succeeds").len(), 93);
    assert!(
        blocks <= CEILING,
        "one cold FIR joint sweep allocated {blocks} blocks, over the ceiling of {CEILING} \
         (before peeling shared right-hand sides: {BEFORE}, after: {AFTER})"
    );
}

/// Blocks allocated by the analytic SOBEL sweep before and after the
/// census's row-major offsets, counted as for the FIR sweep.
const SOBEL_BEFORE: u64 = 423_773;
const SOBEL_AFTER: u64 = 64_780;
const SOBEL_CEILING: u64 = (SOBEL_BEFORE + SOBEL_AFTER) / 2;

#[test]
fn sobel_analytic_joint_sweep_allocation_budget() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let kernel = defacto_kernels::sobel::kernel();
    let explorer = Explorer::new(&kernel)
        .threads(1)
        .axes(&Axis::ALL)
        .fidelity(Fidelity::Analytic);
    let (sweep, blocks) = blocks_during(|| explorer.joint_sweep());
    assert_eq!(sweep.expect("joint sweep succeeds").len(), 320);
    assert!(
        blocks <= SOBEL_CEILING,
        "one cold analytic SOBEL joint sweep allocated {blocks} blocks, \
         over the ceiling of {SOBEL_CEILING} (before row-major offsets: {SOBEL_BEFORE}, \
         after: {SOBEL_AFTER})"
    );
}

/// Blocks allocated by a full-fidelity SOBEL sweep before and after
/// peeling shared the right-hand sides it does not change and a
/// window's rotates shared one register list, counted as for the FIR
/// sweep. (The ceiling before sat halfway between 1,093,981 and
/// 876,668, around unrolled copies made straight from the base body and
/// the DFG builder resolving scalars once per design; before that,
/// halfway between 1,218,247 and 1,095,764, around scalar replacement
/// finding its rewrites by plan coordinates and the layout no longer
/// cloning accesses; before that, halfway between 1,260,880 and
/// 1,227,604, around list scheduling dropping its ready heap,
/// per-schedule successor lists, per-view node copies and per-class
/// sorts.)
const SOBEL_FULL_BEFORE: u64 = 877_527;
const SOBEL_FULL_AFTER: u64 = 616_932;
const SOBEL_FULL_CEILING: u64 = (SOBEL_FULL_BEFORE + SOBEL_FULL_AFTER) / 2;

#[test]
fn sobel_full_joint_sweep_allocation_budget() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let kernel = defacto_kernels::sobel::kernel();
    let explorer = Explorer::new(&kernel)
        .threads(1)
        .axes(&Axis::ALL)
        .fidelity(Fidelity::Full);
    let (sweep, blocks) = blocks_during(|| explorer.joint_sweep());
    assert_eq!(sweep.expect("joint sweep succeeds").len(), 320);
    assert!(
        blocks <= SOBEL_FULL_CEILING,
        "one cold full-fidelity SOBEL joint sweep allocated {blocks} blocks, \
         over the ceiling of {SOBEL_FULL_CEILING} (before peeling shared right-hand sides: \
         {SOBEL_FULL_BEFORE}, after: {SOBEL_FULL_AFTER})"
    );
}
