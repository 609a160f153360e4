//! Fuzz campaigns silence panics on their own threads only.
//!
//! A campaign probes compiler passes under panic guards and silences the
//! panic hook while it runs, so expected probe panics do not flood
//! stderr. Two campaigns running at once must neither silence a panic on
//! any other thread nor leave a silent hook installed when they finish.
//! The hook is process-wide, so this test has its own binary.

use std::panic::{self, PanicHookInfo};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

use defacto_fuzz::{run_kernels, CampaignConfig};

/// Panics carrying this message that reached the test's hook.
static REPORTED: AtomicUsize = AtomicUsize::new(0);
const MESSAGE: &str = "a panic outside the campaigns";

fn is_marked(info: &PanicHookInfo<'_>) -> bool {
    info.payload().downcast_ref::<&str>() == Some(&MESSAGE)
}

/// Panic on a new thread, and wait for it.
fn panic_elsewhere() {
    let outcome = thread::spawn(|| panic::panic_any(MESSAGE)).join();
    assert!(outcome.is_err(), "the thread must panic");
}

#[test]
fn concurrent_campaigns_leave_other_threads_panics_to_the_hook() {
    let previous = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if is_marked(info) {
            REPORTED.fetch_add(1, Ordering::SeqCst);
        } else {
            previous(info);
        }
    }));
    let cfg = CampaignConfig {
        seed: 3,
        count: 16,
        max_points: 2,
        ..CampaignConfig::default()
    };
    let mut raised = 0;
    // Both campaigns start together, and panics start with them.
    let start = Barrier::new(3);
    let (a, b) = thread::scope(|s| {
        let a = s.spawn(|| {
            start.wait();
            run_kernels(&cfg, 0..8)
        });
        let b = s.spawn(|| {
            start.wait();
            run_kernels(&cfg, 8..16)
        });
        start.wait();
        while !(a.is_finished() && b.is_finished()) {
            panic_elsewhere();
            raised += 1;
            thread::sleep(Duration::from_millis(5));
        }
        (a.join(), b.join())
    });
    let (a, b) = (a.expect("campaign a"), b.expect("campaign b"));
    assert!(a.is_clean() && b.is_clean(), "{}{}", a.render(), b.render());
    assert!(
        raised > 0,
        "the campaigns finished before any panic was raised"
    );
    assert_eq!(
        REPORTED.load(Ordering::SeqCst),
        raised,
        "panics on other threads were silenced while the campaigns ran"
    );
    // Both campaigns are over: the hook installed before them is back.
    panic_elsewhere();
    assert_eq!(
        REPORTED.load(Ordering::SeqCst),
        raised + 1,
        "the campaigns left a silent hook installed"
    );
}
