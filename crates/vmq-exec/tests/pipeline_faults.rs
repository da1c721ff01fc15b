//! Fault injection for `vmq_exec::pipeline`: a stage that panics on one
//! item, on a pool task or on the calling thread, must make `pipeline`
//! panic with that payload and never leave the caller waiting for the item
//! that will not be staged; a `complete` that panics on the calling thread
//! must join every pool task before the panic resumes. The pool keeps
//! serving afterwards without growing.
//!
//! This binary holds one test, so nothing else moves the process-global
//! spawn counter while it watches it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const ITEMS: usize = 16;

/// Runs a pipeline over `ITEMS` items whose stage panics on item
/// `stage_fails` and whose complete panics on item `complete_fails` (either
/// may be out of range); returns the panic message, the completed items in
/// order, and how many stages started and finished before `pipeline`
/// returned.
fn run(width: usize, stage_fails: usize, complete_fails: usize) -> (String, Vec<usize>, usize, usize) {
    let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let mut items: Vec<usize> = (0..ITEMS).collect();
    let mut completed = Vec::new();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        vmq_exec::pipeline(
            &mut items,
            width,
            |&mut i| {
                started.fetch_add(1, Ordering::SeqCst);
                if i == stage_fails {
                    panic!("stage {i} fails");
                }
                std::thread::sleep(Duration::from_micros(200));
                finished.fetch_add(1, Ordering::SeqCst);
            },
            |&mut i| {
                if i == complete_fails {
                    panic!("complete {i} fails");
                }
                completed.push(i);
            },
        )
    }));
    let payload = caught.expect_err("the panic propagates");
    let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
    (message, completed, started.load(Ordering::SeqCst), finished.load(Ordering::SeqCst))
}

#[test]
fn a_panicking_stage_or_completion_joins_every_task_and_leaves_the_pool_serving() {
    let mut warm_up: Vec<u64> = (0..ITEMS as u64).collect();
    vmq_exec::pipeline(&mut warm_up, 4, |_| {}, |_| {});
    let warm = vmq_exec::stats();

    // Keep the expected panics off stderr; the payloads are checked below.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for width in 1..=4 {
        for failing in [0, 5, ITEMS - 1] {
            let ctx = format!("width {width}, item {failing}");
            let (message, completed, started, finished) = run(width, failing, usize::MAX);
            assert_eq!(message, format!("stage {failing} fails"), "{ctx}");
            assert!(completed.len() <= failing, "{ctx}: item {failing} was never staged");
            assert_eq!(completed, (0..completed.len()).collect::<Vec<_>>(), "{ctx}: index order");
            assert_eq!(finished, started - 1, "{ctx}: re-raised before a sibling stage finished");

            let (message, completed, started, finished) = run(width, usize::MAX, failing);
            assert_eq!(message, format!("complete {failing} fails"), "{ctx}");
            assert_eq!(completed, (0..failing).collect::<Vec<_>>(), "{ctx}: index order");
            assert_eq!(finished, started, "{ctx}: re-raised before a pool stage finished");
        }
    }
    std::panic::set_hook(hook);

    let mut items: Vec<u64> = (0..64).collect();
    let mut completed = Vec::new();
    vmq_exec::pipeline(&mut items, 4, |x| *x *= *x, |x| completed.push(*x));
    assert_eq!(completed, (0..64u64).map(|x| x * x).collect::<Vec<_>>(), "the pool still serves a pipeline");
    let after = vmq_exec::stats();
    assert_eq!(after.threads_spawned, warm.threads_spawned, "panics cost the pool no threads");
    assert_eq!(after.workers, warm.workers);
}
