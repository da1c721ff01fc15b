//! Stress test for the pool's lifetime-erasing `Scope::spawn`: a task
//! panics while its siblings still borrow the caller's stack, and tasks
//! open nested scopes from inside pool workers. `scope` must not re-raise
//! the panic before every sibling has finished with its borrows, nested
//! spawns must run inline on the worker, and the pool must keep serving
//! scopes afterwards without growing.
//!
//! This binary holds one test, so nothing else moves the process-global
//! spawn counter while it watches it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const WIDTH: usize = 4;
const TASKS: usize = 8;

#[test]
fn panicking_task_rejoins_its_borrowing_siblings_and_leaves_the_pool_serving() {
    vmq_exec::scope(WIDTH, |_| {});
    let warm = vmq_exec::stats();
    assert!(warm.workers >= WIDTH);

    // Keep the expected panics off stderr; the payloads are checked below.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for round in 0..2 * TASKS {
        let failing = round % TASKS;
        let input: [u64; TASKS] = std::array::from_fn(|i| i as u64 + 1);
        let mut squares = [0u64; TASKS];
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            vmq_exec::scope(WIDTH, |s| {
                for (i, (slot, x)) in squares.iter_mut().zip(&input).enumerate() {
                    let finished = &finished;
                    s.spawn(move || {
                        if i == failing {
                            panic!("task {i} fails");
                        }
                        // Still borrowing `input`, `squares` and `finished`
                        // well after the failing sibling has panicked.
                        std::thread::sleep(Duration::from_micros(300));
                        let outer = std::thread::current().id();
                        let mut inner = None;
                        vmq_exec::scope(WIDTH, |nested| nested.spawn(|| inner = Some(std::thread::current().id())));
                        assert_eq!(inner, Some(outer), "a spawn from a pool worker runs inline");
                        *slot = x * x;
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
        }));
        let payload = caught.expect_err("the task panic propagates");
        assert_eq!(payload.downcast_ref::<String>(), Some(&format!("task {failing} fails")));
        assert_eq!(finished.load(Ordering::SeqCst), TASKS - 1, "round {round}: re-raised before siblings finished");
        for (i, (&square, &x)) in squares.iter().zip(&input).enumerate() {
            assert_eq!(square, if i == failing { 0 } else { x * x }, "round {round} task {i}");
        }
    }
    std::panic::set_hook(hook);

    let input: Vec<u64> = (0..64).collect();
    let mut out = vec![0u64; input.len()];
    vmq_exec::scope(WIDTH, |s| {
        for (slots, part) in out.chunks_mut(16).zip(input.chunks(16)) {
            s.spawn(move || slots.iter_mut().zip(part).for_each(|(slot, x)| *slot = x + 1));
        }
    });
    assert!(out.iter().zip(&input).all(|(o, x)| *o == x + 1), "the pool still serves a scope");
    let after = vmq_exec::stats();
    assert_eq!(after.threads_spawned, warm.threads_spawned, "panics cost the pool no threads");
    assert_eq!(after.workers, warm.workers);
}
