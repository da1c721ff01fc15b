//! Process-wide persistent worker pool with a scoped spawn/join API.
//!
//! Every sharded stage in the workspace (filter batch inference, truth-grid
//! calibration, detector escalation) used to pay
//! `std::thread::scope` spawn/join on every batch — at fleet scale that is
//! four thread spawns per stage per batch per camera. This crate replaces the
//! per-batch spawns with a lazily grown, process-global set of long-lived
//! workers, each owning its queue; [`scope`] hands out a [`Scope`] whose
//! `spawn` dispatches borrowing closures to those workers and whose exit
//! joins them, so call sites keep the exact shape (and position-keyed merge
//! discipline) they had under `std::thread::scope`.
//!
//! # Determinism contract
//!
//! The pool adds no scheduling semantics a call site can observe: tasks are
//! whole closures, results flow only through the disjoint `&mut` slices the
//! caller partitioned before spawning, and `scope` does not return until
//! every task has finished. A computation that is bit-identical under
//! `std::thread::scope` for any worker count is therefore bit-identical under
//! the pool — and under the `VMQ_NO_POOL=1` reference mode, which pins the
//! old spawn-one-OS-thread-per-task path for A/B comparison.
//!
//! # Safety
//!
//! `Scope::spawn` lifetime-erases the task (`'env` → `'static`) before
//! handing it to a long-lived worker. This is sound for the same reason
//! `std::thread::scope` is: the borrows captured by the task outlive the
//! `scope` call (the `Scope<'env>` value, invariant in `'env`, lives inside
//! that call frame), and `scope` unconditionally joins — it does not return,
//! even on panic, until the pending-task count reaches zero. No erased task
//! can run after its borrows expire.

// Narrow exception to the workspace-wide ban: the lifetime erasure in
// `Scope::spawn` (see the Safety section above).
#![deny(unsafe_code)]

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};

/// Hard cap on pool size; requests beyond it share the existing workers.
const MAX_WORKERS: usize = 64;

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Set for the lifetime of a pool worker thread. A `spawn` issued from
    /// inside a worker runs inline on that worker instead of being queued,
    /// so nested scopes cannot deadlock the (bounded) pool.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The process-global pool: per-worker queues plus counters that let benches
/// and tests observe spawn behaviour (steady-state spawns must be zero).
struct Pool {
    queues: Mutex<Vec<Sender<Job>>>,
    next: AtomicUsize,
    threads_spawned: AtomicU64,
    tasks_executed: AtomicU64,
    queue_depth: AtomicUsize,
    max_queue_depth: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queues: Mutex::new(Vec::new()),
        next: AtomicUsize::new(0),
        threads_spawned: AtomicU64::new(0),
        tasks_executed: AtomicU64::new(0),
        queue_depth: AtomicUsize::new(0),
        max_queue_depth: AtomicUsize::new(0),
    })
}

impl Pool {
    /// Grows the pool to `want` workers (capped at [`MAX_WORKERS`]); already
    /// running workers are reused, so a warm pool spawns nothing here.
    fn ensure_workers(&self, want: usize) {
        let want = want.clamp(1, MAX_WORKERS);
        let mut queues = self.queues.lock().unwrap();
        while queues.len() < want {
            let (tx, rx) = mpsc::channel::<Job>();
            std::thread::Builder::new()
                .name(format!("vmq-exec-{}", queues.len()))
                .spawn(move || worker_loop(rx))
                .expect("spawn vmq-exec pool worker");
            self.threads_spawned.fetch_add(1, Ordering::Relaxed);
            queues.push(tx);
        }
    }

    /// Round-robin dispatch to a worker queue.
    fn dispatch(&self, job: Job) {
        let queues = self.queues.lock().unwrap();
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % queues.len();
        // Workers never exit while the process lives (their sender sits in
        // the global pool), so the send cannot fail.
        queues[slot].send(job).expect("vmq-exec worker alive");
    }
}

fn worker_loop(rx: Receiver<Job>) {
    IN_WORKER.with(|flag| flag.set(true));
    while let Ok(job) = rx.recv() {
        job();
    }
}

/// Returns the latched reference-mode flag, initialised from `VMQ_NO_POOL`.
fn spawn_mode_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| AtomicBool::new(std::env::var("VMQ_NO_POOL").is_ok_and(|v| v != "0" && !v.is_empty())))
}

/// True when tasks run on freshly spawned OS threads (the pre-pool reference
/// path) instead of the persistent workers. Latched from `VMQ_NO_POOL` at
/// first use; [`set_spawn_mode`] overrides it.
pub fn spawn_mode() -> bool {
    spawn_mode_flag().load(Ordering::Relaxed)
}

/// Forces the execution mode for A/B comparison (benches, parity tests).
/// Both modes compute bit-identical results, so flipping this concurrently
/// with other scopes affects only which path they take, never their output.
pub fn set_spawn_mode(enabled: bool) {
    spawn_mode_flag().store(enabled, Ordering::Relaxed);
}

/// The machine's width: [`std::thread::available_parallelism`], at least 1
/// and at most the pool's cap of 64 workers. This is the width a plan's
/// network decode shards over by default — coarse per-frame inference
/// (tens to hundreds of µs) pays for a pool scope many times over.
///
/// Latched at first use: the query reads the affinity mask and cgroup
/// quotas, which costs more than a batch should pay every time.
pub fn parallelism() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, MAX_WORKERS))
}

/// Counters exposed for benches and regression gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Persistent workers currently alive.
    pub workers: usize,
    /// OS threads ever spawned — pool growth plus every reference-mode task
    /// thread. In pooled steady state this stops moving; that invariant is
    /// what the fleet bench gates on.
    pub threads_spawned: u64,
    /// Tasks executed across all scopes (both modes, including inlined
    /// nested spawns).
    pub tasks_executed: u64,
    /// Tasks currently sitting in worker queues.
    pub queue_depth: usize,
    /// High-water mark of `queue_depth` since process start.
    pub max_queue_depth: usize,
}

/// Snapshot of the pool counters.
pub fn stats() -> PoolStats {
    let pool = pool();
    PoolStats {
        workers: pool.queues.lock().unwrap().len(),
        threads_spawned: pool.threads_spawned.load(Ordering::Relaxed),
        tasks_executed: pool.tasks_executed.load(Ordering::Relaxed),
        queue_depth: pool.queue_depth.load(Ordering::Relaxed),
        max_queue_depth: pool.max_queue_depth.load(Ordering::Relaxed),
    }
}

/// Per-scope join state: a pending-task count guarded by a mutex/condvar
/// pair plus the first captured panic payload. Scopes are independent, so
/// any number may be in flight on the shared pool at once.
struct ScopeSync {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

/// Handle passed to the closure given to [`scope`]; its only operation is
/// [`Scope::spawn`]. Invariant in `'env` so the compiler pins the borrowed
/// environment for the whole `scope` call.
pub struct Scope<'env> {
    sync: Arc<ScopeSync>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Dispatches `task` to a pool worker (or, in `VMQ_NO_POOL` reference
    /// mode, a fresh OS thread). Tasks spawned from inside a pool worker run
    /// inline immediately. The task is guaranteed to finish before the
    /// enclosing [`scope`] call returns; a panicking task is captured and
    /// re-raised from `scope` after all siblings have finished.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let sync = Arc::clone(&self.sync);
        *sync.pending.lock().unwrap() += 1;
        let pool = pool();
        let tracked = move || {
            let outcome = catch_unwind(AssertUnwindSafe(task));
            pool.tasks_executed.fetch_add(1, Ordering::Relaxed);
            if let Err(payload) = outcome {
                let mut slot = sync.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut pending = sync.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                sync.done.notify_all();
            }
        };
        if IN_WORKER.with(|flag| flag.get()) {
            tracked();
            return;
        }
        if spawn_mode() {
            let job = erase(Box::new(tracked));
            pool.threads_spawned.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name("vmq-exec-ref".into())
                .spawn(job)
                .expect("spawn reference-mode task thread");
            return;
        }
        pool.ensure_workers(1);
        let depth = pool.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        pool.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        let tracked = move || {
            pool.queue_depth.fetch_sub(1, Ordering::Relaxed);
            tracked();
        };
        pool.dispatch(erase(Box::new(tracked)));
    }

    /// Blocks until every spawned task has finished.
    fn join(&self) {
        let mut pending = self.sync.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.sync.done.wait(pending).unwrap();
        }
    }
}

/// Lifetime-erases a task so a long-lived worker can hold it. Sound because
/// [`scope`] joins before returning — see the module-level Safety section.
#[allow(unsafe_code)]
fn erase(task: Box<dyn FnOnce() + Send + '_>) -> Job {
    // SAFETY: only the vtable lifetime is erased (same layout, `'_` →
    // `'static`). The borrows the closure captures outlive every call:
    // the sole caller is `Scope::spawn`, and `scope` joins the pending
    // counter to zero before returning, so no erased task can run — or
    // exist — past `'env`. Panics don't escape this invariant either:
    // `scope` joins before resuming them.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(task) }
}

/// Runs `body` with a [`Scope`] whose spawns execute on the persistent pool,
/// sized (grown, never shrunk) to at least `workers` threads. Does not
/// return until every spawned task has finished; if `body` or any task
/// panicked, the panic resumes here after the join (first task panic wins
/// when `body` ran to completion).
///
/// Drop-in replacement for the sharded-stage uses of `std::thread::scope`:
/// partition the output into disjoint `&mut` chunks, spawn one task per
/// chunk, merge by position after `scope` returns.
pub fn scope<'env, R>(workers: usize, body: impl FnOnce(&Scope<'env>) -> R) -> R {
    if !spawn_mode() && !IN_WORKER.with(|flag| flag.get()) {
        pool().ensure_workers(workers.max(1));
    }
    let scope = Scope {
        sync: Arc::new(ScopeSync { pending: Mutex::new(0), done: Condvar::new(), panic: Mutex::new(None) }),
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| body(&scope)));
    scope.join();
    let task_panic = scope.sync.panic.lock().unwrap().take();
    match result {
        Err(payload) => resume_unwind(payload),
        Ok(value) => {
            if let Some(payload) = task_panic {
                resume_unwind(payload);
            }
            value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical call-site shape: disjoint `&mut` chunks of a borrowed
    /// output vector, one task per chunk, position-keyed results.
    fn square_sharded(input: &[u64], workers: usize) -> Vec<u64> {
        let n = input.len();
        if n == 0 {
            return Vec::new();
        }
        let chunk = n.div_ceil(workers.max(1));
        let mut out = vec![0u64; n];
        scope(workers, |s| {
            for (slots, part) in out.chunks_mut(chunk).zip(input.chunks(chunk)) {
                s.spawn(move || {
                    for (slot, x) in slots.iter_mut().zip(part) {
                        *slot = x * x;
                    }
                });
            }
        });
        out
    }

    #[test]
    fn scoped_tasks_borrow_and_merge_by_position() {
        let input: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * x).collect();
        for workers in [1, 2, 4, 7] {
            assert_eq!(square_sharded(&input, workers), expect);
        }
    }

    #[test]
    fn empty_scope_and_zero_workers_are_fine() {
        let out: i32 = scope(0, |_| 41) + 1;
        assert_eq!(out, 42);
    }

    #[test]
    fn nested_scope_runs_inline_without_deadlock() {
        let input: Vec<u64> = (0..32).collect();
        let mut out = vec![0u64; 32];
        scope(2, |s| {
            for (slots, part) in out.chunks_mut(16).zip(input.chunks(16)) {
                s.spawn(move || {
                    // A scope opened on a pool worker: its spawns must run
                    // inline rather than queue behind the enclosing tasks.
                    let inner = square_sharded(part, 2);
                    slots.copy_from_slice(&inner);
                });
            }
        });
        let expect: Vec<u64> = input.iter().map(|x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn task_panic_propagates_after_join() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(2, |s| {
                s.spawn(|| {});
                s.spawn(|| panic!("boom from task"));
                s.spawn(|| {});
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom from task");
    }

    /// Counter-sensitive assertions live in one test so concurrent tests in
    /// this binary (which only ever *use* the warm pool) cannot race them.
    #[test]
    fn warm_pool_spawns_nothing_and_reference_mode_spawns_per_task() {
        let input: Vec<u64> = (0..64).collect();
        // Pin pooled dispatch: the suite may run with VMQ_NO_POOL=1 latched,
        // and this test measures the pool specifically.
        let was = spawn_mode();
        set_spawn_mode(false);
        // Warm beyond anything the sibling tests request.
        pool().ensure_workers(8);
        assert!(stats().workers >= 8);
        // Siblings flipping the global mode mid-window can legitimately
        // spawn; retry until a window sees the counter quiescent.
        let mut attempt = 0;
        let (warm, steady) = loop {
            let before = stats();
            for _ in 0..50 {
                square_sharded(&input, 4);
            }
            let after = stats();
            if after.threads_spawned == before.threads_spawned || attempt == 4 {
                break (before, after);
            }
            attempt += 1;
        };
        assert_eq!(steady.threads_spawned, warm.threads_spawned, "warm pool must not spawn in steady state");
        assert!(steady.tasks_executed >= warm.tasks_executed + 200);

        // Reference mode: same results, one fresh OS thread per task.
        set_spawn_mode(true);
        let expect: Vec<u64> = input.iter().map(|x| x * x).collect();
        assert_eq!(square_sharded(&input, 4), expect);
        set_spawn_mode(was);
        let after = stats();
        assert!(after.threads_spawned >= steady.threads_spawned + 4, "reference mode must spawn per task");
    }

    #[test]
    fn parallelism_is_the_host_width_within_the_pool_cap() {
        let width = parallelism();
        assert!((1..=MAX_WORKERS).contains(&width), "width {width}");
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(width, host.min(MAX_WORKERS));
        assert_eq!(parallelism(), width, "latched");
    }

    #[test]
    fn spawn_mode_env_is_overridable() {
        let was = spawn_mode();
        set_spawn_mode(!was);
        assert_eq!(spawn_mode(), !was);
        set_spawn_mode(was);
        assert_eq!(spawn_mode(), was);
    }
}
