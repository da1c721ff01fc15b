//! Process-wide persistent worker pool with a scoped spawn/join API.
//!
//! Every sharded stage in the workspace (filter batch inference, detector
//! escalation) used to pay `std::thread::scope` spawn/join on every batch —
//! at fleet scale that is four thread spawns per stage per batch per camera.
//! This crate replaces the per-batch spawns with a lazily grown,
//! process-global set of long-lived workers, each owning its queue;
//! [`scope`] hands out a [`Scope`] whose `spawn` dispatches borrowing
//! closures to those workers and whose exit joins them. The sharded stages
//! all go through [`shard_each`], the one chunk loop on top (contiguous
//! chunks, one task each, width 1 on the caller), or through [`shard_map`],
//! its position-keyed map form. [`pipeline`] is the one ordered loop: pool
//! tasks stage items ahead of a calling thread that completes them in index
//! order (the fleet poll).
//!
//! # Determinism contract
//!
//! The pool adds no scheduling semantics a call site can observe: tasks are
//! whole closures, results flow only through the disjoint `&mut` slices the
//! caller partitioned before spawning, and `scope` does not return until
//! every task has finished. [`shard_map`] merges its chunks by position, so
//! a per-item computation comes out bit-identical at every width, and width
//! 1 opens no scope at all: that run is the sequential reference every
//! pooled width is tested against. [`pipeline`] runs every `complete` on the
//! calling thread in index order; only its `stage` calls move between
//! threads, so a stage that touches nothing another item's stage or
//! completion reads gives the same bits at every width.
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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queues: Mutex::new(Vec::new()),
        next: AtomicUsize::new(0),
        threads_spawned: AtomicU64::new(0),
        tasks_executed: AtomicU64::new(0),
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

/// The threads a [`scope`] of `workers` tasks opened on this thread runs on:
/// `workers`, or 1 on a pool task or inside a [`pipeline`] stage, where
/// every spawn runs inline on the spawning thread. So a sharded stage can
/// report the width it actually ran at.
pub fn scope_width(workers: usize) -> usize {
    IN_WORKER.with(|inline| if inline.get() { 1 } else { workers })
}

/// Counters exposed for benches and regression gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Persistent workers currently alive.
    pub workers: usize,
    /// OS threads ever spawned, i.e. pool growth. In steady state this stops
    /// moving; that invariant is what the fleet bench gates on.
    pub threads_spawned: u64,
    /// Tasks executed across all scopes (including inlined nested spawns).
    pub tasks_executed: u64,
}

/// Snapshot of the pool counters.
pub fn stats() -> PoolStats {
    let pool = pool();
    PoolStats {
        workers: pool.queues.lock().unwrap().len(),
        threads_spawned: pool.threads_spawned.load(Ordering::Relaxed),
        tasks_executed: pool.tasks_executed.load(Ordering::Relaxed),
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
    /// Dispatches `task` to a pool worker. Tasks spawned from inside a pool
    /// worker run inline immediately. The task is guaranteed to finish before the
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
        pool.ensure_workers(1);
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
/// chunk, merge by position after `scope` returns ([`shard_map`] does
/// exactly that).
pub fn scope<'env, R>(workers: usize, body: impl FnOnce(&Scope<'env>) -> R) -> R {
    if !IN_WORKER.with(|flag| flag.get()) {
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

/// Maps `items` to one output each over up to `workers` pool tasks and
/// returns the outputs in input order.
///
/// The items are cut into at most `workers` contiguous chunks of
/// `div_ceil(len, workers)` and `per_chunk` maps each chunk to its outputs,
/// one per item and in order. So a per-chunk setup, such as taking a thread's
/// workspace, runs once per chunk. The chunks are merged by position, and
/// the result is the same at every width whenever `per_chunk` maps each item
/// on its own. Width 1 (or a single item) runs `per_chunk` over all items on
/// the calling thread without opening a scope; empty input calls nothing.
pub fn shard_map<I, T, F>(items: &[I], workers: usize, per_chunk: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&[I]) -> Vec<T> + Sync,
{
    let mut parts: Vec<(&[I], Vec<T>)> =
        items.chunks(chunk_len(items.len(), workers)).map(|c| (c, Vec::new())).collect();
    shard_each(&mut parts, &mut vec![(); workers.max(1)], |parts, ()| {
        parts.iter_mut().for_each(|(c, out)| *out = per_chunk(c))
    });
    let mut out = Vec::with_capacity(items.len());
    parts.into_iter().for_each(|(_, part)| out.extend(part));
    out
}

/// Runs `per_chunk` over `items` in place, with per-worker state: the
/// sibling of [`shard_map`] for work that writes its items and keeps scratch
/// of its own. The width is `states.len()`, at most one per item; the items
/// are cut into contiguous chunks of `div_ceil(len, width)` and the `i`-th
/// chunk runs as one pool task with `states[i]`. Width 1 (or a single item)
/// runs on the calling thread with `states[0]` without opening a scope;
/// empty input or no state calls nothing.
pub fn shard_each<I, S, F>(items: &mut [I], states: &mut [S], per_chunk: F)
where
    I: Send,
    S: Send,
    F: Fn(&mut [I], &mut S) + Sync,
{
    let per_chunk = &per_chunk;
    match states.len().min(items.len()) {
        0 => {}
        1 => per_chunk(items, &mut states[0]),
        workers => scope(workers, |s| {
            for (part, state) in items.chunks_mut(chunk_len(items.len(), workers)).zip(states) {
                s.spawn(move || per_chunk(part, state));
            }
        }),
    }
}

/// Runs `stage` over every item and `complete` over every item in index
/// order, the two overlapped: `min(workers, items) − 1` pool tasks claim
/// items one at a time in index order and stage them, while the calling
/// thread completes each item as soon as it is staged and, whenever the
/// next one is not, claims and stages one itself. So `complete` sees item
/// `i` only after its `stage`, and always after item `i − 1`'s `complete`;
/// `stage` calls on different items may run at once, on any threads. A
/// pool scope opened inside `stage` runs inline on whichever thread
/// stages, the caller included, so a stage never queues behind a sibling.
///
/// Width 1 (or at most one item) opens no scope: each item is staged and
/// completed on the calling thread before the next. A panic in either
/// closure stops all further claims; `pipeline` re-raises it once every
/// pool task has returned, and never waits for an item whose stage failed.
pub fn pipeline<I, S, C>(items: &mut [I], workers: usize, stage: S, mut complete: C)
where
    I: Send,
    S: Fn(&mut I) + Sync,
    C: FnMut(&mut I),
{
    let width = workers.min(items.len());
    if width <= 1 {
        for item in items {
            stage(&mut *item);
            complete(item);
        }
        return;
    }
    let n = items.len();
    let line = Line {
        board: Mutex::new(Board {
            slots: items.iter_mut().map(Some).collect(),
            next: 0,
            waiting: false,
            stopped: false,
        }),
        staged: Condvar::new(),
    };
    let (line, stage) = (&line, &stage);
    scope(width - 1, |s| {
        for _ in 1..width {
            s.spawn(move || {
                let _stop = StopOnUnwind(line);
                while let Some((k, item)) = line.claim() {
                    stage(&mut *item);
                    line.put_staged(k, item);
                }
            });
        }
        let _stop = StopOnUnwind(line);
        for i in 0..n {
            let item = loop {
                match line.step(i) {
                    Step::Complete(item) => break item,
                    Step::Stage(k, item) => {
                        inline_nested(|| stage(&mut *item));
                        line.put_staged(k, item);
                    }
                    // A pool task's stage panicked: `scope` re-raises it.
                    Step::Stop => return,
                }
            };
            complete(item);
        }
    });
}

/// The shared state of one [`pipeline`] call: each item's `&mut` parks in
/// its slot while unclaimed or staged and travels with whoever stages it.
struct Line<'a, I> {
    board: Mutex<Board<'a, I>>,
    /// Signalled when an item comes back staged (or the line stops) while
    /// the caller waits.
    staged: Condvar,
}

struct Board<'a, I> {
    /// `slots[k]` is `Some` before item `k` is claimed (`k >= next`) and
    /// again once it is staged; `None` while it is staged or completed.
    slots: Vec<Option<&'a mut I>>,
    next: usize,
    waiting: bool,
    stopped: bool,
}

enum Step<'a, I> {
    Complete(&'a mut I),
    Stage(usize, &'a mut I),
    Stop,
}

impl<'a, I> Line<'a, I> {
    /// The board; no closure of the caller's ever runs under its lock, so it
    /// is never poisoned.
    fn board(&self) -> std::sync::MutexGuard<'_, Board<'a, I>> {
        self.board.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// What the caller does next for item `i`: complete it once staged,
    /// else stage the next unclaimed item, else wait for a pool task.
    fn step(&self, i: usize) -> Step<'a, I> {
        let mut board = self.board();
        loop {
            if board.stopped {
                return Step::Stop;
            }
            if i < board.next {
                if let Some(item) = board.slots[i].take() {
                    return Step::Complete(item);
                }
            }
            if let Some((k, item)) = board.claim() {
                return Step::Stage(k, item);
            }
            board.waiting = true;
            board = self.staged.wait(board).unwrap_or_else(std::sync::PoisonError::into_inner);
            board.waiting = false;
        }
    }

    fn put_staged(&self, k: usize, item: &'a mut I) {
        let mut board = self.board();
        board.slots[k] = Some(item);
        if board.waiting {
            self.staged.notify_one();
        }
    }

    /// Claims the next item for a pool task (the board's lock is released
    /// before the caller stages it).
    fn claim(&self) -> Option<(usize, &'a mut I)> {
        self.board().claim()
    }
}

/// Stops the line if its thread unwinds: no item is claimed after, and a
/// waiting caller wakes to return.
struct StopOnUnwind<'l, 'a, I>(&'l Line<'a, I>);

impl<I> Drop for StopOnUnwind<'_, '_, I> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.board().stopped = true;
            self.0.staged.notify_one();
        }
    }
}

impl<'a, I> Board<'a, I> {
    /// Claims the next item in index order, unless the line has stopped.
    fn claim(&mut self) -> Option<(usize, &'a mut I)> {
        if self.stopped || self.next == self.slots.len() {
            return None;
        }
        let k = self.next;
        self.next += 1;
        Some((k, self.slots[k].take().expect("an unclaimed item is parked")))
    }
}

/// Runs `f` with this thread counted as a pool worker, so a scope opened
/// inside runs its spawns inline rather than queueing them behind
/// [`pipeline`]'s own tasks.
fn inline_nested<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(IN_WORKER.with(|flag| flag.replace(true)));
    f()
}

/// The chunk length both shard loops cut `len` items into for `workers`.
fn chunk_len(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.clamp(1, len.max(1))).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_all(part: &[u64]) -> Vec<u64> {
        part.iter().map(|x| x * x).collect()
    }

    #[test]
    fn scoped_tasks_borrow_and_merge_by_position() {
        let input: Vec<u64> = (0..97).collect();
        let expect = square_all(&input);
        for workers in [1, 2, 4, 7] {
            assert_eq!(shard_map(&input, workers, square_all), expect, "width {workers}");
            // Chunks arrive whole and in order: each sees a contiguous run.
            let starts = shard_map(&input, workers, |part| vec![part[0]; part.len()]);
            let chunk = input.len().div_ceil(workers);
            assert!(starts.iter().zip(&input).all(|(&s, &x)| s == x - x % chunk as u64), "width {workers}");
        }
        let empty: [u64; 0] = [];
        assert!(shard_map(&empty, 4, |_| -> Vec<u64> { unreachable!("no chunk for empty input") }).is_empty());
    }

    #[test]
    fn shard_each_hands_each_chunk_its_own_state() {
        let caller = std::thread::current().id();
        for workers in [1, 2, 3, 4, 7] {
            let mut items: Vec<(u64, usize)> = (0..23).map(|x| (x, usize::MAX)).collect();
            let mut states: Vec<(usize, Option<std::thread::ThreadId>)> = (0..workers).map(|i| (i, None)).collect();
            shard_each(&mut items, &mut states, |part, (i, thread)| {
                *thread = Some(std::thread::current().id());
                part.iter_mut().for_each(|(x, owner)| (*x, *owner) = (*x * *x, *i));
            });
            let chunk = 23usize.div_ceil(workers);
            assert!(items.iter().enumerate().all(|(k, &(x, owner))| x == (k * k) as u64 && owner == k / chunk));
            let ran = states.iter().filter(|(_, thread)| thread.is_some()).count();
            assert_eq!(ran, 23usize.div_ceil(chunk), "width {workers}: one state per chunk");
            assert_eq!(states[0].1 == Some(caller), workers == 1, "width {workers}: only width 1 runs on the caller");
        }
        let mut no_items: [u64; 0] = [];
        shard_each(&mut no_items, &mut [()], |_, _| unreachable!("no chunk for empty input"));
        shard_each(&mut [1u64], &mut [] as &mut [()], |_, _| unreachable!("no chunk without a state"));
    }

    #[test]
    fn pipeline_completes_in_index_order_after_each_stage() {
        let caller = std::thread::current().id();
        for workers in 1..=4 {
            for n in [0, 1, 2, 23] {
                let mut items: Vec<(usize, usize, Option<std::thread::ThreadId>)> =
                    (0..n).map(|i| (i, 0, None)).collect();
                let mut order = Vec::new();
                pipeline(
                    &mut items,
                    workers,
                    |(_, width, thread)| (*width, *thread) = (scope_width(7), Some(std::thread::current().id())),
                    |&mut (i, width, _)| {
                        assert!(width > 0, "width {workers}: item {i} completed before its stage");
                        order.push(i);
                    },
                );
                assert_eq!(order, (0..n).collect::<Vec<_>>(), "width {workers}, {n} items");
                // Without a scope every stage runs on the calling thread,
                // and a scope opened there runs at its full width; inside
                // one, a nested scope runs inline.
                let alone = workers == 1 || n <= 1;
                let expected = if alone { 7 } else { 1 };
                assert!(items.iter().all(|&(_, width, _)| width == expected), "width {workers}, {n} items");
                if alone {
                    assert!(items.iter().all(|&(_, _, thread)| thread == Some(caller)), "width {workers}, {n} items");
                }
            }
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
        assert_eq!(scope_width(2), 2);
        scope(2, |s| {
            for (slots, part) in out.chunks_mut(16).zip(input.chunks(16)) {
                s.spawn(move || {
                    // A scope opened on a pool worker: its spawns must run
                    // inline rather than queue behind the enclosing tasks.
                    assert_eq!(scope_width(2), 1);
                    let inner = shard_map(part, 2, square_all);
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
    fn warm_pool_spawns_nothing_in_steady_state() {
        let input: Vec<u64> = (0..64).collect();
        // Warm beyond anything the sibling tests request.
        pool().ensure_workers(8);
        assert!(stats().workers >= 8);
        let warm = stats();
        let mut items = input.clone();
        for _ in 0..50 {
            shard_map(&input, 4, square_all);
            pipeline(&mut items, 4, |x| *x += 1, |x| *x -= 1);
        }
        assert_eq!(items, input);
        let steady = stats();
        assert_eq!(steady.threads_spawned, warm.threads_spawned, "warm pool must not spawn in steady state");
        assert!(steady.tasks_executed >= warm.tasks_executed + 350);
    }

    #[test]
    fn parallelism_is_the_host_width_within_the_pool_cap() {
        let width = parallelism();
        assert!((1..=MAX_WORKERS).contains(&width), "width {width}");
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(width, host.min(MAX_WORKERS));
        assert_eq!(parallelism(), width, "latched");
    }
}
