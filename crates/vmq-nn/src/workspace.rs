//! Caller-owned scratch buffers for allocation-free inference.
//!
//! The filter hot path runs the same small network on thousands of frames,
//! and a heap allocation per layer (an im2col column matrix alone is tens of
//! kilobytes) would dominate the per-frame cost. Training travels through a
//! workspace too, and keeps what backward needs on a [`Tape`] beside it.
//!
//! A [`Workspace`] holds the handful of buffers one pass needs:
//!
//! * two ping-pong activation buffers (`cur` / `nxt`) that layers read from
//!   and write into,
//! * an im2col column buffer shared by every convolution of the pass, and
//! * a stash buffer for networks that branch (the OD filter reads its branch
//!   output twice: once for the grid head, once for the count head).
//!
//! Buffers grow to the high-water mark of the first pass and are reused —
//! Vec capacity is kept across [`Workspace::load`] calls — so steady-state
//! inference performs no heap allocation inside the network. Each worker
//! thread of a sharded batch owns one workspace; the network itself is only
//! read (`&self`), which is what lets a trained net serve many threads
//! concurrently without a lock.

use crate::tensor::Tensor;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Reusable scratch buffers for one thread's inference passes.
///
/// The three `q_*` buffers extend the workspace for int8 quantized
/// inference ([`crate::quant`]): the quantized activation, the quantized
/// patch (im2row) matrix and the i32 GEMM accumulator. Like the f32
/// buffers they grow once and are reused, so quantized passes are also
/// allocation-free in steady state.
#[derive(Debug, Default)]
pub struct Workspace {
    cur: Vec<f32>,
    nxt: Vec<f32>,
    cols: Vec<f32>,
    stash_buf: Vec<f32>,
    shape: Vec<usize>,
    stash_shape: Vec<usize>,
    q_act: Vec<i8>,
    q_cols: Vec<i8>,
    q_acc: Vec<i32>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Loads a tensor as the current activation.
    pub fn load(&mut self, input: &Tensor) {
        self.load_slice(input.data(), input.shape());
    }

    /// Loads raw data with an explicit shape as the current activation.
    pub fn load_slice(&mut self, data: &[f32], shape: &[usize]) {
        debug_assert_eq!(data.len(), shape.iter().product::<usize>(), "workspace load shape mismatch");
        self.load_with(shape).extend_from_slice(data);
    }

    /// Declares the current activation's shape and hands out its buffer,
    /// emptied, for a producer that writes the input in place (a rasteriser
    /// rendering straight into the workspace) instead of building it
    /// elsewhere and copying it in through [`Workspace::load_slice`]. The
    /// caller must leave exactly `shape`'s element count in it.
    pub fn load_with(&mut self, shape: &[usize]) -> &mut Vec<f32> {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.cur.clear();
        &mut self.cur
    }

    /// The current activation data.
    pub fn data(&self) -> &[f32] {
        &self.cur
    }

    /// Mutable view of the current activation (for in-place layers).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.cur
    }

    /// The current activation shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Replaces the current shape without touching the data (reshape-style
    /// layers such as `Flatten`).
    pub fn set_shape(&mut self, shape: &[usize]) {
        debug_assert_eq!(self.cur.len(), shape.iter().product::<usize>(), "workspace reshape mismatch");
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Splits the workspace into `(current input, output buffer, column
    /// buffer)` for a layer that reads `cur` and writes its output into the
    /// back buffer (and, for convolutions, its columns into `cols`).
    pub fn split(&mut self) -> (&[f32], &mut Vec<f32>, &mut Vec<f32>) {
        (&self.cur, &mut self.nxt, &mut self.cols)
    }

    /// [`Workspace::split`] for int8 layers: `(current f32 input, f32
    /// output buffer, i8 activation buffer, i8 patch buffer, i32
    /// accumulator buffer)`.
    #[allow(clippy::type_complexity)]
    pub fn split_quant(&mut self) -> (&[f32], &mut Vec<f32>, &mut Vec<i8>, &mut Vec<i8>, &mut Vec<i32>) {
        (&self.cur, &mut self.nxt, &mut self.q_act, &mut self.q_cols, &mut self.q_acc)
    }

    /// Promotes the back buffer (filled via [`Workspace::split`]) to the
    /// current activation with the given shape.
    pub fn commit(&mut self, shape: &[usize]) {
        debug_assert_eq!(self.nxt.len(), shape.iter().product::<usize>(), "workspace commit shape mismatch");
        std::mem::swap(&mut self.cur, &mut self.nxt);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Saves a copy of the current activation so a second head can resume
    /// from it after the first head overwrote the ping-pong buffers.
    pub fn stash(&mut self) {
        self.stash_buf.clear();
        self.stash_buf.extend_from_slice(&self.cur);
        self.stash_shape.clear();
        self.stash_shape.extend_from_slice(&self.shape);
    }

    /// Restores the stashed activation as the current one.
    pub fn unstash(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.stash_buf);
        std::mem::swap(&mut self.shape, &mut self.stash_shape);
    }

    /// Adds the stashed activation into the current one, element by element
    /// (`cur[i] += stash[i]`): where a branch's gradient from its second
    /// head joins the one from its first.
    pub fn add_stash(&mut self) {
        debug_assert_eq!(self.cur.len(), self.stash_buf.len(), "workspace add_stash length mismatch");
        for (c, &s) in self.cur.iter_mut().zip(&self.stash_buf) {
            *c += s;
        }
    }

    /// Copies the current activation out as a tensor (the one allocation of
    /// an inference pass, and only when the caller wants a `Tensor` result).
    pub fn output(&self) -> Tensor {
        Tensor::from_vec(self.cur.clone(), self.shape.clone())
    }

    /// Total bytes of heap capacity held across all scratch buffers. Flat
    /// once the buffers reach their high-water mark — the reuse invariant
    /// [`scratch_growth_events`] counts violations of.
    pub fn capacity_bytes(&self) -> usize {
        std::mem::size_of::<f32>()
            * (self.cur.capacity() + self.nxt.capacity() + self.cols.capacity() + self.stash_buf.capacity())
            + std::mem::size_of::<usize>() * (self.shape.capacity() + self.stash_shape.capacity())
            + self.q_act.capacity()
            + self.q_cols.capacity()
            + std::mem::size_of::<i32>() * self.q_acc.capacity()
    }
}

/// What one sample's training forward pass leaves for its backward pass:
/// padded inputs and activations in `vals`, pooling indices and input
/// shapes in `idx`, each a stack.
///
/// Each layer's `forward` pushes its records and its `backward` pops them in
/// reverse, so a network of `&self` layers trains through a tape its caller
/// owns, and any number of samples run side by side, each on its own tape.
/// Popped records keep their buffers: from the second sample on, a tape
/// that sees the same network allocates nothing.
#[derive(Debug, Default)]
pub struct Tape {
    /// `f32` records.
    pub vals: Records<f32>,
    /// Index and dimension records.
    pub idx: Records<usize>,
}

impl Tape {
    /// True when every pushed record has been popped again.
    pub fn is_empty(&self) -> bool {
        self.vals.top == 0 && self.idx.top == 0
    }

    /// Total bytes of heap capacity the tape holds; flat after one sample.
    pub fn capacity_bytes(&self) -> usize {
        self.vals.capacity_bytes() + self.idx.capacity_bytes()
    }
}

/// A stack of records whose buffers outlive them; `top` of them are live.
#[derive(Debug, Default)]
pub struct Records<T> {
    bufs: Vec<Vec<T>>,
    top: usize,
}

impl<T> Records<T> {
    /// Pushes a record and hands out its buffer, emptied, to fill.
    pub fn push(&mut self) -> &mut Vec<T> {
        self.top += 1;
        self.bufs.resize_with(self.bufs.len().max(self.top), Vec::new);
        let buf = &mut self.bufs[self.top - 1];
        buf.clear();
        buf
    }

    /// Pops the most recently pushed record.
    pub fn pop(&mut self) -> &[T] {
        self.top = self.top.checked_sub(1).expect("tape popped more records than forward pushed");
        &self.bufs[self.top]
    }

    fn capacity_bytes(&self) -> usize {
        self.bufs.capacity() * size_of::<Vec<T>>() + self.bufs.iter().map(Vec::capacity).sum::<usize>() * size_of::<T>()
    }
}

thread_local! {
    /// One workspace per thread, living as long as the thread does. On the
    /// persistent `vmq_exec` pool workers this is what turns "fresh scratch
    /// per sharded batch" into "scratch reused across every batch the worker
    /// ever runs".
    static THREAD_WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Times the thread-local workspace grew past its previous high-water mark,
/// process-wide. After warm-up this must stop moving; a sharded stage that
/// re-allocates scratch every batch shows up here (and fails the fleet
/// bench's steady-state gate).
static GROWTH_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of thread-local workspace growth events.
pub fn scratch_growth_events() -> u64 {
    GROWTH_EVENTS.load(Ordering::Relaxed)
}

/// Runs `f` with this thread's persistent [`Workspace`], recording a growth
/// event if the call left the scratch buffers larger than it found them.
/// Callers must not nest this (the workspace is exclusively borrowed), which
/// mirrors the old discipline of one locally constructed workspace per shard
/// loop.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WORKSPACE.with(|cell| {
        let mut ws = cell.borrow_mut();
        let before = ws.capacity_bytes();
        let out = f(&mut ws);
        if ws.capacity_bytes() > before {
            GROWTH_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_split_commit_roundtrip() {
        let mut ws = Workspace::new();
        ws.load(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]));
        assert_eq!(ws.shape(), &[2, 2]);
        {
            let (cur, nxt, _cols) = ws.split();
            nxt.clear();
            nxt.extend(cur.iter().map(|v| v * 2.0));
        }
        ws.commit(&[4]);
        assert_eq!(ws.data(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(ws.output().shape(), &[4]);
    }

    #[test]
    fn stash_survives_overwrites() {
        let mut ws = Workspace::new();
        ws.load(&Tensor::from_vec(vec![5.0, 6.0], vec![2]));
        ws.stash();
        ws.load(&Tensor::from_vec(vec![0.0; 3], vec![3]));
        ws.unstash();
        assert_eq!(ws.data(), &[5.0, 6.0]);
        assert_eq!(ws.shape(), &[2]);
    }

    #[test]
    fn thread_workspace_capacity_is_flat_after_warmup() {
        let load = vec![0.5f32; 4096];
        // First call grows the thread-local buffers to the high-water mark…
        let warm = with_thread_workspace(|ws| {
            ws.load_slice(&load, &[4096]);
            ws.stash();
            ws.capacity_bytes()
        });
        // …after which identical passes must not allocate.
        for _ in 0..10 {
            let now = with_thread_workspace(|ws| {
                ws.load_slice(&load, &[4096]);
                ws.stash();
                ws.capacity_bytes()
            });
            assert!(now <= warm, "steady-state pass grew scratch: {now} > {warm}");
        }
    }

    #[test]
    fn growth_counter_records_high_water_moves() {
        let before = scratch_growth_events();
        // vmq-lint: allow(no-raw-thread-spawn) -- the test needs a fresh OS
        // thread whose thread-local workspace starts empty; a pool worker
        // may already hold a warm workspace from earlier tasks.
        std::thread::spawn(|| {
            // A fresh thread starts from an empty workspace, so this call
            // must register as growth.
            with_thread_workspace(|ws| ws.load_slice(&[1.0; 512], &[512]));
        })
        .join()
        .unwrap();
        assert!(scratch_growth_events() > before);
    }

    #[test]
    fn set_shape_reshapes_in_place() {
        let mut ws = Workspace::new();
        ws.load(&Tensor::from_vec(vec![1.0; 6], vec![2, 3]));
        ws.set_shape(&[6]);
        assert_eq!(ws.shape(), &[6]);
        assert_eq!(ws.data().len(), 6);
    }
}
