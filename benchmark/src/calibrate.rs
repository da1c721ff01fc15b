//! Host-speed calibration for the wall-clock metrics.
//!
//! The reference host is a two-vCPU guest on shared hardware, and its speed
//! moves by 30 % and more on a scale of seconds to hours: identical rounds of
//! `standing_many` take 135 ms in one run and 220 ms an hour later, and even
//! a 1.5 ms register-only loop varies by 35 % between its 10th and 90th
//! percentile. A median over one run cannot average that away, and a level
//! shift between two sets of runs would read as a regression of the code.
//!
//! So every timed span is bracketed by a frozen calibration kernel — a fixed
//! mix of integer, floating-point and hash-map work that takes about 9 ms —
//! and its wall time is divided by how much slower than nominal the kernel
//! ran right before and after it. What comes out are milliseconds *at the
//! reference host's undisturbed speed*. The kernel is the benchmark's own
//! code and never calls the library, so a change to the library moves the
//! span and not the kernel. Changing the kernel or [`NOMINAL_MS`] shifts
//! every wall metric: do not.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What [`Kernel::run_ms`] reads on the reference host when nothing else
/// runs (the fastest percentile of 2 500 runs).
pub const NOMINAL_MS: f64 = 8.1;

/// The calibration kernel and its working set: a 16 KiB array and a 64-key
/// map, both resident in the first-level cache after a few microseconds, so
/// that what the timed span left in the caches does not reach the reading.
pub struct Kernel {
    array: Box<[f32; 4096]>,
    map: HashMap<u64, u64>,
}

impl Kernel {
    pub fn new() -> Self {
        Kernel { array: Box::new([1.0; 4096]), map: (0..64).map(|k| (k, 0)).collect() }
    }

    /// Runs the kernel and returns its wall time in milliseconds.
    pub fn run_ms(&mut self) -> f64 {
        let start = Instant::now();
        // Integer pipeline: a linear congruential chain, registers only.
        let (mut x, mut acc) = (0u64, 0u64);
        for i in 0..4_000_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            acc ^= x >> 13;
        }
        // Floating point over the array.
        self.array.fill(1.0);
        for r in 0..600 {
            let k = 1.0 + r as f32 * 1e-7;
            for e in self.array.iter_mut() {
                *e = e.mul_add(k, 1e-6);
            }
        }
        // Branchy work: hashing and map updates.
        for i in 0..150_000u64 {
            *self.map.get_mut(&(i % 64)).expect("the 64 keys were inserted at construction") += i;
        }
        black_box((acc, self.array[17], self.map[&7]));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Kernel runs bracketing each set-up. A set-up is one long span with a
/// single bracket, where the hundred rounds of a run have a hundred.
pub const SETUP_SAMPLES: usize = 5;

/// Times spans and converts them to reference-speed milliseconds. Spans are
/// measured back to back: the kernel runs that close one span open the next.
pub struct Calibrated {
    kernel: Kernel,
    /// Kernel runs per bracket; their median is the bracket's reading.
    samples: usize,
    before_ms: f64,
}

impl Calibrated {
    pub fn start(samples: usize) -> Self {
        let mut calibrated = Calibrated { kernel: Kernel::new(), samples, before_ms: 0.0 };
        calibrated.before_ms = calibrated.bracket();
        calibrated
    }

    fn bracket(&mut self) -> f64 {
        let runs: Vec<f64> = (0..self.samples).map(|_| self.kernel.run_ms()).collect();
        crate::metrics::median(&runs)
    }

    /// Runs `f`; returns its result, its raw wall milliseconds, and those
    /// milliseconds at reference speed.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let start = Instant::now();
        let out = f();
        let raw_ms = start.elapsed().as_secs_f64() * 1e3;
        (out, raw_ms, self.close(raw_ms))
    }

    /// Closes a span that took `raw_ms` on the wall clock since the previous
    /// one closed (or since [`Calibrated::start`]): runs the kernel again and
    /// returns the span's milliseconds at reference speed.
    pub fn close(&mut self, raw_ms: f64) -> f64 {
        let after_ms = self.bracket();
        let slowdown = (self.before_ms + after_ms) / 2.0 / NOMINAL_MS;
        self.before_ms = after_ms;
        raw_ms / slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_span_as_slow_as_the_kernel_reads_nominal() {
        let mut calibrated = Calibrated::start(1);
        let mut kernel = Kernel::new();
        // Timing the kernel itself: raw ÷ slowdown is the nominal time, up to
        // the noise between three adjacent kernel runs.
        let (_, raw_ms, reference_ms) = calibrated.time(|| kernel.run_ms());
        assert!(raw_ms > 1.0, "the kernel does real work: {raw_ms} ms");
        assert!((reference_ms / NOMINAL_MS - 1.0).abs() < 0.5, "{reference_ms} ms against {NOMINAL_MS}");
    }
}
