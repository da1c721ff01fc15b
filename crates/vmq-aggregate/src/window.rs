//! Hopping windows over frame streams (the `WINDOW HOPPING` clause of the
//! paper's aggregate query example: `SIZE 5000, ADVANCE BY 5000`).

use serde::{Deserialize, Serialize};

/// A hopping (possibly overlapping) window specification in frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HoppingWindow {
    /// Window size in frames.
    pub size: usize,
    /// Advance (hop) between consecutive windows, in frames.
    pub advance: usize,
}

impl HoppingWindow {
    /// Creates a window specification.
    ///
    /// # Panics
    /// Panics when size or advance is zero.
    pub fn new(size: usize, advance: usize) -> Self {
        assert!(size > 0, "window size must be positive");
        assert!(advance > 0, "window advance must be positive");
        HoppingWindow { size, advance }
    }

    /// A tumbling window (advance equals size).
    pub fn tumbling(size: usize) -> Self {
        HoppingWindow::new(size, size)
    }

    /// The `(start, end)` index ranges (end exclusive) of all *complete*
    /// windows over a stream of `n` frames.
    pub fn windows(&self, n: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start = 0usize;
        while start + self.size <= n {
            out.push((start, start + self.size));
            start += self.advance;
        }
        out
    }

    /// Converts a duration in seconds to a window of frames at a given fps.
    pub fn from_duration(seconds: f64, advance_seconds: f64, fps: f32) -> Self {
        let size = (seconds * fps as f64).round().max(1.0) as usize;
        let advance = (advance_seconds * fps as f64).round().max(1.0) as usize;
        HoppingWindow::new(size, advance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_windows_partition() {
        let w = HoppingWindow::tumbling(10);
        let windows = w.windows(35);
        assert_eq!(windows, vec![(0, 10), (10, 20), (20, 30)]);
    }

    #[test]
    fn hopping_windows_overlap() {
        let w = HoppingWindow::new(10, 5);
        let windows = w.windows(20);
        assert_eq!(windows, vec![(0, 10), (5, 15), (10, 20)]);
    }

    #[test]
    fn short_stream_has_no_complete_window() {
        let w = HoppingWindow::tumbling(100);
        assert!(w.windows(50).is_empty());
    }

    #[test]
    fn paper_example_window() {
        // `WINDOW HOPPING (SIZE 5000, ADVANCE BY 5000)` tumbles.
        let w = HoppingWindow::new(5000, 5000);
        assert_eq!(w, HoppingWindow::tumbling(5000));
        assert_eq!(w.windows(12_000), vec![(0, 5000), (5000, 10_000)]);
    }

    #[test]
    fn duration_conversion() {
        // 10 minutes at 30 fps = 18 000 frames (the "parked for 10 minutes" case).
        let w = HoppingWindow::from_duration(600.0, 600.0, 30.0);
        assert_eq!(w, HoppingWindow::tumbling(18_000));
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_size_rejected() {
        let _ = HoppingWindow::new(0, 5);
    }
}
