//! A filter with its raster hidden, the sequential reference for the
//! plan's network decode.

use vmq::filters::{FilterEstimate, FilterKind, FrameFilter};
use vmq::video::{Frame, ObjectClass};

/// Forwards everything but [`FrameFilter::raster`] (and the batch paths,
/// which keep their per-frame defaults): the plan treats the wrapped filter
/// like a backend that runs no network, so it estimates alone, frame by
/// frame, on the calling thread at the default width of 1.
pub struct Sequential<'a>(pub &'a dyn FrameFilter);

impl FrameFilter for Sequential<'_> {
    fn estimate(&self, frame: &Frame) -> FilterEstimate {
        self.0.estimate(frame)
    }

    fn kind(&self) -> FilterKind {
        self.0.kind()
    }

    fn grid_size(&self) -> usize {
        self.0.grid_size()
    }

    fn threshold(&self) -> f32 {
        self.0.threshold()
    }

    fn classes(&self) -> &[ObjectClass] {
        self.0.classes()
    }
}
