//! Rendering frames into small multi-channel images.
//!
//! Filters in `vmq-filters` never see ground-truth annotations — they see the
//! output of this rasteriser, which plays the role the raw video pixels play
//! in the paper. Objects are drawn as class-specific shapes in their assigned
//! colour, on top of a textured background, with additive pixel noise and
//! random clutter blobs, so counting and localising objects is a genuine
//! (small) computer-vision problem.

use crate::object::{ObjectClass, SceneObject};
use crate::stream::Frame;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// Raw RNG words drawn per block of the noise pass (a 1 KiB stack array).
const NOISE_BLOCK: usize = 256;

/// A dense row-major image with `channels × height × width` values in `[0,1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    /// Number of channels (3 for the default RGB-like rendering).
    pub channels: usize,
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
    /// Pixel data in `CHW` order.
    pub data: Vec<f32>,
}

impl Image {
    /// Creates a black image.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Self {
        Image { channels, height, width, data: vec![0.0; channels * height * width] }
    }

    /// Value at channel `c`, row `y`, column `x`.
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        self.data[c * self.height * self.width + y * self.width + x]
    }

    /// Mutable value at channel `c`, row `y`, column `x`.
    pub fn get_mut(&mut self, c: usize, y: usize, x: usize) -> &mut f32 {
        &mut self.data[c * self.height * self.width + y * self.width + x]
    }

    /// Total number of pixels (per channel).
    pub fn pixels(&self) -> usize {
        self.height * self.width
    }

    /// Mean intensity over all channels and pixels.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }
}

/// Configuration of the rasteriser. Two equal configurations render every
/// frame to the same pixels, which is what lets filters share one render.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RasterConfig {
    /// Output width in pixels.
    pub width: usize,
    /// Output height in pixels.
    pub height: usize,
    /// Standard deviation of additive Gaussian pixel noise.
    pub noise: f32,
    /// Number of random background clutter blobs per frame.
    pub clutter: usize,
    /// Seed mixed with the frame id so renders are deterministic.
    pub seed: u64,
}

impl Default for RasterConfig {
    fn default() -> Self {
        RasterConfig { width: 56, height: 56, noise: 0.03, clutter: 3, seed: 0xBEEF }
    }
}

impl RasterConfig {
    /// A small configuration for fast unit tests.
    pub fn tiny() -> Self {
        RasterConfig { width: 28, height: 28, noise: 0.02, clutter: 1, seed: 0xBEEF }
    }

    /// Renders a frame into an image.
    pub fn render(&self, frame: &Frame) -> Image {
        let mut data = Vec::new();
        self.render_into(frame, &mut data);
        Image { channels: 3, height: self.height, width: self.width, data }
    }

    /// Renders a frame into `out` as `3 × height × width` values in `CHW`
    /// order — [`RasterConfig::render`] without the [`Image`], for callers
    /// that own the destination buffer (previous contents are discarded,
    /// capacity is reused).
    pub fn render_into(&self, frame: &Frame, out: &mut Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ frame.frame_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        out.clear();
        out.resize(3 * self.height * self.width, 0.0);

        self.paint_background(out, &mut rng);
        for _ in 0..self.clutter {
            self.paint_clutter(out, &mut rng);
        }
        // Draw objects back-to-front by vertical position so overlaps look
        // consistent frame to frame.
        let mut objs: Vec<&SceneObject> = frame.objects.iter().collect();
        objs.sort_by(|a, b| a.bbox.y.partial_cmp(&b.bbox.y).unwrap_or(std::cmp::Ordering::Equal));
        for obj in objs {
            self.paint_object(out, obj);
        }
        if self.noise > 0.0 {
            self.add_noise(out, &mut rng);
        }
    }

    /// Additive pixel noise, one `gen_range(-1.0..1.0f32)` draw per value in
    /// buffer order. The draws come in blocks of [`NOISE_BLOCK`] raw words
    /// and the block is then applied with `gen_range`'s exact formula, so
    /// the stream and every value are those of a per-value `gen_range` loop
    /// while the apply loop carries no RNG state and vectorises.
    fn add_noise(&self, out: &mut [f32], rng: &mut StdRng) {
        const UNIT: f32 = 1.0 / (1u32 << 24) as f32;
        let mut draws = [0u32; NOISE_BLOCK];
        for block in out.chunks_mut(NOISE_BLOCK) {
            let draws = &mut draws[..block.len()];
            for r in draws.iter_mut() {
                *r = rng.next_u32();
            }
            for (v, &r) in block.iter_mut().zip(draws.iter()) {
                let n = (-1.0 + 2.0 * ((r >> 8) as f32 * UNIT)) * self.noise;
                *v = (*v + n).clamp(0.0, 1.0);
            }
        }
    }

    /// Index of channel `c`, row `y`, column `x` in a rendered buffer.
    fn at(&self, c: usize, y: usize, x: usize) -> usize {
        c * self.height * self.width + y * self.width + x
    }

    fn paint_background(&self, img: &mut [f32], rng: &mut StdRng) {
        let base = [0.35f32, 0.38, 0.36];
        let tilt: f32 = rng.gen_range(-0.05..0.05);
        for y in 0..self.height {
            let grad = 0.08 * (y as f32 / self.height.max(1) as f32) + tilt;
            for (c, b) in base.iter().enumerate() {
                let row = self.at(c, y, 0);
                img[row..row + self.width].fill((b + grad).clamp(0.0, 1.0));
            }
        }
    }

    fn paint_clutter(&self, img: &mut [f32], rng: &mut StdRng) {
        let cx = rng.gen_range(0..self.width);
        let cy = rng.gen_range(0..self.height);
        let r = rng.gen_range(1..(self.width / 10).max(2));
        let tint: f32 = rng.gen_range(-0.08..0.08);
        for y in cy.saturating_sub(r)..(cy + r).min(self.height) {
            for x in cx.saturating_sub(r)..(cx + r).min(self.width) {
                for c in 0..3 {
                    let v = &mut img[self.at(c, y, x)];
                    *v = (*v + tint).clamp(0.0, 1.0);
                }
            }
        }
    }

    fn paint_object(&self, img: &mut [f32], obj: &SceneObject) {
        let rgb = obj.color.rgb();
        let x0 = (obj.bbox.x * self.width as f32).floor().max(0.0) as usize;
        let y0 = (obj.bbox.y * self.height as f32).floor().max(0.0) as usize;
        let x1 = ((obj.bbox.right() * self.width as f32).ceil() as usize).min(self.width);
        let y1 = ((obj.bbox.bottom() * self.height as f32).ceil() as usize).min(self.height);
        if x1 <= x0 || y1 <= y0 {
            return;
        }
        for y in y0..y1 {
            for x in x0..x1 {
                let (fy, fx) = ((y - y0) as f32 / (y1 - y0) as f32, (x - x0) as f32 / (x1 - x0) as f32);
                let shade = self.class_texture(obj.class, fx, fy);
                for (c, &channel) in rgb.iter().enumerate() {
                    img[self.at(c, y, x)] = (channel * shade).clamp(0.0, 1.0);
                }
            }
        }
    }

    /// Class-specific texture: a multiplicative shading pattern inside the
    /// object box that lets networks discriminate classes beyond colour.
    fn class_texture(&self, class: ObjectClass, fx: f32, fy: f32) -> f32 {
        match class {
            // Person: narrow bright vertical core with darker edges (head/torso).
            ObjectClass::Person => {
                let core = 1.0 - (fx - 0.5).abs() * 1.6;
                (0.35 + 0.75 * core.max(0.0)).min(1.2)
            }
            // Car: darker upper band (windows), bright body below.
            ObjectClass::Car => {
                if fy < 0.45 {
                    0.55
                } else {
                    1.05
                }
            }
            // Bus: periodic bright window dots along the top half.
            ObjectClass::Bus => {
                if fy < 0.5 && ((fx * 6.0) as usize).is_multiple_of(2) {
                    1.15
                } else {
                    0.8
                }
            }
            // Truck: cab (front quarter) brighter than trailer.
            ObjectClass::Truck => {
                if fx < 0.3 {
                    1.1
                } else {
                    0.7
                }
            }
            // Bicycle: two bright wheel spots at the lower corners.
            ObjectClass::Bicycle => {
                let d0 = ((fx - 0.2).powi(2) + (fy - 0.8).powi(2)).sqrt();
                let d1 = ((fx - 0.8).powi(2) + (fy - 0.8).powi(2)).sqrt();
                if d0 < 0.2 || d1 < 0.2 {
                    1.2
                } else {
                    0.5
                }
            }
            // Stop sign: bright centre on the class colour.
            ObjectClass::StopSign => {
                if (fx - 0.5).abs() < 0.3 && (fy - 0.5).abs() < 0.2 {
                    1.3
                } else {
                    0.9
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{BoundingBox, Color, SceneObject};

    fn frame_with(objects: Vec<SceneObject>) -> Frame {
        Frame { camera_id: 0, frame_id: 7, timestamp: 0.0, objects }
    }

    fn red_car_at(cx: f32, cy: f32) -> SceneObject {
        SceneObject {
            track_id: 1,
            class: ObjectClass::Car,
            color: Color::Red,
            bbox: BoundingBox::from_center(cx, cy, 0.2, 0.15),
            velocity: (0.0, 0.0),
        }
    }

    #[test]
    fn image_indexing() {
        let mut img = Image::zeros(3, 4, 5);
        *img.get_mut(2, 3, 4) = 0.7;
        assert_eq!(img.get(2, 3, 4), 0.7);
        assert_eq!(img.pixels(), 20);
    }

    #[test]
    fn render_produces_expected_shape_and_range() {
        let cfg = RasterConfig::default();
        let img = cfg.render(&frame_with(vec![red_car_at(0.5, 0.5)]));
        assert_eq!(img.channels, 3);
        assert_eq!(img.height, 56);
        assert_eq!(img.width, 56);
        assert!(img.data.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn object_changes_pixels_where_it_is() {
        let cfg = RasterConfig { noise: 0.0, clutter: 0, ..RasterConfig::default() };
        let empty = cfg.render(&frame_with(vec![]));
        let with_car = cfg.render(&frame_with(vec![red_car_at(0.5, 0.5)]));
        // centre pixel differs, a far corner does not
        let (cy, cx) = (28, 28);
        assert!((empty.get(0, cy, cx) - with_car.get(0, cy, cx)).abs() > 0.05);
        assert!((empty.get(0, 2, 2) - with_car.get(0, 2, 2)).abs() < 1e-6);
        // red channel dominates at the car location
        assert!(with_car.get(0, cy, cx) > with_car.get(1, cy, cx));
        assert!(with_car.get(0, cy, cx) > with_car.get(2, cy, cx));
    }

    #[test]
    fn render_is_deterministic_per_frame_id() {
        let cfg = RasterConfig::default();
        let f = frame_with(vec![red_car_at(0.3, 0.6)]);
        assert_eq!(cfg.render(&f), cfg.render(&f));
        let mut f2 = f.clone();
        f2.frame_id = 8;
        assert_ne!(cfg.render(&f), cfg.render(&f2), "different frames get different noise");
    }

    /// `render_into` into a reused buffer (dirty, and sized for a larger
    /// raster) produces `render`'s pixels bit for bit: same values, same RNG
    /// draw order, nothing read from the previous contents.
    #[test]
    fn render_into_reused_buffer_matches_render_by_bits() {
        use crate::{Dataset, DatasetProfile};
        let stock = DatasetProfile::jackson();
        let mut dense = DatasetProfile::jackson();
        dense.mean_objects = 3.5;
        dense.std_objects = 1.2;
        let mut buf = vec![f32::NAN; 3 * 64 * 64];
        for profile in [stock, dense] {
            let ds = Dataset::generate(&profile, 24, 8, 5);
            for cfg in [RasterConfig::default(), RasterConfig { noise: 0.0, clutter: 0, ..RasterConfig::default() }] {
                for frame in ds.train() {
                    let img = cfg.render(frame);
                    cfg.render_into(frame, &mut buf);
                    assert_eq!((img.channels, img.height, img.width), (3, cfg.height, cfg.width));
                    assert_eq!(buf.len(), img.data.len());
                    assert!(
                        buf.iter().zip(&img.data).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "render_into differs from render on frame {}",
                        frame.frame_id
                    );
                }
            }
        }
    }

    /// The render as a per-element loop: every background value written one
    /// at a time, one `gen_range` call per noise value interleaved with the
    /// clamp.
    fn naive_render(cfg: &RasterConfig, frame: &Frame) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ frame.frame_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut out = vec![0.0f32; 3 * cfg.height * cfg.width];
        let base = [0.35f32, 0.38, 0.36];
        let tilt: f32 = rng.gen_range(-0.05..0.05);
        for y in 0..cfg.height {
            for x in 0..cfg.width {
                for (c, b) in base.iter().enumerate() {
                    let grad = 0.08 * (y as f32 / cfg.height.max(1) as f32) + tilt;
                    out[cfg.at(c, y, x)] = (b + grad).clamp(0.0, 1.0);
                }
            }
        }
        for _ in 0..cfg.clutter {
            cfg.paint_clutter(&mut out, &mut rng);
        }
        let mut objs: Vec<&SceneObject> = frame.objects.iter().collect();
        objs.sort_by(|a, b| a.bbox.y.partial_cmp(&b.bbox.y).unwrap_or(std::cmp::Ordering::Equal));
        for obj in objs {
            cfg.paint_object(&mut out, obj);
        }
        if cfg.noise > 0.0 {
            for v in out.iter_mut() {
                let n: f32 = rng.gen_range(-1.0..1.0f32) * cfg.noise;
                *v = (*v + n).clamp(0.0, 1.0);
            }
        }
        out
    }

    /// The block-drawn noise pass and the row-filled background leave every
    /// pixel bit-identical to the per-element reference: 56×56, 28×28
    /// (2 352 values = 9·256 + 48, so a short tail block), an odd size, each
    /// without noise, at its own noise level and at a large one.
    #[test]
    fn render_into_matches_per_element_reference_by_bits() {
        use crate::{Dataset, DatasetProfile};
        let ds = Dataset::generate(&DatasetProfile::jackson(), 12, 4, 9);
        let odd = RasterConfig { width: 23, height: 17, ..RasterConfig::default() };
        let mut buf = Vec::new();
        for cfg in [RasterConfig::default(), RasterConfig::tiny(), odd] {
            for noise in [0.0, cfg.noise, 0.5] {
                let cfg = RasterConfig { noise, ..cfg };
                for frame in ds.train() {
                    cfg.render_into(frame, &mut buf);
                    let reference = naive_render(&cfg, frame);
                    assert_eq!(buf.len(), reference.len());
                    assert!(
                        buf.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{}x{} noise {noise}: render_into differs from the reference on frame {}",
                        cfg.width,
                        cfg.height,
                        frame.frame_id
                    );
                }
            }
        }
    }

    #[test]
    fn textures_differ_between_classes() {
        let cfg = RasterConfig { noise: 0.0, clutter: 0, ..RasterConfig::default() };
        let mut bus = red_car_at(0.5, 0.5);
        bus.class = ObjectClass::Bus;
        let car_img = cfg.render(&frame_with(vec![red_car_at(0.5, 0.5)]));
        let bus_img = cfg.render(&frame_with(vec![bus]));
        let diff: f32 = car_img.data.iter().zip(&bus_img.data).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1.0, "class textures should differ, total diff {diff}");
    }

    #[test]
    fn tiny_config_is_small() {
        let cfg = RasterConfig::tiny();
        let img = cfg.render(&frame_with(vec![]));
        assert_eq!(img.width, 28);
        assert_eq!(img.height, 28);
    }
}
