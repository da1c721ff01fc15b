//! Object classes, colours and bounding-box geometry.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Object classes appearing in the paper's datasets and queries.
///
/// Coral contains `Person` (divers/visitors), Jackson contains `Car` and
/// `Person`, Detrac contains `Car`, `Bus` and `Truck`. `StopSign` and
/// `Bicycle` appear in the paper's example queries (Fig. 1(b), Sec. III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ObjectClass {
    /// A person / pedestrian.
    Person,
    /// A passenger car.
    Car,
    /// A bus.
    Bus,
    /// A truck.
    Truck,
    /// A bicycle.
    Bicycle,
    /// A stop sign (static road furniture).
    StopSign,
}

impl ObjectClass {
    /// All classes, in canonical order. The index of a class in this slice is
    /// its *class id* used by filters and metrics.
    pub const ALL: [ObjectClass; 6] = [
        ObjectClass::Person,
        ObjectClass::Car,
        ObjectClass::Bus,
        ObjectClass::Truck,
        ObjectClass::Bicycle,
        ObjectClass::StopSign,
    ];

    /// Canonical class id (index into [`ObjectClass::ALL`]).
    pub fn id(self) -> usize {
        ObjectClass::ALL.iter().position(|&c| c == self).expect("class present in ALL")
    }

    /// Class with the given canonical id.
    pub fn from_id(id: usize) -> Option<ObjectClass> {
        ObjectClass::ALL.get(id).copied()
    }

    /// Human-readable lowercase name, as used in query syntax.
    pub fn name(self) -> &'static str {
        match self {
            ObjectClass::Person => "person",
            ObjectClass::Car => "car",
            ObjectClass::Bus => "bus",
            ObjectClass::Truck => "truck",
            ObjectClass::Bicycle => "bicycle",
            ObjectClass::StopSign => "stop-sign",
        }
    }

    /// Parses a class name (case-insensitive).
    pub fn parse(name: &str) -> Option<ObjectClass> {
        let n = name.to_ascii_lowercase();
        ObjectClass::ALL.iter().copied().find(|c| c.name() == n)
    }

    /// Typical object size as a fraction of the frame's smaller dimension
    /// (width, height). Used by the scene simulator.
    pub fn typical_size(self) -> (f32, f32) {
        match self {
            ObjectClass::Person => (0.045, 0.11),
            ObjectClass::Car => (0.12, 0.075),
            ObjectClass::Bus => (0.22, 0.12),
            ObjectClass::Truck => (0.18, 0.11),
            ObjectClass::Bicycle => (0.06, 0.08),
            ObjectClass::StopSign => (0.05, 0.05),
        }
    }
}

impl fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Colours that object-attribute classifiers can recognise (the paper's
/// example query filters on "red car" / "blue car").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Color {
    /// Red.
    Red,
    /// Blue.
    Blue,
    /// Green.
    Green,
    /// White.
    White,
    /// Black.
    Black,
    /// Yellow.
    Yellow,
}

impl Color {
    /// All supported colours.
    pub const ALL: [Color; 6] = [Color::Red, Color::Blue, Color::Green, Color::White, Color::Black, Color::Yellow];

    /// An RGB triple in `[0, 1]` used by the rasteriser.
    pub fn rgb(self) -> [f32; 3] {
        match self {
            Color::Red => [0.85, 0.15, 0.12],
            Color::Blue => [0.15, 0.25, 0.85],
            Color::Green => [0.15, 0.7, 0.2],
            Color::White => [0.92, 0.92, 0.92],
            Color::Black => [0.08, 0.08, 0.08],
            Color::Yellow => [0.9, 0.85, 0.15],
        }
    }

    /// Lowercase colour name.
    pub fn name(self) -> &'static str {
        match self {
            Color::Red => "red",
            Color::Blue => "blue",
            Color::Green => "green",
            Color::White => "white",
            Color::Black => "black",
            Color::Yellow => "yellow",
        }
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An axis-aligned bounding box in normalised frame coordinates.
///
/// `(x, y)` is the top-left corner with `x` growing to the right and `y`
/// growing downward; all values are in `[0, 1]` relative to the frame size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    /// Left edge (normalised).
    pub x: f32,
    /// Top edge (normalised).
    pub y: f32,
    /// Width (normalised).
    pub w: f32,
    /// Height (normalised).
    pub h: f32,
}

impl BoundingBox {
    /// Creates a box, clamping it to the frame.
    pub fn new(x: f32, y: f32, w: f32, h: f32) -> Self {
        let w = w.clamp(0.0, 1.0);
        let h = h.clamp(0.0, 1.0);
        let x = x.clamp(0.0, 1.0 - w);
        let y = y.clamp(0.0, 1.0 - h);
        BoundingBox { x, y, w, h }
    }

    /// Constructs a box from its centre point and size.
    pub fn from_center(cx: f32, cy: f32, w: f32, h: f32) -> Self {
        BoundingBox::new(cx - w / 2.0, cy - h / 2.0, w, h)
    }

    /// The full frame `[0,1]×[0,1]`.
    pub fn full_frame() -> Self {
        BoundingBox { x: 0.0, y: 0.0, w: 1.0, h: 1.0 }
    }

    /// Centre point `(cx, cy)`.
    pub fn center(&self) -> (f32, f32) {
        (self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Right edge.
    pub fn right(&self) -> f32 {
        self.x + self.w
    }

    /// Bottom edge.
    pub fn bottom(&self) -> f32 {
        self.y + self.h
    }

    /// Box area.
    pub fn area(&self) -> f32 {
        self.w * self.h
    }

    /// True if the point lies inside (or on the boundary of) the box.
    pub fn contains_point(&self, px: f32, py: f32) -> bool {
        px >= self.x && px <= self.right() && py >= self.y && py <= self.bottom()
    }

    /// True when the two boxes overlap with positive area.
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.x < other.right() && other.x < self.right() && self.y < other.bottom() && other.y < self.bottom()
    }

    /// Intersection area of the two boxes.
    pub fn intersection_area(&self, other: &BoundingBox) -> f32 {
        let ix = (self.right().min(other.right()) - self.x.max(other.x)).max(0.0);
        let iy = (self.bottom().min(other.bottom()) - self.y.max(other.y)).max(0.0);
        ix * iy
    }

    /// Intersection-over-union of the two boxes.
    pub fn iou(&self, other: &BoundingBox) -> f32 {
        let inter = self.intersection_area(other);
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// True when this box's centre lies strictly to the left of `other`'s.
    pub fn left_of(&self, other: &BoundingBox) -> bool {
        self.center().0 < other.center().0
    }

    /// True when this box's centre lies strictly above `other`'s.
    pub fn above(&self, other: &BoundingBox) -> bool {
        self.center().1 < other.center().1
    }
}

/// An object present in a frame, with its full ground-truth attributes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneObject {
    /// Stable track id assigned when the object enters the scene.
    pub track_id: u64,
    /// Object class.
    pub class: ObjectClass,
    /// Object colour.
    pub color: Color,
    /// Bounding box in normalised frame coordinates.
    pub bbox: BoundingBox,
    /// Velocity in normalised frame units per frame (vx, vy).
    pub velocity: (f32, f32),
}

impl SceneObject {
    /// Centre of the object's bounding box.
    pub fn center(&self) -> (f32, f32) {
        self.bbox.center()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ids_roundtrip() {
        for (i, &c) in ObjectClass::ALL.iter().enumerate() {
            assert_eq!(c.id(), i);
            assert_eq!(ObjectClass::from_id(i), Some(c));
        }
        assert_eq!(ObjectClass::from_id(99), None);
    }

    #[test]
    fn class_parse() {
        assert_eq!(ObjectClass::parse("Car"), Some(ObjectClass::Car));
        assert_eq!(ObjectClass::parse("stop-sign"), Some(ObjectClass::StopSign));
        assert_eq!(ObjectClass::parse("dragon"), None);
        assert_eq!(ObjectClass::Car.to_string(), "car");
    }

    #[test]
    fn color_rgb_in_unit_range() {
        for c in Color::ALL {
            assert!(c.rgb().iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(!c.name().is_empty());
        }
        assert_eq!(Color::Red.to_string(), "red");
    }

    #[test]
    fn bbox_clamps_to_frame() {
        let b = BoundingBox::new(0.95, 0.95, 0.2, 0.2);
        assert!(b.right() <= 1.0 + 1e-6);
        assert!(b.bottom() <= 1.0 + 1e-6);
    }

    #[test]
    fn bbox_center_and_area() {
        let b = BoundingBox::new(0.2, 0.4, 0.2, 0.1);
        let (cx, cy) = b.center();
        assert!((cx - 0.3).abs() < 1e-6 && (cy - 0.45).abs() < 1e-6);
        assert!((b.area() - 0.02).abs() < 1e-6);
    }

    #[test]
    fn bbox_containment() {
        let big = BoundingBox::new(0.1, 0.1, 0.5, 0.5);
        assert!(big.contains_point(0.3, 0.3));
        assert!(big.contains_point(0.6, 0.6), "the boundary is inside");
        assert!(!big.contains_point(0.9, 0.9));
    }

    #[test]
    fn bbox_intersection_and_iou() {
        let a = BoundingBox::new(0.0, 0.0, 0.5, 0.5);
        let b = BoundingBox::new(0.25, 0.25, 0.5, 0.5);
        assert!(a.intersects(&b));
        assert!((a.intersection_area(&b) - 0.0625).abs() < 1e-6);
        let iou = a.iou(&b);
        assert!((iou - 0.0625 / 0.4375).abs() < 1e-5);
        let c = BoundingBox::new(0.8, 0.8, 0.1, 0.1);
        assert!(!a.intersects(&c));
        assert_eq!(a.iou(&c), 0.0);
    }

    #[test]
    fn spatial_orientation_helpers() {
        let left = BoundingBox::from_center(0.2, 0.5, 0.1, 0.1);
        let right = BoundingBox::from_center(0.8, 0.5, 0.1, 0.1);
        assert!(left.left_of(&right));
        assert!(!right.left_of(&left));
        let top = BoundingBox::from_center(0.5, 0.2, 0.1, 0.1);
        let bottom = BoundingBox::from_center(0.5, 0.8, 0.1, 0.1);
        assert!(top.above(&bottom));
        assert!(!bottom.above(&top));
    }

    #[test]
    fn typical_sizes_reasonable() {
        for c in ObjectClass::ALL {
            let (w, h) = c.typical_size();
            assert!(w > 0.0 && w < 0.5);
            assert!(h > 0.0 && h < 0.5);
        }
    }
}
