//! The routing grid: two routing layers of tracks over the die.

use std::fmt;

/// The first horizontal routing layer (wires run in ±x). Layers
/// alternate direction: even layers are horizontal, odd are vertical.
pub const LAYER_H: u8 = 0;
/// The first vertical routing layer (wires run in ±y).
pub const LAYER_V: u8 = 1;

/// True if wires on `layer` run horizontally (±x).
pub fn is_horizontal(layer: u8) -> bool {
    layer.is_multiple_of(2)
}

/// Routing pitch selector: normal (single-track) wires or the paper's
/// fat (double-pitch) wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GridPitch {
    /// One grid unit per routing track.
    Normal,
    /// One grid unit per *two* routing tracks; every wire stands for a
    /// future differential pair.
    Fat,
}

impl GridPitch {
    /// Number of normal tracks per grid unit.
    pub fn tracks(self) -> i32 {
        match self {
            GridPitch::Normal => 1,
            GridPitch::Fat => 2,
        }
    }
}

/// A point on one routing layer of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point {
    /// Routing layer ([`LAYER_H`] or [`LAYER_V`]).
    pub layer: u8,
    /// Column (grid units).
    pub x: i32,
    /// Row (grid units).
    pub y: i32,
}

impl Point {
    /// Creates a point.
    pub fn new(layer: u8, x: i32, y: i32) -> Self {
        Point { layer, x, y }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let l = if self.layer == LAYER_H { "H" } else { "V" };
        write!(f, "{}({},{})", l, self.x, self.y)
    }
}

/// A wire segment: a straight run on one layer, or a via (same x/y,
/// different layer on each end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// One endpoint.
    pub a: Point,
    /// The other endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment.
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// True if this segment is a via (layer change at one point).
    pub fn is_via(&self) -> bool {
        self.a.layer != self.b.layer
    }

    /// Manhattan length in grid units (0 for vias).
    pub fn len(&self) -> i32 {
        (self.a.x - self.b.x).abs() + (self.a.y - self.b.y).abs()
    }

    /// True for zero-length segments (vias and degenerate stubs).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Occupancy and congestion bookkeeping for PathFinder-style routing.
///
/// Each (layer, x, y) node tracks which nets currently use it plus a
/// history penalty that grows on every congested iteration.
#[derive(Debug, Clone)]
pub struct RoutingGrid {
    width: i32,
    height: i32,
    layers: u8,
    /// Number of nets occupying each node.
    usage: Vec<u16>,
    /// Accumulated history cost per node.
    history: Vec<f32>,
}

impl RoutingGrid {
    /// Creates an empty grid of `width` × `height` grid units with
    /// `layers` routing layers of alternating direction.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is not positive or `layers` is zero.
    pub fn new_with_layers(width: i32, height: i32, layers: u8) -> Self {
        assert!(width > 0 && height > 0 && layers > 0);
        let n = width as usize * height as usize * layers as usize;
        RoutingGrid {
            width,
            height,
            layers,
            usage: vec![0; n],
            history: vec![0.0; n],
        }
    }

    /// Creates an empty two-layer grid (one horizontal, one vertical).
    pub fn new(width: i32, height: i32) -> Self {
        Self::new_with_layers(width, height, 2)
    }

    /// Number of routing layers.
    pub fn layers(&self) -> u8 {
        self.layers
    }

    /// Grid width in grid units.
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Grid height in grid units.
    pub fn height(&self) -> i32 {
        self.height
    }

    /// Linear index of a point.
    #[inline]
    pub fn index(&self, p: Point) -> usize {
        debug_assert!(
            self.contains(p),
            "{p} outside {}x{}",
            self.width,
            self.height
        );
        ((p.layer as i32 * self.height + p.y) * self.width + p.x) as usize
    }

    /// True if the point lies inside the grid.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.layer < self.layers && p.x >= 0 && p.x < self.width && p.y >= 0 && p.y < self.height
    }

    /// Current number of nets using `p`.
    pub fn usage(&self, p: Point) -> u16 {
        self.usage[self.index(p)]
    }

    /// History cost of `p`.
    pub fn history(&self, p: Point) -> f32 {
        self.history[self.index(p)]
    }

    /// [`RoutingGrid::usage`] by linear index.
    #[inline]
    pub(crate) fn usage_at(&self, i: usize) -> u16 {
        self.usage[i]
    }

    /// [`RoutingGrid::history`] by linear index.
    #[inline]
    pub(crate) fn history_at(&self, i: usize) -> f32 {
        self.history[i]
    }

    /// Marks `p` as used by one more net.
    pub fn occupy(&mut self, p: Point) {
        let i = self.index(p);
        self.usage[i] += 1;
    }

    /// Releases one use of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not currently used.
    pub fn release(&mut self, p: Point) {
        let i = self.index(p);
        assert!(self.usage[i] > 0, "release of unused node {p}");
        self.usage[i] -= 1;
    }

    /// Points currently used by more than one net.
    pub fn congested_points(&self) -> Vec<Point> {
        let mut out = Vec::new();
        for layer in 0..self.layers {
            for y in 0..self.height {
                for x in 0..self.width {
                    let p = Point::new(layer, x, y);
                    if self.usage(p) > 1 {
                        out.push(p);
                    }
                }
            }
        }
        out
    }

    /// Adds history penalty to every node with more than one user and
    /// returns the number of congested nodes.
    pub fn accrue_history(&mut self, increment: f32) -> usize {
        let mut congested = 0;
        for (u, h) in self.usage.iter().zip(self.history.iter_mut()) {
            if *u > 1 {
                *h += increment;
                congested += 1;
            }
        }
        congested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_roundtrip() {
        let mut g = RoutingGrid::new(10, 10);
        let p = Point::new(LAYER_H, 3, 4);
        assert_eq!(g.usage(p), 0);
        g.occupy(p);
        g.occupy(p);
        assert_eq!(g.usage(p), 2);
        g.release(p);
        assert_eq!(g.usage(p), 1);
    }

    #[test]
    #[should_panic(expected = "release of unused")]
    fn release_unused_panics() {
        let mut g = RoutingGrid::new(4, 4);
        g.release(Point::new(LAYER_V, 0, 0));
    }

    #[test]
    fn history_accrues_only_on_congestion() {
        let mut g = RoutingGrid::new(4, 4);
        let p = Point::new(LAYER_H, 1, 1);
        g.occupy(p);
        assert_eq!(g.accrue_history(1.0), 0);
        g.occupy(p);
        assert_eq!(g.accrue_history(1.0), 1);
        assert!((g.history(p) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn segment_classification() {
        let via = Segment::new(Point::new(LAYER_H, 2, 2), Point::new(LAYER_V, 2, 2));
        assert!(via.is_via());
        assert_eq!(via.len(), 0);
        let wire = Segment::new(Point::new(LAYER_H, 0, 2), Point::new(LAYER_H, 5, 2));
        assert!(!wire.is_via());
        assert_eq!(wire.len(), 5);
    }

    #[test]
    fn pitch_tracks() {
        assert_eq!(GridPitch::Normal.tracks(), 1);
        assert_eq!(GridPitch::Fat.tracks(), 2);
    }
}
