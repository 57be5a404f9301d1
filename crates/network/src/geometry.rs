//! Minimal planar geometry for placing the synthetic network's vertices.
//!
//! The workspace operates in a local planar coordinate system (meters), which
//! is accurate enough at the regional scale of the paper's Northern Denmark
//! data set and avoids geodesic math in hot loops.

/// A point in the local planar coordinate system, in meters.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Point {
    /// East-west coordinate in meters.
    pub x: f64,
    /// North-south coordinate in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, in meters.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Linear interpolation between `self` (at `t = 0`) and `other`
    /// (at `t = 1`).
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -2.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let m = a.lerp(&b, 0.5);
        assert!((m.x - 5.0).abs() < 1e-12 && (m.y + 1.0).abs() < 1e-12);
    }
}
