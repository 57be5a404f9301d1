//! Per-edge attributes: the function `F : E → Cat × Z × SL × L` of the paper.

use crate::types::{Category, Zone};

/// Attributes of a directed road segment.
///
/// `F(e) = (c, z, sl, l)` — category, zone, speed limit in km/h, and length in
/// meters (paper, Section 2.2, Table 1). A speed limit of `None` models OSM
/// segments without a tagged limit; [`crate::RoadNetwork`] falls back to the
/// median of the known limits of the same category when estimating traversal
/// times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeAttrs {
    /// Road category (`F(e).c`).
    pub category: Category,
    /// Zone type (`F(e).z`).
    pub zone: Zone,
    /// Speed limit in kilometers per hour (`F(e).sl`), if known.
    pub speed_limit_kmh: Option<f64>,
    /// Segment length in meters (`F(e).l`).
    pub length_m: f64,
}

impl EdgeAttrs {
    /// Creates attributes with a known speed limit.
    pub fn new(category: Category, zone: Zone, speed_limit_kmh: f64, length_m: f64) -> Self {
        debug_assert!(speed_limit_kmh > 0.0, "speed limit must be positive");
        debug_assert!(length_m > 0.0, "length must be positive");
        EdgeAttrs {
            category,
            zone,
            speed_limit_kmh: Some(speed_limit_kmh),
            length_m,
        }
    }

    /// Creates attributes for a segment without a tagged speed limit.
    pub fn without_speed_limit(category: Category, zone: Zone, length_m: f64) -> Self {
        EdgeAttrs {
            category,
            zone,
            speed_limit_kmh: None,
            length_m,
        }
    }
}
