//! Identifier newtypes and the category/zone vocabularies.

use std::fmt;

/// Seconds in a day; periodic (time-of-day) intervals repeat with this period.
pub const SECONDS_PER_DAY: i64 = 24 * 60 * 60;

/// A timestamp in seconds relative to the data set epoch.
///
/// The paper's ITSP data set spans May 2012 – December 2014; 2.5 years fit
/// comfortably in an `i64` second count. Time-of-day is `t.rem_euclid(86400)`.
pub type Timestamp = i64;

/// Identifier of a directed edge (road segment + driving direction).
///
/// Edge ids double as symbols of the trajectory-string alphabet used by the
/// FM-index: the terminator `$` is symbol `0` and edge `EdgeId(i)` is symbol
/// `i + 1` (the paper requires `∀e ∈ E (e > $)`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of a graph vertex (intersection).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The vertex id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Road segment category.
///
/// OpenStreetMap distinguishes 17 highway categories on drivable networks
/// (paper, Section 5.1.1); the category-based partitioning strategies π_C and
/// π_ZC split paths whenever the category changes between consecutive
/// segments.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Category {
    /// Grade-separated dual carriageway (OSM `motorway`).
    Motorway = 0,
    /// Motorway on/off ramp (OSM `motorway_link`).
    MotorwayLink,
    /// High-capacity non-motorway road (OSM `trunk`).
    Trunk,
    /// Trunk ramp (OSM `trunk_link`).
    TrunkLink,
    /// Major through road (OSM `primary`).
    Primary,
    /// Primary ramp (OSM `primary_link`).
    PrimaryLink,
    /// Regional connecting road (OSM `secondary`).
    Secondary,
    /// Secondary ramp (OSM `secondary_link`).
    SecondaryLink,
    /// Local connecting road (OSM `tertiary`).
    Tertiary,
    /// Tertiary ramp (OSM `tertiary_link`).
    TertiaryLink,
    /// Minor road of unknown classification (OSM `unclassified`).
    Unclassified,
    /// Residential street (OSM `residential`).
    Residential,
    /// Shared-space street (OSM `living_street`).
    LivingStreet,
    /// Access/service road (OSM `service`).
    Service,
    /// Unpaved track (OSM `track`).
    Track,
    /// Road of unknown type (OSM `road`).
    Road,
    /// Pedestrian street open to limited vehicle traffic (OSM `pedestrian`).
    Pedestrian,
}

impl Category {
    /// All 17 categories, ordered from most to least arterial (the tests'
    /// check that [`Category::index`] is dense).
    #[cfg(test)]
    pub(crate) const ALL: [Category; 17] = [
        Category::Motorway,
        Category::MotorwayLink,
        Category::Trunk,
        Category::TrunkLink,
        Category::Primary,
        Category::PrimaryLink,
        Category::Secondary,
        Category::SecondaryLink,
        Category::Tertiary,
        Category::TertiaryLink,
        Category::Unclassified,
        Category::Residential,
        Category::LivingStreet,
        Category::Service,
        Category::Track,
        Category::Road,
        Category::Pedestrian,
    ];

    /// Number of distinct categories.
    pub(crate) const COUNT: usize = 17;

    /// Stable dense index in `0..Self::COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the π_MDM partitioning strategy treats this category as a
    /// "main road": motorways and other major roads connecting cities
    /// (paper, Section 6.1). User filters are only worth their cost on these.
    #[inline]
    pub fn is_main_road(self) -> bool {
        matches!(
            self,
            Category::Motorway
                | Category::MotorwayLink
                | Category::Trunk
                | Category::TrunkLink
                | Category::Primary
                | Category::PrimaryLink
        )
    }
}

/// Zone type of the area a segment lies in.
///
/// Mirrors the Danish Business Authority zoning map used by the paper
/// (Section 5.1.2): three explicit zone categories plus `Ambiguous` for
/// segments located in more than one zone type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Zone {
    /// Segment within city limits.
    City = 0,
    /// Segment in a rural area.
    Rural,
    /// Segment in an area zoned for summer-house usage.
    SummerHouse,
    /// Segment located in more than one zone type.
    Ambiguous,
}

impl Zone {
    /// All zone types.
    pub const ALL: [Zone; 4] = [Zone::City, Zone::Rural, Zone::SummerHouse, Zone::Ambiguous];

    /// Stable dense index in `0..Self::ALL.len()`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_indices_are_dense_and_stable() {
        for (i, c) in Category::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(Category::ALL.len(), Category::COUNT);
    }

    #[test]
    fn zone_indices_are_dense() {
        for (i, z) in Zone::ALL.iter().enumerate() {
            assert_eq!(z.index(), i);
        }
    }

    #[test]
    fn main_road_classification_covers_arterials_only() {
        assert!(Category::Motorway.is_main_road());
        assert!(Category::Trunk.is_main_road());
        assert!(Category::Primary.is_main_road());
        assert!(!Category::Secondary.is_main_road());
        assert!(!Category::Residential.is_main_road());
        assert!(!Category::Service.is_main_road());
    }

    #[test]
    fn edge_id_debug_format() {
        assert_eq!(format!("{:?}", EdgeId(7)), "e7");
        assert_eq!(format!("{}", EdgeId(7)), "7");
        assert_eq!(format!("{:?}", VertexId(3)), "v3");
    }
}
