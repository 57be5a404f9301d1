//! The road network graph and its builder.

use crate::edge::EdgeAttrs;
use crate::geometry::Point;
use crate::path::Path;
use crate::types::{Category, EdgeId, VertexId};

/// Default speed assumed when neither the segment nor any segment of its
/// category has a known limit (km/h).
const GLOBAL_FALLBACK_KMH: f64 = 50.0;

/// A directed road network graph `G = (V, E, F)`.
///
/// Edges are stored densely, indexed by [`EdgeId`]; vertices by [`VertexId`].
/// Outgoing adjacency uses a CSR layout so that `out_edges` is a cheap slice
/// lookup in routing hot loops.
///
/// The network also materializes the paper's `estimateTT` fallback
/// (Section 2.2): the traversal time of a segment at its speed limit,
/// substituting the median known limit of the segment's category when the
/// limit is untagged (Section 5.1.1).
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    from: Vec<VertexId>,
    to: Vec<VertexId>,
    attrs: Vec<EdgeAttrs>,
    positions: Vec<Point>,
    /// CSR offsets into `adj_edges`, one entry per vertex plus sentinel.
    adj_offsets: Vec<u32>,
    adj_edges: Vec<EdgeId>,
    category_fallback_kmh: [f64; Category::COUNT],
    /// Pre-computed `estimateTT` per edge, in seconds.
    estimate_tt_secs: Vec<f64>,
}

impl RoadNetwork {
    /// Number of directed edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.attrs.len()
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.positions.len()
    }

    /// Source vertex of an edge.
    #[inline]
    pub fn edge_from(&self, e: EdgeId) -> VertexId {
        self.from[e.index()]
    }

    /// Target vertex of an edge.
    #[inline]
    pub fn edge_to(&self, e: EdgeId) -> VertexId {
        self.to[e.index()]
    }

    /// Attributes `F(e)` of an edge.
    #[inline]
    pub fn attrs(&self, e: EdgeId) -> &EdgeAttrs {
        &self.attrs[e.index()]
    }

    /// Planar position of a vertex.
    #[inline]
    pub fn position(&self, v: VertexId) -> Point {
        self.positions[v.index()]
    }

    /// Outgoing edges of a vertex.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> &[EdgeId] {
        let s = self.adj_offsets[v.index()] as usize;
        let e = self.adj_offsets[v.index() + 1] as usize;
        &self.adj_edges[s..e]
    }

    /// `estimateTT(e)`: traversal time in seconds at the speed limit,
    /// falling back to the category-median limit when untagged.
    ///
    /// Used as the last-resort travel-time estimate when a strict path query
    /// finds no trajectory data at all for a segment (paper, Procedure 5,
    /// line 13).
    #[inline]
    pub fn estimate_tt(&self, e: EdgeId) -> f64 {
        self.estimate_tt_secs[e.index()]
    }

    /// The effective speed limit used by [`estimate_tt`](Self::estimate_tt),
    /// in km/h (the tagged limit, or the category median fallback).
    pub fn effective_speed_limit_kmh(&self, e: EdgeId) -> f64 {
        let attrs = &self.attrs[e.index()];
        attrs
            .speed_limit_kmh
            .unwrap_or(self.category_fallback_kmh[attrs.category.index()])
    }

    /// Whether consecutive edges `a → b` connect head-to-tail.
    #[inline]
    pub(crate) fn connects(&self, a: EdgeId, b: EdgeId) -> bool {
        self.to[a.index()] == self.from[b.index()]
    }

    /// Whether a sequence of edges forms a traversable path in this network.
    pub(crate) fn is_traversable(&self, edges: &[EdgeId]) -> bool {
        if edges.iter().any(|e| e.index() >= self.num_edges()) {
            return false;
        }
        edges.windows(2).all(|w| self.connects(w[0], w[1]))
    }

    /// Validates a path against this network.
    pub fn validate_path(&self, path: &Path) -> bool {
        !path.is_empty() && self.is_traversable(path.edges())
    }

    /// Total length of a path in meters: `Σ F(e).l`.
    pub fn path_length_m(&self, path: &Path) -> f64 {
        path.edges().iter().map(|e| self.attrs(*e).length_m).sum()
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges() as u32).map(EdgeId)
    }

    /// Approximate heap footprint of the graph in bytes (for the memory
    /// accounting experiments of Figure 10).
    pub fn size_bytes(&self) -> usize {
        self.from.len() * std::mem::size_of::<VertexId>()
            + self.to.len() * std::mem::size_of::<VertexId>()
            + self.attrs.len() * std::mem::size_of::<EdgeAttrs>()
            + self.positions.len() * std::mem::size_of::<Point>()
            + self.adj_offsets.len() * 4
            + self.adj_edges.len() * 4
            + self.estimate_tt_secs.len() * 8
    }
}

/// Incremental builder for [`RoadNetwork`].
///
/// ```
/// use tthr_network::{Category, EdgeAttrs, NetworkBuilder, Point, Zone};
///
/// let mut b = NetworkBuilder::new();
/// let v0 = b.add_vertex(Point::new(0.0, 0.0));
/// let v1 = b.add_vertex(Point::new(900.0, 0.0));
/// let a = b.add_edge(v0, v1, EdgeAttrs::new(Category::Motorway, Zone::Rural, 110.0, 900.0));
/// let net = b.build();
/// assert_eq!(net.out_edges(v0), &[a]);
/// assert!((net.estimate_tt(a) - 29.4545).abs() < 1e-3);
/// ```
#[derive(Default, Debug)]
pub struct NetworkBuilder {
    from: Vec<VertexId>,
    to: Vec<VertexId>,
    attrs: Vec<EdgeAttrs>,
    positions: Vec<Point>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vertex at the given position and returns its id.
    pub fn add_vertex(&mut self, position: Point) -> VertexId {
        let id = VertexId(self.positions.len() as u32);
        self.positions.push(position);
        id
    }

    /// Adds a directed edge and returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId, attrs: EdgeAttrs) -> EdgeId {
        assert!(
            from.index() < self.positions.len() && to.index() < self.positions.len(),
            "edge endpoints must be added before the edge"
        );
        let id = EdgeId(self.from.len() as u32);
        self.from.push(from);
        self.to.push(to);
        self.attrs.push(attrs);
        id
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.from.len()
    }

    /// Position of an already-added vertex.
    pub fn position(&self, v: VertexId) -> Point {
        self.positions[v.index()]
    }

    /// Finalizes the network: computes CSR adjacency, category-median
    /// speed-limit fallbacks, and per-edge `estimateTT`.
    pub fn build(self) -> RoadNetwork {
        let nv = self.positions.len();
        let ne = self.from.len();

        // CSR adjacency via counting sort on source vertex.
        let mut counts = vec![0u32; nv + 1];
        for f in &self.from {
            counts[f.index() + 1] += 1;
        }
        for i in 1..=nv {
            counts[i] += counts[i - 1];
        }
        let adj_offsets = counts.clone();
        let mut cursor = counts;
        let mut adj_edges = vec![EdgeId(0); ne];
        for (i, f) in self.from.iter().enumerate() {
            let slot = cursor[f.index()] as usize;
            adj_edges[slot] = EdgeId(i as u32);
            cursor[f.index()] += 1;
        }

        // Median known speed limit per category.
        let mut by_cat: Vec<Vec<f64>> = vec![Vec::new(); Category::COUNT];
        let mut all: Vec<f64> = Vec::new();
        for a in &self.attrs {
            if let Some(sl) = a.speed_limit_kmh {
                by_cat[a.category.index()].push(sl);
                all.push(sl);
            }
        }
        let global = median(&mut all).unwrap_or(GLOBAL_FALLBACK_KMH);
        let mut category_fallback_kmh = [global; Category::COUNT];
        for (i, limits) in by_cat.iter_mut().enumerate() {
            if let Some(m) = median(limits) {
                category_fallback_kmh[i] = m;
            }
        }

        let estimate_tt_secs = self
            .attrs
            .iter()
            .map(|a| {
                let sl = a
                    .speed_limit_kmh
                    .unwrap_or(category_fallback_kmh[a.category.index()]);
                3.6 * a.length_m / sl
            })
            .collect();

        RoadNetwork {
            from: self.from,
            to: self.to,
            attrs: self.attrs,
            positions: self.positions,
            adj_offsets,
            adj_edges,
            category_fallback_kmh,
            estimate_tt_secs,
        }
    }
}

/// Median of a mutable slice; `None` when empty. Uses the lower-middle
/// element for even lengths (matching typical DB statistics practice).
fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mid = (values.len() - 1) / 2;
    values.sort_unstable_by(f64::total_cmp);
    Some(values[mid])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Zone;

    fn two_edge_net() -> (RoadNetwork, EdgeId, EdgeId) {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(100.0, 0.0));
        let v2 = b.add_vertex(Point::new(200.0, 0.0));
        let e0 = b.add_edge(
            v0,
            v1,
            EdgeAttrs::new(Category::Primary, Zone::City, 50.0, 100.0),
        );
        let e1 = b.add_edge(
            v1,
            v2,
            EdgeAttrs::new(Category::Primary, Zone::City, 50.0, 100.0),
        );
        (b.build(), e0, e1)
    }

    #[test]
    fn adjacency_is_correct() {
        let (net, e0, e1) = two_edge_net();
        assert_eq!(net.out_edges(VertexId(0)), &[e0]);
        assert_eq!(net.out_edges(VertexId(1)), &[e1]);
        assert!(net.out_edges(VertexId(2)).is_empty());
        assert!(net.connects(e0, e1));
        assert!(!net.connects(e1, e0));
    }

    #[test]
    fn traversability() {
        let (net, e0, e1) = two_edge_net();
        assert!(net.is_traversable(&[e0, e1]));
        assert!(!net.is_traversable(&[e1, e0]));
        assert!(net.is_traversable(&[e0]));
        assert!(net.is_traversable(&[]));
        // Unknown edge id is rejected rather than panicking.
        assert!(!net.is_traversable(&[EdgeId(99)]));
    }

    #[test]
    fn category_median_fallback_used_for_untagged_edges() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(100.0, 0.0));
        b.add_edge(
            v0,
            v1,
            EdgeAttrs::new(Category::Residential, Zone::City, 30.0, 100.0),
        );
        b.add_edge(
            v0,
            v1,
            EdgeAttrs::new(Category::Residential, Zone::City, 50.0, 100.0),
        );
        b.add_edge(
            v0,
            v1,
            EdgeAttrs::new(Category::Residential, Zone::City, 40.0, 100.0),
        );
        let untagged = b.add_edge(
            v0,
            v1,
            EdgeAttrs::without_speed_limit(Category::Residential, Zone::City, 200.0),
        );
        let net = b.build();
        assert_eq!(
            net.category_fallback_kmh[Category::Residential.index()],
            40.0
        );
        assert_eq!(net.effective_speed_limit_kmh(untagged), 40.0);
        assert!((net.estimate_tt(untagged) - 3.6 * 200.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_category_falls_back_to_global_median() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(100.0, 0.0));
        b.add_edge(
            v0,
            v1,
            EdgeAttrs::new(Category::Primary, Zone::City, 80.0, 100.0),
        );
        let track = b.add_edge(
            v0,
            v1,
            EdgeAttrs::without_speed_limit(Category::Track, Zone::Rural, 100.0),
        );
        let net = b.build();
        // No tagged Track segments exist, so the global median (80) applies.
        assert_eq!(net.effective_speed_limit_kmh(track), 80.0);
    }

    #[test]
    fn empty_network_builds() {
        let net = NetworkBuilder::new().build();
        assert_eq!(net.num_edges(), 0);
        assert_eq!(net.num_vertices(), 0);
        // With no data at all the global default applies.
        assert_eq!(
            net.category_fallback_kmh[Category::Primary.index()],
            GLOBAL_FALLBACK_KMH
        );
    }

    #[test]
    fn median_lower_middle_for_even_counts() {
        let mut v = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(median(&mut v), Some(20.0));
        let mut w = vec![10.0];
        assert_eq!(median(&mut w), Some(10.0));
        assert_eq!(median(&mut []), None);
    }
}
