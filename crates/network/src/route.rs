//! Dijkstra routing over the road network.
//!
//! Routing is a substrate requirement, not a paper contribution: the
//! synthetic workload generator routes drivers between origin–destination
//! pairs, and the HMM map-matcher needs network distances between candidate
//! segments for its transition probabilities.

use crate::graph::RoadNetwork;
use crate::types::{EdgeId, VertexId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Edge weighting for shortest-path searches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Weighting {
    /// Minimize total `estimateTT` (free-flow travel time in seconds).
    TravelTime,
    /// Minimize total segment length in meters.
    Distance,
}

impl Weighting {
    #[inline]
    fn weight(self, network: &RoadNetwork, e: EdgeId) -> f64 {
        match self {
            Weighting::TravelTime => network.estimate_tt(e),
            Weighting::Distance => network.attrs(e).length_m,
        }
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    vertex: VertexId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost. `total_cmp` keeps the heap invariant (and the
        // search terminating) even if a non-finite weight ever slips in.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| self.vertex.0.cmp(&other.vertex.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a shortest-path search.
#[derive(Clone, Debug)]
pub struct Route {
    /// Edge sequence from source to target (empty when source == target).
    pub edges: Vec<EdgeId>,
    /// Total cost under the requested [`Weighting`].
    pub cost: f64,
}

/// Reusable Dijkstra search state. Buffers are retained across queries so a
/// generator or map-matcher issuing millions of searches does not reallocate.
pub struct Router<'a> {
    network: &'a RoadNetwork,
    dist: Vec<f64>,
    pred: Vec<Option<EdgeId>>,
    /// Vertices touched by the last search, for O(touched) reset.
    touched: Vec<VertexId>,
}

impl<'a> Router<'a> {
    /// Creates a router over the given network.
    pub fn new(network: &'a RoadNetwork) -> Self {
        Router {
            network,
            dist: vec![f64::INFINITY; network.num_vertices()],
            pred: vec![None; network.num_vertices()],
            touched: Vec::new(),
        }
    }

    /// Shortest route from `source` to `target` under `weighting`, giving up
    /// once the best reachable cost exceeds `cutoff` (pass `f64::INFINITY`
    /// for an unbounded search). Returns `None` if `target` is unreachable
    /// within the cutoff.
    pub fn shortest_route(
        &mut self,
        source: VertexId,
        target: VertexId,
        weighting: Weighting,
        cutoff: f64,
    ) -> Option<Route> {
        let cost = self.search(source, Some(target), weighting, cutoff)?;
        let mut edges = Vec::new();
        let mut v = target;
        while v != source {
            let e = self.pred[v.index()]?;
            edges.push(e);
            v = self.network.edge_from(e);
        }
        edges.reverse();
        Some(Route { edges, cost })
    }

    /// Shortest cost from `source` to `target` without path reconstruction.
    pub fn shortest_cost(
        &mut self,
        source: VertexId,
        target: VertexId,
        weighting: Weighting,
        cutoff: f64,
    ) -> Option<f64> {
        self.search(source, Some(target), weighting, cutoff)
    }

    /// Runs Dijkstra; returns the cost to `target` if given and reached.
    fn search(
        &mut self,
        source: VertexId,
        target: Option<VertexId>,
        weighting: Weighting,
        cutoff: f64,
    ) -> Option<f64> {
        // Reset state touched by the previous query.
        for v in self.touched.drain(..) {
            self.dist[v.index()] = f64::INFINITY;
            self.pred[v.index()] = None;
        }

        let mut heap = BinaryHeap::new();
        self.dist[source.index()] = 0.0;
        self.touched.push(source);
        heap.push(HeapEntry {
            cost: 0.0,
            vertex: source,
        });

        while let Some(HeapEntry { cost, vertex }) = heap.pop() {
            if cost > self.dist[vertex.index()] {
                continue; // stale entry
            }
            if Some(vertex) == target {
                return Some(cost);
            }
            if cost > cutoff {
                return None;
            }
            for &e in self.network.out_edges(vertex) {
                let next = self.network.edge_to(e);
                let next_cost = cost + weighting.weight(self.network, e);
                if next_cost < self.dist[next.index()] && next_cost <= cutoff {
                    if self.dist[next.index()].is_infinite() {
                        self.touched.push(next);
                    }
                    self.dist[next.index()] = next_cost;
                    self.pred[next.index()] = Some(e);
                    heap.push(HeapEntry {
                        cost: next_cost,
                        vertex: next,
                    });
                }
            }
        }
        target.and_then(|t| {
            let d = self.dist[t.index()];
            d.is_finite().then_some(d)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::example_network;

    #[test]
    fn routes_on_example_network() {
        // Figure 1: v0 -A-> v1 -B-> v2 -E-> v4, with detour v1 -C-> v3 -D-> v2.
        let net = example_network();
        let mut router = Router::new(&net);
        let route = router
            .shortest_route(
                VertexId(0),
                VertexId(4),
                Weighting::TravelTime,
                f64::INFINITY,
            )
            .unwrap();
        // A,B,E is the fastest (29.5 + 8.6 + 7.2 ≈ 45.3 s) vs A,C,D,E (≈ 51 s).
        assert_eq!(route.edges, vec![EdgeId(0), EdgeId(1), EdgeId(4)]);
        assert!((route.cost - (29.4545 + 8.64 + 7.2)).abs() < 1e-2);
    }

    #[test]
    fn distance_weighting_can_differ_from_time() {
        let net = example_network();
        let mut router = Router::new(&net);
        // By distance, A,C,D,E = 900+40+80+100 = 1120 m beats A,B,E = 1120 m?
        // A,B,E = 900+120+100 = 1120 m; tie — Dijkstra picks one of them, and
        // both costs must be equal.
        let route = router
            .shortest_route(VertexId(0), VertexId(4), Weighting::Distance, f64::INFINITY)
            .unwrap();
        assert!((route.cost - 1120.0).abs() < 1e-9);
    }

    #[test]
    fn unreachable_returns_none() {
        let net = example_network();
        let mut router = Router::new(&net);
        // Nothing leads back to v0.
        assert!(router
            .shortest_route(
                VertexId(4),
                VertexId(0),
                Weighting::TravelTime,
                f64::INFINITY
            )
            .is_none());
    }

    #[test]
    fn cutoff_prunes_search() {
        let net = example_network();
        let mut router = Router::new(&net);
        assert!(router
            .shortest_cost(VertexId(0), VertexId(4), Weighting::TravelTime, 10.0)
            .is_none());
        assert!(router
            .shortest_cost(VertexId(0), VertexId(4), Weighting::TravelTime, 100.0)
            .is_some());
    }

    #[test]
    fn source_equals_target_costs_zero() {
        let net = example_network();
        let mut router = Router::new(&net);
        let r = router
            .shortest_route(
                VertexId(2),
                VertexId(2),
                Weighting::TravelTime,
                f64::INFINITY,
            )
            .unwrap();
        assert!(r.edges.is_empty());
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn router_state_resets_between_queries() {
        let net = example_network();
        let mut router = Router::new(&net);
        let a = router
            .shortest_cost(
                VertexId(0),
                VertexId(4),
                Weighting::TravelTime,
                f64::INFINITY,
            )
            .unwrap();
        // Run an unrelated query, then repeat the first: identical result.
        let _ = router.shortest_cost(
            VertexId(1),
            VertexId(5),
            Weighting::TravelTime,
            f64::INFINITY,
        );
        let b = router
            .shortest_cost(
                VertexId(0),
                VertexId(4),
                Weighting::TravelTime,
                f64::INFINITY,
            )
            .unwrap();
        assert_eq!(a, b);
    }
}
