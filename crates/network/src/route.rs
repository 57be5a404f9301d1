//! Dijkstra routing over the road network.
//!
//! Routing is a substrate requirement, not a paper contribution: the
//! synthetic workload generator draws every trajectory along a least
//! `estimateTT` route between an origin–destination pair.

use crate::graph::RoadNetwork;
use crate::types::{EdgeId, VertexId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// Reusable Dijkstra search state. Buffers are retained across queries so a
/// generator issuing thousands of searches does not reallocate.
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

    /// The edges of a least total `estimateTT` route from `source` to
    /// `target` (empty when they are equal), or `None` if `target` is
    /// unreachable.
    pub fn shortest_route(&mut self, source: VertexId, target: VertexId) -> Option<Vec<EdgeId>> {
        if !self.search(source, target) {
            return None;
        }
        let mut edges = Vec::new();
        let mut v = target;
        while v != source {
            let e = self.pred[v.index()]?;
            edges.push(e);
            v = self.network.edge_from(e);
        }
        edges.reverse();
        Some(edges)
    }

    /// Runs Dijkstra from `source` until `target` is settled; returns
    /// whether it was reached.
    fn search(&mut self, source: VertexId, target: VertexId) -> bool {
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
            if vertex == target {
                return true;
            }
            for &e in self.network.out_edges(vertex) {
                let next = self.network.edge_to(e);
                let next_cost = cost + self.network.estimate_tt(e);
                if next_cost < self.dist[next.index()] {
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
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::example_network;

    #[test]
    fn routes_on_example_network() {
        // Figure 1: v0 -A-> v1 -B-> v2 -E-> v4, with detour v1 -C-> v3 -D-> v2.
        // A,B,E is the fastest (29.5 + 8.6 + 7.2 ≈ 45.3 s) vs A,C,D,E (≈ 51 s).
        let net = example_network();
        let mut router = Router::new(&net);
        assert_eq!(
            router.shortest_route(VertexId(0), VertexId(4)),
            Some(vec![EdgeId(0), EdgeId(1), EdgeId(4)])
        );
    }

    #[test]
    fn unreachable_returns_none() {
        let net = example_network();
        let mut router = Router::new(&net);
        // Nothing leads back to v0.
        assert!(router.shortest_route(VertexId(4), VertexId(0)).is_none());
    }

    #[test]
    fn source_equals_target_costs_zero() {
        let net = example_network();
        let mut router = Router::new(&net);
        assert_eq!(
            router.shortest_route(VertexId(2), VertexId(2)),
            Some(vec![])
        );
    }

    #[test]
    fn router_state_resets_between_queries() {
        let net = example_network();
        let mut router = Router::new(&net);
        let a = router.shortest_route(VertexId(0), VertexId(4));
        // Run an unrelated query, then repeat the first: identical result.
        let _ = router.shortest_route(VertexId(1), VertexId(5));
        assert_eq!(router.shortest_route(VertexId(0), VertexId(4)), a);
        assert!(a.is_some());
    }
}
