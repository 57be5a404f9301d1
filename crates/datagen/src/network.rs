//! Synthetic road network generation.
//!
//! Layout: `num_cities` street-grid cities in a west–east chain, joined by
//! motorway corridors. Each corridor also carries a slower parallel rural
//! road, and some corridors sprout a summer-house pocket — reproducing the
//! category runs and zone boundaries the π strategies split on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tthr_network::{
    Category, EdgeAttrs, EdgeId, NetworkBuilder, Point, RoadNetwork, VertexId, Zone,
};

/// Network generator parameters.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// RNG seed; identical configs generate identical networks.
    pub seed: u64,
    /// Number of cities in the chain.
    pub num_cities: usize,
    /// Street-grid side length (vertices per side) of each city.
    pub city_grid: usize,
    /// City block edge length in meters.
    pub block_m: f64,
    /// Attach a summer-house pocket to every `n`-th corridor (0 = none).
    pub summer_every: usize,
    /// Fraction of minor-road segments left without a tagged speed limit.
    pub untagged_fraction: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::medium()
    }
}

impl NetworkConfig {
    /// Tiny network for unit tests (~600 directed edges).
    pub fn small() -> Self {
        NetworkConfig {
            seed: 42,
            num_cities: 2,
            city_grid: 8,
            block_m: 150.0,
            summer_every: 1,
            untagged_fraction: 0.1,
        }
    }

    /// Mid-size network for integration tests and examples (~9 k directed
    /// edges).
    pub fn medium() -> Self {
        NetworkConfig {
            seed: 42,
            num_cities: 6,
            city_grid: 16,
            block_m: 150.0,
            summer_every: 2,
            untagged_fraction: 0.1,
        }
    }

    /// Large network for the benchmark harness (~45 k directed edges).
    pub fn large() -> Self {
        NetworkConfig {
            seed: 42,
            num_cities: 12,
            city_grid: 25,
            block_m: 140.0,
            summer_every: 2,
            untagged_fraction: 0.1,
        }
    }
}

/// Per-city bookkeeping the workload generator samples from.
#[derive(Clone, Debug)]
pub(crate) struct CityInfo {
    /// All grid vertices of the city.
    pub vertices: Vec<VertexId>,
    /// The west/east arterial endpoints the corridors attach to.
    pub west_gate: VertexId,
    /// East arterial endpoint.
    pub east_gate: VertexId,
}

/// A generated network plus the structure the workload generator needs.
#[derive(Clone, Debug)]
pub struct SyntheticNetwork {
    /// The road network graph.
    pub network: RoadNetwork,
    /// Per-city vertex groups.
    pub(crate) cities: Vec<CityInfo>,
    /// Vertices of summer-house pockets (weekend-trip destinations).
    pub(crate) summer_vertices: Vec<VertexId>,
}

/// Generates a synthetic road network.
pub fn generate_network(config: &NetworkConfig) -> SyntheticNetwork {
    assert!(config.num_cities >= 1, "at least one city");
    assert!(config.city_grid >= 4, "grid must be at least 4×4");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = NetworkBuilder::new();
    let mut cities = Vec::with_capacity(config.num_cities);
    let mut summer_vertices = Vec::new();

    let n = config.city_grid;
    let city_extent = (n - 1) as f64 * config.block_m;
    let corridor_len = 6_000.0;
    let spacing = city_extent + corridor_len;

    // --- Cities ---------------------------------------------------------
    for ci in 0..config.num_cities {
        let origin = Point::new(ci as f64 * spacing, rng.gen_range(-400.0..400.0));
        cities.push(build_city(&mut b, &mut rng, config, origin));
    }

    // --- Corridors between consecutive cities ----------------------------
    for ci in 0..config.num_cities.saturating_sub(1) {
        let from = cities[ci].east_gate;
        let to = cities[ci + 1].west_gate;
        let attach_summer = config.summer_every > 0 && ci % config.summer_every == 0;
        let summer = build_corridor(&mut b, &mut rng, from, to, corridor_len, attach_summer);
        summer_vertices.extend(summer);
    }

    SyntheticNetwork {
        network: b.build(),
        cities,
        summer_vertices,
    }
}

/// Adds both directions of a road between two vertices.
fn two_way(
    b: &mut NetworkBuilder,
    u: VertexId,
    v: VertexId,
    category: Category,
    zone: Zone,
    speed: Option<f64>,
    length: f64,
) -> (EdgeId, EdgeId) {
    let attrs = |_| match speed {
        Some(s) => EdgeAttrs::new(category, zone, s, length),
        None => EdgeAttrs::without_speed_limit(category, zone, length),
    };
    (b.add_edge(u, v, attrs(())), b.add_edge(v, u, attrs(())))
}

/// Builds one city street grid; returns its bookkeeping record.
#[allow(clippy::needless_range_loop)] // gx/gy index two axes of `grid` symmetrically
fn build_city(
    b: &mut NetworkBuilder,
    rng: &mut StdRng,
    config: &NetworkConfig,
    origin: Point,
) -> CityInfo {
    let n = config.city_grid;
    let block = config.block_m;
    let mid = n / 2;
    let quarter = n / 4;

    // Grid vertices.
    let mut grid = vec![vec![VertexId(0); n]; n];
    let mut vertices = Vec::with_capacity(n * n);
    for (gy, row) in grid.iter_mut().enumerate() {
        for (gx, slot) in row.iter_mut().enumerate() {
            let jitter_x = rng.gen_range(-8.0..8.0);
            let jitter_y = rng.gen_range(-8.0..8.0);
            let v = b.add_vertex(Point::new(
                origin.x + gx as f64 * block + jitter_x,
                origin.y + gy as f64 * block + jitter_y,
            ));
            *slot = v;
            vertices.push(v);
        }
    }

    // Street classification by row/column index.
    let class_of = |idx: usize, rng: &mut StdRng| -> (Category, f64) {
        if idx == mid {
            (Category::Primary, 50.0)
        } else if idx == quarter || idx == n - 1 - quarter {
            (Category::Secondary, 50.0)
        } else if idx.is_multiple_of(3) {
            (Category::Tertiary, 40.0)
        } else if rng.gen_bool(0.06) {
            (Category::LivingStreet, 15.0)
        } else {
            (Category::Residential, 30.0)
        }
    };

    let add_street =
        |b: &mut NetworkBuilder, rng: &mut StdRng, u: VertexId, v: VertexId, line_idx: usize| {
            let (cat, speed) = class_of(line_idx, rng);
            // Minor roads are sometimes untagged in OSM; reproduce that so the
            // category-median fallback is exercised.
            let minor = matches!(
                cat,
                Category::Residential | Category::LivingStreet | Category::Tertiary
            );
            let tagged = !(minor && rng.gen_bool(config.untagged_fraction));
            two_way(b, u, v, cat, Zone::City, tagged.then_some(speed), block);
        };

    // Horizontal streets (row gy), vertical streets (column gx).
    for gy in 0..n {
        for gx in 0..n - 1 {
            add_street(b, rng, grid[gy][gx], grid[gy][gx + 1], gy);
        }
    }
    for gx in 0..n {
        for gy in 0..n - 1 {
            add_street(b, rng, grid[gy][gx], grid[gy + 1][gx], gx);
        }
    }

    CityInfo {
        west_gate: grid[mid][0],
        east_gate: grid[mid][n - 1],
        vertices,
    }
}

/// Builds a motorway corridor plus a parallel rural road between two city
/// gates, optionally with a summer-house pocket; returns the pocket's
/// vertices.
#[allow(clippy::needless_range_loop)] // gx/gy index two axes of `grid` symmetrically
fn build_corridor(
    b: &mut NetworkBuilder,
    rng: &mut StdRng,
    from: VertexId,
    to: VertexId,
    nominal_len: f64,
    attach_summer: bool,
) -> Vec<VertexId> {
    let p_from = b_position(b, from);
    let p_to = b_position(b, to);
    let dist = p_from.distance(&p_to);
    // Segment counts derive from the nominal (config-determined) corridor
    // length, not the jittered gate distance: the seed perturbs geometry
    // only, never the topology.
    let segments = ((nominal_len / 800.0).round() as usize).max(2);

    // Ramp vertices just outside the gates.
    let ramp_a = b.add_vertex(p_from.lerp(&p_to, 120.0 / dist));
    let ramp_b = b.add_vertex(p_to.lerp(&p_from, 120.0 / dist));
    two_way(
        b,
        from,
        ramp_a,
        Category::MotorwayLink,
        Zone::Ambiguous,
        Some(60.0),
        120.0,
    );
    two_way(
        b,
        ramp_b,
        to,
        Category::MotorwayLink,
        Zone::Ambiguous,
        Some(60.0),
        120.0,
    );

    // Motorway segments between the ramps.
    let pa = b_position(b, ramp_a);
    let pb = b_position(b, ramp_b);
    let mut prev = ramp_a;
    let seg_len = pa.distance(&pb) / segments as f64;
    let mut mid_vertex = ramp_a;
    for s in 1..segments {
        let v = b.add_vertex(pa.lerp(&pb, s as f64 / segments as f64));
        two_way(
            b,
            prev,
            v,
            Category::Motorway,
            Zone::Rural,
            Some(110.0),
            seg_len,
        );
        if s == segments / 2 {
            mid_vertex = v;
        }
        prev = v;
    }
    two_way(
        b,
        prev,
        ramp_b,
        Category::Motorway,
        Zone::Rural,
        Some(110.0),
        seg_len,
    );

    // Parallel rural road (offset northwards), slower but ramp-free.
    let offset = 350.0;
    let rural_segments = (segments * 2).max(3);
    let mut rprev = from;
    for s in 1..rural_segments {
        let t = s as f64 / rural_segments as f64;
        let base = p_from.lerp(&p_to, t);
        let v = b.add_vertex(Point::new(
            base.x,
            base.y + offset + rng.gen_range(-30.0..30.0),
        ));
        let len = p_from.distance(&p_to) / rural_segments as f64;
        two_way(
            b,
            rprev,
            v,
            Category::Secondary,
            Zone::Rural,
            Some(80.0),
            len,
        );
        rprev = v;
    }
    let len = p_from.distance(&p_to) / rural_segments as f64;
    two_way(
        b,
        rprev,
        to,
        Category::Secondary,
        Zone::Rural,
        Some(80.0),
        len,
    );

    // Summer-house pocket off the middle of the motorway via a spur.
    let mut pocket = Vec::new();
    if attach_summer {
        let anchor = b_position(b, mid_vertex);
        let spur_end = b.add_vertex(Point::new(anchor.x, anchor.y - 900.0));
        two_way(
            b,
            mid_vertex,
            spur_end,
            Category::Tertiary,
            Zone::Ambiguous,
            Some(60.0),
            900.0,
        );
        // A 3×3 grid of living streets.
        let m = 3usize;
        let mut grid = vec![vec![VertexId(0); m]; m];
        for (gy, row) in grid.iter_mut().enumerate() {
            for (gx, slot) in row.iter_mut().enumerate() {
                let v = b.add_vertex(Point::new(
                    anchor.x + (gx as f64 - 1.0) * 120.0,
                    anchor.y - 1000.0 - gy as f64 * 120.0,
                ));
                *slot = v;
                pocket.push(v);
            }
        }
        two_way(
            b,
            spur_end,
            grid[0][1],
            Category::LivingStreet,
            Zone::SummerHouse,
            Some(30.0),
            100.0,
        );
        for gy in 0..m {
            for gx in 0..m - 1 {
                two_way(
                    b,
                    grid[gy][gx],
                    grid[gy][gx + 1],
                    Category::LivingStreet,
                    Zone::SummerHouse,
                    Some(30.0),
                    120.0,
                );
            }
        }
        for gx in 0..m {
            for gy in 0..m - 1 {
                two_way(
                    b,
                    grid[gy][gx],
                    grid[gy + 1][gx],
                    Category::LivingStreet,
                    Zone::SummerHouse,
                    Some(30.0),
                    120.0,
                );
            }
        }
    }
    pocket
}

fn b_position(b: &NetworkBuilder, v: VertexId) -> Point {
    b.position(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tthr_network::route::Router;

    #[test]
    fn small_network_statistics() {
        let syn = generate_network(&NetworkConfig::small());
        let net = &syn.network;
        assert!(net.num_edges() > 400, "edges: {}", net.num_edges());
        assert_eq!(syn.cities.len(), 2);
        assert!(!syn.summer_vertices.is_empty());
        // All four zones appear.
        for z in Zone::ALL {
            assert!(
                net.edge_ids().any(|e| net.attrs(e).zone == z),
                "zone {z:?} missing"
            );
        }
        // Arterial and minor categories appear.
        for c in [
            Category::Motorway,
            Category::MotorwayLink,
            Category::Primary,
            Category::Secondary,
            Category::Residential,
            Category::LivingStreet,
        ] {
            assert!(
                net.edge_ids().any(|e| net.attrs(e).category == c),
                "category {c:?} missing"
            );
        }
    }

    #[test]
    fn cities_are_mutually_reachable() {
        let syn = generate_network(&NetworkConfig::small());
        let mut router = Router::new(&syn.network);
        let a = syn.cities[0].vertices[10];
        let z = *syn.cities[1].vertices.last().unwrap();
        let route = router.shortest_route(a, z).expect("cities connected");
        assert!(route.len() > 10);
        // And back (all roads are two-way).
        assert!(router.shortest_route(z, a).is_some());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_network(&NetworkConfig::small());
        let b = generate_network(&NetworkConfig::small());
        assert_eq!(a.network.num_edges(), b.network.num_edges());
        assert_eq!(a.network.num_vertices(), b.network.num_vertices());
        for e in a.network.edge_ids() {
            assert_eq!(a.network.attrs(e), b.network.attrs(e));
        }
        // Different seeds change the jitter.
        let mut cfg = NetworkConfig::small();
        cfg.seed = 43;
        let c = generate_network(&cfg);
        assert_eq!(a.network.num_edges(), c.network.num_edges());
    }

    #[test]
    fn some_minor_roads_are_untagged() {
        let syn = generate_network(&NetworkConfig::small());
        let untagged = syn
            .network
            .edge_ids()
            .filter(|&e| syn.network.attrs(e).speed_limit_kmh.is_none())
            .count();
        assert!(untagged > 0, "untagged-speed-limit roads must exist");
    }

    #[test]
    fn summer_pocket_is_reachable() {
        let syn = generate_network(&NetworkConfig::small());
        let mut router = Router::new(&syn.network);
        let home = syn.cities[0].vertices[0];
        let pocket = syn.summer_vertices[0];
        assert!(router.shortest_route(home, pocket).is_some());
    }

    #[test]
    fn medium_network_size_band() {
        let syn = generate_network(&NetworkConfig::medium());
        let e = syn.network.num_edges();
        assert!((5_000..40_000).contains(&e), "medium edges = {e}");
    }
}
