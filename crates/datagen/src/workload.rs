//! Synthetic commuting workload (the ITSP data set stand-in).
//!
//! Every driver gets a home, a workplace, personal departure habits, a
//! personal driving style, and per-category route preferences. Weekdays
//! produce morning/evening commutes plus occasional errands; weekends
//! produce leisure trips (including summer-house visits). Travel times are
//! free-flow times scaled by a weekday rush-hour congestion profile,
//! per-traversal lognormal noise, and intersection turn delays — the three
//! effects that make path-level estimates beat segment-level ones.

use crate::network::SyntheticNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr_shim::sample_lognormal;
use tthr_network::route::Router;
use tthr_network::{Category, EdgeId, RoadNetwork, Timestamp, VertexId, Zone, SECONDS_PER_DAY};
use tthr_trajectory::{TrajEntry, TrajId, TrajectorySet, UserId};

/// Minimal lognormal sampling without the `rand_distr` dependency.
mod rand_distr_shim {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Samples `exp(N(mu, sigma))` via Box–Muller.
    pub(crate) fn sample_lognormal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mu + sigma * z).exp()
    }
}

/// Workload generator parameters.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of drivers (the paper's ITSP set has 458 vehicles).
    pub num_drivers: usize,
    /// Simulated days (the ITSP set spans ~950).
    pub num_days: u32,
    /// Probability of a weekday errand trip.
    pub errand_probability: f64,
    /// Probability of a weekend leisure trip.
    pub weekend_trip_probability: f64,
    /// Lognormal σ of the per-traversal noise.
    pub noise_sigma: f64,
    /// Maximum turn delay at an intersection, in seconds.
    pub turn_penalty_max: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::medium()
    }
}

impl WorkloadConfig {
    /// Tiny workload for unit tests.
    pub fn small() -> Self {
        WorkloadConfig {
            seed: 7,
            num_drivers: 12,
            num_days: 21,
            errand_probability: 0.3,
            weekend_trip_probability: 0.5,
            noise_sigma: 0.12,
            turn_penalty_max: 8.0,
        }
    }

    /// Mid-size workload for integration tests and examples.
    pub fn medium() -> Self {
        WorkloadConfig {
            seed: 7,
            num_drivers: 120,
            num_days: 180,
            errand_probability: 0.35,
            weekend_trip_probability: 0.5,
            noise_sigma: 0.12,
            turn_penalty_max: 8.0,
        }
    }

    /// Paper-shaped workload for the benchmark harness (458 drivers,
    /// 2.5 years).
    pub fn large() -> Self {
        WorkloadConfig {
            seed: 7,
            num_drivers: 458,
            num_days: 912,
            errand_probability: 0.35,
            weekend_trip_probability: 0.5,
            noise_sigma: 0.12,
            turn_penalty_max: 8.0,
        }
    }
}

struct Driver {
    home: VertexId,
    work: VertexId,
    /// Personal departure habit, seconds of day.
    morning_sod: f64,
    evening_sod: f64,
    /// Personal speed factor (≈ lognormal around 1).
    speed_factor: f64,
    /// Extra personal factor on main roads (some drivers push on motorways,
    /// others don't) — what makes user filters informative out of town.
    main_road_factor: f64,
    home_work: Option<Vec<EdgeId>>,
    work_home: Option<Vec<EdgeId>>,
}

/// Weekday rush-hour congestion multiplier.
fn congestion_factor(sod: f64, weekday: bool, category: Category, zone: Zone) -> f64 {
    let bump = |center_h: f64, width_h: f64| {
        let d = (sod - center_h * 3600.0) / (width_h * 3600.0);
        (-0.5 * d * d).exp()
    };
    let load = if weekday {
        bump(7.75, 0.8) + bump(16.25, 1.0) + 0.25 * bump(12.5, 1.5)
    } else {
        0.4 * bump(13.0, 2.5)
    };
    let sensitivity = match (zone, category.is_main_road()) {
        (Zone::City, true) => 0.9,
        (Zone::City, false) => 0.6,
        (Zone::Rural, true) => 0.5,
        (Zone::Rural, false) => 0.25,
        _ => 0.2,
    };
    1.0 + sensitivity * load
}

/// Turn delay when moving from `prev` onto `next`: crossing or turning at
/// an intersection costs more the busier the road being entered or crossed.
fn turn_penalty(
    net: &RoadNetwork,
    rng: &mut StdRng,
    prev: EdgeId,
    next: EdgeId,
    max_penalty: f64,
    congestion: f64,
) -> f64 {
    let a = net.position(net.edge_from(prev));
    let b = net.position(net.edge_to(prev));
    let c = net.position(net.edge_to(next));
    // Straight-through needs |turn angle| near 0.
    let v1 = (b.x - a.x, b.y - a.y);
    let v2 = (c.x - b.x, c.y - b.y);
    let cross = v1.0 * v2.1 - v1.1 * v2.0;
    let dot = v1.0 * v2.0 + v1.1 * v2.1;
    let angle = cross.atan2(dot).abs();
    if angle < 0.3 && net.attrs(prev).category == net.attrs(next).category {
        return 0.0;
    }
    let base = (angle / std::f64::consts::PI) * max_penalty;
    let cat_weight = if net.attrs(next).category.is_main_road() {
        0.6 // entering a main road usually means yielding
    } else {
        1.0
    };
    rng.gen_range(0.3..1.0) * base * cat_weight * congestion
}

/// Generates the trajectory set for a synthetic network.
pub fn generate_workload(syn: &SyntheticNetwork, config: &WorkloadConfig) -> TrajectorySet {
    let net = &syn.network;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut router = Router::new(net);

    // --- Drivers ----------------------------------------------------------
    let mut drivers: Vec<Driver> = (0..config.num_drivers)
        .map(|_| {
            let home_city = rng.gen_range(0..syn.cities.len());
            let work_city = if syn.cities.len() > 1 && rng.gen_bool(0.6) {
                // Commuters crossing the corridors dominate the interesting
                // queries.
                let mut c = rng.gen_range(0..syn.cities.len());
                while c == home_city {
                    c = rng.gen_range(0..syn.cities.len());
                }
                c
            } else {
                home_city
            };
            let pick = |rng: &mut StdRng, city: usize| {
                let vs = &syn.cities[city].vertices;
                vs[rng.gen_range(0..vs.len())]
            };
            Driver {
                home: pick(&mut rng, home_city),
                work: pick(&mut rng, work_city),
                morning_sod: rng.gen_range(6.6..8.8) * 3600.0,
                evening_sod: rng.gen_range(15.4..17.6) * 3600.0,
                speed_factor: sample_lognormal(&mut rng, 0.0, 0.07).clamp(0.75, 1.3),
                main_road_factor: sample_lognormal(&mut rng, 0.0, 0.1).clamp(0.7, 1.4),
                home_work: None,
                work_home: None,
            }
        })
        .collect();

    // Pre-compute commute routes (they repeat every day).
    for d in &mut drivers {
        d.home_work = router
            .shortest_route(d.home, d.work)
            .filter(|e| !e.is_empty());
        d.work_home = router
            .shortest_route(d.work, d.home)
            .filter(|e| !e.is_empty());
    }

    // --- Trips ------------------------------------------------------------
    let mut set = TrajectorySet::new();
    for day in 0..config.num_days as i64 {
        let weekday = day % 7 < 5;
        for (di, driver) in drivers.iter().enumerate() {
            let user = UserId(di as u32);
            if weekday {
                if let Some(route) = driver.home_work.clone() {
                    let depart = day as f64 * SECONDS_PER_DAY as f64
                        + driver.morning_sod
                        + rng.gen_range(-480.0..480.0);
                    push_trip(
                        &mut set, net, &mut rng, config, driver, user, &route, depart,
                    );
                }
                if let Some(route) = driver.work_home.clone() {
                    let depart = day as f64 * SECONDS_PER_DAY as f64
                        + driver.evening_sod
                        + rng.gen_range(-600.0..600.0);
                    push_trip(
                        &mut set, net, &mut rng, config, driver, user, &route, depart,
                    );
                }
                if rng.gen_bool(config.errand_probability) {
                    if let Some(route) = random_route(syn, &mut rng, &mut router, driver.home) {
                        let depart =
                            day as f64 * SECONDS_PER_DAY as f64 + rng.gen_range(9.5..20.0) * 3600.0;
                        push_trip(
                            &mut set, net, &mut rng, config, driver, user, &route, depart,
                        );
                    }
                }
            } else if rng.gen_bool(config.weekend_trip_probability) {
                let dest = if !syn.summer_vertices.is_empty() && rng.gen_bool(0.4) {
                    syn.summer_vertices[rng.gen_range(0..syn.summer_vertices.len())]
                } else {
                    let city = rng.gen_range(0..syn.cities.len());
                    syn.cities[city].vertices[rng.gen_range(0..syn.cities[city].vertices.len())]
                };
                if let Some(route) = router
                    .shortest_route(driver.home, dest)
                    .filter(|e| !e.is_empty())
                {
                    let depart =
                        day as f64 * SECONDS_PER_DAY as f64 + rng.gen_range(9.0..17.0) * 3600.0;
                    push_trip(
                        &mut set, net, &mut rng, config, driver, user, &route, depart,
                    );
                }
            }
        }
    }
    set
}

/// A random errand route from `from` to a nearby vertex.
fn random_route(
    syn: &SyntheticNetwork,
    rng: &mut StdRng,
    router: &mut Router<'_>,
    from: VertexId,
) -> Option<Vec<EdgeId>> {
    let city = rng.gen_range(0..syn.cities.len());
    let to = syn.cities[city].vertices[rng.gen_range(0..syn.cities[city].vertices.len())];
    router.shortest_route(from, to).filter(|e| !e.is_empty())
}

/// Synthesizes traversal times along a route and appends the trajectory.
#[allow(clippy::too_many_arguments)]
fn push_trip(
    set: &mut TrajectorySet,
    net: &RoadNetwork,
    rng: &mut StdRng,
    config: &WorkloadConfig,
    driver: &Driver,
    user: UserId,
    route: &[EdgeId],
    depart: f64,
) {
    let mut t = depart;
    let mut prev_enter: Timestamp = Timestamp::MIN;
    let mut entries = Vec::with_capacity(route.len());
    let mut prev_edge: Option<EdgeId> = None;
    for &e in route {
        let attrs = net.attrs(e);
        let day = (t / SECONDS_PER_DAY as f64).floor() as i64;
        let sod = t - day as f64 * SECONDS_PER_DAY as f64;
        let weekday = day.rem_euclid(7) < 5;
        let congestion = congestion_factor(sod, weekday, attrs.category, attrs.zone);

        // Free-flow speed: slightly below the limit, personal style applied.
        let mut speed_kmh = net.effective_speed_limit_kmh(e) * 0.92 * driver.speed_factor;
        if attrs.category.is_main_road() {
            speed_kmh *= driver.main_road_factor;
        }
        let base = 3.6 * attrs.length_m / speed_kmh;
        let noise = sample_lognormal(rng, 0.0, config.noise_sigma);
        let turn = match prev_edge {
            Some(p) => turn_penalty(net, rng, p, e, config.turn_penalty_max, congestion),
            None => 0.0,
        };
        let tt = (base * congestion * noise + turn).max(0.3);

        let enter = (t.floor() as Timestamp).max(prev_enter + 1);
        entries.push(TrajEntry::new(e, enter, tt));
        prev_enter = enter;
        t += tt;
        prev_edge = Some(e);
    }
    if !entries.is_empty() {
        set.push(user, entries)
            .expect("synthesized trips are valid");
    }
}

/// Samples the paper's query trajectories: a `fraction` sample of all
/// trajectories that start after the median timestamp (so at least half the
/// history precedes every query) and have at least `min_len` segments
/// (Section 6).
pub fn sample_query_trajectories(
    set: &TrajectorySet,
    fraction: f64,
    min_len: usize,
    seed: u64,
) -> Vec<TrajId> {
    let Some(median) = set.median_start_time() else {
        return Vec::new();
    };
    let mut rng = StdRng::seed_from_u64(seed);
    set.iter()
        .filter(|tr| tr.start_time() > median && tr.len() >= min_len)
        .filter(|_| rng.gen_bool(fraction.clamp(0.0, 1.0)))
        .map(|tr| tr.id())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{generate_network, NetworkConfig};

    fn small() -> (SyntheticNetwork, TrajectorySet) {
        let syn = generate_network(&NetworkConfig::small());
        let set = generate_workload(&syn, &WorkloadConfig::small());
        (syn, set)
    }

    #[test]
    fn workload_produces_valid_trajectories() {
        let (syn, set) = small();
        assert!(set.len() > 200, "trajectories: {}", set.len());
        assert!(set.total_traversals() > 5_000);
        // Every trajectory path is traversable on the network.
        for tr in set.iter().take(500) {
            assert!(syn.network.validate_path(&tr.path()), "{:?}", tr.id());
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let syn = generate_network(&NetworkConfig::small());
        let a = generate_workload(&syn, &WorkloadConfig::small());
        let b = generate_workload(&syn, &WorkloadConfig::small());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn rush_hour_is_slower_than_night() {
        let (_, set) = small();
        // Compare average traversal times of city segments in the morning
        // rush vs at night, across the whole workload.
        let mut rush = (0.0, 0usize);
        let mut night = (0.0, 0usize);
        for tr in &set {
            for e in tr.entries() {
                let sod = e.enter_time.rem_euclid(SECONDS_PER_DAY);
                let per_meter = e.travel_time; // same segments dominate both
                if (7 * 3600..9 * 3600).contains(&sod) {
                    rush = (rush.0 + per_meter, rush.1 + 1);
                } else if !(6 * 3600..21 * 3600).contains(&sod) {
                    night = (night.0 + per_meter, night.1 + 1);
                }
            }
        }
        if rush.1 > 100 && night.1 > 100 {
            assert!(
                rush.0 / rush.1 as f64 > night.0 / night.1 as f64,
                "rush-hour traversals must be slower on average"
            );
        }
    }

    #[test]
    fn drivers_have_distinct_styles() {
        let (_, set) = small();
        // The same commute path driven by different drivers should differ
        // more across drivers than within one driver's own trips. Proxy
        // check: per-driver mean trip duration varies.
        let mut per_user: std::collections::HashMap<u32, (f64, usize)> = Default::default();
        for tr in &set {
            let e = per_user.entry(tr.user().0).or_default();
            e.0 += tr.total_duration() / tr.len() as f64;
            e.1 += 1;
        }
        let means: Vec<f64> = per_user.values().map(|(s, n)| s / *n as f64).collect();
        let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = means.iter().cloned().fold(0.0, f64::max);
        assert!(hi / lo > 1.05, "driver styles should differ: {lo} vs {hi}");
    }

    #[test]
    fn query_sampling_respects_median_and_length() {
        let (_, set) = small();
        let ids = sample_query_trajectories(&set, 0.5, 10, 99);
        assert!(!ids.is_empty());
        let median = set.median_start_time().unwrap();
        for id in &ids {
            let tr = set.get(*id);
            assert!(tr.start_time() > median);
            assert!(tr.len() >= 10);
        }
        // Deterministic given the seed.
        assert_eq!(ids, sample_query_trajectories(&set, 0.5, 10, 99));
    }
}
