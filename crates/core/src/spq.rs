//! Strict path queries.

use crate::interval::TimeInterval;
use tthr_network::Path;
use tthr_store::StoreError;
use tthr_trajectory::{TrajId, UserId};

/// The non-temporal filter predicate `f` of an SPQ.
///
/// The paper's experiments use either no predicate or a user (driver)
/// predicate; the engine evaluates it in constant time against the dense
/// `U : d → u` table (Section 4.1.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Filter {
    /// No filter: `f = ∅`.
    #[default]
    None,
    /// Only trajectories of the given user: `f = {u = …}`.
    User(UserId),
}

impl Filter {
    /// Whether this is the empty predicate.
    pub fn is_empty(&self) -> bool {
        matches!(self, Filter::None)
    }
}

/// A strict path query `spq(P, I, f, β)` (paper, Section 2.3): retrieve the
/// travel times of up to `β` trajectories that traversed `P` without
/// detours, entered it during `I`, and satisfy `f`.
///
/// `Spq` is `Hash + Eq` over all five components, so a query — original or
/// relaxed — can serve directly as a result-cache key (`tthr-service` keys
/// its sharded histogram cache on it).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Spq {
    /// The query path `P`.
    pub path: Path,
    /// The temporal predicate `I`.
    pub interval: TimeInterval,
    /// The non-temporal filter predicate `f`.
    pub filter: Filter,
    /// The cardinality requirement / retrieval cap `β`.
    /// `None` retrieves all eligible trajectories (the paper's "β omitted").
    pub beta: Option<u32>,
    /// Trajectory excluded from the answer (the query's own source
    /// trajectory during evaluation, so ground truth never answers itself).
    pub exclude: Option<TrajId>,
}

impl Spq {
    /// Creates a query with no filter and no cardinality requirement.
    pub fn new(path: Path, interval: TimeInterval) -> Self {
        Spq {
            path,
            interval,
            filter: Filter::None,
            beta: None,
            exclude: None,
        }
    }

    /// Sets the cardinality requirement `β`.
    pub fn with_beta(mut self, beta: u32) -> Self {
        self.beta = Some(beta);
        self
    }

    /// Sets a user filter.
    pub fn with_user(mut self, user: UserId) -> Self {
        self.filter = Filter::User(user);
        self
    }

    /// Excludes a trajectory from the result set.
    pub fn without_trajectory(mut self, traj: TrajId) -> Self {
        self.exclude = Some(traj);
        self
    }

    /// The admission rule for a query decoded off a binary frame (the
    /// frame codec accepts any `u32` edge id): every edge of the path must
    /// name one of the served network's `num_edges` edges.
    pub fn check_edges(&self, num_edges: usize) -> Result<(), StoreError> {
        match self.path.edges().iter().find(|e| e.index() >= num_edges) {
            Some(bad) => Err(StoreError::corrupt(format!(
                "edge id {} out of range: the network has {num_edges} edges",
                bad.0
            ))),
            None => Ok(()),
        }
    }

    /// The effective retrieval cap (`u32::MAX` when β is omitted).
    pub(crate) fn beta_cap(&self) -> u32 {
        self.beta.unwrap_or(u32::MAX)
    }

    /// Replaces the path, keeping all predicates.
    pub(crate) fn with_path(&self, path: Path) -> Self {
        Spq {
            path,
            interval: self.interval,
            filter: self.filter,
            beta: self.beta,
            exclude: self.exclude,
        }
    }

    /// Replaces the interval, keeping everything else (σ's widening, and
    /// how a ladder level is spelled as a query).
    pub fn with_interval(&self, interval: TimeInterval) -> Self {
        Spq {
            path: self.path.clone(),
            interval,
            filter: self.filter,
            beta: self.beta,
            exclude: self.exclude,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tthr_network::EdgeId;

    #[test]
    fn builder_methods_compose() {
        let p = Path::new(vec![EdgeId(0), EdgeId(1)]);
        let q = Spq::new(p.clone(), TimeInterval::fixed(0, 100))
            .with_beta(20)
            .with_user(UserId(3))
            .without_trajectory(TrajId(7));
        assert_eq!(q.beta, Some(20));
        assert_eq!(q.beta_cap(), 20);
        assert_eq!(q.filter, Filter::User(UserId(3)));
        assert_eq!(q.exclude, Some(TrajId(7)));
        assert!(!q.filter.is_empty());
        let q2 = q.with_path(Path::new(vec![EdgeId(1)]));
        assert_eq!(q2.beta, Some(20), "predicates survive path replacement");
        assert_eq!(Spq::new(p, TimeInterval::fixed(0, 1)).beta_cap(), u32::MAX);
    }
}
