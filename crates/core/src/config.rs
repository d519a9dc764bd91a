//! DISC configuration.

/// Which [`SpatialBackend`](disc_index::SpatialBackend) implementor a
/// driver should instantiate the engine over.
///
/// The backend is a *type parameter* of [`Disc`](crate::Disc), so this enum
/// cannot switch it at runtime by itself; it is the declarative half that
/// CLI / bench drivers match on to pick the instantiation (and that reports
/// carry so results are attributable). [`DiscConfig::backend`] defaults to
/// the paper's R-tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexBackend {
    /// The paper's quadratic-split R-tree ([`disc_index::RTree`]).
    #[default]
    RTree,
    /// The ε-aligned uniform grid ([`disc_index::GridIndex`]).
    Grid,
}

impl IndexBackend {
    /// Short name matching `SpatialBackend::NAME` (`"rtree"`, `"grid"`).
    pub fn name(self) -> &'static str {
        match self {
            IndexBackend::RTree => "rtree",
            IndexBackend::Grid => "grid",
        }
    }

    /// Parses a backend name as accepted by the CLI's `--index` flag.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rtree" => Some(IndexBackend::RTree),
            "grid" => Some(IndexBackend::Grid),
            _ => None,
        }
    }

    /// Every selectable backend, in the order docs/benches list them.
    pub const ALL: [IndexBackend; 2] = [IndexBackend::RTree, IndexBackend::Grid];
}

impl std::fmt::Display for IndexBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of a [`Disc`] instance.
///
/// `eps` and `tau` are DBSCAN's ε (distance threshold) and *MinPts* (called
/// τ in the paper; **self-inclusive**, following Alg. 1 which initialises a
/// fresh point's count to 1). The two boolean toggles disable the paper's
/// §IV optimisations individually, which is how the Fig. 8 ablation is run;
/// both default to enabled.
///
/// [`Disc`]: crate::Disc
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiscConfig {
    /// Distance threshold ε (inclusive).
    pub eps: f64,
    /// Density threshold τ / MinPts, counting the point itself.
    pub tau: usize,
    /// Use Multi-Starter BFS for connectivity checks (§IV-A). When false,
    /// falls back to sequential single-source BFS per component.
    pub enable_msbfs: bool,
    /// Use epoch-based R-tree probing (§IV-B). When false, visited marks
    /// live in a side hash map and range searches cannot prune subtrees.
    pub enable_epoch_probe: bool,
    /// Use the batched slide path in COLLECT: bulk R-tree insert/remove and
    /// one multi-center ε-ball traversal per phase instead of a traversal
    /// per point. Exactness is unaffected; this only changes how the same
    /// updates are computed. Defaults to enabled; disable for ablation.
    pub enable_bulk_slide: bool,
    /// Which index backend drivers should instantiate the engine over (see
    /// [`IndexBackend`]). Purely declarative for the engine itself.
    pub backend: IndexBackend,
}

impl DiscConfig {
    /// A configuration with both optimisations enabled.
    pub fn new(eps: f64, tau: usize) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive");
        assert!(tau >= 1, "tau must be at least 1");
        DiscConfig {
            eps,
            tau,
            enable_msbfs: true,
            enable_epoch_probe: true,
            enable_bulk_slide: true,
            backend: IndexBackend::default(),
        }
    }

    /// Disables MS-BFS (ablation).
    pub fn without_msbfs(mut self) -> Self {
        self.enable_msbfs = false;
        self
    }

    /// Disables epoch-based probing (ablation).
    pub fn without_epoch_probe(mut self) -> Self {
        self.enable_epoch_probe = false;
        self
    }

    /// Disables the batched slide path (ablation).
    pub fn without_bulk_slide(mut self) -> Self {
        self.enable_bulk_slide = false;
        self
    }

    /// Declares the index backend drivers should instantiate over.
    pub fn with_backend(mut self, backend: IndexBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Compatibility shim for callers that still state a worker count:
    /// the engine is sequential, so only `1` is accepted and nothing is
    /// stored.
    ///
    /// # Panics
    ///
    /// If `threads` is not 1.
    pub fn with_threads(self, threads: usize) -> Self {
        assert_eq!(
            threads, 1,
            "the engine is sequential; only 1 thread is supported"
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_toggles() {
        let c = DiscConfig::new(0.5, 4);
        assert!(c.enable_msbfs && c.enable_epoch_probe && c.enable_bulk_slide);
        let c = c.without_msbfs();
        assert!(!c.enable_msbfs && c.enable_epoch_probe);
        let c = c.without_epoch_probe();
        assert!(!c.enable_msbfs && !c.enable_epoch_probe);
        let c = c.without_bulk_slide();
        assert!(!c.enable_bulk_slide);
    }

    #[test]
    fn backend_selection_round_trips() {
        let c = DiscConfig::new(0.5, 4);
        assert_eq!(c.backend, IndexBackend::RTree);
        let c = c.with_backend(IndexBackend::Grid);
        assert_eq!(c.backend, IndexBackend::Grid);
        assert_eq!(c.backend.name(), "grid");
        for b in IndexBackend::ALL {
            assert_eq!(IndexBackend::parse(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(IndexBackend::ALL.len(), 2);
        assert_eq!(IndexBackend::parse("curve"), None);
        assert_eq!(IndexBackend::parse("kdtree"), None);
    }

    #[test]
    fn with_threads_accepts_only_one() {
        let c = DiscConfig::new(0.5, 4);
        assert_eq!(c.with_threads(1), c);
    }

    #[test]
    #[should_panic(expected = "the engine is sequential")]
    fn with_threads_rejects_wider() {
        let _ = DiscConfig::new(0.5, 4).with_threads(2);
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn zero_eps_rejected() {
        let _ = DiscConfig::new(0.0, 4);
    }

    #[test]
    #[should_panic(expected = "tau must be at least 1")]
    fn zero_tau_rejected() {
        let _ = DiscConfig::new(1.0, 0);
    }
}
