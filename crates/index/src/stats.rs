//! Operation counters used by the paper's Fig. 7 evaluation.

/// Counters accumulated by every query against an [`RTree`].
///
/// `range_searches` is the headline number the paper reports; the other
/// counters give visibility into *why* the epoch-based probe is cheaper
/// (fewer nodes descended, fewer distance computations).
///
/// [`RTree`]: crate::RTree
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// ε-range searches executed (plain queries + epoch probes).
    pub range_searches: u64,
    /// Of which epoch-based probes.
    pub epoch_probes: u64,
    /// Tree nodes descended into across all searches.
    pub nodes_visited: u64,
    /// Point-to-point distance evaluations at leaf level.
    pub distance_checks: u64,
    /// Subtrees skipped by epoch pruning.
    pub subtrees_pruned: u64,
    /// Points inserted over the tree's lifetime.
    pub inserts: u64,
    /// Points removed over the tree's lifetime.
    pub removes: u64,
    /// Batched mutations taken through `bulk_insert` (one per batch that
    /// actually used the shared-descent path, not the per-point fallback).
    pub bulk_insert_batches: u64,
    /// Batched mutations taken through `bulk_remove` (shared-descent path).
    pub bulk_remove_batches: u64,
    /// Multi-center ball traversals (`for_each_in_balls` calls).
    pub multi_ball_queries: u64,
    /// Centers served across all multi-center traversals. Comparing this to
    /// `multi_ball_queries` gives the batching factor.
    pub multi_ball_centers: u64,
    /// Nodes descended into by the batched paths (bulk insert/remove and
    /// multi-center traversal). Kept separate from `nodes_visited` so the
    /// per-point and batched costs can be compared side by side.
    pub bulk_nodes_visited: u64,
    /// Leaf entries examined by the batched paths.
    pub bulk_leaf_scans: u64,
}

impl Stats {
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Stats::default();
    }

    /// Publishes every counter as a `disc_index_*_total` metric delta.
    ///
    /// Callers pass a *windowed* diff (see [`Stats::since`]) so the
    /// recorder's monotone counters advance by exactly the work done in
    /// the window. Shared by both [`SpatialBackend`] implementors, which
    /// is what keeps the exported metric set backend-agnostic.
    ///
    /// [`SpatialBackend`]: crate::SpatialBackend
    pub fn publish_to(&self, rec: &dyn disc_telemetry::Recorder) {
        if !rec.enabled() {
            return;
        }
        rec.counter_add("disc_index_range_searches_total", self.range_searches);
        rec.counter_add("disc_index_epoch_probes_total", self.epoch_probes);
        rec.counter_add("disc_index_nodes_visited_total", self.nodes_visited);
        rec.counter_add("disc_index_distance_checks_total", self.distance_checks);
        rec.counter_add("disc_index_subtrees_pruned_total", self.subtrees_pruned);
        rec.counter_add("disc_index_inserts_total", self.inserts);
        rec.counter_add("disc_index_removes_total", self.removes);
        rec.counter_add(
            "disc_index_bulk_insert_batches_total",
            self.bulk_insert_batches,
        );
        rec.counter_add(
            "disc_index_bulk_remove_batches_total",
            self.bulk_remove_batches,
        );
        rec.counter_add(
            "disc_index_multi_ball_queries_total",
            self.multi_ball_queries,
        );
        rec.counter_add(
            "disc_index_multi_ball_centers_total",
            self.multi_ball_centers,
        );
        rec.counter_add(
            "disc_index_bulk_nodes_visited_total",
            self.bulk_nodes_visited,
        );
        rec.counter_add("disc_index_bulk_leaf_scans_total", self.bulk_leaf_scans);
    }

    /// The *non-zero* counters as span attributes, for attaching a
    /// windowed diff (see [`Stats::since`]) to a tracing span — the
    /// range-search attribution both backends share. Names match the
    /// exported metrics minus the `disc_index_` / `_total` decoration.
    pub fn span_args(&self) -> Vec<(&'static str, u64)> {
        let all: [(&'static str, u64); 13] = [
            ("range_searches", self.range_searches),
            ("epoch_probes", self.epoch_probes),
            ("nodes_visited", self.nodes_visited),
            ("distance_checks", self.distance_checks),
            ("subtrees_pruned", self.subtrees_pruned),
            ("inserts", self.inserts),
            ("removes", self.removes),
            ("bulk_insert_batches", self.bulk_insert_batches),
            ("bulk_remove_batches", self.bulk_remove_batches),
            ("multi_ball_queries", self.multi_ball_queries),
            ("multi_ball_centers", self.multi_ball_centers),
            ("bulk_nodes_visited", self.bulk_nodes_visited),
            ("bulk_leaf_scans", self.bulk_leaf_scans),
        ];
        all.into_iter().filter(|&(_, v)| v > 0).collect()
    }

    /// Difference `self - earlier`, for windowed measurements.
    pub fn since(&self, earlier: &Stats) -> Stats {
        Stats {
            range_searches: self.range_searches - earlier.range_searches,
            epoch_probes: self.epoch_probes - earlier.epoch_probes,
            nodes_visited: self.nodes_visited - earlier.nodes_visited,
            distance_checks: self.distance_checks - earlier.distance_checks,
            subtrees_pruned: self.subtrees_pruned - earlier.subtrees_pruned,
            inserts: self.inserts - earlier.inserts,
            removes: self.removes - earlier.removes,
            bulk_insert_batches: self.bulk_insert_batches - earlier.bulk_insert_batches,
            bulk_remove_batches: self.bulk_remove_batches - earlier.bulk_remove_batches,
            multi_ball_queries: self.multi_ball_queries - earlier.multi_ball_queries,
            multi_ball_centers: self.multi_ball_centers - earlier.multi_ball_centers,
            bulk_nodes_visited: self.bulk_nodes_visited - earlier.bulk_nodes_visited,
            bulk_leaf_scans: self.bulk_leaf_scans - earlier.bulk_leaf_scans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fieldwise() {
        let a = Stats {
            range_searches: 10,
            epoch_probes: 4,
            nodes_visited: 100,
            distance_checks: 50,
            subtrees_pruned: 3,
            inserts: 7,
            removes: 2,
            bulk_insert_batches: 5,
            bulk_remove_batches: 4,
            multi_ball_queries: 9,
            multi_ball_centers: 90,
            bulk_nodes_visited: 80,
            bulk_leaf_scans: 70,
        };
        let b = Stats {
            range_searches: 4,
            epoch_probes: 1,
            nodes_visited: 40,
            distance_checks: 20,
            subtrees_pruned: 1,
            inserts: 5,
            removes: 1,
            bulk_insert_batches: 2,
            bulk_remove_batches: 1,
            multi_ball_queries: 3,
            multi_ball_centers: 30,
            bulk_nodes_visited: 20,
            bulk_leaf_scans: 10,
        };
        let d = a.since(&b);
        assert_eq!(d.range_searches, 6);
        assert_eq!(d.epoch_probes, 3);
        assert_eq!(d.nodes_visited, 60);
        assert_eq!(d.distance_checks, 30);
        assert_eq!(d.subtrees_pruned, 2);
        assert_eq!(d.inserts, 2);
        assert_eq!(d.removes, 1);
        assert_eq!(d.bulk_insert_batches, 3);
        assert_eq!(d.bulk_remove_batches, 3);
        assert_eq!(d.multi_ball_queries, 6);
        assert_eq!(d.multi_ball_centers, 60);
        assert_eq!(d.bulk_nodes_visited, 60);
        assert_eq!(d.bulk_leaf_scans, 60);
    }

    #[test]
    fn publish_to_exports_every_counter() {
        let s = Stats {
            range_searches: 10,
            epoch_probes: 4,
            nodes_visited: 100,
            distance_checks: 50,
            subtrees_pruned: 3,
            inserts: 7,
            removes: 2,
            bulk_insert_batches: 5,
            bulk_remove_batches: 4,
            multi_ball_queries: 9,
            multi_ball_centers: 90,
            bulk_nodes_visited: 80,
            bulk_leaf_scans: 70,
        };
        let reg = disc_telemetry::Registry::new();
        s.publish_to(&reg);
        // 13 Stats fields -> 13 exported counters; the names below are the
        // exact public metric set (DESIGN.md §9).
        assert_eq!(reg.counter_value("disc_index_range_searches_total"), 10);
        assert_eq!(reg.counter_value("disc_index_epoch_probes_total"), 4);
        assert_eq!(reg.counter_value("disc_index_nodes_visited_total"), 100);
        assert_eq!(reg.counter_value("disc_index_distance_checks_total"), 50);
        assert_eq!(reg.counter_value("disc_index_subtrees_pruned_total"), 3);
        assert_eq!(reg.counter_value("disc_index_inserts_total"), 7);
        assert_eq!(reg.counter_value("disc_index_removes_total"), 2);
        assert_eq!(reg.counter_value("disc_index_bulk_insert_batches_total"), 5);
        assert_eq!(reg.counter_value("disc_index_bulk_remove_batches_total"), 4);
        assert_eq!(reg.counter_value("disc_index_multi_ball_queries_total"), 9);
        assert_eq!(reg.counter_value("disc_index_multi_ball_centers_total"), 90);
        assert_eq!(reg.counter_value("disc_index_bulk_nodes_visited_total"), 80);
        assert_eq!(reg.counter_value("disc_index_bulk_leaf_scans_total"), 70);
        assert_eq!(reg.counter_names().len(), 13);
        // Publishing again advances monotonically.
        s.publish_to(&reg);
        assert_eq!(reg.counter_value("disc_index_range_searches_total"), 20);
        // A disabled recorder records nothing.
        let noop = disc_telemetry::NoopRecorder;
        s.publish_to(&noop); // must be a no-op (nothing to observe, but must not panic)
    }

    #[test]
    fn span_args_keep_only_touched_counters() {
        assert!(Stats::default().span_args().is_empty());
        let s = Stats {
            range_searches: 3,
            nodes_visited: 12,
            ..Stats::default()
        };
        let args = s.span_args();
        assert_eq!(args, vec![("range_searches", 3), ("nodes_visited", 12)]);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = Stats {
            range_searches: 1,
            ..Stats::default()
        };
        s.reset();
        assert_eq!(s, Stats::default());
    }
}
