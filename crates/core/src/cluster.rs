//! The CLUSTER step (paper Alg. 2): cluster evolution from ex-cores and
//! neo-cores, plus label maintenance (§V).

use crate::collect::CollectOutcome;
use crate::engine::Disc;
use crate::label::ClusterId;
use crate::stats::SlideStats;
use disc_geom::{FxHashSet, PointId};
use disc_index::SpatialBackend;

impl<const D: usize, B: SpatialBackend<D>> Disc<D, B> {
    /// Runs CLUSTER for one slide. The final adoption pass is a separate
    /// call from `apply` so its duration is measured on its own.
    pub(crate) fn cluster(&mut self, outcome: &CollectOutcome, stats: &mut SlideStats) {
        self.ex_core_phase(&outcome.ex_cores, stats);

        // Alg. 2 line 8: the departed ex-cores are no longer needed once
        // every retro-reachable class has been examined.
        for id in &outcome.ghosts {
            let rec = self.points.remove(*id).expect("ghost record vanished");
            let removed = self.tree.remove(*id, rec.point);
            debug_assert!(removed, "ghost {id} missing from the index");
        }

        self.neo_core_phase(&outcome.neo_cores, stats);
    }

    // ------------------------------------------------------------------
    // Ex-cores: splits, shrinks, dissipations (Alg. 2 lines 1-8)
    // ------------------------------------------------------------------

    fn ex_core_phase(&mut self, ex_cores: &[PointId], stats: &mut SlideStats) {
        let eps = self.cfg.eps;
        let tau = self.cfg.tau;

        let mut remaining: FxHashSet<PointId> = ex_cores.iter().copied().collect();
        // Buffers reused across classes.
        let mut r_minus: Vec<PointId> = Vec::new();
        let mut m_minus: Vec<PointId> = Vec::new();
        let mut m_seen: FxHashSet<PointId> = FxHashSet::default();
        let mut ball_buf: Vec<PointId> = Vec::new();
        let mut discovered_ex: Vec<PointId> = Vec::new();
        // Classes gathered in pass 1: `(previous cluster root, M⁻)`. The
        // roots must be read *before* any relabelling, so the connectivity
        // checks are deferred to pass 2.
        let mut classes: Vec<(u32, Vec<PointId>)> = Vec::new();

        // Seeds in slice order (ghosts first, then ids ascending — see
        // COLLECT's canonical classification): deterministic regardless of
        // the hash set's iteration order.
        for &seed in ex_cores {
            if !remaining.remove(&seed) {
                continue; // already absorbed into an earlier class
            }
            stats.ex_classes += 1;
            r_minus.clear();
            m_minus.clear();
            m_seen.clear();

            // Gather R⁻(seed) by BFS over directly retro-reachable ex-cores
            // (one range search per member — Theorem 1 guarantees no other
            // ex-core of the class will ever be searched again), collecting
            // the minimal bonding cores M⁻ on the way.
            r_minus.push(seed);
            let mut i = 0;
            while i < r_minus.len() {
                let r = r_minus[i];
                i += 1;
                let center = self.points.point_at(r);

                ball_buf.clear();
                let buf = &mut ball_buf;
                self.tree
                    .for_each_in_ball(&center, eps, |qid, _| buf.push(qid));

                // The scan doubles as label maintenance for the ex-core
                // itself: any current core in range can adopt it.
                let mut my_adopter: Option<PointId> = None;
                discovered_ex.clear();
                for &qid in &ball_buf {
                    if qid == r {
                        continue;
                    }
                    let Some(q) = self.points.get_mut(qid) else {
                        continue;
                    };
                    if q.is_ex_core(tau) {
                        discovered_ex.push(qid);
                    } else if q.core_in_both(tau) {
                        if m_seen.insert(qid) {
                            m_minus.push(qid);
                        }
                        // Smallest qualifying id wins, so the adopter does
                        // not depend on the index's traversal order.
                        if my_adopter.is_none_or(|a| qid < a) {
                            my_adopter = Some(qid);
                        }
                    } else if q.is_core(tau) {
                        // A neo-core: not part of M⁻ (Def. 4 requires core
                        // in both windows) but a legal adopter.
                        if my_adopter.is_none_or(|a| qid < a) {
                            my_adopter = Some(qid);
                        }
                    } else if q.in_window && q.adopter == Some(r) {
                        // A border that leaned on this ex-core.
                        q.adopter = None;
                        self.census.border -= 1;
                        self.needs_adoption.push(qid);
                    }
                }
                for &qid in &discovered_ex {
                    if remaining.remove(&qid) {
                        r_minus.push(qid);
                    }
                }
                // The scan saw every core of the new window within ε, so
                // the choice is final: without one the ex-core is noise.
                if let Some(rec) = self.points.get_mut(r) {
                    if rec.in_window {
                        rec.adopter = my_adopter;
                        if my_adopter.is_some() {
                            self.census.border += 1;
                        }
                    }
                }
            }

            // M⁻ empty means the region dissipated — nothing to relabel.
            // Otherwise record the class under its previous cluster's root
            // (still untouched by any relabelling at this point).
            if let Some(&first) = m_minus.first() {
                let root = self.clusters.find(self.points.meta_at(first).cid.0);
                classes.push((root, m_minus.clone()));
                self.emit_prov(disc_telemetry::ProvenanceKind::RetroClassFormed {
                    rep: seed.0,
                    size: r_minus.len() as u64,
                });
            } else {
                self.emit_prov(disc_telemetry::ProvenanceKind::ClusterDied {
                    rep: seed.0,
                    size: r_minus.len() as u64,
                });
            }
        }

        // Pass 2: decide the evolution type per class (Alg. 2 lines 4-6).
        // A single bonding core cannot witness a split on its own (every
        // previous path through the class can be respliced through that one
        // core); two or more get a density-connectedness check.
        // Only splitting checks contribute survivor reps: a fragment that
        // disconnected from its cluster necessarily flanks some break whose
        // class's check saw ≥2 components, so every candidate holder of the
        // old id is the survivor of a *splitting* check (or was enumerated
        // and relabelled). Shrink-only classes never produce extra holders.
        let mut outcomes: Vec<(u32, PointId)> = Vec::new();
        for (root, m_minus) in &classes {
            if m_minus.len() < 2 {
                continue; // a single bonding core is respliceable: shrink
            }
            let conn = self.instrumented_connectivity(m_minus, stats);
            if conn.ncc > 1 {
                stats.splits += 1;
                self.emit_prov(disc_telemetry::ProvenanceKind::ClusterSplit {
                    old: *root as u64,
                    parts: conn.ncc as u64,
                    rep: conn.survivor_rep.0,
                });
                self.relabel_detached(&conn.detached, tau);
                outcomes.push((*root, conn.survivor_rep));
            }
        }

        // Cross-class split fixup. Per-class checks detect every split (if
        // all classes of a cluster report their M⁻ connected, any broken
        // previous path can be respliced segment-by-segment through the
        // connected M⁻ of the segment's class — so the cluster cannot have
        // split). But when a cluster IS cut by several classes at once, each
        // check independently lets its own survivor keep the old id, which
        // can leave two now-disconnected fragments carrying it. For every
        // previous cluster touched by ≥2 classes of which ≥1 split, one
        // more connectivity check over the survivors' representatives
        // detaches all but one of them. Split slides are rare, so the
        // common shrink-only path never pays for this.
        outcomes.sort_unstable_by_key(|(root, _)| *root);
        let mut i = 0;
        while i < outcomes.len() {
            let root = outcomes[i].0;
            let mut j = i;
            while j < outcomes.len() && outcomes[j].0 == root {
                j += 1;
            }
            if j - i >= 2 {
                let mut reps: Vec<PointId> = outcomes[i..j].iter().map(|(_, rep)| *rep).collect();
                reps.sort_unstable();
                reps.dedup();
                // A rep whose component was since relabelled by another
                // class's check no longer holds the old id — only actual
                // holders need disambiguation.
                reps.retain(|rep| {
                    let cid = self.points.meta_at(*rep).cid.0;
                    self.clusters.find(cid) == root
                });
                if reps.len() >= 2 {
                    let conn = self.instrumented_connectivity(&reps, stats);
                    if conn.ncc > 1 {
                        self.emit_prov(disc_telemetry::ProvenanceKind::ClusterSplit {
                            old: root as u64,
                            parts: conn.ncc as u64,
                            rep: conn.survivor_rep.0,
                        });
                        self.relabel_detached(&conn.detached, tau);
                    }
                }
            }
            i = j;
        }
    }

    /// One connectivity check with its full observability envelope: the
    /// per-slide MS-BFS counters, a `msbfs` span carrying the check's index
    /// work, and the `msbfs_started` / `msbfs_terminated` provenance pair.
    /// `AllMet` is Alg. 3's early termination (all starters met in one
    /// component); `Exhausted` means some thread enumerated a detached
    /// component to the end.
    fn instrumented_connectivity(
        &mut self,
        starters: &[PointId],
        stats: &mut SlideStats,
    ) -> crate::msbfs::Connectivity {
        let rep = starters[0].0;
        self.emit_prov(disc_telemetry::ProvenanceKind::MsBfsStarted {
            rep,
            starters: starters.len() as u64,
        });
        let sp = self.tracer.begin("msbfs");
        let before = self.tracer.enabled().then(|| *self.tree.stats());
        let conn = self.check_connectivity(starters);
        if let Some(b) = before {
            let mut args = self.tree.stats().since(&b).span_args();
            args.push(("starters", starters.len() as u64));
            args.push(("rounds", conn.rounds as u64));
            args.push(("ncc", conn.ncc as u64));
            self.tracer.end_with_args(sp, &args);
        }
        stats.msbfs_instances += 1;
        stats.msbfs_starters += starters.len();
        stats.msbfs_rounds += conn.rounds;
        self.emit_prov(disc_telemetry::ProvenanceKind::MsBfsTerminated {
            rep,
            reason: if conn.ncc == 1 {
                disc_telemetry::MsBfsReason::AllMet
            } else {
                disc_telemetry::MsBfsReason::Exhausted
            },
            rounds: conn.rounds as u64,
        });
        conn
    }

    /// Assigns one fresh cluster id per detached component.
    ///
    /// Cores of both windows move their membership to the fresh id.
    /// Neo-cores reached by the search join a cluster only when the
    /// neo-core phase assigns one, so they carry no membership yet.
    fn relabel_detached(&mut self, detached: &[Vec<PointId>], tau: usize) {
        for comp in detached {
            let fresh = self.clusters.alloc();
            for id in comp {
                if let Some(rec) = self.points.get_mut(*id) {
                    debug_assert!(rec.is_core(tau));
                    // Components may list an id twice.
                    if rec.prev_core && rec.cid.0 != fresh {
                        self.clusters.remove_member(rec.cid.0);
                        self.clusters.add_member(fresh);
                    }
                    rec.cid = ClusterId(fresh);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Neo-cores: merges, expansions, emergences (Alg. 2 lines 9-13)
    // ------------------------------------------------------------------

    fn neo_core_phase(&mut self, neo_cores: &[PointId], stats: &mut SlideStats) {
        let eps = self.cfg.eps;
        let tau = self.cfg.tau;

        let mut remaining: FxHashSet<PointId> = neo_cores.iter().copied().collect();
        let mut r_plus: Vec<PointId> = Vec::new();
        let mut m_cids: Vec<u32> = Vec::new();
        let mut ball_buf: Vec<PointId> = Vec::new();
        let mut discovered_neo: Vec<PointId> = Vec::new();
        // Orphans adopted during this phase: when several neo-cores reach
        // the same orphan, the smallest id must win regardless of the order
        // the classes are visited in (backend-independent determinism).
        // Adopters that survived from earlier slides are never replaced.
        let mut adopted_here: FxHashSet<PointId> = FxHashSet::default();

        // Seeds in slice order (ids ascending), like the ex-core phase.
        for &seed in neo_cores {
            if !remaining.remove(&seed) {
                continue; // already absorbed into an earlier class
            }
            stats.neo_classes += 1;
            r_plus.clear();
            m_cids.clear();

            // Gather R⁺(seed) over directly nascent-reachable neo-cores;
            // M⁺ members only contribute their cluster ids — unlike M⁻,
            // no connectivity check is ever needed (§III-C).
            r_plus.push(seed);
            let mut i = 0;
            while i < r_plus.len() {
                let r = r_plus[i];
                i += 1;
                let center = self.points.point_at(r);

                ball_buf.clear();
                let buf = &mut ball_buf;
                self.tree
                    .for_each_in_ball(&center, eps, |qid, _| buf.push(qid));

                discovered_neo.clear();
                for &qid in &ball_buf {
                    if qid == r {
                        continue;
                    }
                    let Some(q) = self.points.get_mut(qid) else {
                        continue;
                    };
                    if q.is_neo_core(tau) {
                        discovered_neo.push(qid);
                    } else if q.core_in_both(tau) {
                        m_cids.push(q.cid.0);
                    } else if q.in_window && !q.is_core(tau) {
                        // Label maintenance: the neo-core adopts nearby
                        // orphaned non-cores on the spot (§V). Among the
                        // neo-cores competing this slide the smallest id
                        // wins; adopters from earlier slides stand.
                        if q.adopter.is_none() {
                            q.adopter = Some(r);
                            adopted_here.insert(qid);
                            self.census.border += 1;
                        } else if adopted_here.contains(&qid) && q.adopter > Some(r) {
                            q.adopter = Some(r);
                        }
                    }
                }
                for &qid in &discovered_neo {
                    if remaining.remove(&qid) {
                        r_plus.push(qid);
                    }
                }
            }

            // Resolve the class's cluster id.
            let assigned = if m_cids.is_empty() {
                // Emergence: a brand-new cluster of neo-cores only.
                stats.emerged += 1;
                let fresh = ClusterId(self.clusters.alloc());
                self.emit_prov(disc_telemetry::ProvenanceKind::ClusterEmerged {
                    cluster: fresh.0 as u64,
                    rep: seed.0,
                    size: r_plus.len() as u64,
                });
                fresh
            } else {
                let mut root = self.clusters.find(m_cids[0]);
                let mut distinct = 1;
                for &c in &m_cids[1..] {
                    let rc = self.clusters.find(c);
                    if rc != root {
                        distinct += 1;
                        root = self.clusters.union(root, rc);
                    }
                }
                if distinct > 1 {
                    stats.merges += 1;
                    self.emit_prov(disc_telemetry::ProvenanceKind::ClusterMerge {
                        winner: root as u64,
                        merged: distinct as u64,
                        rep: seed.0,
                    });
                }
                ClusterId(root)
            };
            for id in &r_plus {
                let rec = self.points.get_mut(*id).expect("neo-core vanished");
                debug_assert!(rec.is_core(tau));
                rec.cid = assigned;
                self.clusters.add_member(assigned.0);
                // A neo-core sheds any border bookkeeping it carried.
                if rec.adopter.take().is_some() {
                    self.census.border -= 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Final adoption pass (§V, "updated later by examining neighbours")
    // ------------------------------------------------------------------

    /// Searches for a new adopter for every border whose adopter departed
    /// or became an ex-core this slide — the only non-cores that can lack
    /// an adopter while a core of the new window lies within ε. A point
    /// that had a core in range last slide kept an adopter unless one of
    /// those two events cleared it; a core that entered its range is a
    /// neo-core, whose phase adopts every orphan in its ball; and a fresh
    /// point was settled at insertion (DESIGN.md, "Border adoption").
    pub(crate) fn adoption_pass(&mut self, stats: &mut SlideStats) {
        let eps = self.cfg.eps;
        let tau = self.cfg.tau;
        let mut pending = std::mem::take(&mut self.needs_adoption);
        // Canonical order (the list's order is an insertion-history
        // artifact). The pass only writes each pending point's own adopter,
        // so neither the searched set nor any result depends on order — but
        // pinning it keeps the provenance stream identical across runs.
        pending.sort_unstable();
        // Skip-checks are stable for the same reason, so they can run up
        // front.
        pending.retain(|&id| {
            self.points
                .get(id) // departed this slide → gone
                .is_some_and(|rec| !rec.is_core(tau) && rec.adopter.is_none() && rec.in_window)
        });
        let mut ball_buf: Vec<PointId> = Vec::new();
        for &id in &pending {
            let center = self.points.point_at(id);
            stats.adoption_searches += 1;
            ball_buf.clear();
            let buf = &mut ball_buf;
            self.tree
                .for_each_in_ball(&center, eps, |qid, _| buf.push(qid));
            let mut adopter: Option<PointId> = None;
            for &qid in &ball_buf {
                if qid != id && adopter.is_none_or(|a| qid < a) {
                    if let Some(q) = self.points.get(qid) {
                        if q.is_core(tau) {
                            adopter = Some(qid);
                        }
                    }
                }
            }
            self.points.get_mut(id).expect("record vanished").adopter = adopter;
            if let Some(core) = adopter {
                self.census.border += 1;
                self.emit_prov(disc_telemetry::ProvenanceKind::Adoption {
                    border: id.0,
                    core: core.0,
                });
            }
        }
        pending.clear();
        self.needs_adoption = pending;
    }
}

#[cfg(test)]
mod tests {
    //! Targeted adoption: only borders whose adopter departed or became an
    //! ex-core are searched, on both backends and both slide paths.

    use crate::config::DiscConfig;
    use crate::engine::Disc;
    use crate::label::PointLabel;
    use disc_geom::{Point, PointId};
    use disc_index::{GridIndex, RTree, SpatialBackend};
    use disc_window::SlideBatch;

    type Pt = (u64, f64, f64);

    fn slide(incoming: &[Pt], outgoing: &[Pt]) -> SlideBatch<2> {
        let pts = |list: &[Pt]| {
            list.iter()
                .map(|&(i, x, y)| (PointId(i), Point::new([x, y])))
                .collect()
        };
        SlideBatch {
            incoming: pts(incoming),
            outgoing: pts(outgoing),
        }
    }

    /// Runs `scenario` on both backends, each with both slide paths.
    fn everywhere(scenario: fn(&mut dyn Engine)) {
        for cfg in [
            DiscConfig::new(1.0, 5),
            DiscConfig::new(1.0, 5).without_bulk_slide(),
        ] {
            scenario(&mut Disc::<2, RTree<2>>::with_index(cfg));
            scenario(&mut Disc::<2, GridIndex<2>>::with_index(cfg));
        }
    }

    /// The engine calls the scenarios make, independent of the backend.
    trait Engine {
        fn slide(&mut self, incoming: &[Pt], outgoing: &[Pt]) -> usize;
        fn label(&self, id: u64) -> PointLabel;
        fn counts(&mut self) -> ((usize, usize, usize), usize);
    }

    impl<B: SpatialBackend<2>> Engine for Disc<2, B> {
        /// Applies one slide and returns its adoption searches.
        fn slide(&mut self, incoming: &[Pt], outgoing: &[Pt]) -> usize {
            self.apply(&slide(incoming, outgoing)).adoption_searches
        }

        fn label(&self, id: u64) -> PointLabel {
            self.label_of(PointId(id)).expect("point in the window")
        }

        /// Census and cluster count, after checking them against a recount.
        fn counts(&mut self) -> ((usize, usize, usize), usize) {
            self.check_invariants();
            (self.census(), self.num_clusters())
        }
    }

    #[test]
    fn noise_churn_does_no_adoption_searches() {
        everywhere(|disc| {
            // Five cores at the origin with one border (τ = 5, ε = 1).
            let cluster = [
                (0, 0.0, 0.0),
                (1, 0.2, 0.0),
                (2, 0.0, 0.2),
                (3, 0.2, 0.2),
                (4, 0.1, 0.1),
                (5, 1.05, 0.1),
            ];
            // A loose line of noise far away: each point has one or two
            // neighbours, so churn along it changes counts but no core.
            let noise: Vec<Pt> = (0..14)
                .map(|i| (10 + i, 50.0 + 0.8 * i as f64, 0.0))
                .collect();
            let fill: Vec<Pt> = cluster.iter().chain(&noise[..8]).copied().collect();
            disc.slide(&fill, &[]);
            assert_eq!(disc.counts(), ((5, 1, 8), 1));
            for step in 0..6 {
                let searches = disc.slide(&[noise[8 + step]], &[noise[step]]);
                assert_eq!(searches, 0, "step {step}");
                assert_eq!(disc.counts(), ((5, 1, 8), 1));
            }
        });
    }

    #[test]
    fn departing_core_searches_once_per_orphaned_border() {
        everywhere(|disc| {
            // One core with four borders, pairwise more than ε apart.
            let star = [
                (0, 0.0, 0.0),
                (1, 0.9, 0.0),
                (2, 0.0, 0.9),
                (3, -0.9, 0.0),
                (4, 0.0, -0.9),
            ];
            disc.slide(&star, &[]);
            assert_eq!(disc.counts(), ((1, 4, 0), 1));
            let searches = disc.slide(&[], &star[..1]);
            assert_eq!(searches, 4);
            for id in 1..=4 {
                assert_eq!(disc.label(id), PointLabel::Noise, "p{id}");
            }
            assert_eq!(disc.counts(), ((0, 0, 4), 0));
        });
    }

    #[test]
    fn demoted_core_hands_its_borders_to_the_smallest_id_core_in_range() {
        everywhere(|disc| {
            // Border 10 at the origin sees three cores, each held up by
            // three helpers on its far side: a = 1, c = 2, d = 3. It is
            // adopted by the smallest id, a.
            let core_with_helpers = |id: u64, (x, y): (f64, f64)| {
                let (ux, uy) = (x / 0.9, y / 0.9);
                let (vx, vy) = (-uy, ux);
                [
                    (id, x, y),
                    (10 * id + 10, 1.5 * ux, 1.5 * uy),
                    (10 * id + 11, 1.4 * ux + 0.3 * vx, 1.4 * uy + 0.3 * vy),
                    (10 * id + 12, 1.4 * ux - 0.3 * vx, 1.4 * uy - 0.3 * vy),
                ]
            };
            let a = core_with_helpers(1, (-0.9, 0.0));
            let c = core_with_helpers(2, (0.0, 0.9));
            let d = core_with_helpers(3, (0.0, -0.9));
            let fill: Vec<Pt> = [(10, 0.0, 0.0)]
                .iter()
                .chain(&a)
                .chain(&c)
                .chain(&d)
                .copied()
                .collect();
            disc.slide(&fill, &[]);
            assert_eq!(disc.counts(), ((3, 10, 0), 3));
            let PointLabel::Core(cluster_a) = disc.label(1) else {
                panic!("a must be a core");
            };
            assert_eq!(disc.label(10), PointLabel::Border(cluster_a));

            // One helper leaves: a drops below τ and becomes an ex-core.
            // Its orphans are border 10 and its two other helpers; a
            // itself has no core in range and is settled by its own scan.
            let searches = disc.slide(&[], &a[1..2]);
            assert_eq!(searches, 3);
            let PointLabel::Core(cluster_c) = disc.label(2) else {
                panic!("c must be a core");
            };
            assert_eq!(disc.label(10), PointLabel::Border(cluster_c));
            for id in [1, 21, 22] {
                assert_eq!(disc.label(id), PointLabel::Noise, "p{id}");
            }
            assert_eq!(disc.counts(), ((2, 7, 3), 2));
        });
    }
}
