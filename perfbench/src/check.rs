//! Correctness gates: the DBSCAN oracle over a final window, snapshot
//! comparison, and span-tree shape.

use disc_baselines::Dbscan;
use disc_geom::{Point, PointId};
use disc_index::{GridIndex, SpatialBackend};
use disc_metrics::equivalence::{dbscan_equivalent, Labeling};
use disc_telemetry::SpanRecord;

/// Largest window checked with `disc_metrics::dbscan_equivalent`, which
/// compares every pair of points. Larger windows (the paper-scale
/// workload) use [`grid_equivalent`], the same three conditions with
/// neighbourhoods from a grid index.
const PAIRWISE_LIMIT: usize = 20_000;

/// Checks a snapshot against the DBSCAN oracle: its points must be exactly
/// `expected` (as a multiset), and its labels DBSCAN-equivalent to a
/// from-scratch `disc_baselines::Dbscan` run over them.
pub fn against_oracle<const D: usize>(
    snapshot: &[(Point<D>, i64)],
    expected: &[Point<D>],
    eps: f64,
    tau: usize,
) -> Result<(), String> {
    let mut got: Vec<[f64; D]> = snapshot.iter().map(|(p, _)| p.coords()).collect();
    let mut want: Vec<[f64; D]> = expected.iter().map(|p| p.coords()).collect();
    let by_coords = |a: &[f64; D], b: &[f64; D]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    got.sort_by(by_coords);
    want.sort_by(by_coords);
    if got != want {
        return Err(format!(
            "snapshot holds {} points that are not the final window's {}",
            got.len(),
            want.len()
        ));
    }
    let points: Vec<(PointId, Point<D>)> = snapshot
        .iter()
        .enumerate()
        .map(|(i, (p, _))| (PointId(i as u64), *p))
        .collect();
    let labels: Vec<(PointId, i64)> = snapshot
        .iter()
        .enumerate()
        .map(|(i, (_, l))| (PointId(i as u64), *l))
        .collect();
    let (oracle, _) = Dbscan::<D, GridIndex<D>>::run_with(&points, eps, tau);
    let oracle: Vec<(PointId, i64)> = oracle.into_iter().collect();
    if points.len() <= PAIRWISE_LIMIT {
        let a = Labeling {
            points: &points,
            assignment: &labels,
        };
        let b = Labeling {
            points: &points,
            assignment: &oracle,
        };
        dbscan_equivalent(&a, &b, eps, tau).map_err(|e| format!("differs from DBSCAN: {e:?}"))
    } else {
        grid_equivalent(&points, &labels, &oracle, eps, tau)
    }
}

/// `disc_metrics::dbscan_equivalent` for windows too large for its pairwise
/// scan: the same core, noise and border conditions, with each point's
/// ε-neighbourhood taken from a grid index. `a` and `b` are indexed like
/// `points` (ids `0..n`).
pub fn grid_equivalent<const D: usize>(
    points: &[(PointId, Point<D>)],
    a: &[(PointId, i64)],
    b: &[(PointId, i64)],
    eps: f64,
    tau: usize,
) -> Result<(), String> {
    let n = points.len();
    let dense = |labels: &[(PointId, i64)]| -> Result<Vec<i64>, String> {
        let mut out = vec![i64::MIN; n];
        for &(id, l) in labels {
            let slot = out
                .get_mut(id.0 as usize)
                .ok_or("labelings cover different points")?;
            *slot = l;
        }
        if labels.len() != n || out.contains(&i64::MIN) {
            return Err("labelings cover different points".into());
        }
        Ok(out)
    };
    let (la, lb) = (dense(a)?, dense(b)?);
    let mut index = GridIndex::<D>::from_batch(eps, points.to_vec());
    let mut hits = Vec::new();
    let mut is_core = vec![false; n];
    for (i, (_, p)) in points.iter().enumerate() {
        index.ball_ids_into(p, eps, &mut hits);
        is_core[i] = hits.len() >= tau;
    }
    // 1. Core partitions must correspond one to one.
    let mut ab = std::collections::HashMap::new();
    let mut ba = std::collections::HashMap::new();
    for i in (0..n).filter(|&i| is_core[i]) {
        let (ca, cb) = (la[i], lb[i]);
        if ca < 0 || cb < 0 {
            return Err(format!("core point {i} labelled a={ca} b={cb}"));
        }
        if *ab.entry(ca).or_insert(cb) != cb || *ba.entry(cb).or_insert(ca) != ca {
            return Err(format!("core partitions differ at point {i}"));
        }
    }
    // 2 and 3. Noise has no core neighbour; a border joins one of its core
    // neighbours' clusters.
    for i in (0..n).filter(|&i| !is_core[i]) {
        index.ball_ids_into(&points[i].1, eps, &mut hits);
        for (side, labels) in [("a", &la), ("b", &lb)] {
            let mut legal = hits
                .iter()
                .filter(|id| is_core[id.0 as usize])
                .map(|id| labels[id.0 as usize])
                .peekable();
            let l = labels[i];
            match (legal.peek().is_some(), l >= 0) {
                (false, true) => return Err(format!("{side}: noise point {i} labelled {l}")),
                (true, false) => return Err(format!("{side}: border point {i} labelled noise")),
                (true, true) if !legal.any(|c| c == l) => {
                    return Err(format!(
                        "{side}: border point {i} labelled {l} by no neighbour"
                    ))
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// Compares two snapshots the way `disc diffsnap` does: the same points,
/// the same noise, and the same partition once rows are sorted by
/// coordinates and clusters renumbered by first appearance. Raw cluster
/// ids are allocation artefacts that a restart may change.
pub fn same_partition<const D: usize>(
    a: &[(Point<D>, i64)],
    b: &[(Point<D>, i64)],
) -> Result<(), String> {
    let canon = |rows: &[(Point<D>, i64)]| {
        let mut rows = rows.to_vec();
        rows.sort_by(|x, y| {
            x.0.coords()
                .iter()
                .zip(y.0.coords().iter())
                .map(|(p, q)| p.total_cmp(q))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut rename = std::collections::HashMap::new();
        rows.into_iter()
            .map(|(p, l)| {
                let next = rename.len() as i64;
                (
                    p.coords(),
                    if l < 0 {
                        -1
                    } else {
                        *rename.entry(l).or_insert(next)
                    },
                )
            })
            .collect::<Vec<_>>()
    };
    if a.len() != b.len() {
        return Err(format!("snapshots hold {} and {} points", a.len(), b.len()));
    }
    match canon(a).iter().zip(&canon(b)).position(|(x, y)| x != y) {
        None => Ok(()),
        Some(i) => Err(format!(
            "snapshots diverge at point {i} in coordinate order"
        )),
    }
}

/// Checks that `spans` form well-nested trees: every parent is recorded,
/// every child lies inside its parent's interval, and the roots are named
/// `setup`, then `slides` × `slide`, then `finish` (and optionally
/// `restart`), in time order.
pub fn span_trees(spans: &[SpanRecord], slides: usize) -> Result<(), String> {
    let by_id: std::collections::HashMap<u32, &SpanRecord> =
        spans.iter().map(|s| (s.id, s)).collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let p = by_id
            .get(&s.parent)
            .ok_or_else(|| format!("span {} ({}) has no recorded parent", s.id, s.name))?;
        if s.start_ns < p.start_ns || s.start_ns + s.dur_ns > p.start_ns + p.dur_ns {
            return Err(format!(
                "span {} ({}) escapes its parent {}",
                s.id, s.name, p.name
            ));
        }
    }
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == 0).collect();
    if roots
        .windows(2)
        .any(|w| w[1].start_ns < w[0].start_ns + w[0].dur_ns)
    {
        return Err("root spans overlap".into());
    }
    let names: Vec<&str> = roots.iter().map(|s| s.name).collect();
    let body = names.get(1..=slides).unwrap_or(&[]);
    let tail = names.get(slides + 1..).unwrap_or(&[]);
    let shaped = names.first() == Some(&"setup")
        && body.len() == slides
        && body.iter().all(|&n| n == "slide")
        && (tail == ["finish"] || tail == ["finish", "restart"]);
    if !shaped {
        return Err(format!(
            "expected roots setup, {slides} x slide, finish[, restart]; got {} roots",
            names.len()
        ));
    }
    Ok(())
}
