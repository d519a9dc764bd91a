//! Toy-scale smoke test of the benchmark itself.

use disc_geom::{Point, PointId};
use disc_index::{GridIndex, RTree};
use disc_telemetry::Json;
use disc_window::datasets;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workload::{self, Dataset, Trace, Workload};
use perfbench::{check, replica};
use std::path::PathBuf;
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the benchmark binary on a toy-scale workload and returns its
/// parsed result line.
fn result(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--toy"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

fn assert_result(workload: &str, trace: u8, table: &[(&str, &str)]) {
    let json = result(workload, trace);
    let Json::Obj(top) = &json else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
    assert!(json.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("metrics is not an object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names, want,
        "{workload}: every named metric, once, in order"
    );
    for ((name, unit), (_, m)) in table.iter().zip(metrics) {
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
    }
}

#[test]
fn dtg_prints_every_metric() {
    assert_result("dtg-200k", 0, &END_TO_END);
    assert_result("dtg-200k", 1, &PER_LAYER);
}

#[test]
fn maze_prints_every_metric() {
    assert_result("maze-durable", 0, &END_TO_END);
    assert_result("maze-durable", 1, &PER_LAYER);
}

#[test]
fn geolife_prints_every_metric() {
    assert_result("geolife-hostile", 0, &END_TO_END);
    assert_result("geolife-hostile", 1, &PER_LAYER);
}

#[test]
fn replica_span_trees_are_well_formed() {
    for wl in workload::all().into_iter().map(Workload::toy) {
        let dir = scratch(&format!("spans-{}", wl.name));
        let spans = match wl.dataset {
            Dataset::Dtg => {
                let trace = Trace::generate(&wl, datasets::dtg_like, 1, 1);
                trace.write_segment(&wl, 1, 0, &dir).unwrap();
                replica::run::<2, GridIndex<2>>(&wl, &dir.join(workload::INPUT), &dir)
                    .unwrap()
                    .spans
            }
            Dataset::Maze => {
                let trace = Trace::generate(&wl, |n, s| datasets::maze(n, 60, s), 1, 1);
                trace.write_segment(&wl, 1, 0, &dir).unwrap();
                replica::run::<2, GridIndex<2>>(&wl, &dir.join(workload::INPUT), &dir)
                    .unwrap()
                    .spans
            }
            Dataset::Geolife => {
                let trace = Trace::generate(&wl, datasets::geolife_like, 1, 1);
                trace.write_segment(&wl, 1, 0, &dir).unwrap();
                replica::run::<3, RTree<3>>(&wl, &dir.join(workload::INPUT), &dir)
                    .unwrap()
                    .spans
            }
        };
        check::span_trees(&spans, wl.slides).unwrap_or_else(|e| panic!("{}: {e}", wl.name));
        let roots = spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == "slide")
            .count();
        assert_eq!(roots, wl.slides, "{}: one root per slide", wl.name);

        // A child that outlives its parent, or a missing slide, is caught.
        let mut escaped = spans.clone();
        let child = escaped.iter().position(|s| s.parent != 0).unwrap();
        escaped[child].dur_ns += 1_000_000_000;
        assert!(check::span_trees(&escaped, wl.slides).is_err());
        assert!(check::span_trees(&spans, wl.slides + 1).is_err());
    }
}

#[test]
fn grid_equivalence_agrees_with_the_pairwise_oracle() {
    let wl = Workload::find("dtg-200k").unwrap().toy();
    let points: Vec<(PointId, Point<2>)> = datasets::dtg_like(1_500, 3)
        .into_iter()
        .enumerate()
        .map(|(i, r)| (PointId(i as u64), r.point))
        .collect();
    let (oracle, _) = disc_baselines::Dbscan::<2, GridIndex<2>>::run_with(&points, wl.eps, wl.tau);
    let mut labels: Vec<(PointId, i64)> = oracle.into_iter().collect();
    labels.sort();
    let pairwise = |a: &[(PointId, i64)], b: &[(PointId, i64)]| {
        let la = disc_metrics::equivalence::Labeling {
            points: &points,
            assignment: a,
        };
        let lb = disc_metrics::equivalence::Labeling {
            points: &points,
            assignment: b,
        };
        disc_metrics::equivalence::dbscan_equivalent(&la, &lb, wl.eps, wl.tau).is_ok()
    };
    assert!(
        labels.iter().any(|&(_, l)| l >= 0),
        "the toy window has clusters"
    );
    assert!(pairwise(&labels, &labels));
    assert!(check::grid_equivalent(&points, &labels, &labels, wl.eps, wl.tau).is_ok());

    // Moving one clustered point to noise, or to a new cluster, breaks both.
    for wrong in [-1, 1_000] {
        let mut broken = labels.clone();
        let at = broken.iter().position(|&(_, l)| l >= 0).unwrap();
        broken[at].1 = wrong;
        assert!(!pairwise(&labels, &broken));
        assert!(check::grid_equivalent(&points, &labels, &broken, wl.eps, wl.tau).is_err());
    }
}

#[test]
fn benchmark_json_matches_the_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        json.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).unwrap().to_string();
                (
                    name,
                    m.get("unit").and_then(Json::as_str).map(str::to_string),
                )
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(names("end_to_end"), table(&END_TO_END));
    assert_eq!(names("per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = workload::all().iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, ours);
}
