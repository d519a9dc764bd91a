use disc_geom::Point;
use disc_index::{GridIndex, RTree, SpatialBackend};
use disc_telemetry::SpanRecord;
use disc_window::{csv, datasets, Record};
use perfbench::report::{median, quantile, Tally, END_TO_END, MIB, PER_LAYER};
use perfbench::workload::{self, Dataset, Durability, Trace, Workload};
use perfbench::{check, child, replica};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--toy]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Smoke-test scale (see `Workload::toy`).
    toy: bool,
    /// Internal: only write the segments' inputs into this directory.
    write_inputs: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        toy: false,
        write_inputs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            args.toy = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v:?}: not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--write-inputs" => args.write_inputs = Some(value.into()),
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn maze60(n: usize, seed: u64) -> Vec<Record<2>> {
    datasets::maze(n, 60, seed)
}

/// Runs the benchmark and prints the result line; `Ok(false)` when a slide
/// or a correctness check failed.
fn run(args: &Args) -> Result<bool, String> {
    let mut wl = Workload::find(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        )
    })?;
    if args.toy {
        wl = wl.toy();
    }
    let segments = wl.segments(args.seconds);
    if let Some(dir) = &args.write_inputs {
        return match wl.dataset {
            Dataset::Dtg => write_inputs::<2>(&wl, datasets::dtg_like, args.seed, segments, dir),
            Dataset::Maze => write_inputs::<2>(&wl, maze60, args.seed, segments, dir),
            Dataset::Geolife => {
                write_inputs::<3>(&wl, datasets::geolife_like, args.seed, segments, dir)
            }
        }
        .map(|()| true);
    }
    let bin = child::build_disc()?;
    let scratch = child::target_dir()
        .join("perfbench")
        .join(format!("run-{}", std::process::id()));
    println!(
        "perfbench workload={} seed={} seconds={} trace={} segments={segments} \
         window={} stride={} slides/segment={} closed-loop replay",
        wl.name, args.seed, args.seconds, args.trace as u8, wl.window, wl.stride, wl.slides
    );
    let run = Run {
        wl: &wl,
        segments,
        bin: &bin,
        scratch: &scratch,
    };
    let outcome = run
        .inputs(args)
        .and_then(|()| match (wl.dim(), args.trace, wl.index) {
            (2, false, _) => run.untraced::<2>(),
            (3, false, _) => run.untraced::<3>(),
            (2, true, "grid") => run.traced::<2, GridIndex<2>>(),
            (3, true, "rtree") => run.traced::<3, RTree<3>>(),
            (dim, _, index) => Err(format!("no replica for {dim}D --index {index}")),
        });
    let _ = std::fs::remove_dir_all(&scratch);
    let (tally, line) = outcome?;
    for failure in &tally.failures {
        eprintln!("FAILED {failure}");
    }
    println!("{line}");
    Ok(tally.failed == 0)
}

/// Generates the world's trace and writes every segment's input under
/// `dir/seg{i}`. Runs in a process of its own (`--write-inputs`): the trace
/// is the benchmark's largest allocation, and Linux would otherwise count
/// the measuring process's peak in every child's `ru_maxrss`.
fn write_inputs<const D: usize>(
    wl: &Workload,
    generator: fn(usize, u64) -> Vec<Record<D>>,
    seed: u64,
    segments: usize,
    dir: &Path,
) -> Result<(), String> {
    let trace = Trace::generate(wl, generator, seed, segments);
    for seg in 0..segments {
        let seg_dir = dir.join(format!("seg{seg}"));
        std::fs::create_dir_all(&seg_dir)
            .and_then(|()| trace.write_segment(wl, seed, seg, &seg_dir))
            .map_err(|e| format!("{}: {e}", seg_dir.display()))?;
    }
    Ok(())
}

struct Run<'a> {
    wl: &'a Workload,
    segments: usize,
    bin: &'a Path,
    scratch: &'a Path,
}

impl Run<'_> {
    /// Writes every segment's input, outside any timed region, by running
    /// this program again with `--write-inputs`.
    fn inputs(&self, args: &Args) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
        let mut cmd = std::process::Command::new(exe);
        cmd.args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--write-inputs")
            .arg(self.scratch.join("inputs"));
        if args.toy {
            cmd.arg("--toy");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("writing the inputs: {e}"))?;
        if !status.success() {
            return Err(format!("writing the inputs failed: {status}"));
        }
        Ok(())
    }

    fn input(&self, segment: usize, file: &str) -> PathBuf {
        self.scratch
            .join("inputs")
            .join(format!("seg{segment}"))
            .join(file)
    }

    /// A fresh, empty directory for one run's outputs.
    fn fresh(&self, tag: &str) -> Result<PathBuf, String> {
        let dir = self.scratch.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Checks `snapshot` against the DBSCAN oracle over segment 0's final
    /// window.
    fn oracle<const D: usize>(&self, snapshot: &[(Point<D>, i64)]) -> Result<(), String> {
        let expected = csv::read_records::<D>(&self.input(0, workload::EXPECTED))
            .map_err(|e| format!("reading the expected window: {e}"))?;
        let expected: Vec<Point<D>> = expected.iter().map(|r| r.point).collect();
        check::against_oracle(snapshot, &expected, self.wl.eps, self.wl.tau)
    }

    /// `--trace 0`: times the binary on every segment, then replays
    /// segment 0 once more; the replay must reproduce the first run's
    /// snapshot byte for byte, and counts as one more sample. The oracle
    /// and repeat checks run last, so that this process stays small while
    /// children run.
    fn untraced<const D: usize>(&self) -> Result<(Tally, String), String> {
        let wl = self.wl;
        let mut tally = Tally::default();
        let (mut setup, mut wall, mut rss, mut disk, mut recover) =
            (vec![], vec![], vec![], vec![], vec![]);
        let (mut gaps, mut throughput) = (vec![], vec![]);
        let last = self.segments;
        for (i, seg) in (0..self.segments).chain([0]).enumerate() {
            let what = format!("run {i} (segment {seg})");
            let dir = self.fresh(&format!("run{i}"))?;
            let input = self.input(seg, workload::INPUT);
            let run = child::run(self.bin, &wl.run_args(&input, &dir))?;
            if !run.ok {
                tally.slides(&what, wl.slides, 0);
                tally
                    .failures
                    .push(format!("{what}: disc failed: {}", run.other.join(" | ")));
                continue;
            }
            tally.slides(&what, wl.slides, run.lines.len());
            if let (Some(first), Some(end)) = (run.lines.first(), run.lines.last()) {
                let seg_gaps: Vec<f64> = run.lines.windows(2).map(|w| w[1] - w[0]).collect();
                eprintln!(
                    "{what}: setup {first:.3} s, wall {:.3} s, slide p50 {:.3} ms",
                    run.wall_s,
                    median(&seg_gaps) * 1e3
                );
                setup.push(*first);
                gaps.extend(seg_gaps);
                if end > first {
                    throughput.push(((run.lines.len() - 1) * wl.stride) as f64 / (end - first));
                }
            }
            wall.push(run.wall_s);
            rss.push(run.max_rss_bytes as f64 / MIB);
            disk.push(child::bytes_under(&dir) as f64 / MIB);
            if wl.durability != Durability::None {
                let resumed = child::run(self.bin, &wl.resume_args(&input, &dir))?;
                recover.push(resumed.wall_s);
                let result = if resumed.ok {
                    read_snapshot::<D>(&dir.join(workload::SNAPSHOT)).and_then(|run| {
                        check::same_partition(
                            &run,
                            &read_snapshot::<D>(&dir.join(workload::RESUMED))?,
                        )
                    })
                } else {
                    Err(format!("disc resume failed: {}", resumed.other.join(" | ")))
                };
                tally.check(&format!("{what} resume"), result);
            }
            if i != 0 && i != last {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        let snapshot = |i: usize| {
            self.scratch
                .join(format!("run{i}"))
                .join(workload::SNAPSHOT)
        };
        tally.check(
            "oracle",
            read_snapshot::<D>(&snapshot(0)).and_then(|s| self.oracle(&s)),
        );
        tally.check(
            "repeat",
            match (std::fs::read(snapshot(0)), std::fs::read(snapshot(last))) {
                (Ok(a), Ok(b)) if a == b => Ok(()),
                _ => Err("segment 0's snapshot differs byte-wise between runs".into()),
            },
        );

        if wl.durability == Durability::None {
            // Without durable state a restart replays the whole stream.
            recover = wall.clone();
        }
        let beyond_p95 = gaps.len() - (0.95 * gaps.len() as f64).ceil() as usize;
        eprintln!(
            "{}: {} runs, {} slide gaps ({beyond_p95} beyond p95), median wall {:.3} s",
            wl.name,
            wall.len(),
            gaps.len(),
            median(&wall)
        );
        let values = [
            ("setup_s", median(&setup)),
            ("wall_s", median(&wall)),
            ("points_per_s", median(&throughput)),
            ("slide_p50_ms", quantile(&gaps, 0.5) * 1e3),
            ("slide_p95_ms", quantile(&gaps, 0.95) * 1e3),
            ("peak_rss_mb", median(&rss)),
            ("disk_mb", median(&disk)),
            ("recover_s", median(&recover)),
        ];
        let line = perfbench::report::result_line(&tally, &END_TO_END, &values);
        Ok((tally, line))
    }

    /// `--trace 1`: runs the binary on segment 0, then replays every
    /// segment in-process with spans and checks the replica against it.
    fn traced<const D: usize, B: SpatialBackend<D>>(&self) -> Result<(Tally, String), String> {
        let wl = self.wl;
        let mut tally = Tally::default();
        let binary = self.fresh("binary")?;
        let run = child::run(
            self.bin,
            &wl.run_args(&self.input(0, workload::INPUT), &binary),
        )?;
        tally.slides(
            "binary segment 0",
            wl.slides,
            if run.ok { run.lines.len() } else { 0 },
        );
        let binary_snapshot = read_snapshot::<D>(&binary.join(workload::SNAPSHOT));
        tally.check(
            "oracle",
            binary_snapshot
                .as_deref()
                .map_err(String::clone)
                .and_then(|s| self.oracle(s)),
        );

        let mut reps = Vec::new();
        let (mut wal_mb, mut ckpt_mb, mut jsonl_mb) = (vec![], vec![], vec![]);
        for seg in 0..self.segments {
            let what = format!("replica segment {seg}");
            let dir = self.fresh("replica")?;
            let mut rep = match replica::run::<D, B>(wl, &self.input(seg, workload::INPUT), &dir) {
                Ok(rep) => rep,
                Err(e) => {
                    tally.slides(&what, wl.slides, 0);
                    tally.failures.push(format!("{what}: {e}"));
                    continue;
                }
            };
            tally.slides(&what, wl.slides, rep.slides.len());
            tally.check(
                &format!("{what} spans"),
                check::span_trees(&rep.spans, wl.slides),
            );
            if let Some(recovered) = &rep.recovered {
                tally.check(
                    &format!("{what} recovery"),
                    check::same_partition(recovered, &rep.snapshot),
                );
            }
            if seg == 0 {
                tally.check(
                    "replica",
                    binary_snapshot
                        .as_deref()
                        .map_err(String::clone)
                        .and_then(|b| check::same_partition(&rep.snapshot, b)),
                );
                eprintln!(
                    "{}: traced replica total {:.3} s beside untraced wall_s {:.3} s (segment 0)",
                    wl.name, rep.total_s, run.wall_s
                );
            }
            let size = |f: &str| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len()) as f64 / MIB;
            wal_mb.push(size(workload::WAL));
            jsonl_mb.push(size(workload::METRICS));
            ckpt_mb.push(child::bytes_under(&dir.join(workload::CHECKPOINTS)) as f64 / MIB);
            rep.snapshot = Vec::new();
            rep.recovered = None;
            reps.push(rep);
        }
        let values = layer_values(&reps, wal_mb, ckpt_mb, jsonl_mb, run.wall_s);
        let line = perfbench::report::result_line(&tally, &PER_LAYER, &values);
        Ok((tally, line))
    }
}

fn read_snapshot<const D: usize>(path: &Path) -> Result<Vec<(Point<D>, i64)>, String> {
    csv::read_snapshot::<D>(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Each span's self time in seconds: its duration minus its children's.
fn self_seconds(spans: &[SpanRecord]) -> Vec<f64> {
    let at: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let p = at[&s.parent];
        ns[p] = ns[p].saturating_sub(s.dur_ns);
    }
    ns.into_iter().map(|n| n as f64 * 1e-9).collect()
}

/// The per-layer metrics over all replayed segments.
fn layer_values<const D: usize>(
    reps: &[replica::Replica<D>],
    wal_mb: Vec<f64>,
    ckpt_mb: Vec<f64>,
    jsonl_mb: Vec<f64>,
    untraced_wall: f64,
) -> Vec<(&'static str, f64)> {
    let selfs: Vec<Vec<f64>> = reps.iter().map(|r| self_seconds(&r.spans)).collect();
    // Self times of every span called `name`, over all segments.
    let pooled = |name: &str| -> Vec<f64> {
        reps.iter()
            .zip(&selfs)
            .flat_map(|(r, s)| {
                r.spans
                    .iter()
                    .zip(s)
                    .filter(|(sp, _)| sp.name == name)
                    .map(|(_, t)| *t)
            })
            .collect()
    };
    // Total self time of `name` per segment, medianed over segments.
    let per_segment = |name: &str| -> f64 {
        let totals: Vec<f64> = reps
            .iter()
            .zip(&selfs)
            .map(|(r, s)| {
                r.spans
                    .iter()
                    .zip(s)
                    .filter(|(sp, _)| sp.name == name)
                    .map(|(_, t)| t)
                    .sum()
            })
            .collect();
        median(&totals)
    };
    let count = |f: &dyn Fn(&replica::Counts) -> u64| {
        median(&reps.iter().map(|r| f(&r.counts) as f64).collect::<Vec<_>>())
    };
    let admit =
        |f: &dyn Fn(&disc_window::IngestStats) -> u64| count(&|c| c.admit.as_ref().map_or(0, f));
    let slides: Vec<&disc_core::SlideStats> = reps.iter().flat_map(|r| &r.slides).collect();
    let per_slide = |f: &dyn Fn(&disc_core::SlideStats) -> u64| {
        slides.iter().map(|s| f(s) as f64).sum::<f64>() / slides.len().max(1) as f64
    };
    let phase_p50 = |f: &dyn Fn(&disc_core::SlideStats) -> std::time::Duration| {
        quantile(
            &slides
                .iter()
                .map(|s| f(s).as_secs_f64() * 1e6)
                .collect::<Vec<_>>(),
            0.5,
        )
    };
    let us = |name: &str, q: f64| quantile(&pooled(name), q) * 1e6;
    let visited: u64 = slides.iter().map(|s| s.index.nodes_visited).sum();
    let pruned: u64 = slides.iter().map(|s| s.index.subtrees_pruned).sum();
    // Layer self time against the traced total, restart excluded.
    let (mut accounted, mut total) = (0.0, 0.0);
    for (r, s) in reps.iter().zip(&selfs) {
        let end_ns = (r.total_s * 1e9) as u64;
        accounted += r
            .spans
            .iter()
            .zip(s)
            .filter(|(sp, _)| sp.parent != 0 && sp.start_ns < end_ns)
            .map(|(_, t)| t)
            .sum::<f64>();
        total += r.total_s;
    }
    let traced_total = reps.first().map_or(0.0, |r| r.total_s);
    vec![
        ("window.parse_s", per_segment("window.parse")),
        ("window.parse_records", count(&|c| c.parse_records)),
        ("window.admit_s", per_segment("window.admit")),
        ("window.admit.admitted", admit(&|s| s.admitted)),
        ("window.admit.reordered", admit(&|s| s.reordered)),
        ("window.admit.duplicate", admit(&|s| s.deduped)),
        ("window.admit.malformed", admit(&|s| s.malformed)),
        (
            "window.admit.late",
            admit(&|s| s.late_dropped + s.dead_lettered + s.late_upserts),
        ),
        ("window.advance_us.p50", us("window.advance", 0.5)),
        ("window.buffer_mb", count(&|c| c.window_bytes) / MIB),
        ("persist.journal_s", per_segment("persist.journal")),
        ("persist.journal_appends", count(&|c| c.journal_appends)),
        ("persist.journal_syncs", count(&|c| c.journal_syncs)),
        ("persist.wal_append_us.p50", us("persist.wal_append", 0.5)),
        ("persist.wal_mb", median(&wal_mb)),
        (
            "persist.checkpoint_ms.p50",
            us("persist.checkpoint", 0.5) / 1e3,
        ),
        ("persist.checkpoint_mb", median(&ckpt_mb)),
        ("persist.recover_ms", per_segment("persist.recover") * 1e3),
        ("core.fill_s", per_segment("core.fill")),
        ("core.apply_us.p50", us("core.apply", 0.5)),
        ("core.apply_us.p95", us("core.apply", 0.95)),
        ("core.collect_us.p50", phase_p50(&|s| s.collect_time)),
        ("core.cluster_us.p50", phase_p50(&|s| s.cluster_time)),
        ("core.adoption_us.p50", phase_p50(&|s| s.adoption_time)),
        (
            "core.adoption_searches",
            per_slide(&|s| s.adoption_searches as u64),
        ),
        ("core.msbfs_rounds", per_slide(&|s| s.msbfs_rounds as u64)),
        ("core.ex_cores", per_slide(&|s| s.ex_cores as u64)),
        ("core.neo_cores", per_slide(&|s| s.neo_cores as u64)),
        ("core.report_us.p50", us("core.report", 0.5)),
        ("core.engine_mb", count(&|c| c.engine_bytes) / MIB),
        (
            "index.range_searches",
            per_slide(&|s| s.index.range_searches),
        ),
        ("index.nodes_visited", per_slide(&|s| s.index.nodes_visited)),
        (
            "index.distance_checks",
            per_slide(&|s| s.index.distance_checks),
        ),
        (
            "index.prune_ratio",
            if visited > 0 {
                pruned as f64 / visited as f64
            } else {
                0.0
            },
        ),
        ("telemetry.emit_us.p50", us("telemetry.emit", 0.5)),
        ("telemetry.jsonl_mb", median(&jsonl_mb)),
        (
            "cli.unaccounted_frac",
            if total > 0.0 {
                1.0 - accounted / total
            } else {
                0.0
            },
        ),
        (
            "trace.overhead_frac",
            if untraced_wall > 0.0 {
                traced_total / untraced_wall - 1.0
            } else {
                0.0
            },
        ),
        ("trace.total_s", traced_total),
        ("trace.untraced_wall_s", untraced_wall),
    ]
}
