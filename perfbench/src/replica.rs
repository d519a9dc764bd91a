//! The traced replica: the `disc run` pipeline replayed in-process.
//!
//! It calls the layers' public functions in the order
//! `crates/cli/src/cmd.rs` (plain runs) and `crates/cli/src/durable.rs`
//! (WAL and checkpoint runs) call them, and records a span around each
//! call: one `setup` tree, one `slide` tree per slide, one `finish` tree,
//! and for durable runs a `restart` tree around recovery. A root span's
//! self time is CLI glue; every child is named `<layer>.<step>` after the
//! crate it calls into. Engine phase times and index counters come from
//! the `SlideStats` that `Disc::try_apply` returns.
//!
//! Keep this file in step with those two modules: drift shows as
//! `cli.unaccounted_frac` and `trace.overhead_frac`, and as a snapshot
//! that no longer matches the binary's.

use crate::workload::{self, Durability, Workload};
use disc_core::{Disc, DiscConfig, IndexBackend, SlideStats};
use disc_geom::{FxHashMap, Point, PointId};
use disc_index::SpatialBackend;
use disc_persist::{
    checkpoint_path, metrics, recover_engine, save_checkpoint, Checkpoint, DriverState,
    FsyncPolicy, IngestJournalWriter, WalWriter,
};
use disc_telemetry::{
    EventSink, JsonlSink, MemoryFootprint, Recorder, Registry, SlideEvent, SpanRecord, Tracer,
};
use disc_window::{csv, AdmissionConfig, Ingest, IngestStats, Record, SlidingWindow};
use std::collections::HashSet;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A tracer shared by the replica and the timed event sink inside the
/// engine's registry, so sink time nests under the engine call that
/// emitted it.
#[derive(Clone)]
struct Spans(Arc<Mutex<Tracer>>);

impl Spans {
    fn begin(&self, name: &'static str) -> disc_telemetry::SpanId {
        self.0.lock().expect("tracer poisoned").begin(name)
    }

    fn end(&self, id: disc_telemetry::SpanId) {
        self.0.lock().expect("tracer poisoned").end(id)
    }

    fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }
}

/// `--metrics-out`'s `JsonlSink`, with a `telemetry.emit` span per event.
struct TimedSink {
    inner: JsonlSink<std::fs::File>,
    spans: Spans,
}

impl EventSink for TimedSink {
    fn emit(&self, event: &SlideEvent) {
        self.spans.time("telemetry.emit", || self.inner.emit(event))
    }

    fn flush(&self) {
        self.inner.flush()
    }
}

/// Counts taken at layer boundaries during one replayed segment.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub parse_records: u64,
    /// Final admission counters (hostile workload only).
    pub admit: Option<IngestStats>,
    pub journal_appends: u64,
    pub journal_syncs: u64,
    pub window_bytes: u64,
    pub engine_bytes: u64,
}

/// One replayed segment.
pub struct Replica<const D: usize> {
    /// Every span, in start order.
    pub spans: Vec<SpanRecord>,
    /// What `try_apply` returned for each slide after the fill.
    pub slides: Vec<SlideStats>,
    /// Seconds from the first parse to the snapshot on disk: the span of
    /// the untraced binary's work, minus process start and exit.
    pub total_s: f64,
    pub counts: Counts,
    /// The final snapshot, as written to disk.
    pub snapshot: Vec<(Point<D>, i64)>,
    /// The snapshot of the engine `recover_engine` restores from the run's
    /// checkpoints and WAL (durable workloads only).
    pub recovered: Option<Vec<(Point<D>, i64)>>,
}

/// Replays `input`, writing every output into `dir` as the binary would.
pub fn run<const D: usize, B: SpatialBackend<D>>(
    wl: &Workload,
    input: &Path,
    dir: &Path,
) -> Result<Replica<D>, String> {
    let spans = Spans(Arc::new(Mutex::new(Tracer::new())));
    let mut counts = Counts::default();
    let (snapshot, slides, recovered) = match wl.durability {
        Durability::None => {
            let (snap, slides) = plain::<D, B>(wl, input, dir, &spans, &mut counts)?;
            (snap, slides, None)
        }
        Durability::Wal { every } => durable::<D, B>(wl, input, dir, every, &spans, &mut counts)?,
    };
    let spans = spans.0.lock().expect("tracer poisoned").drain();
    let finish = spans
        .iter()
        .rfind(|s| s.name == "finish")
        .expect("a finished replay has a finish span");
    let total_s = (finish.start_ns + finish.dur_ns) as f64 * 1e-9;
    Ok(Replica {
        spans,
        slides,
        total_s,
        counts,
        snapshot,
        recovered,
    })
}

fn engine<const D: usize, B: SpatialBackend<D>>(
    wl: &Workload,
    registry: &Arc<Registry>,
) -> Disc<D, B> {
    let backend = IndexBackend::parse(wl.index).expect("workloads name a known index");
    let mut disc: Disc<D, B> = Disc::with_index(
        DiscConfig::new(wl.eps, wl.tau)
            .with_backend(backend)
            .with_threads(1),
    );
    disc.set_recorder(registry.clone());
    disc
}

/// `cmd.rs`'s `ClusterCmd::run` for `--method disc` without durability.
#[allow(clippy::type_complexity)]
fn plain<const D: usize, B: SpatialBackend<D>>(
    wl: &Workload,
    input: &Path,
    dir: &Path,
    sp: &Spans,
    counts: &mut Counts,
) -> Result<(Vec<(Point<D>, i64)>, Vec<SlideStats>), String> {
    let root = sp.begin("setup");
    let (records, mut admission) = load::<D>(wl, input, dir, sp, counts)?;
    let registry = Arc::new(Registry::new());
    let mut disc = engine::<D, B>(wl, &registry);
    let mut w = SlidingWindow::new(records, wl.window, wl.stride);
    let fill = sp.time("window.fill", || w.fill());
    sp.time("core.fill", || disc.try_apply(&fill))
        .map_err(|e| e.to_string())?;
    sp.time("window.footprint", || publish_window(&registry, &w));
    if let Some(a) = &mut admission {
        a.on_slide(1, &registry);
    }
    sp.end(root);

    let mut stats = Vec::new();
    for slide in 1..=w.remaining_slides() {
        let root = sp.begin("slide");
        let batch = sp
            .time("window.advance", || w.advance())
            .expect("counted slides");
        stats.push(
            sp.time("core.apply", || disc.try_apply(&batch))
                .map_err(|e| e.to_string())?,
        );
        sp.time("window.footprint", || publish_window(&registry, &w));
        if let Some(a) = &mut admission {
            a.on_slide(slide as u64 + 1, &registry);
        }
        sp.time("core.report", || {
            let clusters: HashSet<i64> = disc
                .assignments()
                .into_iter()
                .map(|(_, l)| l)
                .filter(|&l| l >= 0)
                .collect();
            let _ = writeln!(
                std::io::sink(),
                "slide {slide}: {} clusters",
                clusters.len()
            );
        });
        sp.end(root);
    }

    let root = sp.begin("finish");
    sp.time("telemetry.flush", || registry.flush());
    let assignments = sp.time("core.snapshot", || {
        let assignments = disc.assignments();
        let clusters: HashSet<i64> = assignments
            .iter()
            .map(|(_, l)| *l)
            .filter(|&l| l >= 0)
            .collect();
        let noise = assignments.iter().filter(|(_, l)| *l < 0).count();
        let _ = writeln!(
            std::io::sink(),
            "{} clusters, {noise} noise",
            clusters.len()
        );
        assignments
    });
    let rows = sp.time("window.write_snapshot", || {
        let pos: FxHashMap<PointId, Point<D>> = w.current().collect();
        let rows: Vec<(Point<D>, i64)> = assignments.iter().map(|(id, l)| (pos[id], *l)).collect();
        csv::write_snapshot(&dir.join(workload::SNAPSHOT), &rows).map(|_| rows)
    });
    sp.end(root);
    counts.window_bytes = w.footprint().total();
    counts.engine_bytes = stats.last().map_or(0, |s| s.mem_bytes);
    Ok((
        rows.map_err(|e| format!("writing the snapshot: {e}"))?,
        stats,
    ))
}

/// `durable.rs`'s `run_durable` and `drain_stream`, then `recover_engine`
/// as `disc resume` calls it.
#[allow(clippy::type_complexity)]
fn durable<const D: usize, B: SpatialBackend<D>>(
    wl: &Workload,
    input: &Path,
    dir: &Path,
    every: u64,
    sp: &Spans,
    counts: &mut Counts,
) -> Result<
    (
        Vec<(Point<D>, i64)>,
        Vec<SlideStats>,
        Option<Vec<(Point<D>, i64)>>,
    ),
    String,
> {
    let ckpt_dir = dir.join(workload::CHECKPOINTS);
    let wal_path = dir.join(workload::WAL);
    let io = |e: &dyn std::fmt::Display| e.to_string();

    let root = sp.begin("setup");
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| io(&e))?;
    let (records, mut admission) = load::<D>(wl, input, dir, sp, counts)?;
    let sink = TimedSink {
        inner: JsonlSink::create(&dir.join(workload::METRICS)).map_err(|e| io(&e))?,
        spans: sp.clone(),
    };
    let registry = Arc::new(Registry::with_sink(Box::new(sink)));
    let mut disc = engine::<D, B>(wl, &registry);
    let mut wal = sp
        .time("persist.wal_open", || {
            WalWriter::<D>::create(&wal_path, FsyncPolicy::Always)
        })
        .map_err(|e| io(&e))?;
    let mut w = SlidingWindow::new(records, wl.window, wl.stride);
    let fill = sp.time("window.fill", || w.fill());
    sp.time("persist.wal_append", || {
        wal_append(&mut wal, &disc, &fill, &registry)
    })?;
    sp.time("core.fill", || disc.try_apply(&fill))
        .map_err(|e| e.to_string())?;
    sp.time("window.footprint", || publish_window(&registry, &w));
    if every == 1 {
        sp.time("persist.checkpoint", || {
            checkpoint(&disc, &w, &ckpt_dir, &registry)
        })?;
    }
    if let Some(a) = &mut admission {
        a.on_slide(disc.slide_seq(), &registry);
    }
    sp.end(root);

    let mut stats = Vec::new();
    for _ in 0..w.remaining_slides() {
        let root = sp.begin("slide");
        let batch = sp
            .time("window.advance", || w.advance())
            .expect("counted slides");
        sp.time("persist.wal_append", || {
            wal_append(&mut wal, &disc, &batch, &registry)
        })?;
        stats.push(
            sp.time("core.apply", || disc.try_apply(&batch))
                .map_err(|e| e.to_string())?,
        );
        sp.time("window.footprint", || publish_window(&registry, &w));
        if disc.slide_seq().is_multiple_of(every) {
            sp.time("persist.checkpoint", || {
                checkpoint(&disc, &w, &ckpt_dir, &registry)
            })?;
        }
        if let Some(a) = &mut admission {
            a.on_slide(disc.slide_seq(), &registry);
        }
        sp.time("core.report", || {
            let line = format!(
                "slide {}: {} clusters",
                disc.slide_seq(),
                disc.num_clusters()
            );
            let _ = writeln!(std::io::sink(), "{line}");
        });
        sp.end(root);
    }

    let root = sp.begin("finish");
    sp.time("persist.checkpoint", || {
        checkpoint(&disc, &w, &ckpt_dir, &registry)
    })?;
    sp.time("persist.wal_sync", || wal.sync())
        .map_err(|e| io(&e))?;
    sp.time("telemetry.flush", || registry.flush());
    let rows = sp.time("core.snapshot", || {
        let (cores, borders, noise) = disc.census();
        let _ = writeln!(
            std::io::sink(),
            "{} points, {noise} noise",
            cores + borders + noise
        );
        disc.snapshot()
    });
    sp.time("window.write_snapshot", || {
        csv::write_snapshot(&dir.join(workload::SNAPSHOT), &rows)
    })
    .map_err(|e| io(&e))?;
    sp.end(root);
    counts.window_bytes = w.footprint().total();
    counts.engine_bytes = stats.last().map_or(0, |s| s.mem_bytes);

    let root = sp.begin("restart");
    let (recovered, _, _) = sp
        .time("persist.recover", || {
            recover_engine::<D, B>(&ckpt_dir, Some(&wal_path))
        })
        .map_err(|e| format!("recovery failed: {e}"))?;
    sp.end(root);
    Ok((rows, stats, Some(recovered.snapshot())))
}

/// `durable.rs`'s `append_then_apply`, up to the apply.
fn wal_append<const D: usize, B: SpatialBackend<D>>(
    wal: &mut WalWriter<D>,
    disc: &Disc<D, B>,
    batch: &disc_window::SlideBatch<D>,
    registry: &Registry,
) -> Result<(), String> {
    let bytes = wal
        .append(disc.slide_seq() + 1, batch)
        .map_err(|e| format!("WAL append failed: {e}"))?;
    metrics::publish_wal_append(registry, bytes, wal.len_bytes());
    Ok(())
}

/// `durable.rs`'s `write_checkpoint`.
fn checkpoint<const D: usize, B: SpatialBackend<D>>(
    disc: &Disc<D, B>,
    w: &SlidingWindow<D>,
    dir: &Path,
    registry: &Registry,
) -> Result<(), String> {
    let started = Instant::now();
    let ckpt = Checkpoint {
        state: disc.export_state(),
        driver: Some(DriverState {
            window: w.window_size() as u64,
            stride: w.stride() as u64,
            start: w.start().expect("checkpoint after fill") as u64,
        }),
    };
    let path = checkpoint_path(dir, disc.slide_seq());
    let bytes = save_checkpoint(&path, &ckpt).map_err(|e| format!("{}: {e}", path.display()))?;
    metrics::publish_checkpoint(registry, bytes, started.elapsed());
    Ok(())
}

/// The window buffer's gauge row, as both CLI loops publish it.
fn publish_window<const D: usize>(registry: &Registry, w: &SlidingWindow<D>) {
    for (component, bytes) in w.footprint().flatten() {
        registry.gauge_set_labeled("disc_mem_bytes", "component", &component, bytes as f64);
    }
}

/// `ingest.rs`'s `load_stream`: a strict parse, or under `--timed` the
/// lossy parse, admission and the ingest journal.
fn load<const D: usize>(
    wl: &Workload,
    input: &Path,
    dir: &Path,
    sp: &Spans,
    counts: &mut Counts,
) -> Result<(Vec<Record<D>>, Option<Admission>), String> {
    if !wl.hostile {
        let records = sp
            .time("window.parse", || csv::read_records::<D>(input))
            .map_err(|e| format!("{}: {e}", input.display()))?;
        counts.parse_records = records.len() as u64;
        return Ok((records, None));
    }
    let rows = sp
        .time("window.parse", || csv::read_timed_records_lossy::<D>(input))
        .map_err(|e| format!("{}: {e}", input.display()))?;
    counts.parse_records = rows.len() as u64;
    let (admitted, decisions, admission) = sp.time("window.admit", || {
        let cfg = AdmissionConfig {
            lateness: workload::LATENESS,
            dedup: workload::DEDUP,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::<D>::new(cfg);
        let mut admitted: Vec<Record<D>> = Vec::new();
        let mut decisions = Vec::with_capacity(rows.len());
        let mut snaps = Vec::new();
        let mut next_boundary = wl.window;
        let mut drain =
            |ing: &mut Ingest<D>, admitted: &mut Vec<Record<D>>, snaps: &mut Vec<Snap>| {
                while let Some(tr) = ing.pop() {
                    admitted.push(tr.record);
                    if admitted.len() == next_boundary {
                        snaps.push(Snap::of(ing));
                        next_boundary += wl.stride;
                    }
                }
            };
        for row in rows {
            decisions.push(match row {
                Ok(tr) => ing.push(tr),
                Err(_) => ing.push_malformed(),
            });
            drain(&mut ing, &mut admitted, &mut snaps);
        }
        ing.finish();
        drain(&mut ing, &mut admitted, &mut snaps);
        let admission = Admission {
            snaps,
            last: Snap::of(&ing),
            published: IngestStats::default(),
        };
        (admitted, decisions, admission)
    });
    counts.admit = Some(admission.last.stats);
    let path = dir.join(workload::JOURNAL);
    let policy = FsyncPolicy::parse(workload::JOURNAL_FSYNC).expect("a valid fsync policy");
    sp.time("persist.journal", || {
        let mut journal = IngestJournalWriter::create(&path, policy)?;
        for d in &decisions {
            journal.append(*d)?;
        }
        journal.sync()
    })
    .map_err(|e| format!("--ingest-journal {}: {e}", path.display()))?;
    let appends = decisions.len() as u64;
    counts.journal_appends = appends;
    // `create` and the closing `sync` fsync once each, appends as the
    // policy says.
    counts.journal_syncs = 2 + match policy {
        FsyncPolicy::Always => appends,
        FsyncPolicy::EveryN(k) => appends / k,
        FsyncPolicy::Never => 0,
    };
    Ok((admitted, Some(admission)))
}

/// The admission state at the instant one slide's records were complete.
#[derive(Clone, Copy)]
struct Snap {
    stats: IngestStats,
    buffered: usize,
    ready: usize,
    lag: f64,
    shedding: bool,
    watermark: f64,
}

impl Snap {
    fn of<const D: usize>(ing: &Ingest<D>) -> Snap {
        Snap {
            stats: *ing.stats(),
            buffered: ing.buffered_len(),
            ready: ing.ready_len(),
            lag: ing.watermark_lag(),
            shedding: ing.shedding(),
            watermark: ing.watermark(),
        }
    }
}

/// `ingest.rs`'s `IngestPipeline`, publishing side only.
struct Admission {
    snaps: Vec<Snap>,
    last: Snap,
    published: IngestStats,
}

impl Admission {
    fn on_slide(&mut self, slide: u64, registry: &Registry) {
        let snap = self
            .snaps
            .get((slide.max(1) - 1) as usize)
            .copied()
            .unwrap_or(self.last);
        let (s, p) = (&snap.stats, &self.published);
        for (name, now, was) in [
            ("disc_ingest_records_total", s.pushed, p.pushed),
            ("disc_ingest_admitted_total", s.admitted, p.admitted),
            ("disc_ingest_reordered_total", s.reordered, p.reordered),
            (
                "disc_ingest_late_dropped_total",
                s.late_dropped,
                p.late_dropped,
            ),
            (
                "disc_ingest_dead_lettered_total",
                s.dead_lettered,
                p.dead_lettered,
            ),
            (
                "disc_ingest_late_upserts_total",
                s.late_upserts,
                p.late_upserts,
            ),
            ("disc_ingest_deduped_total", s.deduped, p.deduped),
            ("disc_ingest_shed_total", s.shed, p.shed),
            ("disc_ingest_malformed_total", s.malformed, p.malformed),
        ] {
            registry.counter_add(name, now - was);
        }
        self.published = snap.stats;
        registry.gauge_set("disc_ingest_buffered", snap.buffered as f64);
        registry.gauge_set("disc_ingest_ready", snap.ready as f64);
        registry.gauge_set("disc_ingest_watermark_lag", snap.lag);
        registry.gauge_set("disc_ingest_shedding", snap.shedding as u64 as f64);
        if snap.watermark.is_finite() {
            registry.gauge_set("disc_ingest_watermark", snap.watermark);
        }
    }
}
