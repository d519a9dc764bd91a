//! Durable CLI paths: `disc cluster --checkpoint-dir/--wal`,
//! `disc resume`, and `disc diffsnap`.
//!
//! Unlike the plain clustering path (which erases the engine behind
//! `Box<dyn WindowClusterer>`), durability needs the concrete `Disc<D, B>`
//! to export and restore state, so these commands run their own
//! slide loop: WAL-append *before* apply, checkpoint every
//! `--checkpoint-every` slides plus once at the end, and checkpoint /
//! recovery telemetry into the shared registry.

use crate::cmd::DimCommand;
use crate::Opts;
use disc_core::{backend_of, Disc, DiscConfig, IndexBackend};
use disc_index::{GridIndex, RTree, SpatialBackend};
use disc_persist::{
    checkpoint_path, latest_checkpoint_seq, load_checkpoint, metrics, recover_engine,
    save_checkpoint, Checkpoint, DriverState, FsyncPolicy, WalWriter,
};
use disc_telemetry::{JsonlSink, Registry};
use disc_window::{csv, SlidingWindow};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The durable registry, pre-`Arc` so the caller can still attach the
/// health driver's provenance tee before sharing it with the engine.
fn registry_from(opts: &Opts) -> Result<Registry, String> {
    Ok(match &opts.metrics_out {
        Some(path) => {
            let sink = JsonlSink::create(path)
                .map_err(|e| format!("--metrics-out {}: {e}", path.display()))?;
            Registry::with_sink(Box::new(sink))
        }
        None => Registry::new(),
    })
}

/// Publishes the raw window buffer's gauge row — the one stateful piece
/// the durable loop owns directly rather than through the engine.
fn publish_window_gauge<const D: usize>(registry: &Registry, w: &SlidingWindow<D>) {
    use disc_telemetry::{MemoryFootprint, Recorder};
    for (component, bytes) in w.footprint().flatten() {
        registry.gauge_set_labeled("disc_mem_bytes", "component", &component, bytes as f64);
    }
}

fn fsync_policy(opts: &Opts) -> Result<FsyncPolicy, String> {
    FsyncPolicy::parse(&opts.fsync).ok_or_else(|| {
        format!(
            "--fsync {:?}: expected always, never, or every=N",
            opts.fsync
        )
    })
}

/// Writes one checkpoint (engine image + driver position) and publishes
/// its size and duration.
fn write_checkpoint<const D: usize, B: SpatialBackend<D>>(
    disc: &Disc<D, B>,
    w: &SlidingWindow<D>,
    dir: &Path,
    registry: &Registry,
) -> Result<(), String> {
    let started = std::time::Instant::now();
    let ckpt = Checkpoint {
        state: disc.export_state(),
        driver: Some(DriverState {
            window: w.window_size() as u64,
            stride: w.stride() as u64,
            start: w.start().expect("checkpoint before fill") as u64,
        }),
    };
    let path = checkpoint_path(dir, disc.slide_seq());
    let bytes = save_checkpoint(&path, &ckpt).map_err(|e| format!("{}: {e}", path.display()))?;
    metrics::publish_checkpoint(registry, bytes, started.elapsed());
    Ok(())
}

/// Appends the batch to the WAL (if any), then applies it — the ordering
/// that makes a committed slide recoverable even if the process dies in
/// `apply`.
fn append_then_apply<const D: usize, B: SpatialBackend<D>>(
    disc: &mut Disc<D, B>,
    wal: &mut Option<WalWriter<D>>,
    batch: &disc_window::SlideBatch<D>,
    registry: &Registry,
) -> Result<(), String> {
    if let Some(wal) = wal {
        let bytes = wal
            .append(disc.slide_seq() + 1, batch)
            .map_err(|e| format!("WAL append failed: {e}"))?;
        metrics::publish_wal_append(registry, bytes, wal.len_bytes());
    }
    disc.try_apply(batch)
        .map_err(|e| format!("slide {} rejected: {e}", disc.slide_seq() + 1))?;
    Ok(())
}

/// The shared durable slide loop: drain the window driver, checkpointing
/// every `every` slides and once more at the end, then report and
/// optionally write the final snapshot.
#[allow(clippy::too_many_arguments)]
fn drain_stream<const D: usize, B: SpatialBackend<D>>(
    mut disc: Disc<D, B>,
    mut w: SlidingWindow<D>,
    mut wal: Option<WalWriter<D>>,
    dir: &Path,
    registry: &Arc<Registry>,
    mut health: Option<crate::health::Health<D>>,
    mut ingest: Option<crate::ingest::IngestPipeline>,
    opts: &Opts,
) -> Result<(), String> {
    let every = opts.checkpoint_every.max(1);
    let started = std::time::Instant::now();
    while let Some(batch) = w.advance() {
        append_then_apply(&mut disc, &mut wal, &batch, registry)?;
        publish_window_gauge(registry, &w);
        if disc.slide_seq().is_multiple_of(every) {
            write_checkpoint(&disc, &w, dir, registry)?;
        }
        if let Some(ing) = &mut ingest {
            ing.on_slide(disc.slide_seq(), registry)?;
        }
        if let Some(h) = &mut health {
            h.observe(disc.slide_seq(), &disc.assignments(), &w, &batch, registry)?;
        }
        if opts.stats_every > 0 && disc.slide_seq().is_multiple_of(opts.stats_every) {
            crate::cmd::stats_summary(
                registry,
                disc.slide_seq(),
                health.as_ref().map(|h| h.summary()),
            );
        }
        if !opts.quiet {
            eprintln!(
                "slide {}: {} clusters",
                disc.slide_seq(),
                disc.num_clusters()
            );
        }
    }
    write_checkpoint(&disc, &w, dir, registry)?;
    if let Some(wal) = &mut wal {
        wal.sync().map_err(|e| format!("WAL sync failed: {e}"))?;
    }
    registry.flush();

    let (cores, borders, noise) = disc.census();
    println!(
        "disc: {} slides, {} window points, {} clusters, {} noise, {:?} total",
        disc.slide_seq(),
        cores + borders + noise,
        disc.num_clusters(),
        noise,
        started.elapsed()
    );
    println!(
        "checkpoints in {} (latest: slide {}), {} checkpoint bytes total",
        dir.display(),
        disc.slide_seq(),
        registry.counter_value("disc_checkpoint_bytes_total"),
    );
    if let Some(out) = &opts.out {
        csv::write_snapshot(out, &disc.snapshot())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("wrote {}", out.display());
    }
    if let Some(path) = &opts.metrics_out {
        println!("wrote per-slide metrics to {}", path.display());
    }
    if let Some(ing) = &mut ingest {
        ing.finish(opts.quiet)?;
    }
    // Last, so a fatal alert still leaves the snapshot and checkpoints
    // complete on disk.
    if let Some(h) = &mut health {
        h.finish(registry)?;
    }
    Ok(())
}

/// `disc cluster --checkpoint-dir DIR [--checkpoint-every N] [--wal F]`.
pub fn run_durable<const D: usize, B: SpatialBackend<D>>(opts: &Opts) -> Result<(), String> {
    if opts.method != "disc" {
        return Err(format!(
            "--checkpoint-dir/--wal require --method disc (got {:?})",
            opts.method
        ));
    }
    let dir = opts.checkpoint_dir.as_ref().ok_or(
        "--wal also needs --checkpoint-dir (recovery replays the WAL on top of a checkpoint)",
    )?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let policy = fsync_policy(opts)?;
    let eps = opts.eps.ok_or("--eps is required")?;
    let tau = opts.tau.ok_or("--tau is required")?;
    let window = opts.window.ok_or("--window is required")?;
    let stride = opts.stride.ok_or("--stride is required")?;
    let (records, mut ingest) = crate::ingest::load_stream::<D>(opts, window, stride, false)?;
    if window > records.len() {
        return Err(format!(
            "window {window} exceeds the stream ({} points)",
            records.len()
        ));
    }
    let backend = crate::cmd::parse_index(opts)?;

    let mut health = crate::health::Health::<D>::from_opts(opts, eps, tau)?;
    let mut registry = registry_from(opts)?;
    if let Some(h) = &health {
        registry = registry.with_provenance(h.provenance_tee(None));
    }
    let registry = Arc::new(registry);
    let mut disc: Disc<D, B> = Disc::with_index(DiscConfig::new(eps, tau).with_backend(backend));
    disc.set_recorder(registry.clone());
    let mut wal = match &opts.wal {
        Some(path) => Some(
            WalWriter::<D>::create(path, policy).map_err(|e| format!("{}: {e}", path.display()))?,
        ),
        None => None,
    };

    let mut w = SlidingWindow::new(records, window, stride);
    let fill = w.fill();
    append_then_apply(&mut disc, &mut wal, &fill, &registry)?;
    publish_window_gauge(&registry, &w);
    if opts.checkpoint_every.max(1) == 1 {
        write_checkpoint(&disc, &w, dir, &registry)?;
    }
    if let Some(ing) = &mut ingest {
        ing.on_slide(disc.slide_seq(), &registry)?;
    }
    if let Some(h) = &mut health {
        h.observe(disc.slide_seq(), &disc.assignments(), &w, &fill, &registry)?;
    }
    drain_stream(disc, w, wal, dir, &registry, health, ingest, opts)
}

/// `disc resume --checkpoint-dir DIR [--wal F] --input F`.
pub struct ResumeCmd;

impl DimCommand for ResumeCmd {
    fn run<const D: usize>(&self, opts: &Opts) -> Result<(), String> {
        let dir = opts
            .checkpoint_dir
            .as_ref()
            .ok_or("--checkpoint-dir is required")?;
        let seq = latest_checkpoint_seq(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .ok_or_else(|| format!("no checkpoint found in {}", dir.display()))?;
        // Peek the checkpoint's declared backend to pick the engine
        // instantiation; the image itself is backend-portable.
        let ckpt = load_checkpoint::<D>(&checkpoint_path(dir, seq))
            .map_err(|e| format!("checkpoint {seq}: {e}"))?;
        match backend_of(&ckpt.state) {
            IndexBackend::RTree => resume_with::<D, RTree<D>>(opts),
            IndexBackend::Grid => resume_with::<D, GridIndex<D>>(opts),
        }
    }
}

fn resume_with<const D: usize, B: SpatialBackend<D>>(opts: &Opts) -> Result<(), String> {
    let dir = opts.checkpoint_dir.as_ref().expect("checked by caller");
    let started = std::time::Instant::now();
    let (mut disc, driver, report) = recover_engine::<D, B>(dir, opts.wal.as_deref())
        .map_err(|e| format!("recovery failed: {e}"))?;
    // The audit oracle inherits the recovered engine's own thresholds.
    let health = crate::health::Health::<D>::from_opts(opts, disc.config().eps, disc.config().tau)?;
    let mut registry = registry_from(opts)?;
    if let Some(h) = &health {
        registry = registry.with_provenance(h.provenance_tee(None));
    }
    let registry = Arc::new(registry);
    disc.set_recorder(registry.clone());
    metrics::publish_recovery(&*registry, &report);
    println!(
        "recovered slide {}: checkpoint {} + {} WAL slide(s){} in {:?}",
        disc.slide_seq(),
        report.checkpoint_seq,
        report.replayed,
        if report.torn_tail {
            " (discarded a torn WAL tail)"
        } else {
            ""
        },
        started.elapsed()
    );
    let driver = driver.ok_or(
        "checkpoint carries no driver position (written by a library user?); \
         cannot resume the stream",
    )?;

    let (window, stride) = (driver.window as usize, driver.stride as usize);
    // Under `--timed`, admission is re-derived over the raw stream and the
    // journal prefix is verified bit-for-bit before the admitted records
    // (identical to the crashed run's, by determinism) re-feed the window.
    let (records, ingest) = crate::ingest::load_stream::<D>(opts, window, stride, true)?;
    let start = driver.start + report.replayed * driver.stride;
    if start as usize + window > records.len() {
        return Err(format!(
            "recovered window starts at record {start} but the stream has only {} points \
             — is --input the same stream the checkpoint was taken from?",
            records.len()
        ));
    }
    let w = SlidingWindow::resume_at(records, window, stride, start as usize);

    let wal = match &opts.wal {
        Some(path) => {
            let policy = fsync_policy(opts)?;
            let (writer, _) = WalWriter::<D>::open_append(path, policy)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Some(writer)
        }
        None => None,
    };
    drain_stream(disc, w, wal, dir, &registry, health, ingest, opts)
}

/// `disc diffsnap --a F --b F [--dim D]` — canonical snapshot comparison.
///
/// Raw cluster ids are allocation artifacts (they vary with hash-set
/// iteration history), so a `diff` of two snapshot files is meaningless
/// across a crash/recovery boundary. This compares what is actually
/// guaranteed: same points in the same order, the same noise set, and the
/// same induced partition after renumbering clusters by first appearance.
pub struct DiffsnapCmd;

impl DimCommand for DiffsnapCmd {
    fn run<const D: usize>(&self, opts: &Opts) -> Result<(), String> {
        let a = opts.snap_a.as_ref().ok_or("--a is required")?;
        let b = opts.snap_b.as_ref().ok_or("--b is required")?;
        let read =
            |p: &PathBuf| csv::read_snapshot::<D>(p).map_err(|e| format!("{}: {e}", p.display()));
        let (mut ra, mut rb) = (read(a)?, read(b)?);
        // Snapshot row order is an engine-internal artifact (it follows the
        // point store's insertion history, which a crash/recovery changes),
        // so compare coordinate-sorted rows. The readers reject non-finite
        // coordinates, so `partial_cmp` is total here.
        let by_coords = |x: &(disc_geom::Point<D>, i64), y: &(disc_geom::Point<D>, i64)| {
            x.0.coords().partial_cmp(&y.0.coords()).unwrap()
        };
        ra.sort_by(by_coords);
        rb.sort_by(by_coords);
        if ra.len() != rb.len() {
            return Err(format!(
                "snapshots differ: {} has {} points, {} has {}",
                a.display(),
                ra.len(),
                b.display(),
                rb.len()
            ));
        }
        let canon = |rows: &[(disc_geom::Point<D>, i64)]| -> Vec<(disc_geom::Point<D>, i64)> {
            let mut rename: std::collections::BTreeMap<i64, i64> = Default::default();
            rows.iter()
                .map(|&(p, l)| {
                    if l < 0 {
                        (p, -1)
                    } else {
                        let next = rename.len() as i64;
                        (p, *rename.entry(l).or_insert(next))
                    }
                })
                .collect()
        };
        let (ca, cb) = (canon(&ra), canon(&rb));
        for (i, (x, y)) in ca.iter().zip(cb.iter()).enumerate() {
            if x != y {
                return Err(format!(
                    "snapshots diverge at point {} (coordinate order): \
                     {:?} cluster {} vs {:?} cluster {}",
                    i + 1,
                    x.0.coords(),
                    x.1,
                    y.0.coords(),
                    y.1
                ));
            }
        }
        let clusters = ca
            .iter()
            .map(|&(_, l)| l)
            .filter(|&l| l >= 0)
            .max()
            .map_or(0, |m| m + 1);
        println!(
            "snapshots agree: {} points, {} clusters, {} noise",
            ca.len(),
            clusters,
            ca.iter().filter(|&&(_, l)| l < 0).count()
        );
        Ok(())
    }
}
