//! CLI command implementations.

use crate::Opts;
use disc_baselines::{Dbscan, ExtraN, IncDbscan, RhoDbscan, WindowClusterer};
use disc_core::{kdistance, Disc, DiscConfig, IndexBackend};
use disc_index::GridIndex;
use disc_telemetry::{
    chrome_trace_json, folded_stacks, JsonlProvenanceSink, JsonlSink, MemoryFootprint, PromServer,
    ProvenanceEvent, ProvenanceKind, ProvenanceSink, Recorder, Registry, SpanRecord,
};
use disc_window::{csv, datasets, Record, SlidingWindow};
use std::path::Path;
use std::sync::Arc;

/// A command that is generic over the point dimension.
pub trait DimCommand {
    /// Runs the command for one concrete dimension.
    fn run<const D: usize>(&self, opts: &Opts) -> Result<(), String>;
}

/// The `--index` backend, or the usage error naming the valid ones.
pub(crate) fn parse_index(opts: &Opts) -> Result<IndexBackend, String> {
    IndexBackend::parse(&opts.index)
        .ok_or_else(|| format!("unknown --index {:?} (rtree or grid)", opts.index))
}

pub(crate) fn load<const D: usize>(opts: &Opts) -> Result<Vec<Record<D>>, String> {
    let input = opts
        .input
        .as_ref()
        .ok_or("--input is required".to_string())?;
    // `--timed` outside the admission pipeline (e.g. `disc estimate`)
    // still parses the timed layout, strictly, and strips the times.
    let records = if opts.timed {
        csv::read_timed_records::<D>(input)
            .map(|timed| timed.into_iter().map(|tr| tr.record).collect())
            .map_err(|e| format!("{}: {e}", input.display()))?
    } else {
        csv::read_records::<D>(input).map_err(|e| format!("{}: {e}", input.display()))?
    };
    if records.is_empty() {
        return Err("input stream is empty".to_string());
    }
    Ok(records)
}

/// `disc cluster` — stream a CSV through a sliding window.
pub struct ClusterCmd;

impl DimCommand for ClusterCmd {
    fn run<const D: usize>(&self, opts: &Opts) -> Result<(), String> {
        // Durability flags switch to the concrete-engine loop in `durable`:
        // checkpoints and WAL replay need `Disc`'s state export, which the
        // `dyn WindowClusterer` facade deliberately hides.
        if opts.checkpoint_dir.is_some() || opts.wal.is_some() {
            return match parse_index(opts)? {
                IndexBackend::RTree => crate::durable::run_durable::<D, disc_index::RTree<D>>(opts),
                IndexBackend::Grid => crate::durable::run_durable::<D, GridIndex<D>>(opts),
            };
        }
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

        let backend = parse_index(opts)?;
        let mut method: Box<dyn WindowClusterer<D>> = match (opts.method.as_str(), backend) {
            ("disc", IndexBackend::RTree) => {
                Box::new(Disc::new(DiscConfig::new(eps, tau).with_backend(backend)))
            }
            ("disc", IndexBackend::Grid) => Box::new(Disc::<D, GridIndex<D>>::with_index(
                DiscConfig::new(eps, tau).with_backend(backend),
            )),
            ("incdbscan", _) => Box::new(IncDbscan::new(eps, tau)),
            ("extran", IndexBackend::RTree) => Box::new(ExtraN::new(eps, tau, window, stride)),
            ("extran", IndexBackend::Grid) => Box::new(ExtraN::<D, GridIndex<D>>::with_backend(
                eps, tau, window, stride,
            )),
            ("dbscan", IndexBackend::RTree) => Box::new(Dbscan::new(eps, tau)),
            ("dbscan", IndexBackend::Grid) => {
                Box::new(Dbscan::<D, GridIndex<D>>::with_backend(eps, tau))
            }
            ("rho2", _) => Box::new(RhoDbscan::new(eps, tau, opts.rho)),
            (other, _) => return Err(format!("unknown --method {other:?}")),
        };

        // Telemetry: one shared registry feeds the JSONL sink, the scrape
        // endpoint, the provenance stream and the periodic summary alike.
        let mut health = crate::health::Health::<D>::from_opts(opts, eps, tau)?;
        let mut registry = match &opts.metrics_out {
            Some(path) => {
                let sink = JsonlSink::create(path)
                    .map_err(|e| format!("--metrics-out {}: {e}", path.display()))?;
                Registry::with_sink(Box::new(sink))
            }
            None => Registry::new(),
        };
        let prov_sink: Option<Box<dyn ProvenanceSink>> = match &opts.provenance_out {
            Some(path) => {
                let sink = JsonlProvenanceSink::create(path)
                    .map_err(|e| format!("--provenance-out {}: {e}", path.display()))?;
                Some(Box::new(sink))
            }
            None => None,
        };
        // The health driver tees the provenance stream through its
        // lifecycle fold before (optionally) reaching the JSONL export.
        match (&health, prov_sink) {
            (Some(h), inner) => registry = registry.with_provenance(h.provenance_tee(inner)),
            (None, Some(sink)) => registry = registry.with_provenance(sink),
            (None, None) => {}
        }
        let registry: Arc<Registry> = Arc::new(registry);
        let prom = match &opts.prom_addr {
            Some(addr) => {
                let server = PromServer::spawn(addr, registry.clone())
                    .map_err(|e| format!("--prom-addr {addr}: {e}"))?;
                if !opts.quiet {
                    eprintln!(
                        "serving Prometheus metrics on http://{}/metrics",
                        server.local_addr()
                    );
                }
                Some(server)
            }
            None => None,
        };
        method.set_recorder(registry.clone());
        let tracing = opts.trace_out.is_some() || opts.folded_out.is_some();
        if tracing {
            method.enable_tracing();
        }
        let mut spans: Vec<SpanRecord> = Vec::new();
        // Drained per slide (ids stay unique across drains) so the span
        // buffer never grows beyond one slide between collections.
        let drain = |method: &mut Box<dyn WindowClusterer<D>>, spans: &mut Vec<SpanRecord>| {
            if tracing {
                spans.extend(method.drain_spans());
            }
        };

        let mut w = SlidingWindow::new(records, window, stride);
        // The raw window buffer is CLI state, not engine state: its gauge
        // row is published here, next to the engine's own components.
        let publish_window = |w: &SlidingWindow<D>| {
            for (component, bytes) in w.footprint().flatten() {
                registry.gauge_set_labeled("disc_mem_bytes", "component", &component, bytes as f64);
            }
        };
        let start = std::time::Instant::now();
        let fill = w.fill();
        method.apply(&fill);
        publish_window(&w);
        drain(&mut method, &mut spans);
        if let Some(ing) = &mut ingest {
            ing.on_slide(1, &registry)?;
        }
        if let Some(h) = &mut health {
            h.observe(1, &method.assignments(), &w, &fill, &registry)?;
        }
        let mut slides = 0u64;
        if opts.stats_every == 1 {
            stats_summary(&registry, 1, health.as_ref().map(|h| h.summary()));
        }
        while let Some(batch) = w.advance() {
            method.apply(&batch);
            publish_window(&w);
            drain(&mut method, &mut spans);
            slides += 1;
            if let Some(ing) = &mut ingest {
                ing.on_slide(slides + 1, &registry)?;
            }
            if let Some(h) = &mut health {
                h.observe(slides + 1, &method.assignments(), &w, &batch, &registry)?;
            }
            // The fill counts as slide 1, so the human cadence is 1-based.
            if opts.stats_every > 0 && (slides + 1).is_multiple_of(opts.stats_every) {
                stats_summary(&registry, slides + 1, health.as_ref().map(|h| h.summary()));
            }
            if !opts.quiet {
                eprintln!("slide {slides}: {} clusters", method.num_clusters());
            }
        }
        let elapsed = start.elapsed();
        registry.flush();
        if let Some(server) = &prom {
            server.shutdown();
        }

        let assignments = method.assignments();
        let clusters: std::collections::HashSet<i64> = assignments
            .iter()
            .map(|(_, l)| *l)
            .filter(|&l| l >= 0)
            .collect();
        let noise = assignments.iter().filter(|(_, l)| *l < 0).count();
        println!(
            "{}: {} slides, {} window points, {} clusters, {} noise, {:?} total, {} range searches",
            method.name(),
            slides,
            assignments.len(),
            clusters.len(),
            noise,
            elapsed,
            method.range_searches()
        );

        if let Some(out) = &opts.out {
            let pos: disc_geom::FxHashMap<disc_geom::PointId, disc_geom::Point<D>> =
                w.current().collect();
            let rows: Vec<(disc_geom::Point<D>, i64)> =
                assignments.iter().map(|(id, l)| (pos[id], *l)).collect();
            csv::write_snapshot(out, &rows).map_err(|e| format!("{}: {e}", out.display()))?;
            println!("wrote {}", out.display());
        }
        if let Some(path) = &opts.metrics_out {
            println!("wrote per-slide metrics to {}", path.display());
        }
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, chrome_trace_json(&spans))
                .map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
            println!(
                "wrote {} spans to {} (load in chrome://tracing)",
                spans.len(),
                path.display()
            );
        }
        if let Some(path) = &opts.folded_out {
            std::fs::write(path, folded_stacks(&spans))
                .map_err(|e| format!("--folded-out {}: {e}", path.display()))?;
            println!("wrote folded stacks to {}", path.display());
        }
        if let Some(path) = &opts.provenance_out {
            println!(
                "wrote {} provenance events to {}",
                registry.provenance_emitted(),
                path.display()
            );
        }
        if let Some(ing) = &mut ingest {
            ing.finish(opts.quiet)?;
        }
        // Last, so a fatal alert still leaves every output (snapshot,
        // traces, JSONL streams) complete on disk for CI to inspect.
        if let Some(h) = &mut health {
            h.finish(&registry)?;
        }
        Ok(())
    }
}

/// `disc explain` — reconstruct the causal narrative of a run (or one
/// slide of it) from a `--provenance-out` JSONL stream.
pub fn explain(opts: &Opts) -> Result<(), String> {
    let path = opts
        .trace
        .as_ref()
        .ok_or("--trace is required".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut events: Vec<ProvenanceEvent> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let ev = ProvenanceEvent::from_jsonl(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        events.push(ev);
    }
    if events.is_empty() {
        return Err(format!("{}: no provenance events", path.display()));
    }
    match opts.slide {
        Some(slide) => {
            let picked: Vec<&ProvenanceEvent> =
                events.iter().filter(|e| e.slide == slide).collect();
            if picked.is_empty() {
                let last = events.iter().map(|e| e.slide).max().unwrap_or(0);
                return Err(format!(
                    "slide {slide} not in {} (events cover slides 1..={last})",
                    path.display()
                ));
            }
            println!("slide {slide}: {} structural events", picked.len());
            for ev in picked {
                println!("  {}", narrate(&ev.kind));
            }
        }
        None => {
            let last = events.iter().map(|e| e.slide).max().unwrap();
            for slide in 1..=last {
                let n = events.iter().filter(|e| e.slide == slide).count();
                if n == 0 {
                    continue;
                }
                let c = |pred: &dyn Fn(&ProvenanceKind) -> bool| {
                    events
                        .iter()
                        .filter(|e| e.slide == slide && pred(&e.kind))
                        .count()
                };
                println!(
                    "slide {slide}: {n} events ({} ex-cores, {} neo-cores, \
                     {} splits, {} merges, {} emerged, {} died, {} adoptions)",
                    c(&|k| matches!(k, ProvenanceKind::ExCoreDetected { .. })),
                    c(&|k| matches!(k, ProvenanceKind::NeoCoreDetected { .. })),
                    c(&|k| matches!(k, ProvenanceKind::ClusterSplit { .. })),
                    c(&|k| matches!(k, ProvenanceKind::ClusterMerge { .. })),
                    c(&|k| matches!(k, ProvenanceKind::ClusterEmerged { .. })),
                    c(&|k| matches!(k, ProvenanceKind::ClusterDied { .. })),
                    c(&|k| matches!(k, ProvenanceKind::Adoption { .. })),
                );
            }
            println!("(re-run with --slide N for the per-event narrative)");
        }
    }
    Ok(())
}

/// One narrative line per event, in the paper's vocabulary.
fn narrate(kind: &ProvenanceKind) -> String {
    match *kind {
        ProvenanceKind::ExCoreDetected { id } => {
            format!("point {id} lost core status (ex-core, Def. 1)")
        }
        ProvenanceKind::NeoCoreDetected { id } => {
            format!("point {id} gained core status (neo-core, Def. 2)")
        }
        ProvenanceKind::RetroClassFormed { rep, size } => format!(
            "retro-reachable class of {size} ex-core(s) formed around point {rep} \
             (one connectivity check covers them all, Thm. 1)"
        ),
        ProvenanceKind::MsBfsStarted { rep, starters } => {
            format!("MS-BFS launched over class of point {rep} with {starters} starter(s)")
        }
        ProvenanceKind::MsBfsTerminated {
            rep,
            reason,
            rounds,
        } => format!(
            "MS-BFS over class of point {rep} stopped after {rounds} round(s): {}",
            match reason {
                disc_telemetry::MsBfsReason::AllMet => "all starters met — still one cluster",
                disc_telemetry::MsBfsReason::Exhausted =>
                    "a traversal exhausted its component — the cluster is disconnected",
            }
        ),
        ProvenanceKind::ClusterSplit { old, parts, rep } => format!(
            "cluster {old} split into {parts} parts; the component of point {rep} \
             kept the label"
        ),
        ProvenanceKind::ClusterMerge {
            winner,
            merged,
            rep,
        } => format!(
            "{merged} clusters merged into cluster {winner}, bonded by the \
             neo-core class of point {rep}"
        ),
        ProvenanceKind::ClusterEmerged { cluster, rep, size } => {
            format!("cluster {cluster} emerged from {size} neo-core(s) around point {rep}")
        }
        ProvenanceKind::ClusterDied { rep, size } => format!(
            "the region of point {rep} dissipated ({size} ex-core(s), no bonding \
             core survived)"
        ),
        ProvenanceKind::Adoption { border, core } => {
            format!("border point {border} was adopted by core {core}")
        }
    }
}

/// One `--stats-every` summary line, computed from the cumulative registry.
///
/// The two ratios are the paper's headline efficiency arguments: Theorem 1
/// says CLUSTER runs one connectivity check per retro-reachable *class*
/// rather than per ex-core (`ex_classes / ex_cores`, lower is better), and
/// epoch-based probing (Alg. 4) skips index subtrees whole (`pruned /
/// (visited + pruned)`, higher is better).
pub(crate) fn stats_summary(registry: &Registry, slide: u64, health: Option<String>) {
    let lat = registry
        .histogram_snapshot("disc_slide_seconds")
        .unwrap_or_default();
    let ex_cores = registry.counter_value("disc_ex_cores_total");
    let ex_classes = registry.counter_value("disc_ex_classes_total");
    let pruned = registry.counter_value("disc_index_subtrees_pruned_total");
    let visited = registry.counter_value("disc_index_nodes_visited_total");
    // Root component gauges (paths without a '/') partition the accounted
    // state, so their sum is the total without double-counting subtrees.
    let accounted: u64 = registry
        .labeled_gauge_samples("disc_mem_bytes")
        .iter()
        .filter(|((_, component), _)| !component.contains('/'))
        .map(|(_, bytes)| *bytes as u64)
        .sum();
    let mem = if accounted == 0 {
        "n/a".to_string()
    } else {
        disc_telemetry::fmt_bytes(accounted)
    };
    let rss = match registry.gauge_value("disc_rss_bytes") {
        Some(b) => disc_telemetry::fmt_bytes(b as u64),
        None => "n/a".to_string(),
    };
    let health = match health {
        Some(fragment) => format!(" | {fragment}"),
        None => String::new(),
    };
    eprintln!(
        "stats @ slide {slide}: \
         latency p50 {:?} p99 {:?} max {:?} | \
         range searches {} (epoch probes {}) | \
         theorem-1 savings {ex_classes}/{ex_cores} = {} | epoch-prune ratio {} | \
         mem {mem} (rss {rss}){health}",
        std::time::Duration::from_nanos(lat.p50),
        std::time::Duration::from_nanos(lat.p99),
        std::time::Duration::from_nanos(lat.max),
        registry.counter_value("disc_index_range_searches_total"),
        registry.counter_value("disc_index_epoch_probes_total"),
        ratio(ex_classes, ex_cores),
        ratio(pruned, visited + pruned),
    );
}

/// `num / den` to three decimals, or `n/a` before any work has happened.
fn ratio(num: u64, den: u64) -> String {
    if den == 0 {
        "n/a".to_string()
    } else {
        format!("{:.3}", num as f64 / den as f64)
    }
}

/// `disc estimate` — suggest (ε, τ) via the K-distance method.
pub struct EstimateCmd;

impl DimCommand for EstimateCmd {
    fn run<const D: usize>(&self, opts: &Opts) -> Result<(), String> {
        let records = load::<D>(opts)?;
        let est = kdistance::estimate(&records, opts.sample);
        println!(
            "suggested parameters (K-distance, k = {}): --eps {:.6} --tau {}",
            est.k, est.eps, est.tau
        );
        Ok(())
    }
}

/// `disc generate` — write a synthetic stream to CSV. With `--timed` the
/// stream carries unit-spaced event times; `--disorder`/`--dup-prob`/
/// `--corrupt-prob` run it through the seeded chaos transformer and write
/// a hostile timed stream (the input format of `disc run --timed`).
pub fn generate(opts: &Opts) -> Result<(), String> {
    let dataset = opts
        .dataset
        .as_ref()
        .ok_or("--dataset is required".to_string())?;
    let out = opts.out.as_ref().ok_or("--out is required".to_string())?;
    let n = opts.n;
    let seed = opts.seed;
    match dataset.as_str() {
        "maze" => write(opts, out, datasets::maze(n, 60, seed)),
        "dtg" => write(opts, out, datasets::dtg_like(n, seed)),
        "geolife" => write(opts, out, datasets::geolife_like(n, seed)),
        "covid" => write(opts, out, datasets::covid_like(n, seed)),
        "iris" => write(opts, out, datasets::iris_like(n, seed)),
        "netflow" => write(opts, out, datasets::netflow_like(n, seed)),
        "blobs" => write(opts, out, datasets::gaussian_blobs::<2>(n, 4, 0.5, seed)),
        "split_merge" => write(opts, out, datasets::split_merge(n, seed)),
        other => Err(format!("unknown --dataset {other:?}")),
    }
}

fn write<const D: usize>(opts: &Opts, out: &Path, records: Vec<Record<D>>) -> Result<(), String> {
    let hostile = opts.disorder.is_some() || opts.dup_prob > 0.0 || opts.corrupt_prob > 0.0;
    if hostile {
        let cfg = disc_window::DisorderConfig {
            seed: opts.seed,
            skew: opts.disorder.unwrap_or(0.0),
            dup_prob: opts.dup_prob,
            corrupt_prob: opts.corrupt_prob,
        };
        if !(cfg.skew >= 0.0 && cfg.skew.is_finite()) {
            return Err(format!(
                "--disorder {}: skew must be finite and >= 0",
                cfg.skew
            ));
        }
        if !(0.0..=1.0).contains(&cfg.dup_prob) {
            return Err(format!("--dup-prob {}: must be in [0, 1]", cfg.dup_prob));
        }
        if !(0.0..=1.0).contains(&cfg.corrupt_prob) {
            return Err(format!(
                "--corrupt-prob {}: must be in [0, 1]",
                cfg.corrupt_prob
            ));
        }
        let timed = disc_window::disorder::stamp_unit(records);
        let lines = disc_window::disorder::disorder(&timed, &cfg);
        csv::write_hostile_records(out, &lines).map_err(|e| format!("{}: {e}", out.display()))?;
        println!(
            "wrote {} hostile timed lines ({} clean records) to {}",
            lines.len(),
            timed.len(),
            out.display()
        );
    } else if opts.timed {
        let timed = disc_window::disorder::stamp_unit(records);
        csv::write_timed_records(out, &timed).map_err(|e| format!("{}: {e}", out.display()))?;
        println!("wrote {} timed records to {}", timed.len(), out.display());
    } else {
        csv::write_records(out, &records).map_err(|e| format!("{}: {e}", out.display()))?;
        println!("wrote {} records to {}", records.len(), out.display());
    }
    Ok(())
}
