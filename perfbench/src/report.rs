//! Metric names, units and the result line.

/// End-to-end metrics, measured on the untraced binary (`--trace 0`).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("points_per_s", "points/s"),
    ("slide_p50_ms", "ms"),
    ("slide_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("disk_mb", "MiB"),
    ("recover_s", "s"),
];

/// Per-layer metrics, measured on the traced replica (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("window.parse_s", "s"),
    ("window.parse_records", "count"),
    ("window.admit_s", "s"),
    ("window.admit.admitted", "count"),
    ("window.admit.reordered", "count"),
    ("window.admit.duplicate", "count"),
    ("window.admit.malformed", "count"),
    ("window.admit.late", "count"),
    ("window.advance_us.p50", "us"),
    ("window.buffer_mb", "MiB"),
    ("persist.journal_s", "s"),
    ("persist.journal_appends", "count"),
    ("persist.journal_syncs", "count"),
    ("persist.wal_append_us.p50", "us"),
    ("persist.wal_mb", "MiB"),
    ("persist.checkpoint_ms.p50", "ms"),
    ("persist.checkpoint_mb", "MiB"),
    ("persist.recover_ms", "ms"),
    ("core.fill_s", "s"),
    ("core.apply_us.p50", "us"),
    ("core.apply_us.p95", "us"),
    ("core.collect_us.p50", "us"),
    ("core.cluster_us.p50", "us"),
    ("core.adoption_us.p50", "us"),
    ("core.adoption_searches", "count/slide"),
    ("core.msbfs_rounds", "count/slide"),
    ("core.ex_cores", "count/slide"),
    ("core.neo_cores", "count/slide"),
    ("core.report_us.p50", "us"),
    ("core.engine_mb", "MiB"),
    ("index.range_searches", "count/slide"),
    ("index.nodes_visited", "count/slide"),
    ("index.distance_checks", "count/slide"),
    ("index.prune_ratio", "ratio"),
    ("telemetry.emit_us.p50", "us"),
    ("telemetry.jsonl_mb", "MiB"),
    ("cli.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.total_s", "s"),
    ("trace.untraced_wall_s", "s"),
];

pub const MIB: f64 = 1024.0 * 1024.0;

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Slides and checks attempted, and how many of them failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `expected` slides, of which `published` appeared.
    pub fn slides(&mut self, what: &str, expected: usize, published: usize) {
        self.attempted += expected as u64;
        let missing = expected.saturating_sub(published) as u64;
        if missing > 0 {
            self.failed += missing;
            self.failures.push(format!(
                "{what}: {published} of {expected} slides published"
            ));
        }
    }

    /// Counts one correctness check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// The result line: one JSON object with the metrics in table order.
pub fn result_line(tally: &Tally, table: &[(&str, &str)], values: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}
