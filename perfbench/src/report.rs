//! Turns measured outcomes into named metrics, prints them for a reader
//! (with paper anchors), and emits the final JSON line.

use rocksteady_common::Histogram;
use rocksteady_profiler::Activity;

use crate::layers::LayerCosts;
use crate::rig::{Outcome, RoleProfile, Spec, Workload};
use crate::spans::Spans;

/// The host layer rows of the traced run must add up to its
/// `setup_s + run_s` within this share; the rest is the benchmark's own
/// glue between calls.
const LEDGER_TOLERANCE: f64 = 0.02;

/// Paper anchors (Kulkarni et al., SOSP 2017).
const PAPER_MIGRATION_MBPS: f64 = 758.0;
const PAPER_READ_P999_US: f64 = 250.0;
const PAPER_READ_P50_US: f64 = 6.0;
const PAPER_PULL_CEILING_MBPS: f64 = 5_700.0;
const PAPER_REPLAY_CEILING_MBPS: f64 = 3_000.0;

pub struct Report {
    workload: Workload,
    lines: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    correct: bool,
    checks: Vec<String>,
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// How many samples lie beyond quantile `q` of `h`.
fn beyond(h: &Histogram, q: f64) -> u64 {
    h.count() - ((q * h.count() as f64).ceil() as u64).min(h.count())
}

/// Quantile `q` of `h`, interpolated linearly inside the histogram
/// bucket that holds it (the buckets are 1/64 of a power of two wide), so
/// a tail that moves by less than one bucket still moves the metric.
fn quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let at = |rank: u64| h.percentile((rank as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let v = at(rank);
    // First and last rank that land in v's bucket (values are monotone
    // in rank, so binary search).
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) > v {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let width = if v < 64 {
        1
    } else {
        1u64 << (63 - v.leading_zeros() - 6)
    };
    let bottom = (v & !(width - 1)).max(h.min()) as f64;
    let top = (v | (width - 1)).min(h.max()) as f64;
    bottom + (top - bottom) * (rank - first) as f64 / (last - first + 1) as f64
}

fn rel_err(value: f64, paper: f64) -> String {
    format!("{:+.1}%", 100.0 * (value - paper) / paper)
}

impl Report {
    pub fn new(workload: Workload, seed: u64) -> Report {
        Report {
            workload,
            lines: vec![format!("== perfbench {workload:?} seed {seed} ==")],
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
            checks: Vec::new(),
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.checks
                .push(format!("metric {name} is not a finite number"));
        }
        self.lines
            .push(format!("  {name:<38} {value:>16.4} {unit}"));
        self.metrics.push((name, value, unit));
    }

    /// Host end-to-end metrics: medians over the repetitions, each of
    /// which is printed.
    pub fn host(&mut self, setup_s: &[f64], run_s: &[f64], rss_mb: &[f64]) {
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        self.lines.push(format!(
            "host metrics (median of {} repetitions; setup_s: {}; run_s: {}):",
            setup_s.len(),
            list(setup_s),
            list(run_s)
        ));
        self.metric("setup_s", median(setup_s), "s");
        self.metric("run_s", median(run_s), "s");
        self.metric("peak_rss_mb", median(rss_mb), "MB");
    }

    /// Modeled end-to-end metrics pooled over `runs`, each printed next
    /// to its paper anchor.
    pub fn modeled(&mut self, runs: &[Outcome], slow_mbps: f64) {
        let mut read = Histogram::new();
        let mut write = Histogram::new();
        let (mut bytes, mut mig_ns, mut completed, mut issuing_ns) = (0u64, 0u64, 0u64, 0u64);
        self.lines.push(format!(
            "migrations (slow mode below {slow_mbps:.0} MB/s; the mode is reported, never avoided):"
        ));
        for (sub, o) in runs.iter().enumerate() {
            read.merge(&o.read_win);
            write.merge(&o.write_win);
            completed += o.reads + o.writes;
            issuing_ns += o.issuing_ns;
            for m in &o.migrations {
                bytes += m.bytes;
                mig_ns += m.duration_ns();
                self.lines.push(format!(
                    "  sub-seed {sub} migration {}: {:.1} MB in {:.2} ms = {:.0} MB/s, \
                     {} retry hints, target workers busy {:.1} ms, {} mode",
                    m.id,
                    m.bytes as f64 / 1e6,
                    m.duration_ns() as f64 / 1e6,
                    m.mbps(),
                    m.retry_hints,
                    m.target_worker_busy_ns as f64 / 1e6,
                    if m.mbps() < slow_mbps { "slow" } else { "fast" }
                ));
            }
        }
        let reads_beyond = beyond(&read, 0.999);
        let writes_beyond = beyond(&write, 0.99);
        self.lines.push(format!(
            "modeled metrics (pooled over {} sub-seeds; {} reads and {} writes completed \
             inside migration windows; {reads_beyond} reads beyond p99.9, {writes_beyond} \
             writes beyond p99, {} beyond p99.9):",
            runs.len(),
            read.count(),
            write.count(),
            beyond(&write, 0.999),
        ));
        if reads_beyond < 10 || writes_beyond < 10 {
            self.checks.push(format!(
                "too few samples beyond a reported percentile ({reads_beyond} reads, \
                 {writes_beyond} writes; at least 10 needed)"
            ));
        }
        let mbps = bytes as f64 * 1e3 / mig_ns.max(1) as f64;
        let p50 = quantile(&read, 0.5) / 1e3;
        let p999 = quantile(&read, 0.999) / 1e3;
        self.metric("migration_mbps", mbps, "MB/s");
        self.metric("read_p50_us", p50, "us");
        self.metric("read_p999_us", p999, "us");
        self.metric("write_p99_us", quantile(&write, 0.99) / 1e3, "us");
        self.metric(
            "goodput_kops",
            completed as f64 * 1e6 / issuing_ns.max(1) as f64,
            "kops/s",
        );
        self.lines.push(
            "not emitted: write_p999_us (a ycsb_scaleout sub-seed completes only about 2 k \
             writes inside migration windows, too few for ten samples beyond p99.9; \
             write_p99_us is reported instead); failed_op_frac (an end-to-end metric must \
             never be 0; it is the result's failed / attempted, and per layer \
             workload.failed_op_frac)"
                .to_string(),
        );
        self.lines
            .push("paper anchors (reported, not gated):".to_string());
        let mut anchor = |what: &str, value: f64, paper: f64, unit: &str| {
            self.lines.push(format!(
                "  {what:<38} {value:>10.1} {unit:<5} paper {paper:>7.0} {unit:<5} error {}",
                rel_err(value, paper)
            ));
        };
        anchor(
            "migration_mbps (under load)",
            mbps,
            PAPER_MIGRATION_MBPS,
            "MB/s",
        );
        anchor(
            "read_p999_us (during migration)",
            p999,
            PAPER_READ_P999_US,
            "us",
        );
        anchor("read_p50_us", p50, PAPER_READ_P50_US, "us");
        if self.workload == Workload::BulkMigrate {
            anchor(
                "migration_mbps vs Fig 15 pull",
                mbps,
                PAPER_PULL_CEILING_MBPS,
                "MB/s",
            );
            anchor(
                "migration_mbps vs Fig 15 replay",
                mbps,
                PAPER_REPLAY_CEILING_MBPS,
                "MB/s",
            );
        }
    }

    /// Records the run's verdict. `failed` counts lost operations plus
    /// one per failed check.
    pub fn outcome(&mut self, attempted: u64, failed: u64, gate: &[String]) {
        self.attempted = attempted.max(1);
        self.failed = failed + self.checks.len() as u64;
        self.correct = gate.is_empty() && self.checks.is_empty();
        self.lines.push(format!(
            "operations: {attempted} offered (configured rate x issuing window), {} failed, \
             failed_op_frac {:.6}",
            self.failed,
            self.failed as f64 / self.attempted as f64
        ));
        for g in gate.iter().chain(&self.checks) {
            self.lines.push(format!("CHECK FAIL {g}"));
        }
        if self.correct {
            self.lines.push("CHECK PASS correctness gate".to_string());
        }
    }

    /// Host layer rows of the traced run: self time per span name under
    /// `setup` and `run`, against the run's own `setup_s + run_s`.
    pub fn ledger(&mut self, spans: &Spans, out: &Outcome, overhead_s: f64) {
        let total = out.setup_s + out.run_s;
        let mut rows = spans.self_under("setup");
        for (name, ns) in spans.self_under("run") {
            *rows.entry(name).or_insert(0) += ns;
        }
        let mut layers_ns = 0u64;
        self.lines.push(format!(
            "host layer ledger (self time, traced run; setup_s + run_s = {total:.4} s):"
        ));
        for (name, ns) in &rows {
            let glue = *name == "setup" || *name == "run";
            if !glue {
                layers_ns += ns;
            }
            self.lines.push(format!(
                "  {:<28} {:>10.4} s {:>6.2}%{}",
                name,
                *ns as f64 / 1e9,
                100.0 * *ns as f64 / 1e9 / total,
                if glue { " (benchmark glue)" } else { "" }
            ));
        }
        let coverage = layers_ns as f64 / 1e9 / total;
        self.lines.push(format!(
            "  layer rows sum to {:.2}% of setup_s + run_s (tolerance {:.0}%); \
             tracing overhead {overhead_s:+.4} s (traced minus untraced setup_s + run_s)",
            100.0 * coverage,
            100.0 * LEDGER_TOLERANCE
        ));
        if (coverage - 1.0).abs() > LEDGER_TOLERANCE {
            self.checks.push(format!(
                "host layer rows cover {:.2}% of setup_s + run_s, outside {:.0}%",
                100.0 * coverage,
                100.0 * LEDGER_TOLERANCE
            ));
        }
        for (role, p) in [
            ("source", &out.source_profile),
            ("target", &out.target_profile),
        ] {
            if !p.tiles {
                self.checks.push(format!(
                    "profiler buckets of the {role} do not tile cores x wall exactly"
                ));
            }
        }
        self.metric("perfbench.ledger_coverage", coverage, "ratio");
        self.metric("perfbench.trace_overhead_s", overhead_s, "s");
    }

    fn profile(&mut self, role: &str, p: &RoleProfile) {
        let ms = |a: Activity| {
            p.buckets[Activity::ALL.iter().position(|x| *x == a).unwrap_or(0)] as f64 / 1e6
        };
        let rows = [
            (
                format!("server.{role}.dispatch_rx_ms"),
                Activity::DispatchRx,
            ),
            (
                format!("server.{role}.dispatch_tx_ms"),
                Activity::DispatchTx,
            ),
            (format!("server.{role}.hold_ms"), Activity::Hold),
            (format!("master.{role}.service_ms"), Activity::Service),
            (format!("core.{role}.pull_gather_ms"), Activity::PullGather),
            (
                format!("core.{role}.priority_pull_ms"),
                Activity::PriorityPull,
            ),
            (format!("core.{role}.replay_ms"), Activity::Replay),
            (
                format!("core.{role}.migration_mgr_ms"),
                Activity::MigrationMgr,
            ),
            (format!("{role}.background_ms"), Activity::Background),
            (format!("{role}.idle_ms"), Activity::Idle),
        ];
        for (name, act) in rows {
            self.metric(name, ms(act), "ms");
        }
    }

    /// Every per-layer metric of the traced run.
    #[allow(clippy::too_many_arguments)]
    pub fn per_layer(
        &mut self,
        spec: &Spec,
        o: &Outcome,
        c: &LayerCosts,
        spans: &Spans,
        armed_run_ratio: f64,
        lost: u64,
        slow_mbps: f64,
    ) {
        let secs = |name: &str| spans.total_ns(name) as f64 / 1e9;
        let wall_s = o.wall_ns.max(1) as f64 / 1e9;
        let targets = o.targets.max(1) as f64;
        let reads = o.reads.max(1) as f64;
        let migs = o.migrations.len().max(1) as f64;
        self.lines.push(
            "per-layer metrics (sub-seed 0; counts from the run, host times from spans):"
                .to_string(),
        );
        self.metric("cluster.build_s", secs("cluster.build"), "s");
        self.metric(
            "cluster.load_ns_per_record",
            secs("cluster.load_table") * 1e9 / spec.records as f64,
            "ns",
        );
        self.metric("cluster.seed_backups_s", secs("cluster.seed_backups"), "s");
        self.metric("simnet.events", o.events as f64, "count");
        self.metric(
            "simnet.host_ns_per_event",
            secs("simnet.run_until") * 1e9 / o.events.max(1) as f64,
            "ns",
        );
        self.metric(
            "server.source.dispatch_util",
            o.source.dispatch_busy_ns as f64 / 1e9 / wall_s,
            "ratio",
        );
        self.metric(
            "server.target.dispatch_util",
            o.target.dispatch_busy_ns as f64 / 1e9 / wall_s / targets,
            "ratio",
        );
        self.metric(
            "server.source.worker_busy_ms",
            o.source.worker_busy_ns as f64 / 1e6,
            "ms",
        );
        self.metric(
            "server.target.worker_busy_ms",
            o.target.worker_busy_ns as f64 / 1e6,
            "ms",
        );
        self.metric(
            "server.source.dispatch_overcommit",
            o.source.dispatch_overcommit as f64,
            "count",
        );
        self.metric(
            "server.target.dispatch_overcommit",
            o.target.dispatch_overcommit as f64,
            "count",
        );
        self.profile("source", &o.source_profile);
        self.profile("target", &o.target_profile);
        let hints = (o.source.retry_hints_sent + o.target.retry_hints_sent) as f64;
        self.metric("core.pulls", o.source.pulls_served as f64, "count");
        self.metric(
            "core.priority_pulls",
            o.source.priority_pulls_served as f64,
            "count",
        );
        self.metric(
            "core.records_replayed",
            o.target.records_replayed as f64,
            "count",
        );
        self.metric("core.retry_hints", hints, "count");
        self.metric(
            "core.pp_deferrals",
            (o.source.priority_pull_deferrals + o.target.priority_pull_deferrals) as f64,
            "count",
        );
        self.metric("core.retry_hints_per_read", hints / reads, "ratio");
        let mig_ms: f64 = o
            .migrations
            .iter()
            .map(|m| m.duration_ns() as f64 / 1e6)
            .sum();
        self.metric("core.migration_ms", mig_ms / migs, "ms");
        self.metric(
            "core.slow_migrations",
            o.migrations.iter().filter(|m| m.mbps() < slow_mbps).count() as f64,
            "count",
        );
        self.metric("master.load_ns", c.load_ns, "ns");
        self.metric("master.read_ns", c.read_ns, "ns");
        self.metric("master.write_ns", c.write_ns, "ns");
        self.metric("master.gather_ns_per_record", c.gather_ns_per_record, "ns");
        self.metric("master.replay_ns_per_record", c.replay_ns_per_record, "ns");
        self.metric("hashtable.lookup_ns", c.lookup_ns, "ns");
        self.metric("hashtable.upsert_ns", c.upsert_ns, "ns");
        self.metric("hashtable.probes_per_op", c.probes_per_op, "ratio");
        self.metric("logstore.append_ns", c.append_ns, "ns");
        self.metric("logstore.crc32c_ns_per_kb", c.crc32c_ns_per_kb, "ns");
        self.metric(
            "logstore.copied_bytes_per_record",
            c.copied_bytes_per_record,
            "B",
        );
        self.metric(
            "logstore.checksummed_bytes_per_record",
            c.checksummed_bytes_per_record,
            "B",
        );
        self.metric(
            "logstore.bytes_per_live_byte",
            o.source_log_committed as f64 / o.source_log_live.max(1) as f64,
            "ratio",
        );
        self.metric("backup.bytes", o.backup_bytes as f64, "B");
        self.metric("workload.reads", o.reads as f64, "count");
        self.metric("workload.writes", o.writes as f64, "count");
        self.metric("workload.offered", o.offered as f64, "count");
        self.metric("workload.timeouts", o.timeouts as f64, "count");
        self.metric("workload.not_found", o.not_found as f64, "count");
        self.metric("workload.map_refreshes", o.map_refreshes as f64, "count");
        self.metric(
            "workload.read_attempts_per_read",
            o.read_attempts as f64 / reads,
            "ratio",
        );
        self.metric("workload.sample_ns", c.sample_ns, "ns");
        self.metric(
            "workload.failed_op_frac",
            lost as f64 / o.offered.max(1) as f64,
            "ratio",
        );
        let e = &o.exports;
        self.lines.push(format!(
            "  exports taken (MB): trace {:.1}, journeys {:.1}, metrics {:.1}, audit {:.3}, \
             incidents {:.3}",
            e.trace_bytes as f64 / 1e6,
            e.journeys_bytes as f64 / 1e6,
            e.metrics_bytes as f64 / 1e6,
            e.audit_bytes as f64 / 1e6,
            e.incidents_bytes as f64 / 1e6
        ));
        self.metric("trace.events", e.trace_events as f64, "count");
        self.metric("trace.dropped", e.trace_dropped as f64, "count");
        self.metric("trace.export_s", secs("trace.export"), "s");
        self.metric(
            "trace.journeys_export_s",
            secs("trace.journeys_export"),
            "s",
        );
        self.metric("metrics.snapshots", e.snapshots as f64, "count");
        self.metric("metrics.export_s", secs("metrics.export"), "s");
        self.metric("audit.events", e.audit_events as f64, "count");
        self.metric("audit.violations", e.audit_violations as f64, "count");
        self.metric("audit.export_s", secs("audit.export"), "s");
        self.metric("flightrec.incidents", e.incidents as f64, "count");
        self.metric("obs.armed_run_ratio", armed_run_ratio, "ratio");
    }

    /// Prints the report; the last line is the result object.
    pub fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}
