//! The three workloads: cluster shape, load, migration script, and the
//! run that measures them from outside through public handles.

use std::time::Instant;

use rocksteady_cluster::{
    Cluster, ClusterBuilder, ClusterConfig, ControlCmd, FlightRecorderConfig,
};
use rocksteady_common::zipf::KeyDist;
use rocksteady_common::{
    key_hash, HashRange, Histogram, KeyHash, MigrationId, Nanos, ServerId, TableId, MILLISECOND,
    SECOND,
};
use rocksteady_profiler::Activity;
use rocksteady_server::stats::NodeStatsView;
use rocksteady_workload::core::write_primary_key;
use rocksteady_workload::YcsbConfig;

use crate::spans::Spans;

pub const TABLE: TableId = TableId(1);
pub const KEY_LEN: usize = 30;
/// Byte every preloaded value is filled with (`Cluster::load_table`).
const LOADED_BYTE: u8 = 0xcd;
/// Byte every YCSB-written value is filled with.
const WRITTEN_BYTE: u8 = 0xab;
/// The harness is stepped in slices this long while a migration runs,
/// so a migration window closes at most this long after its finish
/// stamp. The step only bounds `run_until`; it never adds events.
const STEP: Nanos = MILLISECOND;
/// Time after the clients stop issuing for in-flight operations (and
/// one 10 ms RPC timeout plus back-off) to complete.
const DRAIN: Nanos = 20 * MILLISECOND;
/// A migration that has not finished this long after its start has
/// failed the run.
const MIGRATION_DEADLINE: Nanos = 5 * SECOND;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkMigrate,
    YcsbScaleout,
    YcsbObserved,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "bulk_migrate" => Some(Workload::BulkMigrate),
            "ycsb_scaleout" => Some(Workload::YcsbScaleout),
            "ycsb_observed" => Some(Workload::YcsbObserved),
            _ => None,
        }
    }

    /// The shape of the workload, derived from the workload seed.
    pub fn spec(self, seed: u64) -> Spec {
        match self {
            Workload::BulkMigrate => Spec::bulk_migrate(seed),
            Workload::YcsbScaleout => Spec::ycsb_rig(seed, 3, SCALEOUT_STOP),
            // One migration in a shorter window: the armed layers and the
            // exports multiply time and memory, and a shorter repetition
            // lets a run take more of them.
            Workload::YcsbObserved => Spec::ycsb_rig(seed, 1, OBSERVED_STOP).armed(),
        }
    }
}

/// SplitMix64 finalizer: derives independent seeds from one.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One scripted migration.
#[derive(Debug, Clone, Copy)]
pub struct Move {
    pub id: MigrationId,
    pub range: HashRange,
    pub source: ServerId,
    pub target: ServerId,
    pub at: Nanos,
}

/// Everything that defines one workload run.
#[derive(Debug, Clone)]
pub struct Spec {
    pub cluster: ClusterConfig,
    pub records: u64,
    pub value_len: usize,
    pub clients: Vec<YcsbConfig>,
    /// Hashes the table is split at after loading (before migrating).
    pub splits: Vec<KeyHash>,
    pub moves: Vec<Move>,
    /// Clients issue in `[0, stop_at)`.
    pub stop_at: Nanos,
    /// Arm all six observability layers and take their exports.
    pub observed: bool,
}

impl Spec {
    /// A few million 30 B / 100 B records on 4 servers; the upper half
    /// of the table moves in one whole-tablet migration beside a light
    /// 50%-write client.
    fn bulk_migrate(seed: u64) -> Spec {
        let records = 2_000_000u64;
        let cluster = ClusterConfig {
            servers: 4,
            workers: 12,
            replicas: 2,
            segment_bytes: 1 << 20,
            hash_buckets: (records as usize / 4).next_power_of_two(),
            sample_interval: 10 * MILLISECOND,
            series_interval: 100 * MILLISECOND,
            seed: mix(seed, 1),
            ..ClusterConfig::default()
        };
        let dir = ClusterBuilder::new(cluster.clone()).directory();
        let mut y = YcsbConfig::ycsb_b(dir, TABLE, records, 300_000.0);
        y.read_fraction = 0.5;
        y.max_outstanding = 128;
        y.seed = mix(seed, 0x100);
        y.stop_at = BULK_STOP;
        let mid = u64::MAX / 2 + 1;
        Spec {
            cluster,
            records,
            value_len: 100,
            clients: vec![y],
            splits: vec![mid],
            moves: vec![Move {
                id: MigrationId(1),
                range: HashRange {
                    start: mid,
                    end: u64::MAX,
                },
                source: ServerId(0),
                target: ServerId(1),
                at: 10 * MILLISECOND,
            }],
            stop_at: BULK_STOP,
            observed: false,
        }
    }

    /// The Fig 9(a) rig: YCSB-B, Zipf 0.99, 1 KB values, 300 k records,
    /// 8 clients x 95 k ops/s (about 80% source dispatch load);
    /// `migrations` sequential migrations move quarters of the table off
    /// server 0 while the clients issue until `stop_at`.
    fn ycsb_rig(seed: u64, migrations: usize, stop_at: Nanos) -> Spec {
        let records = 300_000u64;
        let cluster = ClusterConfig {
            servers: 4,
            workers: 12,
            replicas: 2,
            segment_bytes: 1 << 20,
            sample_interval: 10 * MILLISECOND,
            series_interval: 100 * MILLISECOND,
            seed: mix(seed, 1),
            ..ClusterConfig::default()
        };
        let dir = ClusterBuilder::new(cluster.clone()).directory();
        let clients = (0..8)
            .map(|i| {
                let mut y = YcsbConfig::ycsb_b(dir.clone(), TABLE, records, 95_000.0);
                y.value_len = 1_000;
                y.dist = KeyDist::Zipfian { theta: 0.99 };
                y.max_outstanding = 128;
                y.seed = mix(seed, 0x100 + i);
                y.stop_at = stop_at;
                y
            })
            .collect();
        let quarters = HashRange::full().split(4);
        let moves = (1..=migrations)
            .map(|q| Move {
                id: MigrationId(q as u64),
                range: quarters[q],
                source: ServerId(0),
                target: ServerId(q as u32),
                at: SCALEOUT_FIRST + (q as Nanos - 1) * SCALEOUT_SPACING,
            })
            .collect();
        Spec {
            cluster,
            records,
            value_len: 1_000,
            clients,
            splits: quarters[1..].iter().map(|r| r.start).collect(),
            moves,
            stop_at,
            observed: false,
        }
    }

    /// Arms all six observability layers as `examples/quickstart.rs`
    /// does, and takes the exports a user takes.
    fn armed(mut self) -> Spec {
        self.cluster.tracing = true;
        self.cluster.metrics = true;
        self.cluster.profiling = true;
        self.cluster.audit = true;
        self.cluster.sla = Some(300_000);
        self.cluster.flight_recorder = Some(FlightRecorderConfig::default());
        self.observed = true;
        self
    }

    /// The same window and seed with every observability layer off.
    pub fn disarmed(&self) -> Spec {
        let mut plain = self.clone();
        plain.cluster.tracing = false;
        plain.cluster.metrics = false;
        plain.cluster.profiling = false;
        plain.cluster.audit = false;
        plain.cluster.sla = None;
        plain.cluster.flight_recorder = None;
        plain.observed = false;
        plain
    }
}

const BULK_STOP: Nanos = 150 * MILLISECOND;
const SCALEOUT_FIRST: Nanos = 50 * MILLISECOND;
const SCALEOUT_SPACING: Nanos = 150 * MILLISECOND;
const SCALEOUT_STOP: Nanos = 500 * MILLISECOND;
const OBSERVED_STOP: Nanos = 150 * MILLISECOND;

/// What one migration did, measured at its target.
#[derive(Debug, Clone, Default)]
pub struct MigrationOutcome {
    pub id: u64,
    pub started_at: Nanos,
    pub finished_at: Option<Nanos>,
    pub abandoned: bool,
    /// Record bytes that arrived at the target during the migration.
    pub bytes: u64,
    pub records_replayed: u64,
    pub retry_hints: u64,
    pub target_worker_busy_ns: u64,
}

impl MigrationOutcome {
    pub fn duration_ns(&self) -> Nanos {
        self.finished_at.unwrap_or(self.started_at) - self.started_at
    }

    pub fn mbps(&self) -> f64 {
        self.bytes as f64 * 1e3 / self.duration_ns().max(1) as f64
    }
}

/// Host-side sizes of the exports `ycsb_observed` takes.
#[derive(Debug, Clone, Default)]
pub struct Exports {
    pub trace_bytes: usize,
    pub journeys_bytes: usize,
    pub metrics_bytes: usize,
    pub audit_bytes: usize,
    pub incidents_bytes: usize,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub snapshots: u64,
    pub audit_events: u64,
    pub audit_violations: u64,
    pub incidents: u64,
}

/// The profiler ledger summed over one role's cores (every core of the
/// source, or of every migration target).
#[derive(Debug, Clone, Default)]
pub struct RoleProfile {
    /// Modeled ns per activity, in [`Activity::ALL`] order.
    pub buckets: [u64; Activity::COUNT],
    pub cores: u64,
    /// Whether the buckets tile cores x wall exactly.
    pub tiles: bool,
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub run_s: f64,
    /// The simulated run alone (without exports).
    pub simulate_s: f64,
    pub events: u64,
    pub migrations: Vec<MigrationOutcome>,
    pub peak_concurrent: usize,
    /// Client latencies of operations completing inside migration
    /// windows.
    pub read_win: Histogram,
    pub write_win: Histogram,
    pub reads: u64,
    pub writes: u64,
    pub read_attempts: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub not_found: u64,
    pub map_refreshes: u64,
    /// Configured rate x issuing window.
    pub offered: u64,
    pub issuing_ns: Nanos,
    pub source: NodeStatsView,
    /// Summed over every migration target.
    pub target: NodeStatsView,
    pub targets: usize,
    pub wall_ns: Nanos,
    pub backup_bytes: u64,
    pub source_log_committed: u64,
    pub source_log_live: u64,
    pub exports: Exports,
    /// Per-role profiler split (only when the profiler is armed).
    pub source_profile: RoleProfile,
    pub target_profile: RoleProfile,
    /// Correctness-gate failures (empty = passed).
    pub gate: Vec<String>,
}

fn client_hists(cluster: &Cluster) -> (Histogram, Histogram) {
    let mut r = Histogram::new();
    let mut w = Histogram::new();
    for c in &cluster.client_stats {
        let c = c.borrow();
        r.merge(&c.read_hist.snapshot());
        w.merge(&c.write_hist.snapshot());
    }
    (r, w)
}

fn add_views(a: &mut NodeStatsView, b: &NodeStatsView) {
    a.dispatch_busy_ns += b.dispatch_busy_ns;
    a.worker_busy_ns += b.worker_busy_ns;
    a.ops_served += b.ops_served;
    a.pulls_served += b.pulls_served;
    a.priority_pulls_served += b.priority_pulls_served;
    a.records_replayed += b.records_replayed;
    a.bytes_migrated_in += b.bytes_migrated_in;
    a.bytes_migrated_out += b.bytes_migrated_out;
    a.retry_hints_sent += b.retry_hints_sent;
    a.priority_pull_deferrals += b.priority_pull_deferrals;
    a.dispatch_overcommit += b.dispatch_overcommit;
    a.migrations_abandoned += b.migrations_abandoned;
}

/// Builds, loads and splits the cluster: everything before the first
/// `run_until`. Returns the cluster and the host seconds it took.
pub fn setup(spec: &Spec, spans: &Spans) -> (Cluster, f64) {
    let t0 = Instant::now();
    let cluster = spans.time("setup", || {
        let b = spans.time("cluster.new", || {
            let mut b = ClusterBuilder::new(spec.cluster.clone());
            for y in &spec.clients {
                b.add_ycsb(y.clone());
            }
            for m in &spec.moves {
                b.at(
                    m.at,
                    ControlCmd::Migrate {
                        id: m.id,
                        table: TABLE,
                        range: m.range,
                        source: m.source,
                        target: m.target,
                    },
                );
            }
            b
        });
        let mut cluster = spans.time("cluster.build", || b.build());
        spans.time("cluster.create_table", || {
            cluster.create_table(TABLE, &[(HashRange::full(), ServerId(0))])
        });
        spans.time("cluster.load_table", || {
            cluster.load_table(TABLE, spec.records, KEY_LEN, spec.value_len)
        });
        spans.time("cluster.seed_backups", || cluster.seed_backups());
        for at in &spec.splits {
            spans.time("cluster.split_tablet", || cluster.split_tablet(TABLE, *at));
        }
        cluster
    });
    (cluster, t0.elapsed().as_secs_f64())
}

/// Runs the migration script to the end of the drain and collects every
/// modeled metric and count; takes the exports of an observed run.
pub fn run(spec: &Spec, cluster: &mut Cluster, spans: &Spans) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    spans.time("run", || {
        for m in &spec.moves {
            spans.time("simnet.run_until", || cluster.run_until(m.at));
            let (r0, w0) = spans.time("workload.snapshot", || client_hists(cluster));
            let tgt0 = spans.time("server.stats", || cluster.server_stats[&m.target].view());
            let deadline = m.at + MIGRATION_DEADLINE;
            spans.time("simnet.run_until", || {
                while cluster.now() < deadline
                    && cluster.migration_finished(m.target, m.id).is_none()
                    && cluster.migration_abandoned(m.target, m.id).is_none()
                {
                    let next = cluster.now() + STEP;
                    cluster.run_until(next);
                }
            });
            let (r1, w1) = spans.time("workload.snapshot", || client_hists(cluster));
            out.read_win.merge(&r1.delta_since(&r0));
            out.write_win.merge(&w1.delta_since(&w0));
            let (tgt1, stamps) = spans.time("server.stats", || {
                let stats = &cluster.server_stats[&m.target];
                (stats.view(), stats.migration_run(m.id))
            });
            out.migrations.push(MigrationOutcome {
                id: m.id.0,
                started_at: stamps.as_ref().map_or(m.at, |s| s.started_at),
                finished_at: stamps.as_ref().and_then(|s| s.finished_at),
                abandoned: stamps.as_ref().is_some_and(|s| s.abandoned_at.is_some()),
                bytes: tgt1.bytes_migrated_in - tgt0.bytes_migrated_in,
                records_replayed: tgt1.records_replayed - tgt0.records_replayed,
                retry_hints: tgt1.retry_hints_sent - tgt0.retry_hints_sent,
                target_worker_busy_ns: tgt1.worker_busy_ns - tgt0.worker_busy_ns,
            });
        }
        let end = spec.stop_at.max(cluster.now()) + DRAIN;
        spans.time("simnet.run_until", || cluster.run_until(end));
        out.simulate_s = t0.elapsed().as_secs_f64();
        if spec.observed {
            out.exports = take_exports(cluster, spans);
        }
    });
    out.run_s = t0.elapsed().as_secs_f64();
    spans.time("collect", || collect(spec, cluster, &mut out, spans));
    out
}

/// The exports a user of an observed run takes: trace, journeys,
/// metrics, audit and incidents.
fn take_exports(cluster: &Cluster, spans: &Spans) -> Exports {
    let audit = spans.time("audit.report", || cluster.audit_report());
    Exports {
        trace_bytes: spans.time("trace.export", || cluster.export_trace_json().len()),
        journeys_bytes: spans.time("trace.journeys_export", || {
            cluster.export_journeys_json().len()
        }),
        metrics_bytes: spans.time("metrics.export", || {
            cluster.export_metrics_json().len() + cluster.export_metrics_series_json().len()
        }),
        audit_bytes: spans.time("audit.export", || cluster.export_audit_json().len()),
        incidents_bytes: spans.time("flightrec.export", || cluster.export_incidents_json().len()),
        trace_events: cluster.trace.len() as u64,
        trace_dropped: cluster.trace.dropped(),
        snapshots: cluster.snapshots.borrow().len() as u64,
        audit_events: audit.events,
        audit_violations: audit.violations,
        incidents: cluster.incident_count() as u64,
    }
}

/// Reads the run's results from the public stats handles. Not part of
/// `run_s`: a user of the run pays it only when reading results.
fn collect(spec: &Spec, cluster: &mut Cluster, out: &mut Outcome, spans: &Spans) {
    out.events = spans.time("simnet.events", || cluster.sim.events_processed());
    out.wall_ns = cluster.now();
    out.peak_concurrent = spans.time("cluster.peak_concurrent", || {
        cluster.peak_concurrent_migrations()
    });
    spans.time("workload.client_stats", || {
        for c in &cluster.client_stats {
            let c = c.borrow();
            out.reads += c.read_hist.snapshot().count();
            out.writes += c.write_hist.snapshot().count();
            out.read_attempts += c.read_attempts.get();
            out.retries += c.retries.get();
            out.timeouts += c.timeouts.get();
            out.not_found += c.not_found.get();
            out.map_refreshes += c.map_refreshes.get();
        }
    });
    out.issuing_ns = spec.stop_at;
    let rate: f64 = spec.clients.iter().map(|y| y.ops_per_sec).sum();
    out.offered = (rate * spec.stop_at as f64 / SECOND as f64).round() as u64;
    let targets: Vec<ServerId> = spec.moves.iter().map(|m| m.target).collect();
    out.targets = targets.len();
    spans.time("server.stats", || {
        out.source = cluster.server_stats[&ServerId(0)].view();
        for t in &targets {
            add_views(&mut out.target, &cluster.server_stats[t].view());
        }
    });
    spans.time("backup.total_bytes", || {
        for s in 0..spec.cluster.servers {
            out.backup_bytes += cluster.node(ServerId(s as u32)).backup.total_bytes();
        }
    });
    if cluster.profiler.is_on() {
        let cores = spans.time("profiler.cores", || {
            cluster.finalize_profile();
            cluster.profiler.cores()
        });
        let mut src = RoleProfile::default();
        let mut tgt = RoleProfile::default();
        for core in cores {
            let role = if core.server == 0 {
                &mut src
            } else if targets.contains(&ServerId(core.server)) {
                &mut tgt
            } else {
                continue;
            };
            role.cores += 1;
            for (sum, ns) in role.buckets.iter_mut().zip(core.buckets) {
                *sum += ns;
            }
        }
        for role in [&mut src, &mut tgt] {
            role.tiles = role.buckets.iter().sum::<u64>() == role.cores * out.wall_ns;
        }
        out.source_profile = src;
        out.target_profile = tgt;
    }
    let ls = spans.time("logstore.stats", || {
        cluster.node(ServerId(0)).master.log.stats()
    });
    out.source_log_committed = ls.committed_bytes;
    out.source_log_live = ls.live_bytes;
    if spec.observed && out.exports.audit_violations > 0 {
        out.gate.push(format!(
            "audit reported {} violation(s)",
            out.exports.audit_violations
        ));
    }
}

/// The correctness gate: every migration finished and none was
/// abandoned; the script ran them one at a time; every migrated key
/// reads back byte-exact from its new owner at a version no older than
/// the newest write a client saw confirmed.
pub fn gate(spec: &Spec, cluster: &mut Cluster, out: &mut Outcome, spans: &Spans) {
    for m in &out.migrations {
        if m.abandoned {
            out.gate.push(format!("migration {} was abandoned", m.id));
        } else if m.finished_at.is_none() {
            out.gate.push(format!("migration {} never finished", m.id));
        }
    }
    if out.peak_concurrent > 1 {
        out.gate.push(format!(
            "{} migrations overlapped; the script runs them one at a time",
            out.peak_concurrent
        ));
    }
    // Newest confirmed version per written rank.
    let mut confirmed: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for c in &cluster.client_stats {
        for &(rank, version) in &c.borrow().confirmed_writes {
            let v = confirmed.entry(rank).or_insert(0);
            *v = (*v).max(version);
        }
    }
    let loaded = vec![LOADED_BYTE; spec.value_len];
    let written = vec![WRITTEN_BYTE; spec.value_len];
    let mut key = Vec::with_capacity(KEY_LEN);
    // One span covers the whole key loop (one read_direct per key).
    let (bad, first_bad) = spans.time("cluster.read_direct", || {
        let mut bad = 0u64;
        let mut first_bad = None;
        for rank in 0..spec.records {
            write_primary_key(rank, KEY_LEN, &mut key);
            let hash = key_hash(&key);
            let Some(m) = spec.moves.iter().find(|m| m.range.contains(hash)) else {
                continue;
            };
            let owner = cluster
                .coord
                .borrow()
                .tablet_for(TABLE, hash)
                .map(|t| t.owner);
            let floor = confirmed.get(&rank).copied();
            let ok = owner == Some(m.target)
                && match cluster.read_direct(TABLE, &key) {
                    Some((value, version)) => match floor {
                        Some(v) => value == written && version >= v,
                        None => value == loaded || value == written,
                    },
                    None => false,
                };
            if !ok {
                bad += 1;
                first_bad.get_or_insert(rank);
            }
        }
        (bad, first_bad)
    });
    if bad > 0 {
        out.gate.push(format!(
            "{bad} migrated key(s) did not read back byte-exact from their new owner \
             (first: rank {})",
            first_bad.unwrap_or(0)
        ));
    }
}
