//! Every deterministic export, pinned by digest.
//!
//! The exports are the reproduction's evidence: each figure, incident
//! and invariant verdict reaches a reader as one of these documents. A
//! refactor of the writers behind them must leave every byte in place,
//! so this pins the FNV-1a-64 digest and byte length of each export on
//! two small scenarios:
//!
//! - a migration under load with all six observability layers armed
//!   (trace, journeys, metrics, profiler, audit, flight recorder);
//! - the same rig with the source swallowing every pull, which stalls
//!   the migration and makes the flight recorder export a bundle.
//!
//! A deliberate format change updates the table below and says so in
//! the change log.

mod common;

use common::{standard_setup, test_config, upper, TABLE};
use rocksteady_cluster::{
    Cluster, ClusterBuilder, ClusterConfig, ControlCmd, FlightRecorderConfig,
};
use rocksteady_common::{MigrationId, ServerId, MILLISECOND};
use rocksteady_workload::YcsbConfig;

const KEYS: u64 = 5_000;

/// `(export, FNV-1a-64 of its bytes, byte length)`.
type Digests = Vec<(&'static str, u64, usize)>;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run(cfg: ClusterConfig) -> Cluster {
    let mut b = ClusterBuilder::new(cfg);
    let dir = b.directory();
    b.add_ycsb(YcsbConfig::ycsb_b(dir, TABLE, KEYS, 50_000.0));
    b.at(
        5 * MILLISECOND,
        ControlCmd::Migrate {
            id: MigrationId(1),
            table: TABLE,
            range: upper(),
            source: ServerId(0),
            target: ServerId(1),
        },
    );
    let mut cluster = b.build();
    standard_setup(&mut cluster, KEYS);
    cluster.run_until(100 * MILLISECOND);
    cluster.finalize_profile();
    cluster
}

fn digests(cluster: &Cluster) -> Digests {
    let critical_path = cluster
        .critical_path_report()
        .map(|r| r.to_json())
        .unwrap_or_default();
    let exports = [
        ("trace", cluster.export_trace_json()),
        ("journeys", cluster.export_journeys_json()),
        ("metrics json", cluster.export_metrics_json()),
        ("metrics prom", cluster.export_metrics_prometheus()),
        ("metrics series", cluster.export_metrics_series_json()),
        ("audit json", cluster.export_audit_json()),
        ("audit dot", cluster.export_audit_dot()),
        ("folded profile", cluster.export_folded()),
        ("critical path", critical_path),
        ("incidents", cluster.export_incidents_json()),
        (
            "explain_migration",
            cluster
                .explain_migration(MigrationId(1))
                .unwrap_or_default(),
        ),
        (
            "explain_slo_breach",
            cluster
                .explain_slo_breach(0, cluster.now())
                .unwrap_or_default(),
        ),
    ];
    exports
        .into_iter()
        .map(|(name, doc)| (name, fnv1a64(doc.as_bytes()), doc.len()))
        .collect()
}

fn check(scenario: &str, got: Digests, want: &[(&str, u64, usize)]) {
    let table: String = got
        .iter()
        .map(|(name, digest, len)| format!("    ({name:?}, {digest:#018x}, {len}),\n"))
        .collect();
    assert_eq!(
        got, want,
        "{scenario}: an export changed; the digests now read:\n{table}"
    );
}

/// All six layers armed, one clean migration under load (no incident
/// fires, so the incident log is `[]`).
#[test]
fn all_layers_armed_exports_are_pinned() {
    let cluster = run(ClusterConfig {
        seed: 42,
        tracing: true,
        metrics: true,
        profiling: true,
        audit: true,
        sla: Some(300_000),
        flight_recorder: Some(FlightRecorderConfig::default()),
        ..test_config()
    });
    check("all layers armed", digests(&cluster), ALL_ARMED);
}

/// The stalled migration of `tests/flightrec.rs`: the recorder fires
/// once and the bundle freezes every layer.
#[test]
fn stalled_migration_exports_are_pinned() {
    let mut cfg = ClusterConfig {
        seed: 42,
        tracing: true,
        profiling: true,
        audit: true,
        sla: Some(300_000),
        flight_recorder: Some(FlightRecorderConfig::default()),
        ..test_config()
    };
    cfg.migration.test_drop_pulls = true;
    let cluster = run(cfg);
    assert_eq!(cluster.incident_count(), 1);
    check("stalled migration", digests(&cluster), STALLED);
}

const ALL_ARMED: &[(&str, u64, usize)] = &[
    ("trace", 0x7abb83f45323341f, 4652737),
    ("journeys", 0x3472e0636e42f22a, 1988404),
    ("metrics json", 0x0b2d7948a80877ca, 12483),
    ("metrics prom", 0x2df5aeeb61c3320f, 11201),
    ("metrics series", 0xd7c585563804819e, 685615),
    ("audit json", 0x041d8dfd1ca9810f, 1322),
    ("audit dot", 0xab80701f43efafb2, 133),
    ("folded profile", 0xcaf734b67e05a91c, 1436),
    ("critical path", 0x88e523aa9674699e, 370),
    ("incidents", 0x09612b07b5ecb5a5, 2),
    ("explain_migration", 0xca5c6a4f89d70be8, 610),
    ("explain_slo_breach", 0x3bfd08201a135ac5, 541),
];

/// The stall never completes the migration, so there is no critical
/// path (empty) and no snapshot series (metrics are not armed).
const STALLED: &[(&str, u64, usize)] = &[
    ("trace", 0x707a65eef4af7643, 3375231),
    ("journeys", 0x50d3a0828611633f, 766444),
    ("metrics json", 0xc8866315a618f60a, 10960),
    ("metrics prom", 0x92fa0f3cab19d532, 10278),
    ("metrics series", 0x09612b07b5ecb5a5, 2),
    ("audit json", 0x6835abf5981c26a1, 1245),
    ("audit dot", 0xab80701f43efafb2, 133),
    ("folded profile", 0x5b94ed12b80f951d, 1053),
    ("critical path", 0xcbf29ce484222325, 0),
    ("incidents", 0x194585221f670b74, 1254335),
    ("explain_migration", 0x124a443b9955f596, 445),
    ("explain_slo_breach", 0x886683692a6efd57, 381),
];
