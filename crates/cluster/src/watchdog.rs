//! The flight-recorder watchdog: the last step of the cadence tick.
//!
//! It runs only when `ClusterConfig::flight_recorder` is armed. Each
//! tick it assembles a [`WatchdogSample`] from live state — SLO burn
//! rates from the tick's SLO step, per-run gather/replay progress from
//! every server's stats, counter totals from the tick's scrape pass,
//! lineage-dependency ages from the coordinator — and evaluates the
//! detector catalog on it (all pure state mutation on the virtual
//! clock: no extra timers, no RNG). If a detector fires and the
//! [`CooldownTracker`] admits it, the rings are frozen into one
//! [`Incident`] bundle.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use rocksteady_audit::AuditSink;
use rocksteady_common::{MigrationId, Nanos, ServerId};
use rocksteady_flightrec::{
    build_detectors, CooldownTracker, Detector, DetectorReading, FlightRecorderConfig,
    LineageSample, MigrationSample, WatchdogSample,
};
use rocksteady_metrics::{Counter, CounterDelta, Registry};
use rocksteady_profiler::Profiler;
use rocksteady_server::stats::StatsHandle;
use rocksteady_trace::Tracer;

use crate::coordinator_actor::CoordHandle;
use crate::incident::{build_bundle, BundleInputs, Incident};
use crate::slo::{SloMonitor, SLO_BREACH_FAMILY};

/// Shared, append-only incident log: one entry per exported bundle.
pub type IncidentLogHandle = Rc<RefCell<Vec<Incident>>>;

/// Counter family name for trace-ring drop accounting.
pub const TRACE_DROPPED_FAMILY: &str = "trace_events_dropped_total";

/// The armed watchdog: detector catalog, cooldowns, and every live
/// handle a sample is assembled from.
pub(crate) struct Watchdog {
    cfg: FlightRecorderConfig,
    detectors: Vec<Detector>,
    cooldowns: CooldownTracker,
    /// Per-server stats, sorted by server id for deterministic sample
    /// assembly.
    server_stats: Vec<(ServerId, StatsHandle)>,
    coord: CoordHandle,
    trace: Tracer,
    profiler: Profiler,
    audit: AuditSink,
    incidents: IncidentLogHandle,
    /// First-seen virtual time of each outstanding lineage dependency
    /// (the coordinator keeps no timestamps; ages are watchdog-local).
    lineage_first_seen: BTreeMap<u64, Nanos>,
    /// Registry counter mirroring [`Tracer::dropped`] (its only
    /// writer).
    trace_dropped: Counter,
}

impl Watchdog {
    /// A watchdog evaluating `cfg.detectors` over the given live
    /// handles; registers the trace-drop counter in `registry`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cfg: FlightRecorderConfig,
        registry: &Registry,
        server_stats: &HashMap<ServerId, StatsHandle>,
        coord: CoordHandle,
        trace: Tracer,
        profiler: Profiler,
        audit: AuditSink,
        incidents: IncidentLogHandle,
    ) -> Self {
        let mut server_stats: Vec<_> = server_stats
            .iter()
            .map(|(id, h)| (*id, Rc::clone(h)))
            .collect();
        server_stats.sort_by_key(|(id, _)| *id);
        let trace_dropped = registry.counter(
            TRACE_DROPPED_FAMILY,
            "trace events discarded by ring-buffer compaction",
            &[],
        );
        Watchdog {
            detectors: build_detectors(&cfg.detectors),
            cooldowns: CooldownTracker::new(cfg.incident_cooldown_ns, cfg.detector_cooldown_ns),
            cfg,
            server_stats,
            coord,
            trace,
            profiler,
            audit,
            incidents,
            lineage_first_seen: BTreeMap::new(),
            trace_dropped,
        }
    }

    /// Assembles this tick's sample from the tick's scrape pass
    /// (`deltas`), its SLO step (`breached`: whether that step counted
    /// a breach) and the live handles. Apart from the trace-drop sync,
    /// pure reads plus watchdog-local state; deterministic order
    /// throughout.
    fn sample(
        &mut self,
        now: Nanos,
        slo: &SloMonitor,
        breached: bool,
        deltas: &mut [CounterDelta],
    ) -> WatchdogSample {
        // Keep the drop counter in sync with the trace ring.
        let added = self
            .trace
            .dropped()
            .saturating_sub(self.trace_dropped.get());
        self.trace_dropped.add(added);

        // The SLO step and the sync above write their counters after
        // the tick's scrape pass. Nothing else writes them, so each one's
        // delta is exactly what this tick added: restate both as a
        // scrape at the end of the tick would read them.
        for (family, total, delta) in [
            (SLO_BREACH_FAMILY, slo.breach_intervals(), breached as u64),
            (TRACE_DROPPED_FAMILY, self.trace_dropped.get(), added),
        ] {
            if let Some(d) = deltas.iter_mut().find(|d| d.name == family) {
                d.total = total;
                d.delta = delta;
            }
        }
        let mut overcommit_total = 0u64;
        let mut retries_total = 0u64;
        for d in deltas.iter() {
            match d.name {
                rocksteady_server::stats::DISPATCH_OVERCOMMIT_FAMILY => overcommit_total += d.total,
                rocksteady_workload::stats::CLIENT_RETRIES_FAMILY => retries_total += d.total,
                _ => {}
            }
        }

        // Per-run migration progress, merged across servers in id order.
        let mut migrations: Vec<MigrationSample> = Vec::new();
        for (server, stats) in &self.server_stats {
            for (id, run) in stats.migration_runs_snapshot() {
                migrations.push(MigrationSample {
                    id: id.0,
                    target: server.0,
                    in_flight: run.in_flight(),
                    gathered: run.gathered,
                    replay_received: run.replay_received,
                    replay_applied: run.replay_applied,
                });
            }
        }
        migrations.sort_by_key(|m| m.id);

        // Lineage ages: watchdog-local first-seen stamps.
        let deps: Vec<u64> = self
            .coord
            .borrow()
            .lineage_deps()
            .iter()
            .map(|d| d.id.0)
            .collect();
        self.lineage_first_seen.retain(|id, _| deps.contains(id));
        let mut lineage: Vec<LineageSample> = deps
            .iter()
            .map(|id| {
                let first = *self.lineage_first_seen.entry(*id).or_insert(now);
                LineageSample {
                    id: *id,
                    age_ns: now - first,
                }
            })
            .collect();
        lineage.sort_by_key(|d| d.id);

        WatchdogSample {
            at: now,
            burn_fast_permille: slo.burn.0,
            burn_slow_permille: slo.burn.1,
            migrations,
            dispatch_overcommit_total: overcommit_total,
            client_retries_total: retries_total,
            lineage,
        }
    }

    /// The causal explain for the triggering reading: progress
    /// anomalies get the migration's story, latency anomalies get the
    /// breach-window suspect ranking.
    fn explain_for(&self, now: Nanos, trigger: &DetectorReading) -> Option<String> {
        match trigger.subject {
            Some(id) => self.audit.explain_migration(MigrationId(id)),
            None => {
                let from = now.saturating_sub(10 * rocksteady_common::SECOND);
                self.audit.explain_slo_breach(from, now)
            }
        }
    }

    /// The watchdog step of one cadence tick: samples, evaluates the
    /// detectors, and exports a bundle when one fires out of cooldown.
    pub(crate) fn tick(
        &mut self,
        now: Nanos,
        slo: &SloMonitor,
        breached: bool,
        mut deltas: Vec<CounterDelta>,
    ) {
        let sample = self.sample(now, slo, breached, &mut deltas);
        let firing: Vec<DetectorReading> = self
            .detectors
            .iter_mut()
            .filter_map(|d| d.evaluate(&sample))
            .collect();
        if firing.is_empty() {
            return;
        }
        let Some(trigger_idx) = self.cooldowns.admit(now, &firing) else {
            return;
        };
        let trigger = &firing[trigger_idx];
        let explain = self.explain_for(now, trigger);
        let bundle = build_bundle(
            &self.cfg,
            &BundleInputs {
                at: now,
                trigger: trigger.detector,
                readings: &firing,
                burn: (sample.burn_fast_permille, sample.burn_slow_permille),
                trace: &self.trace,
                metrics: &deltas,
                profiler: &self.profiler,
                audit: &self.audit,
                explain,
            },
        );
        self.incidents.borrow_mut().push(Incident {
            at: now,
            trigger: trigger.detector,
            bundle,
        });
    }
}
