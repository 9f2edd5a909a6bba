//! The cadence actor: the cluster's one fixed-interval monitoring tick.
//!
//! Once per sampling interval of virtual time it runs three steps, as
//! plain method calls, in this order:
//!
//! 1. the utilization [`Sampler`] — the tick's one registry scrape pass,
//!    the per-server series behind the figures, and the optional
//!    metrics snapshot;
//! 2. the [`SloMonitor`] — the windowed read tail against the SLA and
//!    the burn rates;
//! 3. the flight-recorder [`Watchdog`], only when armed — detectors
//!    over the same pass's counter deltas, and incident bundles.
//!
//! The actor is always installed, whatever the config: `metrics`,
//! `sla` and `flight_recorder` change what a tick records, never the
//! event schedule, so arming any of them cannot perturb a deterministic
//! run (`events_processed()` stays byte-identical). One tick is one
//! timer event.

use rocksteady_common::Nanos;
use rocksteady_proto::Envelope;
use rocksteady_simnet::{Actor, Ctx, Event};

use crate::sampler::Sampler;
use crate::slo::SloMonitor;
use crate::watchdog::Watchdog;

/// The monitoring tick: sampler, SLO monitor, and (armed) watchdog.
pub(crate) struct CadenceActor {
    interval: Nanos,
    sampler: Sampler,
    slo: SloMonitor,
    watchdog: Option<Watchdog>,
}

impl CadenceActor {
    /// A tick every `interval` running the three steps.
    pub(crate) fn new(
        interval: Nanos,
        sampler: Sampler,
        slo: SloMonitor,
        watchdog: Option<Watchdog>,
    ) -> Self {
        CadenceActor {
            interval,
            sampler,
            slo,
            watchdog,
        }
    }

    fn tick(&mut self, now: Nanos) {
        let mut deltas = self.watchdog.as_ref().map(|_| Vec::new());
        self.sampler.sample(now, deltas.as_mut());
        let breached = self.slo.evaluate(now);
        if let (Some(watchdog), Some(deltas)) = (self.watchdog.as_mut(), deltas) {
            watchdog.tick(now, &self.slo, breached, deltas);
        }
    }
}

impl Actor<Envelope> for CadenceActor {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        ctx.timer(self.interval, 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        if let Event::Timer { .. } = event {
            self.tick(ctx.now());
            ctx.timer(self.interval, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use rocksteady_audit::AuditSink;
    use rocksteady_common::{ServerId, MILLISECOND};
    use rocksteady_coordinator::Coordinator;
    use rocksteady_flightrec::{DetectorConfig, DispatchOvercommitConfig, FlightRecorderConfig};
    use rocksteady_metrics::Registry;
    use rocksteady_profiler::Profiler;
    use rocksteady_server::stats::registered_stats;
    use rocksteady_trace::Tracer;

    use super::*;
    use crate::watchdog::IncidentLogHandle;

    /// The sampler counts a clamped dispatch window during the tick's
    /// scrape pass; the watchdog step of that same tick must already
    /// see it, both in its sample (`dispatch_overcommit_total`, which
    /// the overcommit detector windows) and in the bundle's metrics
    /// deltas. The same holds for the breach the SLO step counts after
    /// the pass.
    #[test]
    fn a_clamped_window_reaches_the_same_ticks_watchdog() {
        let reg = Registry::new();
        let stats = registered_stats(&reg, ServerId(0));
        let incidents = IncidentLogHandle::default();
        let fr = FlightRecorderConfig {
            detectors: DetectorConfig {
                migration_stall: None,
                replay_backlog: None,
                slo_burn: None,
                dispatch_overcommit: Some(DispatchOvercommitConfig {
                    window_intervals: 1,
                    threshold_windows: 1,
                }),
                lineage_age: None,
            },
            ..FlightRecorderConfig::default()
        };
        let watchdog = Watchdog::new(
            fr,
            &reg,
            &[(ServerId(0), Rc::clone(&stats))].into(),
            Rc::new(RefCell::new(Coordinator::new())),
            Tracer::off(),
            Profiler::off(),
            AuditSink::off(),
            Rc::clone(&incidents),
        );
        let mut cadence = CadenceActor::new(
            MILLISECOND,
            Sampler::new(
                MILLISECOND,
                reg.clone(),
                false,
                Default::default(),
                Default::default(),
            ),
            SloMonitor::new(MILLISECOND, reg.clone(), Some(50_000), Default::default()),
            Some(watchdog),
        );

        stats.dispatch_busy_ns.add(MILLISECOND / 2);
        cadence.tick(MILLISECOND);
        assert!(incidents.borrow().is_empty(), "an in-bounds window fired");

        stats.dispatch_busy_ns.add(3 * MILLISECOND / 2);
        reg.histogram("client_read_latency_ns", "r", &[("client", "0".into())])
            .record(500_000);
        cadence.tick(2 * MILLISECOND);
        assert_eq!(stats.dispatch_overcommit.get(), 1);
        let log = incidents.borrow();
        assert_eq!(log.len(), 1, "the clamping tick's watchdog did not fire");
        assert_eq!(log[0].at, 2 * MILLISECOND);
        let bundle = &log[0].bundle;
        assert!(
            bundle.contains("{\"name\":\"dispatch-overcommit\",\"value\":1,\"threshold\":1,"),
            "{bundle}"
        );
        assert!(
            bundle.contains(
                "{\"name\":\"node_dispatch_overcommit_total\",\"labels\":{\"server\":\"0\"},\
                 \"total\":1,\"delta\":1}"
            ),
            "{bundle}"
        );
        assert!(
            bundle.contains("{\"name\":\"slo_breach_intervals_total\",\"total\":1,\"delta\":1}"),
            "{bundle}"
        );
    }
}
