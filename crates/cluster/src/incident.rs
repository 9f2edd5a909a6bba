//! Incident bundles: the flight recorder's forensic export.
//!
//! When a watchdog detector fires, the recorder freezes a correlated
//! slice of every observability layer into one deterministic JSON
//! document (schema `rocksteady-incident-v1`): the trigger and every
//! firing detector's reading, the last-N-ms trace ring, a metrics
//! delta-scrape, the per-core profiler ledger, the audit tail, and the
//! relevant causal explain (`explain_migration` for progress anomalies,
//! `explain_slo_breach` for latency ones). Integers only — same-seed
//! runs export byte-identical bundles.

use rocksteady_audit::AuditSink;
use rocksteady_common::json::{push_u64, Arr, Obj};
use rocksteady_common::Nanos;
use rocksteady_flightrec::{DetectorReading, FlightRecorderConfig};
use rocksteady_metrics::{push_deltas_json, CounterDelta};
use rocksteady_profiler::{core_label, Activity, Profiler};
use rocksteady_trace::{journey, Tracer};

/// Schema tag stamped into every bundle.
pub const INCIDENT_SCHEMA: &str = "rocksteady-incident-v1";

/// One exported incident: when it fired, which detector triggered it,
/// and the full forensic bundle.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Virtual time of the triggering watchdog tick.
    pub at: Nanos,
    /// Name of the triggering detector (first firing detector out of
    /// cooldown, in catalog order).
    pub trigger: &'static str,
    /// The `rocksteady-incident-v1` JSON document.
    pub bundle: String,
}

/// Everything the bundle builder freezes, borrowed from the watchdog's
/// live handles at trigger time.
pub struct BundleInputs<'a> {
    /// Trigger tick time.
    pub at: Nanos,
    /// Name of the triggering detector.
    pub trigger: &'static str,
    /// Every firing detector's reading this tick, catalog order.
    pub readings: &'a [DetectorReading],
    /// Fast/slow SLO burn rates at trigger time, permille.
    pub burn: (u64, u64),
    /// The shared trace buffer.
    pub trace: &'a Tracer,
    /// The most recent metrics delta-scrape pass.
    pub metrics: &'a [CounterDelta],
    /// The shared per-core activity ledger.
    pub profiler: &'a Profiler,
    /// The shared audit stream.
    pub audit: &'a AuditSink,
    /// The relevant explain output (`explain_migration` /
    /// `explain_slo_breach`), already-serialized JSON, if available.
    pub explain: Option<String>,
}

/// Renders one incident bundle. Deterministic: virtual clock only,
/// integer values, fixed key order.
pub fn build_bundle(cfg: &FlightRecorderConfig, inp: &BundleInputs<'_>) -> String {
    let mut out = String::with_capacity(8192);
    let mut o = Obj::open(&mut out);
    o.str("schema", INCIDENT_SCHEMA)
        .u64("at", inp.at)
        .str("trigger", inp.trigger);
    let mut readings = o.arr("readings");
    for r in inp.readings {
        r.push_json(readings.item());
    }
    drop(readings);
    o.obj("burn")
        .u64("fast_permille", inp.burn.0)
        .u64("slow_permille", inp.burn.1);

    // Trace slice: the last `bundle_trace_window_ns` of completed
    // events, plus ring drop accounting.
    let since = inp.at.saturating_sub(cfg.bundle_trace_window_ns);
    let mut trace = o.obj("trace");
    trace
        .u64("window_ns", cfg.bundle_trace_window_ns)
        .u64("dropped", inp.trace.dropped());
    inp.trace.push_chrome_json_since(since, trace.key("chrome"));
    drop(trace);

    // Metrics: the watchdog's own per-interval delta scrape.
    push_deltas_json(o.key("metrics"), inp.metrics);

    // Profiler ledger slice: per-core cumulative activity buckets.
    let mut profiler = o.arr("profiler");
    for core in inp.profiler.cores() {
        let mut c = profiler.obj();
        c.u64("server", core.server.into())
            .str("core", &core_label(core.core))
            .u64("wall", core.wall)
            .u64("overcommit_ns", core.overcommit_ns);
        let mut buckets = c.obj("buckets");
        for (act, ns) in Activity::ALL.iter().zip(core.buckets) {
            buckets.u64(act.label(), ns);
        }
    }
    drop(profiler);

    // Audit tail: the trailing events of the (possibly ring-bounded)
    // audit stream.
    let mut audit = o.obj("audit");
    audit.u64("dropped", inp.audit.dropped());
    let mut tail = audit.arr("tail");
    inp.audit.with_events(|events| {
        let start = events.len().saturating_sub(cfg.audit_tail_events);
        for ev in &events[start..] {
            tail.obj()
                .u64("seq", ev.seq)
                .u64("at", ev.at)
                .str("event", ev.kind.label());
        }
    });
    drop(tail);
    drop(audit);

    // The trigger window's slowest request journeys: the cross-node
    // causal chains of the requests this incident actually hurt. The
    // trace ring is completion-ordered, so the window is a suffix.
    let all = inp
        .trace
        .with_events(|events| journey::reconstruct(events.since(since)));
    journey::push_export_json(
        o.key("journeys"),
        journey::slowest(&all, cfg.bundle_journeys),
        inp.trace.dropped(),
    );

    // Causal explain, when the audit layer could produce one. The
    // explain output is itself JSON; embed verbatim.
    o.key("explain")
        .push_str(inp.explain.as_deref().unwrap_or("null"));
    drop(o);
    out
}

/// Renders the incident log as a JSON array of bundles (empty array
/// when nothing fired).
pub fn incidents_to_json(incidents: &[Incident]) -> String {
    let mut out = String::new();
    let mut arr = Arr::open(&mut out);
    for inc in incidents {
        arr.item().push_str(&inc.bundle);
    }
    drop(arr);
    out
}

/// A one-line human summary of an incident (for example binaries and
/// logs — the bundle itself stays machine-readable).
pub fn summarize(inc: &Incident) -> String {
    let mut out = String::new();
    out.push_str("incident at ");
    push_u64(&mut out, inc.at);
    out.push_str("ns: ");
    out.push_str(inc.trigger);
    out
}
