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
use rocksteady_common::json::push_u64;
use rocksteady_common::Nanos;
use rocksteady_flightrec::{push_escaped, DetectorReading, FlightRecorderConfig};
use rocksteady_metrics::{deltas_to_json, CounterDelta};
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
    out.push_str("{\"schema\":\"");
    out.push_str(INCIDENT_SCHEMA);
    out.push_str("\",\"at\":");
    push_u64(&mut out, inp.at);
    out.push_str(",\"trigger\":\"");
    out.push_str(inp.trigger);
    out.push_str("\",\"readings\":[");
    for (i, r) in inp.readings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_json());
    }
    out.push_str("],\"burn\":{\"fast_permille\":");
    push_u64(&mut out, inp.burn.0);
    out.push_str(",\"slow_permille\":");
    push_u64(&mut out, inp.burn.1);
    out.push('}');

    // Trace slice: the last `bundle_trace_window_ns` of completed
    // events, plus ring drop accounting.
    let since = inp.at.saturating_sub(cfg.bundle_trace_window_ns);
    out.push_str(",\"trace\":{\"window_ns\":");
    push_u64(&mut out, cfg.bundle_trace_window_ns);
    out.push_str(",\"dropped\":");
    push_u64(&mut out, inp.trace.dropped());
    out.push_str(",\"chrome\":");
    out.push_str(&inp.trace.export_chrome_json_since(since));
    out.push('}');

    // Metrics: the watchdog's own per-interval delta scrape.
    out.push_str(",\"metrics\":");
    out.push_str(&deltas_to_json(inp.metrics));

    // Profiler ledger slice: per-core cumulative activity buckets.
    out.push_str(",\"profiler\":[");
    for (i, core) in inp.profiler.cores().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"server\":");
        push_u64(&mut out, u64::from(core.server));
        out.push_str(",\"core\":\"");
        out.push_str(&core_label(core.core));
        out.push_str("\",\"wall\":");
        push_u64(&mut out, core.wall);
        out.push_str(",\"overcommit_ns\":");
        push_u64(&mut out, core.overcommit_ns);
        out.push_str(",\"buckets\":{");
        for (j, act) in Activity::ALL.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(act.label());
            out.push_str("\":");
            push_u64(&mut out, core.buckets[j]);
        }
        out.push_str("}}");
    }
    out.push(']');

    // Audit tail: the trailing events of the (possibly ring-bounded)
    // audit stream.
    out.push_str(",\"audit\":{\"dropped\":");
    push_u64(&mut out, inp.audit.dropped());
    out.push_str(",\"tail\":[");
    inp.audit.with_events(|events| {
        let start = events.len().saturating_sub(cfg.audit_tail_events);
        for (i, ev) in events[start..].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"seq\":");
            push_u64(&mut out, ev.seq);
            out.push_str(",\"at\":");
            push_u64(&mut out, ev.at);
            out.push_str(",\"event\":\"");
            out.push_str(ev.kind.label());
            out.push_str("\"}");
        }
    });
    out.push_str("]}");

    // The trigger window's slowest request journeys: the cross-node
    // causal chains of the requests this incident actually hurt. The
    // trace ring is completion-ordered, so the window is a suffix.
    out.push_str(",\"journeys\":");
    let all = inp
        .trace
        .with_events(|events| journey::reconstruct(events.since(since)));
    out.push_str(&journey::export_json(
        journey::slowest(&all, cfg.bundle_journeys),
        inp.trace.dropped(),
    ));

    // Causal explain, when the audit layer could produce one. The
    // explain output is itself JSON; embed verbatim.
    match &inp.explain {
        Some(e) => {
            out.push_str(",\"explain\":");
            out.push_str(e);
        }
        None => out.push_str(",\"explain\":null"),
    }
    out.push('}');
    out
}

/// Renders the incident log as a JSON array of bundles (empty array
/// when nothing fired).
pub fn incidents_to_json(incidents: &[Incident]) -> String {
    let mut out = String::from("[");
    for (i, inc) in incidents.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&inc.bundle);
    }
    out.push(']');
    out
}

/// A one-line human summary of an incident (for example binaries and
/// logs — the bundle itself stays machine-readable).
pub fn summarize(inc: &Incident) -> String {
    let mut out = String::new();
    out.push_str("incident at ");
    push_u64(&mut out, inc.at);
    out.push_str("ns: ");
    push_escaped(&mut out, inc.trigger);
    out
}
