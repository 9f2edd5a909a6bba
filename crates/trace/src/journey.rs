//! Per-trace-id journey reconstruction: the sixth observability layer.
//!
//! Every client operation mints a `CausalCtx` whose trace id rides each
//! RPC issued on the operation's behalf — retries keep it, and the
//! PriorityPull a migration target fires for a waiting read inherits
//! it. Trace-armed runs record that id on the client's `rpc-client`
//! attempt instants and on every server-side per-RPC decomposition
//! instant, which lets this module stitch the node-local events back
//! into one ordered, cross-node *journey*:
//!
//! ```text
//! read@source:stale-map -> read@target:retry -> priority-pull@source -> read@target:ok
//! ```
//!
//! The reconstruction extends the PR 2 telescoping proof across nodes:
//! for a complete journey, the per-hop `net_in + queue + service +
//! hold + net_out` segments plus the client-side gaps between attempts
//! sum *exactly* (integer nanoseconds) to the client-measured
//! first-issue → final-response latency. Under ring-mode tracing the
//! oldest events are evicted first; a journey whose early hops are gone
//! is reported with `truncated: true` and its surviving hops intact —
//! never a panic, never a silently wrong sum (`telescoped` is only set
//! on structurally complete journeys).
//!
//! Everything here is integer-valued and sorted deterministically, so
//! [`export_json`] is byte-identical for the same seed and across the
//! scheduler swap.

use rocksteady_common::json::{push_u64, Obj};
use rocksteady_common::{FxHashMap, Nanos};

use crate::{ClientAttempt, Events, RpcInstant};

/// Schema tag stamped into [`export_json`] output.
pub const JOURNEYS_SCHEMA: &str = "rocksteady-journeys-v1";

/// Client-observed outcome codes recorded on `rpc-client` attempt
/// instants (the `status` arg) and echoed per hop.
pub mod status {
    /// The attempt succeeded (final hop of a journey).
    pub const OK: u64 = 0;
    /// The server asked the client to retry after a back-off (a read
    /// miss during migration, or a recovering tablet).
    pub const RETRY: u64 = 1;
    /// The server no longer owns the tablet; the client refreshes its
    /// map (the source half of an ownership flip).
    pub const STALE_MAP: u64 = 2;
    /// No such key.
    pub const NOT_FOUND: u64 = 3;
    /// Any other error outcome.
    pub const OTHER: u64 = 4;

    /// Short human label for a status code (used in chain strings).
    pub fn label(code: u64) -> &'static str {
        match code {
            OK => "ok",
            RETRY => "retry",
            STALE_MAP => "stale-map",
            NOT_FOUND => "not-found",
            _ => "err",
        }
    }
}

/// One server-side hop of a journey.
#[derive(Debug, Clone)]
pub struct Hop {
    /// 1-based client attempt this hop answered; 0 for an off-path hop
    /// done *on behalf of* the operation (e.g. the PriorityPull the
    /// target issued for a waiting read).
    pub attempt: u64,
    /// Actor id (trace `pid`) of the server that executed the hop.
    pub server: u64,
    /// Request name (`read`, `write`, `priority-pull`, ...).
    pub name: &'static str,
    /// The rpc id correlating request and response.
    pub rpc: u64,
    /// Causal depth carried by the RPC's `CausalCtx`.
    pub depth: u64,
    /// Virtual time the request left its sender's NIC.
    pub sent_at: Nanos,
    /// Virtual time the response left the server.
    pub resp_sent: Nanos,
    /// Inbound network segment (arrival − sent).
    pub net_in: Nanos,
    /// Dispatch-queue wait before a worker picked the request up.
    pub queue: Nanos,
    /// Worker service time.
    pub service: Nanos,
    /// Post-service hold (e.g. waiting on replication acks).
    pub hold: Nanos,
    /// Outbound network segment (client completion − `resp_sent`);
    /// only meaningful for on-path hops.
    pub net_out: Nanos,
    /// Client-side wait (back-off, map refresh) between the previous
    /// attempt's completion and this attempt's issue; 0 for the first
    /// attempt and for off-path hops.
    pub gap_before: Nanos,
    /// Client-observed [`status`] code of the attempt (on-path hops).
    pub status: u64,
    /// Whether the hop sits on the client's request/response path (and
    /// therefore participates in the telescoping sum).
    pub on_path: bool,
}

impl Hop {
    /// The four server-side segments of this hop.
    pub fn segments(&self) -> Nanos {
        self.net_in + self.queue + self.service + self.hold
    }
}

/// One reconstructed journey: everything that happened, on every node,
/// for a single client operation.
#[derive(Debug, Clone)]
pub struct Journey {
    /// The operation's trace id.
    pub trace: u64,
    /// Actor id of the client that minted the context.
    pub client: u64,
    /// Issue time of the first surviving attempt (for a complete
    /// journey: the operation's first issue).
    pub issued: Nanos,
    /// Completion time of the last surviving attempt.
    pub completed: Nanos,
    /// `completed - issued`: the client-measured latency over the
    /// surviving window.
    pub e2e: Nanos,
    /// Surviving client attempts.
    pub attempts: u64,
    /// [`status`] code of the last surviving attempt.
    pub final_status: u64,
    /// True when early hops are missing (ring eviction or a response
    /// still in flight at buffer capture); surviving hops are intact
    /// but no end-to-end telescoping claim is made.
    pub truncated: bool,
    /// True when the journey is structurally complete and its on-path
    /// hop segments + gaps sum exactly to `e2e`.
    pub telescoped: bool,
    /// All hops, ordered by response time.
    pub hops: Vec<Hop>,
}

impl Journey {
    /// Whether this journey crossed a live migration: it needed more
    /// than one attempt, or work was done on its behalf off the direct
    /// request path (a PriorityPull).
    pub fn crossed_migration(&self) -> bool {
        self.attempts > 1 || self.hops.iter().any(|h| !h.on_path)
    }

    /// Renders the causal chain as a human-readable arrow string, e.g.
    /// `read@1:retry -> priority-pull@1 -> read@2:ok`.
    pub fn chain(&self) -> String {
        let mut out = String::new();
        self.push_chain(&mut out);
        out
    }

    fn push_chain(&self, out: &mut String) {
        for (i, hop) in self.hops.iter().enumerate() {
            if i > 0 {
                out.push_str(" -> ");
            }
            out.push_str(hop.name);
            out.push('@');
            push_u64(out, hop.server);
            if hop.on_path {
                out.push(':');
                out.push_str(status::label(hop.status));
            }
        }
    }

    fn push_json(&self, out: &mut String) {
        let mut o = Obj::open(out);
        o.u64("trace", self.trace)
            .u64("client", self.client)
            .u64("issued", self.issued)
            .u64("completed", self.completed)
            .u64("e2e", self.e2e)
            .u64("attempts", self.attempts)
            .u64("final_status", self.final_status)
            .flag("truncated", self.truncated)
            .flag("telescoped", self.telescoped)
            .flag("crossed", self.crossed_migration())
            .u64("hops_n", self.hops.len() as u64)
            .str_with("chain", |out| self.push_chain(out));
        let mut hops = o.arr("hops");
        for hop in &self.hops {
            hops.obj()
                .u64("attempt", hop.attempt)
                .u64("server", hop.server)
                .str("name", hop.name)
                .u64("rpc", hop.rpc)
                .u64("depth", hop.depth)
                .u64("sent_at", hop.sent_at)
                .u64("resp_sent", hop.resp_sent)
                .u64("net_in", hop.net_in)
                .u64("queue", hop.queue)
                .u64("service", hop.service)
                .u64("hold", hop.hold)
                .u64("net_out", hop.net_out)
                .u64("gap_before", hop.gap_before)
                .u64("status", hop.status)
                .flag("on_path", hop.on_path);
        }
    }
}

/// Reconstructs every journey present in `events`. Truncation (ring
/// eviction, responses in flight at capture) is detected structurally.
/// Journeys are returned sorted by trace id; hops by response time.
pub fn reconstruct(events: Events<'_>) -> Vec<Journey> {
    build(events, None)
}

/// Reconstructs the single journey with trace id `trace`, if present.
/// Only that trace's events are decoded into the stitching pass.
pub fn find(events: Events<'_>, trace: u64) -> Option<Journey> {
    build(events, Some(trace)).pop()
}

fn build(events: Events<'_>, only: Option<u64>) -> Vec<Journey> {
    // Pass 1: decode client attempts and traced server instants by
    // schema position, numbering each trace id in first-seen order.
    let wanted = |trace: u64| trace != 0 && only.is_none_or(|t| t == trace);
    let mut slot_of: FxHashMap<u64, u32> = FxHashMap::default();
    let mut traces: Vec<u64> = Vec::new();
    let mut slot = |trace: u64| {
        *slot_of.entry(trace).or_insert_with(|| {
            traces.push(trace);
            u32::try_from(traces.len() - 1).expect("fewer than 2^32 trace ids")
        })
    };
    let mut attempts: Vec<(u32, ClientAttempt)> = Vec::new();
    let mut servers: Vec<(u32, RpcInstant)> = Vec::new();
    for ev in events {
        if let Some(a) = ClientAttempt::decode(ev) {
            if wanted(a.trace) {
                attempts.push((slot(a.trace), a));
            }
        } else if let Some(s) = RpcInstant::decode(ev) {
            if wanted(s.trace) {
                servers.push((slot(s.trace), s));
            }
        }
    }
    // Rank the trace ids, then bucket each trace's events contiguously
    // in rank order (a counting sort, which keeps buffer order within a
    // trace), so journeys come out sorted by trace id.
    let mut by_trace: Vec<(u64, u32)> = traces
        .iter()
        .enumerate()
        .map(|(slot, &trace)| (trace, slot as u32))
        .collect();
    by_trace.sort_unstable();
    let mut rank = vec![0u32; traces.len()];
    for (r, &(_, slot)) in by_trace.iter().enumerate() {
        rank[slot as usize] = r as u32;
    }
    let (mut attempts, att_at) = bucket(attempts, &rank);
    let (servers, srv_at) = bucket(servers, &rank);

    // Pass 2: stitch each trace's attempts and hops together.
    let mut journeys = Vec::with_capacity(by_trace.len());
    let mut matched: Vec<bool> = Vec::new();
    for (r, &(trace, _)) in by_trace.iter().enumerate() {
        let atts = &mut attempts[att_at[r]..att_at[r + 1]];
        if atts.is_empty() {
            continue; // server work whose client attempts were evicted
        }
        // A trace id is minted by one client; name it as the first
        // recorded attempt does. Then order attempts stably: equal
        // (attempt, issued) keep buffer order.
        let client = atts[0].client;
        atts.sort_by_key(|a| (a.attempt, a.issued));
        let hops_in = &servers[srv_at[r]..srv_at[r + 1]];
        matched.clear();
        matched.resize(hops_in.len(), false);
        journeys.push(stitch(trace, client, atts, hops_in, &mut matched));
    }
    journeys
}

/// Counting sort of `(slot, item)` pairs by `rank[slot]`: returns the
/// items grouped by rank (buffer order within a group) and each group's
/// start offset (`rank.len() + 1` entries).
fn bucket<T: Copy + Default>(items: Vec<(u32, T)>, rank: &[u32]) -> (Vec<T>, Vec<usize>) {
    let mut at = vec![0usize; rank.len() + 1];
    for (slot, _) in &items {
        at[rank[*slot as usize] as usize + 1] += 1;
    }
    for i in 1..at.len() {
        at[i] += at[i - 1];
    }
    let mut next = at.clone();
    let mut out = vec![T::default(); items.len()];
    for (slot, item) in items {
        let r = rank[slot as usize] as usize;
        out[next[r]] = item;
        next[r] += 1;
    }
    (out, at)
}

/// Builds one journey from a trace's client attempts (sorted by attempt)
/// and its server instants (in buffer order). `matched` is scratch space
/// sized to `hops_in`, all false.
fn stitch(
    trace: u64,
    client: u64,
    atts: &[ClientAttempt],
    hops_in: &[RpcInstant],
    matched: &mut [bool],
) -> Journey {
    let hop = |s: &RpcInstant| Hop {
        attempt: 0,
        server: s.server,
        name: s.name,
        rpc: s.rpc,
        depth: s.hop,
        sent_at: s.sent_at,
        resp_sent: s.resp_sent,
        net_in: s.net_in,
        queue: s.queue,
        service: s.service,
        hold: s.hold,
        net_out: 0,
        gap_before: 0,
        status: status::OK,
        on_path: false,
    };
    let mut hops: Vec<Hop> = Vec::with_capacity(hops_in.len());
    let mut truncated = atts[0].attempt != 1;
    let mut per_attempt_ok = true;
    let mut prev_completed: Option<Nanos> = None;
    for att in atts {
        let gap_before = prev_completed.map_or(0, |p| att.issued.saturating_sub(p));
        prev_completed = Some(att.completed);
        let Some(i) = (0..hops_in.len()).find(|&i| !matched[i] && hops_in[i].rpc == att.rpc) else {
            // Evicted server instant (ring mode drops oldest first).
            truncated = true;
            continue;
        };
        matched[i] = true;
        let s = &hops_in[i];
        // Per-hop identities that must hold for any surviving hop: the
        // kernel stamps sent_at at issue, and the four segments tile
        // [sent_at, resp_sent] exactly.
        if s.sent_at != att.issued
            || s.net_in + s.queue + s.service + s.hold != s.resp_sent - s.sent_at
        {
            per_attempt_ok = false;
        }
        hops.push(Hop {
            attempt: att.attempt,
            net_out: att.completed.saturating_sub(s.resp_sent),
            gap_before,
            status: att.status,
            on_path: true,
            ..hop(s)
        });
    }
    // Off-path hops: server work attributed to this trace that no client
    // attempt names — the PriorityPull the target issued on the
    // operation's behalf. (A non-PP orphan is a response still in flight
    // at capture time; skip it rather than guess.)
    for (i, s) in hops_in.iter().enumerate() {
        if !matched[i] && s.name == "priority-pull" {
            hops.push(hop(s));
        }
    }
    hops.sort_by_key(|h| (h.resp_sent, h.rpc));
    let (first, last) = (&atts[0], &atts[atts.len() - 1]);
    let e2e = last.completed - first.issued;
    // Telescoping: on-path segments + response network + client-side gaps
    // must tile [issued, completed] with nothing left over.
    let on_path_sum: Nanos = hops
        .iter()
        .filter(|h| h.on_path)
        .map(|h| h.segments() + h.net_out + h.gap_before)
        .sum();
    let complete = !truncated && hops.iter().filter(|h| h.on_path).count() == atts.len();
    Journey {
        trace,
        client,
        issued: first.issued,
        completed: last.completed,
        e2e,
        attempts: atts.len() as u64,
        final_status: last.status,
        truncated: !complete,
        telescoped: complete && per_attempt_ok && on_path_sum == e2e,
        hops,
    }
}

/// The `k` slowest journeys by `e2e`, slowest first, ties broken by
/// trace id ascending — a deterministic reservoir with no RNG.
pub fn slowest<'a>(journeys: impl IntoIterator<Item = &'a Journey>, k: usize) -> Vec<&'a Journey> {
    let mut sorted: Vec<&Journey> = journeys.into_iter().collect();
    sorted.sort_by(|a, b| b.e2e.cmp(&a.e2e).then(a.trace.cmp(&b.trace)));
    sorted.truncate(k);
    sorted
}

/// Renders journeys as the deterministic `rocksteady-journeys-v1` JSON
/// document (fixed key order, integers and static strings only).
pub fn export_json<'a, I>(journeys: I, dropped: u64) -> String
where
    I: IntoIterator<Item = &'a Journey>,
    I::IntoIter: ExactSizeIterator,
{
    let journeys = journeys.into_iter();
    // A typical journey (one or two hops) exports to about 410 bytes.
    let mut out = String::with_capacity(64 + journeys.len() * 410);
    push_export_json(&mut out, journeys, dropped);
    out
}

/// Appends [`export_json`]'s document to `out`.
pub fn push_export_json<'a>(
    out: &mut String,
    journeys: impl IntoIterator<Item = &'a Journey>,
    dropped: u64,
) {
    let mut o = Obj::open(out);
    o.str("schema", JOURNEYS_SCHEMA).u64("dropped", dropped);
    let mut list = o.arr("journeys");
    for j in journeys {
        j.push_json(list.item());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lanes, schema, Tracer};

    #[allow(clippy::too_many_arguments)]
    fn client_instant(
        t: &Tracer,
        pid: u64,
        trace: u64,
        attempt: u64,
        rpc: u64,
        issued: Nanos,
        completed: Nanos,
        st: u64,
    ) {
        t.instant(
            "rpc-client",
            "client",
            pid,
            0,
            completed,
            &schema::CLIENT,
            &[
                rpc,
                issued,
                completed,
                completed - issued,
                trace,
                attempt,
                st,
            ],
        );
    }

    fn server_instant(
        t: &Tracer,
        pid: u64,
        name: &'static str,
        trace: u64,
        rpc: u64,
        sent_at: Nanos,
        [net_in, queue, service, hold]: [Nanos; 4],
    ) {
        let arrived = sent_at + net_in;
        let assigned = arrived + queue;
        let service_end = assigned + service;
        let resp = service_end + hold;
        t.instant(
            name,
            "rpc",
            pid,
            lanes::RPC,
            resp,
            &schema::RPC,
            &[
                9,
                rpc,
                sent_at,
                arrived,
                assigned,
                service_end,
                resp,
                net_in,
                0,
                queue,
                service,
                hold,
                trace,
                1,
            ],
        );
    }

    /// A three-attempt read crossing an ownership flip, with an
    /// off-path PriorityPull: the canonical migration-crossing journey.
    fn crossing_events() -> Tracer {
        let t = Tracer::armed();
        let id = 42;
        // attempt 1 at the source: stale map.
        server_instant(&t, 1, "read", id, 100, 1_000, [10, 5, 20, 0]);
        client_instant(&t, 9, id, 1, 100, 1_000, 1_045, status::STALE_MAP);
        // attempt 2 at the target: miss -> retry hint.
        server_instant(&t, 2, "read", id, 101, 1_100, [10, 8, 25, 0]);
        client_instant(&t, 9, id, 2, 101, 1_100, 1_153, status::RETRY);
        // the PriorityPull the target issued on our behalf.
        server_instant(&t, 1, "priority-pull", id, 300, 1_150, [10, 2, 30, 0]);
        // attempt 3 at the target: served.
        server_instant(&t, 2, "read", id, 102, 1_400, [10, 4, 22, 0]);
        client_instant(&t, 9, id, 3, 102, 1_400, 1_446, status::OK);
        t
    }

    #[test]
    fn crossing_journey_reconstructs_and_telescopes() {
        let journeys = crossing_events().with_events(reconstruct);
        assert_eq!(journeys.len(), 1);
        let j = &journeys[0];
        assert_eq!(j.trace, 42);
        assert_eq!(j.client, 9);
        assert_eq!(j.attempts, 3);
        assert_eq!(j.hops.len(), 4);
        assert!(j.crossed_migration());
        assert!(!j.truncated);
        assert_eq!(j.e2e, 446);
        assert!(j.telescoped, "chain: {}", j.chain());
        // Both the source-miss hop and the PriorityPull hop carry the
        // one trace id.
        assert!(j.hops.iter().any(|h| h.name == "read" && h.server == 1));
        assert!(j
            .hops
            .iter()
            .any(|h| h.name == "priority-pull" && !h.on_path && h.server == 1));
        assert_eq!(
            j.chain(),
            "read@1:stale-map -> read@2:retry -> priority-pull@1 -> read@2:ok"
        );
        assert_eq!(j.final_status, status::OK);
    }

    #[test]
    fn evicted_early_hops_mean_truncated_not_wrong() {
        // Drop the first three events (ring eviction takes the oldest):
        // attempt 1 entirely gone, attempt 2's server instant gone.
        let journeys = crossing_events().with_events(|e| reconstruct(e.since(1_150)));
        assert_eq!(journeys.len(), 1);
        let j = &journeys[0];
        assert!(j.truncated, "missing early hops must flag truncation");
        assert!(!j.telescoped, "a truncated journey must not claim the sum");
        // Surviving hops are intact.
        assert!(j.hops.iter().any(|h| h.name == "priority-pull"));
        assert!(j
            .hops
            .iter()
            .any(|h| h.on_path && h.status == status::OK && h.rpc == 102));
        let json = export_json(&journeys, 3);
        assert!(json.contains("\"truncated\":1"), "{json}");
        assert!(json.contains("\"dropped\":3"), "{json}");
    }

    #[test]
    fn single_attempt_clean_journey() {
        let t = Tracer::armed();
        server_instant(&t, 1, "read", 7, 50, 500, [10, 0, 20, 0]);
        client_instant(&t, 9, 7, 1, 50, 500, 540, status::OK);
        let journeys = t.with_events(reconstruct);
        assert_eq!(journeys.len(), 1);
        let j = &journeys[0];
        assert!(!j.crossed_migration());
        assert!(j.telescoped);
        assert_eq!(j.hops[0].net_out, 10);
        assert_eq!(j.chain(), "read@1:ok");
        assert_eq!(
            t.with_events(|e| find(e, 7)).map(|j| j.chain()),
            Some(j.chain())
        );
        assert!(t.with_events(|e| find(e, 8)).is_none());
    }

    #[test]
    fn slowest_reservoir_is_deterministic() {
        let t = Tracer::armed();
        for (i, e2e) in [(1u64, 100u64), (2, 300), (3, 300), (4, 50)] {
            server_instant(&t, 1, "read", i, i * 10, 1_000, [e2e - 10, 0, 10, 0]);
            client_instant(&t, 9, i, 1, i * 10, 1_000, 1_000 + e2e, status::OK);
        }
        let journeys = t.with_events(reconstruct);
        let top = slowest(&journeys, 2);
        assert_eq!(top.len(), 2);
        // Ties broken by trace id ascending.
        assert_eq!(top[0].trace, 2);
        assert_eq!(top[1].trace, 3);
    }

    #[test]
    fn export_is_deterministic() {
        let a = export_json(&crossing_events().with_events(reconstruct), 0);
        let b = export_json(&crossing_events().with_events(reconstruct), 0);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"rocksteady-journeys-v1\""));
        assert!(a.contains("\"hops_n\":4"), "{a}");
        assert!(a.contains("\"telescoped\":1"), "{a}");
    }
}
