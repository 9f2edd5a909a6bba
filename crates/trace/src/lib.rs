//! Deterministic tracing and metrics under the virtual clock.
//!
//! The paper argues entirely through timelines and latency
//! decompositions (Figs 9–14); this crate is the observability layer
//! those figures need. Actors record three event kinds into one shared
//! buffer:
//!
//! - **spans** (`ph: "X"`): an interval `[ts, ts+dur]` on a `(pid,
//!   tid)` lane — an RPC's worker-service time, one migration phase,
//!   one Pull round trip;
//! - **instants** (`ph: "i"`): a point event carrying structured args —
//!   e.g. the per-RPC latency decomposition stamped when the response
//!   leaves the server;
//! - **counters** (`ph: "C"`): a monotonic value sampled whenever it
//!   changes — retry hints sent, priority-pull deferrals, abandoned
//!   migrations.
//!
//! Determinism rules (see DESIGN.md):
//!
//! 1. every timestamp is virtual time — two runs with the same seed
//!    produce *byte-identical* exports;
//! 2. events are appended at their **completion** time, so buffer order
//!    is completion order and `ts + dur` is non-decreasing;
//! 3. spans sharing a `(pid, tid)` lane must nest properly (lanes are
//!    chosen so this holds by construction: one lane per worker core,
//!    per pull partition, per migration);
//! 4. arg values are integers only — no floats, no formatting
//!    ambiguity.
//!
//! The event record (see DESIGN.md §3.8): an event's argument *keys* are
//! a `&'static` schema shared by every event of its kind (e.g.
//! [`schema::RPC`]), and its *values* live in one `Vec<u64>` arena per
//! buffer, addressed by an offset on the event. Recording copies a fixed
//! stack array into the arena, so an armed tracer allocates nothing per
//! event beyond the amortized growth of two vectors. Readers decode the
//! hot kinds by position ([`RpcInstant::decode`],
//! [`ClientAttempt::decode`]) instead of searching keys by name.
//!
//! Zero-cost-off guarantee: [`Tracer`] is an `Option` around the shared
//! buffer. A disabled tracer is `None`; every record call is a branch
//! on that discriminant and nothing else — no allocation, no clock
//! reads, no arg construction (callers must guard arg-building with
//! [`Tracer::is_on`]).

use std::cell::RefCell;
use std::rc::Rc;

use rocksteady_common::json::Obj;
use rocksteady_common::{Histogram, Nanos};

pub mod journey;

/// The lane-ID (`tid`) convention shared by every producer and consumer
/// of the trace buffer.
///
/// Spans sharing a `(pid, tid)` lane must nest properly (invariant 3 in
/// the crate docs), so each logically-concurrent strand of work gets
/// its own lane. Server actors lay their lanes out as follows; the
/// critical-path walker in `rocksteady-profiler` reverses the mapping
/// with [`worker_index`] / [`pull_partition`].
pub mod lanes {
    /// Dispatch-core lane: per-RPC decomposition instants.
    pub const RPC: u64 = 0;
    /// First worker lane; worker `w` records on `WORKER_BASE + w`.
    pub const WORKER_BASE: u64 = 1;
    /// Migration-phase spans (prepare, ownership-flip, run, commit).
    pub const MIGRATION: u64 = 100;
    /// Priority-pull round trips (at most one outstanding at a time).
    pub const PRIORITY_PULL: u64 = 101;
    /// First pull lane; partition `p`'s pulls record on `PULL_BASE + p`.
    pub const PULL_BASE: u64 = 110;

    /// Lane for worker core `w`.
    pub fn worker(w: usize) -> u64 {
        WORKER_BASE + w as u64
    }

    /// Lane for pull partition `p`.
    pub fn pull(p: usize) -> u64 {
        PULL_BASE + p as u64
    }

    /// Inverse of [`worker`]: the worker index recording on `tid`, if
    /// `tid` is a worker lane.
    pub fn worker_index(tid: u64) -> Option<usize> {
        (WORKER_BASE..MIGRATION)
            .contains(&tid)
            .then(|| (tid - WORKER_BASE) as usize)
    }

    /// Inverse of [`pull`]: the partition recording on `tid`, if `tid`
    /// is a pull lane.
    pub fn pull_partition(tid: u64) -> Option<usize> {
        (tid >= PULL_BASE).then(|| (tid - PULL_BASE) as usize)
    }
}

/// Argument-key schemas of the event kinds that more than one crate
/// writes or reads. Producers record values in exactly this order;
/// [`RpcInstant::decode`] and [`ClientAttempt::decode`] read them back by
/// position. They are `static` so every event of a kind points at one
/// address and a schema check is a pointer compare.
pub mod schema {
    /// The server-side per-RPC latency decomposition instant (cat
    /// `rpc`, named after the request), stamped when the response
    /// leaves the server. The four segments `net_in + queue + service +
    /// hold` tile `[sent_at, resp_sent]`. An RPC carrying a causal
    /// context records all 14 keys; one without records the first
    /// [`RPC_UNTRACED_LEN`].
    pub static RPC: [&str; 14] = [
        "src",
        "rpc",
        "sent_at",
        "arrived",
        "assigned",
        "service_end",
        "resp_sent",
        "net_in",
        "nic_in",
        "queue",
        "service",
        "hold",
        "trace",
        "hop",
    ];
    /// Keys of an [`RPC`] instant without a causal context (no `trace`,
    /// no `hop`).
    pub const RPC_UNTRACED_LEN: usize = 12;
    /// The client's `rpc-client` attempt instant, stamped when a
    /// response reaches the client.
    pub static CLIENT: [&str; 7] = [
        "rpc",
        "issued",
        "completed",
        "e2e",
        "trace",
        "attempt",
        "status",
    ];
    /// A counter sample.
    pub static COUNTER: [&str; 1] = ["value"];
    /// A flow end (or a server-issued flow start): the flow id, then the
    /// journey's trace id.
    pub static FLOW: [&str; 2] = ["flow", "trace"];
    /// A client's flow start: [`FLOW`] plus the attempt number.
    pub static CLIENT_FLOW: [&str; 3] = ["flow", "trace", "attempt"];

    /// Whether `keys` is `schema`: a pointer compare for events recorded
    /// with the shared statics, a key-by-key compare otherwise.
    #[inline]
    pub(crate) fn is(keys: &[&str], schema: &'static [&'static str]) -> bool {
        std::ptr::eq(keys, schema) || keys == schema
    }
}

/// Chrome trace-event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Complete event (`"X"`): an interval with a duration.
    Span,
    /// Instant event (`"i"`): a point in time with args.
    Instant,
    /// Counter sample (`"C"`): a monotonic value.
    Counter,
    /// Flow start (`"s"`): the producing end of a causal link. Carries
    /// the journey's trace id in the `flow` arg (exported as the chrome
    /// flow `id`), so per-RPC instants on different nodes chain into one
    /// cross-node causal graph.
    FlowStart,
    /// Flow end (`"f"`): the consuming end of a causal link (same `flow`
    /// arg convention as [`Phase::FlowStart`]).
    FlowEnd,
}

/// One recorded event. Names and argument keys are `&'static` so
/// recording never allocates for labels and exports are trivially
/// deterministic; argument values live in the owning buffer's arena (read
/// them through [`EventRef`]).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (chrome `name`).
    pub name: &'static str,
    /// Category (chrome `cat`), used for filtering.
    pub cat: &'static str,
    /// Event kind.
    pub ph: Phase,
    /// Start time (virtual nanoseconds).
    pub ts: Nanos,
    /// Duration (0 for instants and counters).
    pub dur: Nanos,
    /// Process lane: the actor id.
    pub pid: u64,
    /// Thread lane within the actor (worker core, partition, ...).
    pub tid: u64,
    /// Argument keys in recording order: the event kind's schema.
    pub keys: &'static [&'static str],
    /// Offset of this event's `keys.len()` values in the value arena.
    off: usize,
}

/// A recorded event together with its argument values.
#[derive(Debug, Clone, Copy)]
pub struct EventRef<'a> {
    ev: &'a TraceEvent,
    vals: &'a [u64],
}

impl std::ops::Deref for EventRef<'_> {
    type Target = TraceEvent;

    fn deref(&self) -> &TraceEvent {
        self.ev
    }
}

impl<'a> EventRef<'a> {
    /// `ev` with its values sliced out of the buffer's `arena`.
    #[inline]
    fn new(ev: &'a TraceEvent, arena: &'a [u64]) -> Self {
        EventRef {
            ev,
            vals: &arena[ev.off..ev.off + ev.keys.len()],
        }
    }

    /// Argument values, in [`TraceEvent::keys`] order.
    pub fn vals(&self) -> &'a [u64] {
        self.vals
    }

    /// `(key, value)` argument pairs, in recording order.
    pub fn args(&self) -> impl Iterator<Item = (&'static str, u64)> + 'a {
        self.ev.keys.iter().copied().zip(self.vals.iter().copied())
    }

    /// Looks up an argument by name (a linear search: fine for tests
    /// and rare kinds; hot readers decode by position).
    pub fn arg(&self, name: &str) -> Option<u64> {
        self.args().find(|(k, _)| *k == name).map(|(_, v)| v)
    }
}

/// A read-only view of recorded events and their value arena, in buffer
/// (completion) order.
#[derive(Debug, Clone, Copy)]
pub struct Events<'a> {
    events: &'a [TraceEvent],
    vals: &'a [u64],
}

impl<'a> Events<'a> {
    /// Number of events in the view.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the view holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates the events in buffer order.
    pub fn iter(&self) -> Iter<'a> {
        Iter {
            events: self.events.iter(),
            vals: self.vals,
        }
    }

    /// The events completing at or after `since`. The buffer is
    /// completion-ordered, so this is a suffix.
    pub fn since(&self, since: Nanos) -> Events<'a> {
        let start = self.events.partition_point(|ev| ev.ts + ev.dur < since);
        Events {
            events: &self.events[start..],
            vals: self.vals,
        }
    }
}

impl<'a> IntoIterator for Events<'a> {
    type Item = EventRef<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Events`] view.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    events: std::slice::Iter<'a, TraceEvent>,
    vals: &'a [u64],
}

impl<'a> Iterator for Iter<'a> {
    type Item = EventRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<EventRef<'a>> {
        let ev = self.events.next()?;
        Some(EventRef::new(ev, self.vals))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.events.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let ev = self.events.next_back()?;
        Some(EventRef::new(ev, self.vals))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// A server-side per-RPC latency decomposition instant
/// ([`schema::RPC`]), decoded by position in one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcInstant {
    /// Request name (`read`, `write`, `priority-pull`, ...).
    pub name: &'static str,
    /// Actor id of the server that answered (the event's `pid`).
    pub server: u64,
    /// Actor id of the requester.
    pub src: u64,
    /// The rpc id correlating request and response.
    pub rpc: u64,
    /// Virtual time the request left its sender.
    pub sent_at: Nanos,
    /// Virtual time the request reached the server's dispatch core.
    pub arrived: Nanos,
    /// Virtual time a worker picked the request up.
    pub assigned: Nanos,
    /// Virtual time the worker finished servicing it.
    pub service_end: Nanos,
    /// Virtual time the response left the server.
    pub resp_sent: Nanos,
    /// Inbound network segment (`arrived - sent_at`).
    pub net_in: Nanos,
    /// Inbound NIC serialization stamp.
    pub nic_in: Nanos,
    /// Dispatch-queue wait (`assigned - arrived`).
    pub queue: Nanos,
    /// Worker service time (`service_end - assigned`).
    pub service: Nanos,
    /// Post-service hold (`resp_sent - service_end`).
    pub hold: Nanos,
    /// The journey's trace id; 0 when the RPC carried no causal context.
    pub trace: u64,
    /// Causal depth carried by the RPC's context (0 when untraced).
    pub hop: u64,
}

impl RpcInstant {
    /// Decodes `ev` if it is an RPC decomposition instant.
    #[inline]
    pub fn decode(ev: EventRef<'_>) -> Option<RpcInstant> {
        if ev.ph != Phase::Instant || ev.cat != "rpc" {
            return None;
        }
        let n = ev.keys.len();
        if (n != schema::RPC.len() && n != schema::RPC_UNTRACED_LEN)
            || !schema::is(ev.keys, &schema::RPC[..n])
        {
            return None;
        }
        let (segments, context) = ev.vals.split_at(schema::RPC_UNTRACED_LEN);
        let [
            src,
            rpc,
            sent_at,
            arrived,
            assigned,
            service_end,
            resp_sent,
            net_in,
            nic_in,
            queue,
            service,
            hold,
        ]: [u64; schema::RPC_UNTRACED_LEN] = segments.try_into().expect("schema checked above");
        let (trace, hop) = match *context {
            [trace, hop] => (trace, hop),
            _ => (0, 0),
        };
        Some(RpcInstant {
            name: ev.name,
            server: ev.pid,
            src,
            rpc,
            sent_at,
            arrived,
            assigned,
            service_end,
            resp_sent,
            net_in,
            nic_in,
            queue,
            service,
            hold,
            trace,
            hop,
        })
    }
}

/// A client `rpc-client` attempt instant ([`schema::CLIENT`]), decoded
/// by position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientAttempt {
    /// Actor id of the client (the event's `pid`).
    pub client: u64,
    /// The rpc id of this attempt.
    pub rpc: u64,
    /// Virtual time the attempt was issued.
    pub issued: Nanos,
    /// Virtual time its response reached the client.
    pub completed: Nanos,
    /// `completed - issued`.
    pub e2e: Nanos,
    /// The operation's trace id.
    pub trace: u64,
    /// 1-based attempt number.
    pub attempt: u64,
    /// Client-observed [`journey::status`] code.
    pub status: u64,
}

impl ClientAttempt {
    /// Decodes `ev` if it is a client attempt instant.
    #[inline]
    pub fn decode(ev: EventRef<'_>) -> Option<ClientAttempt> {
        if ev.ph != Phase::Instant
            || ev.name != "rpc-client"
            || !schema::is(ev.keys, &schema::CLIENT)
        {
            return None;
        }
        let &[rpc, issued, completed, e2e, trace, attempt, status] = ev.vals else {
            return None;
        };
        Some(ClientAttempt {
            client: ev.pid,
            rpc,
            issued,
            completed,
            e2e,
            trace,
            attempt,
            status,
        })
    }
}

/// The shared event buffer behind an enabled [`Tracer`].
#[derive(Debug, Default)]
pub struct TraceBuf {
    events: Vec<TraceEvent>,
    /// Value arena: each event's argument values, contiguous, in event
    /// order.
    vals: Vec<u64>,
    /// Recording gate: an armed tracer can be muted for warm-up windows
    /// without giving up the buffer (benches trace only the migration
    /// window this way).
    recording: bool,
    /// Ring mode: when `Some(n)`, the buffer holds at most `n` events
    /// and the oldest half is discarded in one memmove when it fills —
    /// amortized O(1) per push with a contiguous event slice.
    capacity: Option<usize>,
    /// Events discarded by ring compaction since arming.
    dropped: u64,
}

impl TraceBuf {
    fn view(&self) -> Events<'_> {
        Events {
            events: &self.events,
            vals: &self.vals,
        }
    }
}

/// Validation result: what a well-formed trace contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// Span events among them.
    pub spans: usize,
}

/// Shared, clonable handle to the trace buffer. `Tracer::off()` is the
/// zero-cost disabled state; cloning an armed tracer shares the buffer.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<TraceBuf>>>);

impl Tracer {
    /// A permanently disabled tracer: every call is a no-op branch.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// An armed tracer with a fresh buffer, recording immediately.
    pub fn armed() -> Self {
        Tracer(Some(Rc::new(RefCell::new(TraceBuf {
            recording: true,
            ..TraceBuf::default()
        }))))
    }

    /// An armed tracer in **ring mode**: the buffer holds at most
    /// `capacity` events. When it fills, the oldest `capacity/2` events
    /// (and their values) are discarded in one memmove and counted in
    /// [`Tracer::dropped`]. Because the buffer is completion-ordered,
    /// dropping a prefix cannot break nesting or ordering, so
    /// [`Tracer::validate`] still passes on a wrapped buffer.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer(Some(Rc::new(RefCell::new(TraceBuf {
            recording: true,
            capacity: Some(capacity.max(2)),
            ..TraceBuf::default()
        }))))
    }

    /// Events discarded by ring compaction (0 when unbounded or off).
    pub fn dropped(&self) -> u64 {
        match &self.0 {
            Some(buf) => buf.borrow().dropped,
            None => 0,
        }
    }

    /// The ring capacity, if this tracer is in ring mode.
    pub fn capacity(&self) -> Option<usize> {
        self.0.as_ref().and_then(|buf| buf.borrow().capacity)
    }

    /// Whether events would currently be recorded. Callers building
    /// args should guard on this so a muted/disabled tracer costs one
    /// branch.
    #[inline]
    pub fn is_on(&self) -> bool {
        match &self.0 {
            Some(buf) => buf.borrow().recording,
            None => false,
        }
    }

    /// Mutes or resumes recording on an armed tracer (no-op when off).
    pub fn set_recording(&self, on: bool) {
        if let Some(buf) = &self.0 {
            buf.borrow_mut().recording = on;
        }
    }

    /// Appends `ev` with values `lead` then `vals` (together exactly one
    /// per key of `ev.keys`). Allocates only when the event vector or the
    /// value arena grows.
    #[inline]
    fn push(&self, mut ev: TraceEvent, lead: &[u64], vals: &[u64]) {
        assert_eq!(
            ev.keys.len(),
            lead.len() + vals.len(),
            "trace event {} records {} values for {} keys",
            ev.name,
            lead.len() + vals.len(),
            ev.keys.len()
        );
        let Some(buf) = &self.0 else {
            return;
        };
        let mut guard = buf.borrow_mut();
        let buf = &mut *guard;
        if !buf.recording {
            return;
        }
        if let Some(cap) = buf.capacity {
            if buf.events.len() >= cap {
                // `len >= cap >= 2 > evict`, so a survivor exists and
                // its offset is where the kept values begin.
                let evict = (cap / 2).max(1);
                let cut = buf.events[evict].off;
                buf.events.drain(..evict);
                buf.vals.drain(..cut);
                for kept in &mut buf.events {
                    kept.off -= cut;
                }
                buf.dropped += evict as u64;
            }
        }
        ev.off = buf.vals.len();
        buf.vals.extend_from_slice(lead);
        buf.vals.extend_from_slice(vals);
        buf.events.push(ev);
    }

    /// Records a completed span `[ts, ts+dur]` with one value per key.
    /// Call at completion time (`now == ts + dur`) so the buffer stays
    /// completion-ordered.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        name: &'static str,
        cat: &'static str,
        pid: u64,
        tid: u64,
        ts: Nanos,
        dur: Nanos,
        keys: &'static [&'static str],
        vals: &[u64],
    ) {
        self.push(
            TraceEvent {
                name,
                cat,
                ph: Phase::Span,
                ts,
                dur,
                pid,
                tid,
                keys,
                off: 0,
            },
            &[],
            vals,
        );
    }

    /// Records an instant event at `ts` (the current virtual time) with
    /// one value per key.
    #[allow(clippy::too_many_arguments)]
    pub fn instant(
        &self,
        name: &'static str,
        cat: &'static str,
        pid: u64,
        tid: u64,
        ts: Nanos,
        keys: &'static [&'static str],
        vals: &[u64],
    ) {
        self.push(
            TraceEvent {
                name,
                cat,
                ph: Phase::Instant,
                ts,
                dur: 0,
                pid,
                tid,
                keys,
                off: 0,
            },
            &[],
            vals,
        );
    }

    /// Records one end of a causal flow link at `ts` (the current
    /// virtual time, keeping the buffer completion-ordered). `start`
    /// selects [`Phase::FlowStart`] (the cause: a request leaving its
    /// sender) vs [`Phase::FlowEnd`] (the effect: the answering node
    /// finishing it); `flow_id` is the journey's trace id and binds the
    /// two ends together in chrome://tracing. `keys` starts with `flow`
    /// (e.g. [`schema::FLOW`]): `flow_id` is recorded as the first value,
    /// then `vals`.
    #[allow(clippy::too_many_arguments)]
    pub fn flow(
        &self,
        name: &'static str,
        cat: &'static str,
        pid: u64,
        tid: u64,
        ts: Nanos,
        start: bool,
        flow_id: u64,
        keys: &'static [&'static str],
        vals: &[u64],
    ) {
        debug_assert_eq!(
            keys.first(),
            Some(&"flow"),
            "flow schema must lead with `flow`"
        );
        self.push(
            TraceEvent {
                name,
                cat,
                ph: if start {
                    Phase::FlowStart
                } else {
                    Phase::FlowEnd
                },
                ts,
                dur: 0,
                pid,
                tid,
                keys,
                off: 0,
            },
            &[flow_id],
            vals,
        );
    }

    /// Records a counter sample: `name` has `value` as of `ts`.
    pub fn counter(&self, name: &'static str, pid: u64, ts: Nanos, value: u64) {
        self.push(
            TraceEvent {
                name,
                cat: "counter",
                ph: Phase::Counter,
                ts,
                dur: 0,
                pid,
                tid: 0,
                keys: &schema::COUNTER,
                off: 0,
            },
            &[],
            &[value],
        );
    }

    /// Read access to the recorded events (an empty view when the tracer
    /// is disabled).
    pub fn with_events<R>(&self, f: impl FnOnce(Events<'_>) -> R) -> R {
        match &self.0 {
            Some(buf) => f(buf.borrow().view()),
            None => f(Events {
                events: &[],
                vals: &[],
            }),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.with_events(|events| events.len())
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Histogram of the durations of all spans named `name`.
    pub fn span_histogram(&self, name: &str) -> Histogram {
        self.with_events(|events| {
            let mut h = Histogram::new();
            for ev in events {
                if ev.ph == Phase::Span && ev.name == name {
                    h.record(ev.dur);
                }
            }
            h
        })
    }

    /// Histogram of argument `arg` across all instants named `name`.
    pub fn instant_arg_histogram(&self, name: &str, arg: &str) -> Histogram {
        self.with_events(|events| {
            let mut h = Histogram::new();
            for ev in events {
                if ev.ph == Phase::Instant && ev.name == name {
                    if let Some(v) = ev.arg(arg) {
                        h.record(v);
                    }
                }
            }
            h
        })
    }

    /// Exports the buffer as chrome://tracing JSON. Timestamps are
    /// microseconds with exactly three decimal digits (integer math on
    /// the nanosecond clock), so same-seed runs export byte-identical
    /// strings.
    pub fn export_chrome_json(&self) -> String {
        self.export_chrome_json_since(0)
    }

    /// Exports only the events completing at or after `since` — the
    /// incident bundle's "last N ms" trace slice. Same format as
    /// [`Tracer::export_chrome_json`].
    pub fn export_chrome_json_since(&self, since: Nanos) -> String {
        let mut out = String::new();
        self.push_chrome_json_since(since, &mut out);
        out
    }

    /// Appends [`Tracer::export_chrome_json_since`]'s document to `out`.
    pub fn push_chrome_json_since(&self, since: Nanos, out: &mut String) {
        self.with_events(|events| {
            let events = events.since(since);
            // A traced run's average event (RPC instants with 12–14
            // args, flow ends, worker spans) exports to about 180 bytes.
            out.reserve(64 + events.len() * 180);
            let mut doc = Obj::open(out);
            let mut list = doc.arr("traceEvents");
            for ev in events {
                let mut o = list.obj();
                o.str("name", ev.name).str("cat", ev.cat);
                // Chrome flow events bind by top-level id; the journey's
                // trace id is recorded as the leading `flow` arg.
                let flow_id = || match ev.keys.first() {
                    Some(&"flow") => ev.vals()[0],
                    _ => 0,
                };
                match ev.ph {
                    Phase::Span => o.str("ph", "X").us("ts", ev.ts).us("dur", ev.dur),
                    Phase::Instant => o.str("ph", "i").us("ts", ev.ts).str("s", "t"),
                    Phase::Counter => o.str("ph", "C").us("ts", ev.ts),
                    Phase::FlowStart => o.str("ph", "s").us("ts", ev.ts).u64("id", flow_id()),
                    Phase::FlowEnd => o
                        .str("ph", "f")
                        .us("ts", ev.ts)
                        .u64("id", flow_id())
                        .str("bp", "e"),
                };
                o.u64("pid", ev.pid).u64("tid", ev.tid);
                if !ev.keys.is_empty() {
                    let mut args = o.obj("args");
                    for (k, v) in ev.args() {
                        args.u64(k, v);
                    }
                }
            }
            drop(list);
            doc.str("displayTimeUnit", "ms");
        });
    }

    /// Validates the trace: non-empty, completion-ordered (monotone
    /// `ts + dur` in buffer order), and spans properly nested within
    /// each `(pid, tid)` lane.
    pub fn validate(&self) -> Result<TraceSummary, String> {
        self.with_events(|events| Self::check_events(events.events))
    }

    fn check_events(events: &[TraceEvent]) -> Result<TraceSummary, String> {
        if events.is_empty() {
            return Err("trace is empty".into());
        }
        let mut last_end = 0u64;
        for (i, ev) in events.iter().enumerate() {
            let end = ev.ts + ev.dur;
            if end < last_end {
                return Err(format!(
                    "event {i} ({}) completes at {end} before predecessor at {last_end}",
                    ev.name
                ));
            }
            last_end = end;
        }
        // Per-lane nesting: sort spans by (start, -end) and sweep with
        // an enclosure stack; partial overlap is the only failure.
        type Lane = Vec<(Nanos, Nanos, &'static str)>;
        let mut lanes: std::collections::HashMap<(u64, u64), Lane> =
            std::collections::HashMap::new();
        let mut spans = 0usize;
        for ev in events.iter() {
            if ev.ph == Phase::Span {
                spans += 1;
                lanes
                    .entry((ev.pid, ev.tid))
                    .or_default()
                    .push((ev.ts, ev.ts + ev.dur, ev.name));
            }
        }
        for ((pid, tid), mut lane) in lanes {
            lane.sort_by_key(|a| (a.0, std::cmp::Reverse(a.1)));
            let mut stack: Vec<(Nanos, Nanos)> = Vec::new();
            for (start, end, name) in lane {
                while let Some(&(_, top_end)) = stack.last() {
                    if top_end <= start {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&(top_start, top_end)) = stack.last() {
                    if end > top_end {
                        return Err(format!(
                            "span {name} [{start},{end}] on lane ({pid},{tid}) partially \
                             overlaps [{top_start},{top_end}]"
                        ));
                    }
                }
                stack.push((start, end));
            }
        }
        Ok(TraceSummary {
            events: events.len(),
            spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::off();
        assert!(!t.is_on());
        t.span("a", "c", 1, 1, 0, 10, &[], &[]);
        t.instant("b", "c", 1, 0, 5, &["x"], &[1]);
        t.counter("n", 1, 5, 3);
        assert!(t.is_empty());
        assert!(t.validate().is_err());
        assert_eq!(
            t.export_chrome_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn armed_tracer_shares_buffer_across_clones() {
        let t = Tracer::armed();
        let t2 = t.clone();
        t.span("a", "c", 1, 1, 0, 10, &[], &[]);
        t2.span("b", "c", 2, 1, 10, 5, &[], &[]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn mute_window_gates_recording() {
        let t = Tracer::armed();
        t.set_recording(false);
        assert!(!t.is_on());
        t.span("a", "c", 1, 1, 0, 10, &[], &[]);
        t.set_recording(true);
        t.span("b", "c", 1, 1, 10, 10, &[], &[]);
        assert_eq!(t.len(), 1);
        t.with_events(|e| assert_eq!(e.iter().next().unwrap().name, "b"));
    }

    #[test]
    fn export_is_deterministic_and_integer_formatted() {
        let build = || {
            let t = Tracer::armed();
            t.span("rpc", "rpc", 3, 1, 1_234, 5_678, &["bytes"], &[100]);
            t.instant("done", "rpc", 3, 0, 6_912, &[], &[]);
            t.counter("retries", 3, 6_912, 1);
            t.export_chrome_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"ts\":1.234"), "{a}");
        assert!(a.contains("\"dur\":5.678"), "{a}");
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"args\":{\"bytes\":100}"));
    }

    #[test]
    fn validate_accepts_nested_and_tiled_spans() {
        let t = Tracer::armed();
        // child [0,4], child [4,10], parent [0,10] pushed at completion.
        t.span("c1", "m", 1, 9, 0, 4, &[], &[]);
        t.span("c2", "m", 1, 9, 4, 6, &[], &[]);
        t.span("parent", "m", 1, 9, 0, 10, &[], &[]);
        let s = t.validate().expect("valid");
        assert_eq!(s.spans, 3);
    }

    #[test]
    fn validate_rejects_partial_overlap() {
        let t = Tracer::armed();
        t.span("a", "m", 1, 1, 0, 6, &[], &[]);
        t.span("b", "m", 1, 1, 3, 7, &[], &[]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_completion_disorder() {
        let t = Tracer::armed();
        t.instant("late", "m", 1, 0, 100, &[], &[]);
        t.instant("early", "m", 1, 0, 50, &[], &[]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn ring_mode_bounds_memory_and_counts_drops() {
        // Events of 1 to 3 values, so compaction must rebase offsets
        // into an arena whose prefix is not a multiple of the evicted
        // event count.
        static KEYS: [&str; 3] = ["i", "j", "k"];
        let width = |i: u64| (i % 3 + 1) as usize;
        let t = Tracer::with_capacity(8);
        assert_eq!(t.capacity(), Some(8));
        for i in 0..100u64 {
            let n = width(i);
            t.instant(
                "tick",
                "m",
                1,
                0,
                i * 10,
                &KEYS[..n],
                &[i, i + 1, i + 2][..n],
            );
        }
        assert!(t.len() <= 8, "len {} exceeds capacity", t.len());
        assert_eq!(t.dropped() + t.len() as u64, 100);
        // The survivors are the most recent suffix.
        t.with_events(|e| {
            assert_eq!(e.iter().next_back().unwrap().arg("i"), Some(99));
            let first = e.iter().next().unwrap().arg("i").unwrap();
            assert_eq!(first, t.dropped());
            // Compaction drained the value arena with the events: every
            // survivor still reads its own values.
            for (k, ev) in e.iter().enumerate() {
                let i = first + k as u64;
                assert_eq!(ev.vals(), &[i, i + 1, i + 2][..width(i)]);
            }
        });
    }

    #[test]
    fn wrapped_ring_still_validates_and_exports_chrome_json() {
        let t = Tracer::with_capacity(16);
        // Nested span pairs: child then parent, pushed at completion,
        // enough of them that the ring wraps several times.
        for i in 0..50u64 {
            let base = i * 100;
            t.span("child", "m", 1, 9, base, 40, &[], &[]);
            t.span("parent", "m", 1, 9, base, 90, &[], &[]);
        }
        assert!(t.dropped() > 0, "ring never wrapped");
        let s = t.validate().expect("wrapped ring must stay valid");
        assert!(s.events <= 16);
        let json = t.export_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"name\":\"parent\""));
    }

    #[test]
    fn since_export_takes_the_completion_suffix() {
        let t = Tracer::armed();
        t.span("old", "m", 1, 1, 0, 10, &[], &[]);
        t.span("new", "m", 1, 1, 100, 10, &[], &[]);
        let json = t.export_chrome_json_since(50);
        assert!(!json.contains("\"name\":\"old\""), "{json}");
        assert!(json.contains("\"name\":\"new\""), "{json}");
    }

    #[test]
    fn unbounded_tracer_reports_no_capacity() {
        let t = Tracer::armed();
        assert_eq!(t.capacity(), None);
        assert_eq!(t.dropped(), 0);
        assert_eq!(Tracer::off().capacity(), None);
    }

    #[test]
    fn flow_events_export_chrome_phases_and_ids() {
        let t = Tracer::armed();
        t.flow(
            "journey",
            "flow",
            7,
            0,
            100,
            true,
            0xbeef,
            &["flow", "hop"],
            &[1],
        );
        t.flow("journey", "flow", 3, 0, 250, false, 0xbeef, &["flow"], &[]);
        let json = t.export_chrome_json();
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        assert!(json.contains("\"id\":48879"), "{json}");
        assert!(json.contains("\"bp\":\"e\""), "{json}");
        // Zero-duration flow events keep the buffer valid and are not
        // subject to span nesting.
        t.span("svc", "worker", 7, 1, 0, 300, &[], &[]);
        t.validate().expect("flow events must not break validation");
    }

    #[test]
    fn histograms_derive_from_events() {
        let t = Tracer::armed();
        t.span("pull", "mig", 1, 64, 0, 100, &[], &[]);
        t.span("pull", "mig", 1, 64, 100, 300, &[], &[]);
        t.instant("rpc", "rpc", 1, 0, 500, &["queue"], &[40]);
        let h = t.span_histogram("pull");
        assert_eq!(h.count(), 2);
        assert!(h.max() >= 300);
        let q = t.instant_arg_histogram("rpc", "queue");
        assert_eq!(q.count(), 1);
    }
}
