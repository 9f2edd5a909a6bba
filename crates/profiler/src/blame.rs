//! Tail-latency blame: which segment made the slow requests slow?
//!
//! Every server-side RPC already emits a decomposition instant
//! (`net_in + queue + service + hold = resp_sent - sent_at`, cat
//! `rpc`). For requests whose server-observed end-to-end time exceeded
//! the SLA, we aggregate those segments into a blame histogram: each
//! slow request blames its dominant segment, and per-segment totals
//! show where the tail's nanoseconds actually went. This is the
//! post-hoc companion to the live SLO monitor — the monitor says *that*
//! p99.9 breached; this says *why*.

use rocksteady_common::Nanos;
use rocksteady_trace::{Events, RpcInstant};

/// The four server-side latency segments, in instant-arg order.
pub const BLAME_SEGMENTS: [&str; 4] = ["net", "queue", "service", "hold"];

/// Blame histogram over requests that exceeded the SLA.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailBlameReport {
    /// The SLA threshold applied (virtual ns, server-observed e2e).
    pub sla: Nanos,
    /// Server-side RPC decomposition instants examined.
    pub total_rpcs: u64,
    /// Requests over the SLA.
    pub slow_rpcs: u64,
    /// Slow requests whose dominant segment was each of
    /// [`BLAME_SEGMENTS`] (ties blame the earlier segment).
    pub blame_counts: [u64; 4],
    /// Per-segment nanoseconds summed over the slow requests.
    pub segment_ns: [Nanos; 4],
}

impl TailBlameReport {
    /// The segment blamed by the most slow requests, if any were slow.
    pub fn dominant(&self) -> Option<&'static str> {
        if self.slow_rpcs == 0 {
            return None;
        }
        let mut best = 0;
        for (i, c) in self.blame_counts.iter().enumerate() {
            if *c > self.blame_counts[best] {
                best = i;
            }
        }
        Some(BLAME_SEGMENTS[best])
    }
}

/// Aggregates the per-RPC decomposition instants in `events` into a
/// blame histogram for requests whose server-observed end-to-end time
/// exceeded `sla`.
pub fn tail_blame(events: Events<'_>, sla: Nanos) -> TailBlameReport {
    let mut report = TailBlameReport {
        sla,
        ..TailBlameReport::default()
    };
    for ev in events {
        // Server-side decomposition instants carry the four segments;
        // client-side `rpc-client` instants don't decode.
        let Some(RpcInstant {
            sent_at: sent,
            resp_sent: resp,
            net_in: net,
            queue,
            service,
            hold,
            ..
        }) = RpcInstant::decode(ev)
        else {
            continue;
        };
        report.total_rpcs += 1;
        if resp.saturating_sub(sent) <= sla {
            continue;
        }
        report.slow_rpcs += 1;
        let segments = [net, queue, service, hold];
        let mut dominant = 0;
        for (i, seg) in segments.iter().enumerate() {
            if *seg > segments[dominant] {
                dominant = i;
            }
        }
        report.blame_counts[dominant] += 1;
        for (total, seg) in report.segment_ns.iter_mut().zip(segments.iter()) {
            *total += *seg;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_trace::{schema, Tracer};

    fn rpc_instant(t: &Tracer, sent: Nanos, [net, queue, service, hold]: [Nanos; 4]) {
        let resp = sent + net + queue + service + hold;
        let service_end = resp - hold;
        let vals = [
            9,
            1,
            sent,
            sent + net,
            sent + net + queue,
            service_end,
            resp,
            net,
            0,
            queue,
            service,
            hold,
        ];
        let keys = &schema::RPC[..schema::RPC_UNTRACED_LEN];
        t.instant("rpc", "rpc", 1, 0, resp, keys, &vals);
    }

    #[test]
    fn slow_requests_blame_their_dominant_segment() {
        let t = Tracer::armed();
        rpc_instant(&t, 0, [1, 1, 1, 0]); // fast: ignored
        rpc_instant(&t, 10, [2, 50, 10, 0]); // slow: queue
        rpc_instant(&t, 20, [2, 5, 10, 100]); // slow: hold
        rpc_instant(&t, 30, [2, 90, 10, 0]); // slow: queue

        // A client attempt instant is not a decomposition instant.
        let client = [1, 0, 5, 5, 7, 1, 0];
        t.instant("rpc-client", "client", 9, 0, 5, &schema::CLIENT, &client);
        let report = t.with_events(|e| tail_blame(e, 20));
        assert_eq!(report.total_rpcs, 4);
        assert_eq!(report.slow_rpcs, 3);
        assert_eq!(report.blame_counts, [0, 2, 0, 1]);
        assert_eq!(report.segment_ns, [6, 145, 30, 100]);
        assert_eq!(report.dominant(), Some("queue"));
    }

    #[test]
    fn no_slow_requests_means_no_blame() {
        let t = Tracer::armed();
        rpc_instant(&t, 0, [1, 1, 1, 0]);
        let report = t.with_events(|e| tail_blame(e, 1000));
        assert_eq!(report.slow_rpcs, 0);
        assert_eq!(report.dominant(), None);
    }
}
