//! Golden export test: the chrome-trace and journeys formatters must
//! reproduce, byte for byte, the output the original `to_string`/`format!`
//! formatters produced for the same events. The determinism digests
//! elsewhere only compare two runs of one build, so they cannot catch a
//! formatter change; these literals can (a truncated fraction digit or a
//! dropped separator yields an export of plausible length but wrong
//! bytes).

use rocksteady_trace::journey::{self, status, Hop, Journey};
use rocksteady_trace::{lanes, schema, Tracer};

/// A span, instants (with and without args), a counter, a flow start and
/// end, `ts` fractions of 0, 7 and 999 ns, and `u64::MAX` everywhere an
/// integer is printed.
fn golden_tracer() -> Tracer {
    let t = Tracer::armed();
    t.instant("zero", "m", 0, 0, 0, &["a"], &[0]);
    t.span(
        "svc",
        "worker",
        3,
        1,
        1_000,
        2_007,
        &["bytes", "n"],
        &[u64::MAX, 10],
    );
    t.instant("done", "rpc", 3, 0, 3_999, &[], &[]);
    t.counter("retries", 3, 4_000, u64::MAX);
    t.flow(
        "rpc-flow",
        "flow",
        7,
        0,
        5_007,
        true,
        u64::MAX,
        &schema::CLIENT_FLOW,
        &[42, 1],
    );
    t.flow(
        "rpc-flow",
        "flow",
        3,
        0,
        6_999,
        false,
        0xbeef,
        &schema::FLOW,
        &[42],
    );
    t.span(
        "edge",
        "m",
        u64::MAX,
        u64::MAX,
        u64::MAX - 5_000,
        999,
        &[],
        &[],
    );
    t
}

const CHROME: &str = "{\"traceEvents\":[{\"name\":\"zero\",\"cat\":\"m\",\"ph\":\"i\",\"ts\":0.000,\"s\":\"t\",\"pid\":0,\"tid\":0,\"args\":{\"a\":0}},{\"name\":\"svc\",\"cat\":\"worker\",\"ph\":\"X\",\"ts\":1.000,\"dur\":2.007,\"pid\":3,\"tid\":1,\"args\":{\"bytes\":18446744073709551615,\"n\":10}},{\"name\":\"done\",\"cat\":\"rpc\",\"ph\":\"i\",\"ts\":3.999,\"s\":\"t\",\"pid\":3,\"tid\":0},{\"name\":\"retries\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":4.000,\"pid\":3,\"tid\":0,\"args\":{\"value\":18446744073709551615}},{\"name\":\"rpc-flow\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":5.007,\"id\":18446744073709551615,\"pid\":7,\"tid\":0,\"args\":{\"flow\":18446744073709551615,\"trace\":42,\"attempt\":1}},{\"name\":\"rpc-flow\",\"cat\":\"flow\",\"ph\":\"f\",\"ts\":6.999,\"id\":48879,\"bp\":\"e\",\"pid\":3,\"tid\":0,\"args\":{\"flow\":48879,\"trace\":42}},{\"name\":\"edge\",\"cat\":\"m\",\"ph\":\"X\",\"ts\":18446744073709546.615,\"dur\":0.999,\"pid\":18446744073709551615,\"tid\":18446744073709551615}],\"displayTimeUnit\":\"ms\"}";

const CHROME_SINCE: &str = "{\"traceEvents\":[{\"name\":\"rpc-flow\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":5.007,\"id\":18446744073709551615,\"pid\":7,\"tid\":0,\"args\":{\"flow\":18446744073709551615,\"trace\":42,\"attempt\":1}},{\"name\":\"rpc-flow\",\"cat\":\"flow\",\"ph\":\"f\",\"ts\":6.999,\"id\":48879,\"bp\":\"e\",\"pid\":3,\"tid\":0,\"args\":{\"flow\":48879,\"trace\":42}},{\"name\":\"edge\",\"cat\":\"m\",\"ph\":\"X\",\"ts\":18446744073709546.615,\"dur\":0.999,\"pid\":18446744073709551615,\"tid\":18446744073709551615}],\"displayTimeUnit\":\"ms\"}";

#[test]
fn chrome_export_matches_the_original_formatter() {
    let t = golden_tracer();
    assert_eq!(t.export_chrome_json(), CHROME);
    assert_eq!(t.export_chrome_json_since(5_007), CHROME_SINCE);
}

fn hop(attempt: u64, on_path: bool, st: u64, v: u64) -> Hop {
    Hop {
        attempt,
        server: v,
        name: "read",
        rpc: v,
        depth: v,
        sent_at: v,
        resp_sent: v,
        net_in: v,
        queue: v,
        service: v,
        hold: v,
        net_out: v,
        gap_before: v,
        status: st,
        on_path,
    }
}

const JOURNEYS: &str = "{\"schema\":\"rocksteady-journeys-v1\",\"dropped\":18446744073709551615,\"journeys\":[{\"trace\":18446744073709551615,\"client\":0,\"issued\":0,\"completed\":18446744073709551615,\"e2e\":18446744073709551615,\"attempts\":2,\"final_status\":0,\"truncated\":0,\"telescoped\":1,\"crossed\":1,\"hops_n\":3,\"chain\":\"read@18446744073709551615:stale-map -> priority-pull@7 -> read@1000:ok\",\"hops\":[{\"attempt\":1,\"server\":18446744073709551615,\"name\":\"read\",\"rpc\":18446744073709551615,\"depth\":18446744073709551615,\"sent_at\":18446744073709551615,\"resp_sent\":18446744073709551615,\"net_in\":18446744073709551615,\"queue\":18446744073709551615,\"service\":18446744073709551615,\"hold\":18446744073709551615,\"net_out\":18446744073709551615,\"gap_before\":18446744073709551615,\"status\":2,\"on_path\":1},{\"attempt\":0,\"server\":7,\"name\":\"priority-pull\",\"rpc\":7,\"depth\":7,\"sent_at\":7,\"resp_sent\":7,\"net_in\":7,\"queue\":7,\"service\":7,\"hold\":7,\"net_out\":7,\"gap_before\":7,\"status\":0,\"on_path\":0},{\"attempt\":2,\"server\":1000,\"name\":\"read\",\"rpc\":1000,\"depth\":1000,\"sent_at\":1000,\"resp_sent\":1000,\"net_in\":1000,\"queue\":1000,\"service\":1000,\"hold\":1000,\"net_out\":1000,\"gap_before\":1000,\"status\":0,\"on_path\":1}]},{\"trace\":5,\"client\":9,\"issued\":10,\"completed\":10,\"e2e\":0,\"attempts\":0,\"final_status\":4,\"truncated\":1,\"telescoped\":0,\"crossed\":0,\"hops_n\":0,\"chain\":\"\",\"hops\":[]}]}";

#[test]
fn journeys_export_matches_the_original_formatter() {
    let journeys = vec![
        Journey {
            trace: u64::MAX,
            client: 0,
            issued: 0,
            completed: u64::MAX,
            e2e: u64::MAX,
            attempts: 2,
            final_status: status::OK,
            truncated: false,
            telescoped: true,
            hops: vec![
                hop(1, true, status::STALE_MAP, u64::MAX),
                Hop {
                    name: "priority-pull",
                    ..hop(0, false, status::OK, 7)
                },
                hop(2, true, status::OK, 1_000),
            ],
        },
        Journey {
            trace: 5,
            client: 9,
            issued: 10,
            completed: 10,
            e2e: 0,
            attempts: 0,
            final_status: status::OTHER,
            truncated: true,
            telescoped: false,
            hops: vec![],
        },
    ];
    assert_eq!(journey::export_json(&journeys, u64::MAX), JOURNEYS);
    assert_eq!(
        journey::export_json(&[], 0),
        "{\"schema\":\"rocksteady-journeys-v1\",\"dropped\":0,\"journeys\":[]}"
    );
}

/// Records the canonical migration-crossing read: three attempts (stale
/// map at the source, retry at the target, served) plus the off-path
/// PriorityPull the target issued on its behalf.
fn crossing() -> Tracer {
    let t = Tracer::armed();
    let server = |pid, name, rpc, sent: u64, [net_in, queue, service, hold]: [u64; 4]| {
        let resp = sent + net_in + queue + service + hold;
        let vals = [
            9,
            rpc,
            sent,
            sent + net_in,
            sent + net_in + queue,
            sent + net_in + queue + service,
            resp,
            net_in,
            0,
            queue,
            service,
            hold,
            42,
            1,
        ];
        t.instant(name, "rpc", pid, lanes::RPC, resp, &schema::RPC, &vals);
    };
    let client = |attempt, rpc, issued: u64, completed: u64, st| {
        let vals = [rpc, issued, completed, completed - issued, 42, attempt, st];
        t.instant(
            "rpc-client",
            "client",
            9,
            0,
            completed,
            &schema::CLIENT,
            &vals,
        );
    };
    server(1, "read", 100, 1_000, [10, 5, 20, 0]);
    client(1, 100, 1_000, 1_045, status::STALE_MAP);
    server(2, "read", 101, 1_100, [10, 8, 25, 0]);
    client(2, 101, 1_100, 1_153, status::RETRY);
    server(1, "priority-pull", 300, 1_150, [10, 2, 30, 0]);
    server(2, "read", 102, 1_400, [10, 4, 22, 0]);
    client(3, 102, 1_400, 1_446, status::OK);
    t
}

const RECONSTRUCTED: &str = "{\"schema\":\"rocksteady-journeys-v1\",\"dropped\":0,\"journeys\":[{\"trace\":42,\"client\":9,\"issued\":1000,\"completed\":1446,\"e2e\":446,\"attempts\":3,\"final_status\":0,\"truncated\":0,\"telescoped\":1,\"crossed\":1,\"hops_n\":4,\"chain\":\"read@1:stale-map -> read@2:retry -> priority-pull@1 -> read@2:ok\",\"hops\":[{\"attempt\":1,\"server\":1,\"name\":\"read\",\"rpc\":100,\"depth\":1,\"sent_at\":1000,\"resp_sent\":1035,\"net_in\":10,\"queue\":5,\"service\":20,\"hold\":0,\"net_out\":10,\"gap_before\":0,\"status\":2,\"on_path\":1},{\"attempt\":2,\"server\":2,\"name\":\"read\",\"rpc\":101,\"depth\":1,\"sent_at\":1100,\"resp_sent\":1143,\"net_in\":10,\"queue\":8,\"service\":25,\"hold\":0,\"net_out\":10,\"gap_before\":55,\"status\":1,\"on_path\":1},{\"attempt\":0,\"server\":1,\"name\":\"priority-pull\",\"rpc\":300,\"depth\":1,\"sent_at\":1150,\"resp_sent\":1192,\"net_in\":10,\"queue\":2,\"service\":30,\"hold\":0,\"net_out\":0,\"gap_before\":0,\"status\":0,\"on_path\":0},{\"attempt\":3,\"server\":2,\"name\":\"read\",\"rpc\":102,\"depth\":1,\"sent_at\":1400,\"resp_sent\":1436,\"net_in\":10,\"queue\":4,\"service\":22,\"hold\":0,\"net_out\":10,\"gap_before\":247,\"status\":0,\"on_path\":1}]}]}";

const RECONSTRUCTED_TRUNCATED: &str = "{\"schema\":\"rocksteady-journeys-v1\",\"dropped\":3,\"journeys\":[{\"trace\":42,\"client\":9,\"issued\":1100,\"completed\":1446,\"e2e\":346,\"attempts\":2,\"final_status\":0,\"truncated\":1,\"telescoped\":0,\"crossed\":1,\"hops_n\":2,\"chain\":\"priority-pull@1 -> read@2:ok\",\"hops\":[{\"attempt\":0,\"server\":1,\"name\":\"priority-pull\",\"rpc\":300,\"depth\":1,\"sent_at\":1150,\"resp_sent\":1192,\"net_in\":10,\"queue\":2,\"service\":30,\"hold\":0,\"net_out\":0,\"gap_before\":0,\"status\":0,\"on_path\":0},{\"attempt\":3,\"server\":2,\"name\":\"read\",\"rpc\":102,\"depth\":1,\"sent_at\":1400,\"resp_sent\":1436,\"net_in\":10,\"queue\":4,\"service\":22,\"hold\":0,\"net_out\":10,\"gap_before\":247,\"status\":0,\"on_path\":1}]}]}";

#[test]
fn reconstructed_journeys_match_the_original_exports() {
    let t = crossing();
    let all = t.with_events(journey::reconstruct);
    assert_eq!(journey::export_json(&all, 0), RECONSTRUCTED);
    // The first three events evicted: attempt 1 and attempt 2's server
    // instant are gone.
    let tail = t.with_events(|e| journey::reconstruct(e.since(1_150)));
    assert_eq!(journey::export_json(&tail, 3), RECONSTRUCTED_TRUNCATED);
    // `find` filters to one trace and stitches the same journey.
    let one = t.with_events(|e| journey::find(e, 42)).expect("trace 42");
    assert_eq!(journey::export_json([&one], 0), RECONSTRUCTED);
}
