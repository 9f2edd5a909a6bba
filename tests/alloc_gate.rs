//! Allocation-count gate for the migration hot path, traced RPCs and the
//! bulk loader.
//!
//! The gather (Pull source) and replay (Pull target) paths were made
//! slab/arena-backed: gathered keys and values alias the log's segments
//! as refcounted slices, and replay bump-appends into segments without
//! per-record heap boxes. Trace events keep their argument values in one
//! arena per buffer, keyed by a static schema, so recording a traced RPC
//! copies a stack array and allocates nothing. The bulk loader reuses
//! its chunk buffers. This gate pins these properties with a counting
//! global allocator: if a change reintroduces a per-record or per-event
//! allocation, the rate regresses past the floor and a test fails.
//! (`ci.sh` runs it as part of the tier-1 suite.)
//!
//! Allocations are counted per thread, so tests running in parallel do
//! not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rocksteady_cluster::{ClusterBuilder, ClusterConfig};
use rocksteady_common::{key_hash, HashRange, ScanCursor, ServerId, TableId};
use rocksteady_logstore::LogConfig;
use rocksteady_master::{MasterConfig, MasterService, ReplayDest, TabletRole, Work};
use rocksteady_trace::{lanes, schema, Tracer};
use rocksteady_workload::core::primary_key;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while a thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const T: TableId = TableId(1);
const RECORDS: u64 = 10_000;

fn loaded_master() -> MasterService {
    let mut m = MasterService::new(MasterConfig {
        log: LogConfig {
            segment_bytes: 1 << 20,
            max_segments: None,
        },
        hash_buckets: (RECORDS as usize / 4).next_power_of_two(),
        hash_stripes: 64,
        ..MasterConfig::default()
    });
    m.add_tablet(T, HashRange::full(), TabletRole::Owner);
    let value = [0xabu8; 100];
    for rank in 0..RECORDS {
        let key = primary_key(rank, 30);
        m.load_object_hashed(T, key_hash(&key), &key, &value);
    }
    m
}

#[test]
fn gather_and_replay_stay_allocation_free_per_record() {
    let source = loaded_master();
    let mut target = MasterService::new(MasterConfig {
        log: LogConfig {
            segment_bytes: 1 << 20,
            max_segments: None,
        },
        hash_buckets: (RECORDS as usize / 4).next_power_of_two(),
        hash_stripes: 64,
        ..MasterConfig::default()
    });
    target.add_tablet(T, HashRange::full(), TabletRole::Owner);
    let mut work = Work::default();

    // Gather the whole table in Pull-sized batches, counting allocations.
    // Everything gathered aliases the log (zero-copy slices); the only
    // allowed allocations are batch-level: the records Vec's growth
    // doublings and one window handle per touched segment.
    let mut batches: Vec<Vec<rocksteady_proto::Record>> = Vec::new();
    let mut cursor = Some(ScanCursor::default());
    let before = allocs();
    while let Some(c) = cursor {
        let (recs, next) = source.gather_range(T, HashRange::full(), c, 64 * 1024, &mut work);
        if !recs.is_empty() {
            batches.push(recs);
        }
        cursor = next;
    }
    let gather_allocs = allocs() - before;
    let gathered: u64 = batches.iter().map(|b| b.len() as u64).sum();
    assert_eq!(gathered, RECORDS, "gather must visit every record");
    // Floor: strictly sub-per-record. Batch Vec growth across ~25
    // doublings per 64 KB batch plus segment windows lands well under
    // 0.05 allocations per record; 0.10 leaves headroom without letting
    // a true per-record allocation (1.0/record) sneak in.
    assert!(
        (gather_allocs as f64) < 0.10 * RECORDS as f64,
        "gather allocation regression: {gather_allocs} allocs for {RECORDS} records"
    );

    // Replay the gathered batches into the target, counting allocations.
    // Appends bump into open segments; allocations are per-segment (new
    // segment buffers) and per-bucket (rare overflow pushes), not
    // per-record.
    let before = allocs();
    let mut applied = 0;
    for batch in &batches {
        applied += target.replay_batch(batch, ReplayDest::MainLog, &mut work);
    }
    let replay_allocs = allocs() - before;
    assert_eq!(applied, RECORDS as usize, "replay must apply every record");
    assert!(
        (replay_allocs as f64) < 0.10 * RECORDS as f64,
        "replay allocation regression: {replay_allocs} allocs for {RECORDS} records"
    );
}

/// Records `rpcs` traced RPCs the way the server and client actors do:
/// the server's 14-value decomposition instant and the flow end closing
/// the requester's arrow, then the client's `rpc-client` attempt instant.
fn record_traced_rpcs(t: &Tracer, rpcs: u64) {
    for i in 0..rpcs {
        let (sent, trace) = (1_000 * i, (1 << 40) | i);
        let resp = sent + 400;
        let server = [
            9,
            i,
            sent,
            sent + 100,
            sent + 150,
            sent + 350,
            resp,
            100,
            20,
            50,
            200,
            50,
            trace,
            1,
        ];
        t.instant("read", "rpc", 1, lanes::RPC, resp, &schema::RPC, &server);
        t.flow(
            "rpc-flow",
            "flow",
            1,
            lanes::RPC,
            resp,
            false,
            trace ^ i,
            &schema::FLOW,
            &[trace],
        );
        let done = resp + 100;
        let client = [i, sent, done, done - sent, trace, 1, 0];
        t.instant("rpc-client", "client", 9, 0, done, &schema::CLIENT, &client);
    }
}

#[test]
fn traced_rpc_recording_allocates_nothing_amortized() {
    const RPCS: u64 = 20_000;
    let events = 3 * RPCS;

    // Unbounded buffer: the only allocations are the event vector's and
    // the value arena's growth doublings (a few dozen for 60 k events).
    let t = Tracer::armed();
    let before = allocs();
    record_traced_rpcs(&t, RPCS);
    let unbounded = allocs() - before;
    assert_eq!(t.len() as u64, events, "every traced event recorded");
    assert!(
        (unbounded as f64) <= 0.01 * events as f64,
        "traced RPC allocation regression: {unbounded} allocs for {events} events"
    );

    // Ring mode: compaction drains events and values in place, so once
    // the ring has filled, recording allocates nothing at all.
    let ring = Tracer::with_capacity(4_096);
    record_traced_rpcs(&ring, RPCS / 4);
    let before = allocs();
    record_traced_rpcs(&ring, RPCS);
    let wrapped = allocs() - before;
    assert!(ring.dropped() > 0, "ring never wrapped");
    assert_eq!(wrapped, 0, "ring-mode recording allocated {wrapped} times");
}

#[test]
fn bulk_load_reuses_its_chunk_buffers() {
    const LOADED: u64 = 100_000;
    // Buckets enough that overflow chains (one allocation each) stay
    // rare: what is counted is the loader, not the table's collisions.
    let mut cluster = ClusterBuilder::new(ClusterConfig {
        servers: 1,
        replicas: 0,
        segment_bytes: 1 << 20,
        hash_buckets: 1 << 16,
        ..ClusterConfig::default()
    })
    .build();
    cluster.create_table(T, &[(HashRange::full(), ServerId(0))]);
    // Allowed: the chunk buffers' growth doublings and one allocation
    // set per 1 MB segment (17 for 16.5 MB of records) — about 110 in
    // all. A per-record allocation would cost 10^5.
    let before = allocs();
    cluster.load_table(T, LOADED, 30, 100);
    let loaded = allocs() - before;
    assert_eq!(
        cluster.node(ServerId(0)).master.hashtable.len(),
        LOADED as usize
    );
    assert!(
        (loaded as f64) < 0.01 * LOADED as f64,
        "bulk-load allocation regression: {loaded} allocs for {LOADED} records"
    );
}
