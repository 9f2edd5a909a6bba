//! The bulk loader against the per-record loader it replaced.
//!
//! `Cluster::load_table` appends each owner's records in rank order
//! through one batched log append per chunk and indexes them in bucket
//! order. It must leave exactly the state that one
//! `MasterService::load_object_hashed` per rank, in rank order, leaves:
//! the same segment bytes, log statistics, hash-table size, versions, and
//! the same full-range gather order (which reads out the bucket slot
//! order). Each case builds two identical clusters, loads one each way,
//! and compares every master.

use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig};
use rocksteady_common::{key_hash, HashRange, ScanCursor, ServerId, TableId};
use rocksteady_master::Work;
use rocksteady_workload::core::primary_key;

const TABLE: TableId = TableId(1);
const KEY_LEN: usize = 30;
const VALUE_LEN: usize = 20;

fn cluster(servers: usize, hash_buckets: usize, tablets: &[(HashRange, ServerId)]) -> Cluster {
    let mut c = ClusterBuilder::new(ClusterConfig {
        servers,
        workers: 2,
        replicas: 0,
        // Small segments: the loads roll the head many times.
        segment_bytes: 1 << 16,
        hash_buckets,
        ..ClusterConfig::default()
    })
    .build();
    c.create_table(TABLE, tablets);
    c
}

/// The loader `load_table` replaced: one `load_object_hashed` per rank,
/// in rank order, each on the key's owner.
fn load_one_by_one(c: &mut Cluster, num_keys: u64) {
    let map = c.coord.borrow().tablet_map();
    let value = vec![0xcdu8; VALUE_LEN];
    for rank in 0..num_keys {
        let key = primary_key(rank, KEY_LEN);
        let hash = key_hash(&key);
        let owner = map
            .iter()
            .find(|t| t.covers(TABLE, hash))
            .expect("key covered")
            .owner;
        c.node(owner)
            .master
            .load_object_hashed(TABLE, hash, &key, &value);
    }
}

/// Asserts both clusters hold byte-identical log and hash-table state on
/// each of `servers` masters; returns the records each master indexes.
fn assert_same_state(bulk: &mut Cluster, reference: &mut Cluster, servers: u32) -> Vec<usize> {
    let mut sizes = Vec::new();
    for s in 0..servers {
        let id = ServerId(s);
        let a = &bulk.node(id).master;
        let b = &reference.node(id).master;
        let images = |m: &rocksteady_master::MasterService| {
            m.log
                .segments_snapshot()
                .iter()
                .map(|seg| (seg.id(), seg.is_closed(), seg.committed_bytes().to_vec()))
                .collect::<Vec<_>>()
        };
        assert!(images(a) == images(b), "server {s}: segment bytes differ");
        assert_eq!(a.log.stats(), b.log.stats(), "server {s}: LogStats");
        assert_eq!(a.log.position(), b.log.position(), "server {s}: position");
        assert_eq!(a.hashtable.len(), b.hashtable.len(), "server {s}: len");
        assert_eq!(a.version_ceiling(), b.version_ceiling(), "server {s}");
        let gather = |m: &rocksteady_master::MasterService| {
            let mut all = Vec::new();
            let mut cursor = Some(ScanCursor::default());
            while let Some(c) = cursor {
                let (records, next) =
                    m.gather_range(TABLE, HashRange::full(), c, 64 * 1024, &mut Work::default());
                all.extend(records);
                cursor = next;
            }
            all
        };
        let order = gather(a);
        assert!(order == gather(b), "server {s}: gather order differs");
        assert_eq!(order.len(), a.hashtable.len());
        sizes.push(a.hashtable.len());
    }
    sizes
}

/// 20 k records in 64 buckets (about 300 a bucket): nearly every insert
/// lands in an overflow chain, as in the YCSB rigs' 300 k keys in 16 k
/// buckets but more so.
#[test]
fn undersized_table_with_overflow_chains_is_byte_identical() {
    let tablets = [(HashRange::full(), ServerId(0))];
    let mut bulk = cluster(1, 64, &tablets);
    let mut reference = cluster(1, 64, &tablets);
    bulk.load_table(TABLE, 20_000, KEY_LEN, VALUE_LEN);
    load_one_by_one(&mut reference, 20_000);
    assert_eq!(
        assert_same_state(&mut bulk, &mut reference, 1),
        vec![20_000]
    );
}

/// Loading ranks twice replaces every key of the first load, so each
/// replacement's dead bytes must be accounted exactly as one by one. The
/// second load crosses a loader chunk boundary (2¹⁸ ranks).
#[test]
fn reloading_a_rank_range_retires_the_replaced_entries_identically() {
    let tablets = [(HashRange::full(), ServerId(0))];
    let mut bulk = cluster(1, 1 << 16, &tablets);
    let mut reference = cluster(1, 1 << 16, &tablets);
    for keys in [30_000, 270_000] {
        bulk.load_table(TABLE, keys, KEY_LEN, VALUE_LEN);
        load_one_by_one(&mut reference, keys);
    }
    assert_eq!(
        assert_same_state(&mut bulk, &mut reference, 1),
        vec![270_000]
    );
    let stats = bulk.node(ServerId(0)).master.log.stats();
    assert!(
        stats.live_bytes < stats.committed_bytes,
        "replacements died"
    );
}

/// Three tablets over two owners: each chunk is routed, and each owner
/// gets its own ranks in rank order.
#[test]
fn multi_tablet_map_over_two_owners_is_byte_identical() {
    let thirds = HashRange::full().split(3);
    let tablets = [
        (thirds[0], ServerId(0)),
        (thirds[1], ServerId(1)),
        (thirds[2], ServerId(0)),
    ];
    let mut bulk = cluster(2, 1 << 12, &tablets);
    let mut reference = cluster(2, 1 << 12, &tablets);
    bulk.load_table(TABLE, 40_000, KEY_LEN, VALUE_LEN);
    load_one_by_one(&mut reference, 40_000);
    let sizes = assert_same_state(&mut bulk, &mut reference, 2);
    assert_eq!(sizes.iter().sum::<usize>(), 40_000);
    assert!(
        sizes.iter().all(|&n| n > 10_000),
        "both owners loaded: {sizes:?}"
    );
}
