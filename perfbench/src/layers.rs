//! Host cost of single layers, measured by calling each crate's public
//! functions directly with the workload's own keys and values.
//!
//! Calls are timed in batches of [`BATCH`]: one span per batch keeps the
//! recorder's own cost (two clock reads) out of sub-microsecond calls.

use std::hint::black_box;
use std::sync::Arc;

use rocksteady::MigrationConfig;
use rocksteady_common::rng::Prng;
use rocksteady_common::zipf::KeySampler;
use rocksteady_common::{key_hash, HashRange, KeyHash, ScanCursor, ServerId};
use rocksteady_hashtable::HashTable;
use rocksteady_logstore::crc::crc32c;
use rocksteady_logstore::{EntryKind, Log, LogConfig, LogRef, SideLog};
use rocksteady_master::{MasterConfig, MasterService, ReplayDest, TabletRole, Work};
use rocksteady_proto::Record;
use rocksteady_workload::core::write_primary_key;

use crate::rig::{mix, Spec, KEY_LEN, TABLE};
use crate::spans::Spans;

const BATCH: usize = 1024;
/// Records the single-layer probes load; enough to leave every cache.
const PROBE_RECORDS: u64 = 200_000;
/// Operations per probe.
const PROBE_OPS: usize = 100_000;

/// Host cost per call, in nanoseconds, plus deterministic work counts.
#[derive(Debug, Default)]
pub struct LayerCosts {
    pub load_ns: f64,
    pub read_ns: f64,
    pub write_ns: f64,
    pub gather_ns_per_record: f64,
    pub replay_ns_per_record: f64,
    pub lookup_ns: f64,
    pub upsert_ns: f64,
    pub probes_per_op: f64,
    pub append_ns: f64,
    pub crc32c_ns_per_kb: f64,
    pub copied_bytes_per_record: f64,
    pub checksummed_bytes_per_record: f64,
    pub sample_ns: f64,
}

/// Runs `n` calls of `f` in spans of [`BATCH`] calls; returns ns per call.
fn per_call(spans: &Spans, name: &'static str, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = std::time::Instant::now();
    let mut i = 0;
    while i < n {
        let end = (i + BATCH).min(n);
        spans.time(name, || {
            for j in i..end {
                f(j);
            }
        });
        i = end;
    }
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn keys(records: u64) -> Vec<(Vec<u8>, KeyHash)> {
    let mut buf = Vec::with_capacity(KEY_LEN);
    (0..records)
        .map(|rank| {
            write_primary_key(rank, KEY_LEN, &mut buf);
            (buf.clone(), key_hash(&buf))
        })
        .collect()
}

fn master(spec: &Spec, id: u32) -> MasterService {
    let mut m = MasterService::new(MasterConfig {
        id: ServerId(id),
        log: LogConfig {
            segment_bytes: spec.cluster.segment_bytes,
            max_segments: None,
        },
        hash_buckets: spec.cluster.hash_buckets,
        hash_stripes: 256,
    });
    m.add_tablet(TABLE, HashRange::full(), TabletRole::Owner);
    m
}

pub fn measure(spec: &Spec, seed: u64, spans: &Spans) -> LayerCosts {
    let mut c = LayerCosts::default();
    let records = spec.records.min(PROBE_RECORDS);
    let keys = keys(records);
    let client = &spec.clients[0];
    let value = vec![0xcdu8; spec.value_len];
    let written = vec![0xabu8; spec.value_len];
    let sampler = KeySampler::new(records, client.dist, client.scrambled);
    let mut rng = Prng::new(mix(seed, 0x200));
    let ranks: Vec<usize> = (0..PROBE_OPS)
        .map(|_| sampler.sample(&mut rng) as usize)
        .collect();

    // workload: one key-rank sample.
    let mut rng = Prng::new(mix(seed, 0x201));
    c.sample_ns = per_call(spans, "workload.sample", PROBE_OPS, |_| {
        black_box(sampler.sample(&mut rng));
    });

    // master: load, read, write.
    let mut src = master(spec, 0);
    c.load_ns = per_call(spans, "master.load_object_hashed", keys.len(), |i| {
        let (k, h) = &keys[i];
        black_box(src.load_object_hashed(TABLE, *h, k, &value));
    });
    let mut work = Work::default();
    c.read_ns = per_call(spans, "master.read", PROBE_OPS, |i| {
        let (k, h) = &keys[ranks[i]];
        black_box(src.read(TABLE, *h, Some(k), &mut work).ok());
    });
    c.write_ns = per_call(spans, "master.write", PROBE_OPS, |i| {
        let (k, h) = &keys[ranks[i]];
        black_box(src.write(TABLE, *h, k, &written, &mut work).ok());
    });

    // master: gather the upper half the way bulk Pulls do, then replay
    // it into a fresh master's side log the way the target does.
    let upper = HashRange {
        start: u64::MAX / 2 + 1,
        end: u64::MAX,
    };
    let budget = MigrationConfig::default().pull_budget_bytes as u64;
    let mut batches: Vec<Vec<Record>> = Vec::new();
    let mut cursor = Some(ScanCursor::default());
    let t0 = std::time::Instant::now();
    while let Some(cur) = cursor {
        let (recs, next) = spans.time("master.gather_range", || {
            src.gather_range(TABLE, upper, cur, budget, &mut work)
        });
        batches.push(recs);
        cursor = next;
    }
    let gathered: usize = batches.iter().map(Vec::len).sum();
    c.gather_ns_per_record = t0.elapsed().as_nanos() as f64 / gathered.max(1) as f64;
    let mut dst = master(spec, 1);
    let side = SideLog::new(Arc::clone(&dst.log));
    let mut replay_work = Work::default();
    let t0 = std::time::Instant::now();
    let mut applied = 0usize;
    for recs in &batches {
        applied += spans.time("master.replay_batch", || {
            dst.replay_batch(recs, ReplayDest::Side(&side), &mut replay_work)
        });
    }
    c.replay_ns_per_record = t0.elapsed().as_nanos() as f64 / gathered.max(1) as f64;
    c.copied_bytes_per_record = replay_work.copied_bytes as f64 / applied.max(1) as f64;
    c.checksummed_bytes_per_record = replay_work.checksummed_bytes as f64 / applied.max(1) as f64;
    // Free both masters before the next probe allocates its own table.
    drop((batches, side, dst, src));

    // hashtable: upsert every key, then look up the sampled ranks.
    let table = HashTable::new(spec.cluster.hash_buckets, 256);
    let mut probes = 0u64;
    c.upsert_ns = per_call(spans, "hashtable.upsert", keys.len(), |i| {
        let r = LogRef {
            segment: i as u64 / 1024,
            offset: (i % 1024) as u32,
        };
        probes += table.upsert(TABLE, keys[i].1, r, |_| true).probes as u64;
    });
    c.lookup_ns = per_call(spans, "hashtable.lookup", PROBE_OPS, |i| {
        probes += black_box(table.lookup(TABLE, keys[ranks[i]].1, |_| true)).probes as u64;
    });
    c.probes_per_op = probes as f64 / (keys.len() + PROBE_OPS) as f64;
    drop(table);

    // logstore: append and checksum.
    let log = Log::new(LogConfig {
        segment_bytes: spec.cluster.segment_bytes,
        max_segments: None,
    });
    c.append_ns = per_call(spans, "logstore.append", keys.len(), |i| {
        let (k, h) = &keys[i];
        black_box(
            log.append(EntryKind::Object, TABLE.0, *h, i as u64 + 1, k, &value)
                .ok(),
        );
    });
    let kb = vec![0x5au8; 1024];
    c.crc32c_ns_per_kb = per_call(spans, "logstore.crc32c", PROBE_OPS, |_| {
        black_box(crc32c(black_box(&kb)));
    });
    c
}
