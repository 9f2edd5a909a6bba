//! The bulk loader's record batch.

use rocksteady_common::KeyHash;
use rocksteady_hashtable::BucketOrder;
use rocksteady_logstore::LogRef;

/// A batch of records for [`MasterService::load_batch`]: keys packed end
/// to end with their hashes, plus the log refs and bucket sort the load
/// fills in. [`MasterService::load_batch`] empties it but keeps every
/// buffer, so a loader that reuses one batch allocates only while the
/// batch grows to its largest size.
///
/// [`MasterService::load_batch`]: crate::MasterService::load_batch
#[derive(Debug, Default)]
pub struct LoadBatch {
    pub(crate) keys: PackedKeys,
    pub(crate) hashes: Vec<KeyHash>,
    pub(crate) refs: Vec<LogRef>,
    pub(crate) order: BucketOrder,
}

/// Variable-length keys stored end to end.
#[derive(Debug, Default)]
pub(crate) struct PackedKeys {
    bytes: Vec<u8>,
    /// End offset in `bytes` of each key.
    ends: Vec<usize>,
}

impl PackedKeys {
    /// Key `i`.
    pub(crate) fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

impl LoadBatch {
    /// An empty batch.
    pub fn new() -> Self {
        LoadBatch::default()
    }

    /// Queues one record: its key and the key's hash.
    pub fn push(&mut self, hash: KeyHash, key: &[u8]) {
        self.keys.bytes.extend_from_slice(key);
        self.keys.ends.push(self.keys.bytes.len());
        self.hashes.push(hash);
    }

    /// Records queued.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether no record is queued.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Forgets every record, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.keys.bytes.clear();
        self.keys.ends.clear();
        self.hashes.clear();
        self.refs.clear();
    }
}
