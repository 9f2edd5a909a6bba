//! Fixed-size append-only log segments.
//!
//! A segment is the unit of everything in RAMCloud's storage design: logs
//! grow by whole segments, backups replicate whole segments, the cleaner
//! reclaims whole segments, and side logs are independent chains of
//! segments (§2.3, §3.1.3).
//!
//! Concurrency contract: appends are serialized internally (one appender
//! at a time — in RAMCloud the log head has a single writer) and become
//! visible to readers through a release-store of the committed length.
//! Readers may run concurrently with an append and only ever observe
//! fully-written entries. Closed segments are immutable forever, which is
//! what lets migration pulls and replication ship references to segment
//! memory without copies (§3.2).

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::entry::{self, EntryKind, EntryView, ParseError};

/// `Bytes` owner exposing a segment's committed prefix.
///
/// The length is captured at construction: `committed` only grows, so the
/// captured prefix is immutable for the owner's whole lifetime, which is
/// what `Bytes` requires of its backing storage.
struct CommittedWindow {
    segment: Arc<Segment>,
    len: usize,
}

impl AsRef<[u8]> for CommittedWindow {
    fn as_ref(&self) -> &[u8] {
        &self.segment.committed_bytes()[..self.len]
    }
}

/// A fixed-capacity, append-only byte region holding serialized entries.
pub struct Segment {
    id: u64,
    base: *mut u8,
    capacity: usize,
    /// Bytes published to readers. Monotonic; stored with `Release` after
    /// the bytes below it are fully written, loaded with `Acquire`.
    committed: AtomicUsize,
    /// Serializes appenders; holds the reservation cursor (== committed
    /// between appends, since appends publish before releasing the lock).
    append_lock: Mutex<()>,
    closed: AtomicBool,
    /// Bytes belonging to entries that are still live (not superseded).
    /// The owning log decrements this as entries die; the cleaner reads
    /// it to pick victims.
    live_bytes: AtomicU64,
    /// Number of entries appended.
    entries: AtomicU64,
}

// SAFETY: the raw buffer is owned exclusively by this Segment (allocated
// in `new`, freed in `drop`, never aliased externally). All mutation goes
// through `append_*`, which serializes writers behind `append_lock` and
// publishes bytes with a release store of `committed`; readers only
// dereference bytes below an acquire-load of `committed`. Therefore
// sending or sharing a Segment across threads cannot produce a data race.
unsafe impl Send for Segment {}
// SAFETY: see the `Send` justification; shared access is race-free by the
// publication protocol above.
unsafe impl Sync for Segment {}

impl Segment {
    /// Allocates a zeroed segment of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or allocation fails.
    pub fn new(id: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity segment");
        let layout = Layout::array::<u8>(capacity).expect("segment layout");
        // SAFETY: `layout` has non-zero size (capacity > 0) and valid
        // alignment for u8.
        let base = unsafe { alloc_zeroed(layout) };
        assert!(!base.is_null(), "segment allocation failed");
        Segment {
            id,
            base,
            capacity,
            committed: AtomicUsize::new(0),
            append_lock: Mutex::new(()),
            closed: AtomicBool::new(false),
            live_bytes: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    /// This segment's id, unique within its owning log.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Total byte capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently published to readers.
    pub fn committed(&self) -> usize {
        self.committed.load(Ordering::Acquire)
    }

    /// Remaining append space, zero once closed.
    pub fn free_space(&self) -> usize {
        if self.is_closed() {
            0
        } else {
            self.capacity - self.committed()
        }
    }

    /// Marks the segment immutable; future appends fail.
    pub fn close(&self) {
        // Take the append lock so a concurrent append either completes
        // (and is published) before the close or observes `closed`.
        let _guard = self.append_lock.lock();
        self.closed.store(true, Ordering::Release);
    }

    /// Whether the segment has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Bytes attributed to live entries (maintained by the owning log).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// Number of entries appended so far.
    pub fn entry_count(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    /// Fraction of committed bytes that are still live, in `[0, 1]`.
    /// The cleaner's victim-selection metric.
    pub fn utilization(&self) -> f64 {
        let committed = self.committed();
        if committed == 0 {
            // An empty open segment is "fully utilized": nothing to clean.
            return 1.0;
        }
        self.live_bytes() as f64 / committed as f64
    }

    /// Declares `bytes` of this segment's entries dead (superseded or
    /// deleted). Saturates at zero.
    pub fn mark_dead(&self, bytes: u64) {
        let mut cur = self.live_bytes.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.live_bytes.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Appends a serialized entry; returns its byte offset, or `None` if
    /// the segment is closed or lacks space.
    #[allow(clippy::too_many_arguments)]
    pub fn append(
        &self,
        kind: EntryKind,
        table_id: u64,
        key_hash: u64,
        version: u64,
        key: &[u8],
        value: &[u8],
    ) -> Option<u32> {
        let len = entry::serialized_len(key.len(), value.len());
        self.append_with(len, |buf| {
            entry::write_entry(buf, kind, table_id, key_hash, version, key, value);
        })
    }

    /// Appends pre-serialized entry bytes verbatim (used when adopting
    /// replicated or recovered entries whose serialized form is already
    /// checksummed). Returns the byte offset.
    pub fn append_raw(&self, bytes: &[u8]) -> Option<u32> {
        self.append_with(bytes.len(), |buf| buf.copy_from_slice(bytes))
    }

    fn append_with(&self, len: usize, fill: impl FnOnce(&mut [u8])) -> Option<u32> {
        let mut fill = Some(fill);
        let mut at = None;
        self.append_run(|offset, free| {
            if len > free.len() {
                return None;
            }
            fill.take()?(&mut free[..len]);
            at = Some(offset);
            Some(len)
        });
        at
    }

    /// Appends a run of entries under one hold of the append lock and
    /// publishes the whole run at once: one release store of `committed`
    /// and one update of each counter, however many entries it holds.
    ///
    /// `next(offset, free)` is handed the segment's unwritten tail and
    /// the offset it starts at; it serializes one entry into the front of
    /// `free` and returns the entry's length, or returns `None` to end
    /// the run (nothing left to append, or the next entry does not fit).
    /// Returns the entries and bytes appended; a closed segment appends
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `next` reports a length beyond the `free` it was given.
    pub(crate) fn append_run(
        &self,
        mut next: impl FnMut(u32, &mut [u8]) -> Option<usize>,
    ) -> (u64, usize) {
        let _guard = self.append_lock.lock();
        if self.closed.load(Ordering::Relaxed) {
            return (0, 0);
        }
        let start = self.committed.load(Ordering::Relaxed);
        // SAFETY: `start..capacity` is within the allocation (`committed`
        // never exceeds `capacity`), no reader dereferences bytes at or
        // above `committed` (== start until the store below), and no
        // other writer exists while we hold `append_lock`; hence this
        // mutable slice is unaliased.
        let free =
            unsafe { std::slice::from_raw_parts_mut(self.base.add(start), self.capacity - start) };
        let mut written = 0;
        let mut entries = 0u64;
        while let Some(len) = next((start + written) as u32, &mut free[written..]) {
            // Publishing past the written bytes would expose unwritten
            // (or out-of-bounds) memory to readers.
            assert!(len <= free.len() - written, "entry overruns the free space");
            written += len;
            entries += 1;
        }
        if entries > 0 {
            self.live_bytes.fetch_add(written as u64, Ordering::Relaxed);
            self.entries.fetch_add(entries, Ordering::Relaxed);
            // Publish: everything below start + written is now fully
            // written.
            self.committed.store(start + written, Ordering::Release);
        }
        (entries, written)
    }

    /// All published bytes, as an immutable slice.
    pub fn committed_bytes(&self) -> &[u8] {
        let len = self.committed();
        // SAFETY: bytes below `committed` (acquire-loaded) were fully
        // written before the corresponding release store and are never
        // mutated again.
        unsafe { std::slice::from_raw_parts(self.base, len) }
    }

    /// All published bytes as ref-counted [`Bytes`] aliasing this
    /// segment's backing buffer — zero-copy.
    ///
    /// The returned `Bytes` (and every window `slice`d out of it) holds
    /// this segment's `Arc`, so the memory stays valid even if the owning
    /// log drops the segment (cleaner relocation, migration teardown)
    /// while slices are still in flight. Slicing is a refcount bump, not
    /// an allocation, so a whole Pull response can alias one window.
    pub fn committed_as_bytes(self: &Arc<Self>) -> Bytes {
        Bytes::from_owner(CommittedWindow {
            segment: Arc::clone(self),
            len: self.committed(),
        })
    }

    /// Parses the entry starting at `offset`.
    ///
    /// Returns the view and its serialized length. Fails with
    /// [`ParseError::Truncated`] if `offset` is at or past the committed
    /// region (there is no entry there yet).
    pub fn entry_at(&self, offset: u32) -> Result<(EntryView<'_>, usize), ParseError> {
        let bytes = self.committed_bytes();
        let offset = offset as usize;
        if offset >= bytes.len() {
            return Err(ParseError::Truncated);
        }
        entry::parse(&bytes[offset..])
    }

    /// Parses the entry at `offset` without re-verifying its checksum
    /// (see [`entry::parse_trusted`]): for reads of a master's own
    /// committed log memory, whose entries were checksummed when
    /// [`Segment::append`] serialized them. Bytes of foreign origin must
    /// go through [`Segment::entry_at`].
    pub fn entry_at_trusted(&self, offset: u32) -> Result<(EntryView<'_>, usize), ParseError> {
        let bytes = self.committed_bytes();
        let offset = offset as usize;
        if offset >= bytes.len() {
            return Err(ParseError::Truncated);
        }
        entry::parse_trusted(&bytes[offset..])
    }

    /// Iterates all committed entries in append order as
    /// `(offset, EntryView)` pairs.
    ///
    /// Used by the baseline migration's log scan (§2.3), the cleaner, and
    /// crash recovery.
    pub fn iter_entries(&self) -> SegmentIter<'_> {
        SegmentIter {
            bytes: self.committed_bytes(),
            offset: 0,
        }
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        let layout = Layout::array::<u8>(self.capacity).expect("segment layout");
        // SAFETY: `base` was allocated in `new` with exactly this layout
        // and is freed exactly once (drop).
        unsafe { dealloc(self.base, layout) };
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("id", &self.id)
            .field("capacity", &self.capacity)
            .field("committed", &self.committed())
            .field("closed", &self.is_closed())
            .field("live_bytes", &self.live_bytes())
            .field("entries", &self.entry_count())
            .finish()
    }
}

/// Iterator over a segment's committed entries.
pub struct SegmentIter<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Iterator for SegmentIter<'a> {
    type Item = (u32, EntryView<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.offset >= self.bytes.len() {
            return None;
        }
        match entry::parse(&self.bytes[self.offset..]) {
            Ok((view, len)) => {
                let at = self.offset as u32;
                self.offset += len;
                Some((at, view))
            }
            // A parse failure means we walked off the end of the valid
            // entries (or hit corruption); either way iteration stops.
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn append_and_read_back() {
        let seg = Segment::new(1, 4096);
        let off = seg
            .append(EntryKind::Object, 1, 0xaa, 1, b"key", b"value")
            .unwrap();
        assert_eq!(off, 0);
        let (view, _) = seg.entry_at(off).unwrap();
        assert_eq!(view.key, b"key");
        assert_eq!(view.value, b"value");
        assert_eq!(seg.entry_count(), 1);
    }

    #[test]
    fn append_until_full() {
        let seg = Segment::new(1, 256);
        let mut appended = 0;
        while seg
            .append(EntryKind::Object, 1, 0, 1, b"k", b"0123456789")
            .is_some()
        {
            appended += 1;
        }
        assert!(appended > 0);
        assert!(seg.free_space() < entry::serialized_len(1, 10));
        // Committed bytes all parse.
        assert_eq!(seg.iter_entries().count(), appended);
    }

    #[test]
    fn closed_segment_rejects_appends() {
        let seg = Segment::new(1, 4096);
        seg.append(EntryKind::Object, 1, 0, 1, b"k", b"v").unwrap();
        seg.close();
        assert!(seg.is_closed());
        assert_eq!(seg.free_space(), 0);
        assert!(seg.append(EntryKind::Object, 1, 0, 2, b"k", b"v").is_none());
        // Existing data still readable.
        assert_eq!(seg.iter_entries().count(), 1);
    }

    #[test]
    fn live_byte_accounting() {
        let seg = Segment::new(1, 4096);
        seg.append(EntryKind::Object, 1, 0, 1, b"k", b"v").unwrap();
        let len = entry::serialized_len(1, 1) as u64;
        assert_eq!(seg.live_bytes(), len);
        assert!((seg.utilization() - 1.0).abs() < 1e-12);
        seg.mark_dead(len);
        assert_eq!(seg.live_bytes(), 0);
        assert_eq!(seg.utilization(), 0.0);
        // Saturates rather than underflowing.
        seg.mark_dead(1_000_000);
        assert_eq!(seg.live_bytes(), 0);
    }

    #[test]
    fn empty_open_segment_reports_full_utilization() {
        let seg = Segment::new(1, 128);
        assert_eq!(seg.utilization(), 1.0);
    }

    #[test]
    fn entry_at_bad_offset() {
        let seg = Segment::new(1, 4096);
        assert!(seg.entry_at(0).is_err());
        seg.append(EntryKind::Object, 1, 0, 1, b"k", b"v").unwrap();
        assert!(seg.entry_at(3).is_err()); // mid-entry: checksum fails
        assert!(seg.entry_at(10_000).is_err());
    }

    #[test]
    fn iterates_in_append_order() {
        let seg = Segment::new(1, 4096);
        for i in 0..10u64 {
            seg.append(EntryKind::Object, 1, i, i, &i.to_le_bytes(), b"v")
                .unwrap();
        }
        let hashes: Vec<u64> = seg.iter_entries().map(|(_, v)| v.key_hash).collect();
        assert_eq!(hashes, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn append_raw_roundtrip() {
        let src = Segment::new(1, 4096);
        src.append(EntryKind::Object, 3, 5, 7, b"kk", b"vv")
            .unwrap();
        let dst = Segment::new(2, 4096);
        dst.append_raw(src.committed_bytes()).unwrap();
        let (view, _) = dst.entry_at(0).unwrap();
        assert_eq!(view.table_id, 3);
        assert_eq!(view.key, b"kk");
    }

    #[test]
    fn concurrent_append_and_read() {
        // Real-thread smoke test of the publication protocol: readers
        // must only ever see fully-written entries.
        let seg = Arc::new(Segment::new(1, 1 << 20));
        let writer = {
            let seg = Arc::clone(&seg);
            std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    if seg
                        .append(EntryKind::Object, 1, i, i, &i.to_le_bytes(), b"vvvv")
                        .is_none()
                    {
                        break;
                    }
                }
            })
        };
        let reader = {
            let seg = Arc::clone(&seg);
            std::thread::spawn(move || {
                let mut max_seen = 0usize;
                for _ in 0..200 {
                    let n = seg.iter_entries().count();
                    assert!(n >= max_seen, "entry count regressed");
                    max_seen = n;
                    for (_, view) in seg.iter_entries() {
                        assert_eq!(view.value, b"vvvv");
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        // Everything the writer appended parses cleanly.
        for (_, view) in seg.iter_entries() {
            assert_eq!(view.table_id, 1);
        }
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        Segment::new(1, 0);
    }
}
