//! The 8-entry store buffer between the scheduling unit and the data cache.
//!
//! In the pipeline (`smt-core`), stores hold their address and data in their
//! scheduling-unit entry and enter this buffer **at commit**, already
//! released — commit is the paper's "shifted out of the SU" release point —
//! then drain to the cache one per cycle. A full buffer therefore delays
//! commit (the restricted load/store policy of Section 5.4) but can never
//! deadlock, and every resident entry is non-speculative and in per-thread
//! program order by construction. Loads forward from the youngest matching
//! entry; the `released` flag and [`squash`](StoreBuffer::squash) exist for
//! clients that insert earlier than commit and must uphold those ordering
//! guarantees themselves.

use std::collections::VecDeque;
use std::fmt;

/// One buffered store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreEntry {
    /// Unique id (the scheduling-unit renaming tag of the store).
    pub id: u64,
    /// Thread that issued the store.
    pub tid: usize,
    /// Byte address.
    pub addr: u64,
    /// Data word.
    pub value: u64,
    /// Program counter of the store instruction, carried so that a fault
    /// detected at drain time can be attributed to the faulting store
    /// rather than a placeholder pc.
    pub pc: usize,
    /// Whether the store's SU entry has been shifted out (commit reached),
    /// making the entry eligible to drain to the cache.
    pub released: bool,
}

/// Error returned when inserting into a full buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreBufferFull;

impl fmt::Display for StoreBufferFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("store buffer is full")
    }
}

impl std::error::Error for StoreBufferFull {}

/// FIFO store buffer shared by all threads.
///
/// ```
/// use smt_mem::StoreBuffer;
///
/// let mut sb = StoreBuffer::new(8);
/// sb.insert(1, 0, 0x1000, 7, 0x40).unwrap();
/// assert_eq!(sb.forward(0x1000), Some(7));
/// sb.release(1);
/// let drained = sb.take_drainable().unwrap();
/// assert_eq!((drained.addr, drained.value), (0x1000, 7));
/// assert!(sb.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct StoreBuffer {
    entries: VecDeque<StoreEntry>,
    capacity: usize,
}

impl StoreBuffer {
    /// Creates an empty buffer of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store buffer capacity must be positive");
        StoreBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a new store would be rejected.
    /// (Capacity check happens at commit time in the pipeline.)
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Inserts a store at execute time.
    ///
    /// # Errors
    ///
    /// [`StoreBufferFull`] when at capacity — the store unit must retry.
    pub fn insert(
        &mut self,
        id: u64,
        tid: usize,
        addr: u64,
        value: u64,
        pc: usize,
    ) -> Result<(), StoreBufferFull> {
        if self.is_full() {
            return Err(StoreBufferFull);
        }
        self.entries.push_back(StoreEntry {
            id,
            tid,
            addr,
            value,
            pc,
            released: false,
        });
        Ok(())
    }

    /// Marks the store with renaming tag `id` as shifted out of the
    /// scheduling unit; returns whether the id was found.
    pub fn release(&mut self, id: u64) -> bool {
        for e in &mut self.entries {
            if e.id == id {
                e.released = true;
                return true;
            }
        }
        false
    }

    /// Forwards the value of the *youngest* store to `addr`, if any.
    #[must_use]
    pub fn forward(&self, addr: u64) -> Option<u64> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.addr == addr)
            .map(|e| e.value)
    }

    fn drainable_pos(&self) -> Option<usize> {
        self.entries.iter().enumerate().position(|(i, e)| {
            e.released
                && !self
                    .entries
                    .iter()
                    .take(i)
                    .any(|older| older.addr == e.addr)
        })
    }

    /// Pops the oldest released entry whose address is not shadowed by an
    /// older resident store (preserving per-address drain order). Call once
    /// per cycle from the memory stage.
    pub fn take_drainable(&mut self) -> Option<StoreEntry> {
        let pos = self.drainable_pos()?;
        self.entries.remove(pos)
    }

    /// Returns (without removing) the entry [`take_drainable`] would pop —
    /// used when the drain must first win a cache port and may be rejected.
    ///
    /// [`take_drainable`]: Self::take_drainable
    #[must_use]
    pub fn peek_drainable(&self) -> Option<StoreEntry> {
        self.drainable_pos().map(|i| self.entries[i])
    }

    /// Removes the entry with the given id; returns whether it existed.
    pub fn remove_id(&mut self, id: u64) -> bool {
        match self.entries.iter().position(|e| e.id == id) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// Removes speculative entries invalidated by a squash. `doomed`
    /// receives each entry id; entries for which it returns `true` are
    /// dropped. Returns how many were removed.
    pub fn squash<F: FnMut(u64) -> bool>(&mut self, mut doomed: F) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !doomed(e.id));
        before - self.entries.len()
    }

    /// Whether any resident entry belongs to thread `tid` (used to gate the
    /// sync primitives: a `POST`/`WAIT` executes only after the thread's own
    /// stores have drained, giving release/acquire semantics).
    #[must_use]
    pub fn has_thread_entries(&self, tid: usize) -> bool {
        self.entries.iter().any(|e| e.tid == tid)
    }

    /// Iterates over resident entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &StoreEntry> {
        self.entries.iter()
    }

    /// Serializes resident entries, oldest first. Capacity is not
    /// serialized; it comes from the config at restore time.
    pub fn save(&self, w: &mut smt_checkpoint::Writer) {
        w.put_usize(self.entries.len());
        for e in &self.entries {
            w.put_u64(e.id);
            w.put_usize(e.tid);
            w.put_u64(e.addr);
            w.put_u64(e.value);
            w.put_usize(e.pc);
            w.put_bool(e.released);
        }
    }

    /// Empties the buffer, keeping its storage.
    pub fn reset(&mut self) {
        self.entries.clear();
    }

    /// Replaces the contents with [`save`](Self::save)d state, refusing
    /// more entries than the capacity.
    pub fn decode(
        &mut self,
        r: &mut smt_checkpoint::Reader<'_>,
    ) -> Result<(), smt_checkpoint::DecodeError> {
        self.entries.clear();
        let n = r.take_usize()?;
        if n > self.capacity {
            return Err(smt_checkpoint::DecodeError::Malformed(format!(
                "store buffer: {n} entries for capacity {}",
                self.capacity
            )));
        }
        for _ in 0..n {
            self.entries.push_back(StoreEntry {
                id: r.take_u64()?,
                tid: r.take_usize()?,
                addr: r.take_u64()?,
                value: r.take_u64()?,
                pc: r.take_usize()?,
                released: r.take_bool()?,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_to_capacity() {
        let mut sb = StoreBuffer::new(2);
        sb.insert(1, 0, 0, 1, 0).unwrap();
        sb.insert(2, 0, 8, 2, 0).unwrap();
        assert!(sb.is_full());
        assert_eq!(sb.insert(3, 0, 16, 3, 0), Err(StoreBufferFull));
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn forwards_youngest_match() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0, 0x10, 1, 0).unwrap();
        sb.insert(2, 1, 0x10, 2, 0).unwrap();
        sb.insert(3, 0, 0x20, 3, 0).unwrap();
        assert_eq!(sb.forward(0x10), Some(2));
        assert_eq!(sb.forward(0x20), Some(3));
        assert_eq!(sb.forward(0x30), None);
    }

    #[test]
    fn drains_only_released_entries_in_order() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0, 0x10, 1, 0).unwrap();
        sb.insert(2, 0, 0x20, 2, 0).unwrap();
        assert!(sb.take_drainable().is_none());
        assert!(sb.release(2));
        let e = sb.take_drainable().unwrap();
        assert_eq!(e.id, 2);
        assert!(sb.take_drainable().is_none());
        assert!(sb.release(1));
        assert_eq!(sb.take_drainable().unwrap().id, 1);
        assert!(sb.is_empty());
    }

    #[test]
    fn same_address_drains_strictly_in_order() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0, 0x10, 1, 0).unwrap();
        sb.insert(2, 1, 0x10, 2, 0).unwrap();
        sb.release(2); // younger store released first (different thread)
                       // Must not drain entry 2 past entry 1 (same address).
        assert!(sb.take_drainable().is_none());
        sb.release(1);
        assert_eq!(sb.take_drainable().unwrap().id, 1);
        assert_eq!(sb.take_drainable().unwrap().id, 2);
    }

    #[test]
    fn release_of_unknown_id_reports_false() {
        let mut sb = StoreBuffer::new(2);
        assert!(!sb.release(9));
    }

    #[test]
    fn peek_matches_take() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0, 0x10, 1, 0).unwrap();
        sb.insert(2, 0, 0x20, 2, 0).unwrap();
        sb.release(2);
        let peeked = sb.peek_drainable().unwrap();
        assert_eq!(sb.len(), 2, "peek does not remove");
        assert_eq!(sb.take_drainable().unwrap(), peeked);
    }

    #[test]
    fn remove_id_drops_specific_entry() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0, 0x10, 1, 0).unwrap();
        sb.insert(2, 0, 0x20, 2, 0).unwrap();
        assert!(sb.remove_id(1));
        assert!(!sb.remove_id(1));
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.forward(0x10), None);
    }

    #[test]
    fn squash_removes_doomed_entries() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0, 0, 1, 0).unwrap();
        sb.insert(2, 0, 8, 2, 0).unwrap();
        sb.insert(3, 1, 16, 3, 0).unwrap();
        let removed = sb.squash(|id| id >= 2 && id != 3);
        assert_eq!(removed, 1);
        assert_eq!(sb.len(), 2);
        assert_eq!(sb.forward(8), None);
    }

    #[test]
    fn thread_occupancy_query() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0, 0, 1, 0).unwrap();
        assert!(sb.has_thread_entries(0));
        assert!(!sb.has_thread_entries(1));
        sb.release(1);
        let _ = sb.take_drainable();
        assert!(!sb.has_thread_entries(0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = StoreBuffer::new(0);
    }
}
