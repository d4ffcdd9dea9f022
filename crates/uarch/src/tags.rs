//! Globally unique renaming tags.
//!
//! The decoder "assigns a unique tag to each and every valid instruction
//! decoded, irrespective of the thread … and does not reuse one until its
//! previous occurrence is no longer in use." Uniqueness across threads is
//! what lets the scheduling unit's wakeup logic ignore thread IDs entirely
//! (Section 3.3) — the key hardware-economy argument of the paper.
//!
//! The allocator hands out identifiers from a bounded pool (hardware has
//! finitely many tag encodings) and checks the no-reuse-while-live invariant
//! in debug builds.

use std::fmt;

/// A renaming tag. Values are opaque; only equality matters to the pipeline.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tag(u64);

impl Tag {
    /// The raw identifier (stable for the lifetime of the allocation).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a tag from its raw identifier. Only meaningful for
    /// values previously observed via [`raw`](Self::raw) — the intended
    /// use is checkpoint restore, which re-materializes the exact tags
    /// resident in a serialized scheduling unit.
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        Tag(raw)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Bounded allocator of unique tags.
///
/// ```
/// use smt_uarch::TagAllocator;
///
/// let mut tags = TagAllocator::new(2);
/// let a = tags.alloc().unwrap();
/// let b = tags.alloc().unwrap();
/// assert_ne!(a, b);
/// assert!(tags.alloc().is_none(), "pool exhausted");
/// tags.free(a);
/// assert!(tags.alloc().is_some());
/// ```
#[derive(Clone)]
pub struct TagAllocator {
    capacity: usize,
    live: usize,
    next: u64,
    #[cfg(debug_assertions)]
    outstanding: std::collections::HashSet<u64>,
}

impl TagAllocator {
    /// Creates an allocator with `capacity` simultaneously live tags
    /// (typically the scheduling-unit depth — one tag per resident entry).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tag capacity must be positive");
        let mut tags = TagAllocator {
            capacity,
            live: 0,
            next: 0,
            #[cfg(debug_assertions)]
            outstanding: std::collections::HashSet::new(),
        };
        tags.reset();
        tags
    }

    /// Returns the allocator to its cold state: no tag live, the next
    /// identifier zero.
    pub fn reset(&mut self) {
        self.live = 0;
        self.next = 0;
        #[cfg(debug_assertions)]
        self.outstanding.clear();
    }

    /// Allocates a tag, or `None` if `capacity` tags are already live.
    pub fn alloc(&mut self) -> Option<Tag> {
        if self.live == self.capacity {
            return None;
        }
        let tag = Tag(self.next);
        self.next = self.next.wrapping_add(1);
        self.live += 1;
        #[cfg(debug_assertions)]
        debug_assert!(
            self.outstanding.insert(tag.0),
            "tag {tag} reused while live"
        );
        Some(tag)
    }

    /// Returns `tag` to the pool.
    ///
    /// # Panics
    ///
    /// In debug builds, panics on double-free or foreign tags.
    pub fn free(&mut self, tag: Tag) {
        #[cfg(debug_assertions)]
        debug_assert!(
            self.outstanding.remove(&tag.0),
            "freeing unallocated tag {tag}"
        );
        #[cfg(not(debug_assertions))]
        let _ = tag;
        self.live -= 1;
    }

    /// Number of live tags.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Maximum simultaneously live tags.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Serializes allocator state (live count and next identifier).
    ///
    /// The debug-only outstanding set is *not* serialized: on restore it
    /// is rebuilt from the tags actually resident in the restored
    /// scheduling unit, which is the ground truth it mirrors.
    pub fn save(&self, w: &mut smt_checkpoint::Writer) {
        w.put_usize(self.live);
        w.put_u64(self.next);
    }

    /// Replaces the state with [`save`](Self::save)d state.
    ///
    /// `resident` yields the raw tags of every entry still live in the
    /// restored machine (scheduling-unit entries; store-buffer ids are
    /// already-freed tags and must not be included), oldest first. Their
    /// number must equal the serialized live count, and since decode
    /// allocates tags in window order, they must ascend strictly and stay
    /// below the next identifier — otherwise a later allocation would
    /// reissue a live tag.
    pub fn decode(
        &mut self,
        r: &mut smt_checkpoint::Reader<'_>,
        resident: impl IntoIterator<Item = u64>,
    ) -> Result<(), smt_checkpoint::DecodeError> {
        let live = r.take_usize()?;
        let next = r.take_u64()?;
        #[cfg(debug_assertions)]
        self.outstanding.clear();
        let (mut count, mut last, mut ascending) = (0, None, true);
        for t in resident {
            ascending &= last.is_none_or(|l| l < t);
            last = Some(t);
            count += 1;
            #[cfg(debug_assertions)]
            self.outstanding.insert(t);
        }
        if live > self.capacity || count != live {
            return Err(smt_checkpoint::DecodeError::Malformed(format!(
                "tag allocator: {live} live of {} capacity, {count} resident",
                self.capacity
            )));
        }
        if !ascending || last.is_some_and(|t| t >= next) {
            return Err(smt_checkpoint::DecodeError::Malformed(format!(
                "tag allocator: resident tags do not ascend below the next tag {next}"
            )));
        }
        self.live = live;
        self.next = next;
        Ok(())
    }
}

/// Prints the debug-only outstanding set sorted: a hash set iterates in an
/// order that depends on its history, and two allocators in the same state
/// must print alike.
impl fmt::Debug for TagAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("TagAllocator");
        d.field("capacity", &self.capacity)
            .field("live", &self.live)
            .field("next", &self.next);
        #[cfg(debug_assertions)]
        {
            let mut outstanding: Vec<u64> = self.outstanding.iter().copied().collect();
            outstanding.sort_unstable();
            d.field("outstanding", &outstanding);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_across_free_boundaries() {
        let mut t = TagAllocator::new(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let tag = t.alloc().unwrap();
            assert!(seen.insert(tag), "tag {tag} repeated");
            t.free(tag);
        }
    }

    #[test]
    fn capacity_bounds_live_tags() {
        let mut t = TagAllocator::new(3);
        let a = t.alloc().unwrap();
        let _b = t.alloc().unwrap();
        let _c = t.alloc().unwrap();
        assert_eq!(t.live(), 3);
        assert!(t.alloc().is_none());
        t.free(a);
        assert_eq!(t.live(), 2);
        assert!(t.alloc().is_some());
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    #[cfg(debug_assertions)]
    fn double_free_caught_in_debug() {
        let mut t = TagAllocator::new(2);
        let a = t.alloc().unwrap();
        t.free(a);
        t.free(a);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = TagAllocator::new(0);
    }
}
