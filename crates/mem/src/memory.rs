//! Flat main memory holding architectural data state.

use std::fmt;

use smt_isa::program::DataImage;
use smt_isa::WORD_BYTES;

/// Error raised by a memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemError {
    /// Byte address past the end of memory.
    OutOfBounds {
        /// Faulting byte address.
        addr: u64,
        /// Memory size in bytes.
        size: u64,
    },
    /// Byte address not aligned to [`WORD_BYTES`].
    Unaligned {
        /// Faulting byte address.
        addr: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, size } => {
                write!(f, "address {addr:#x} outside memory of {size} bytes")
            }
            MemError::Unaligned { addr } => write!(f, "unaligned address {addr:#x}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Word-granular main memory.
///
/// ```
/// use smt_mem::MainMemory;
///
/// let mut mem = MainMemory::new(64);
/// mem.write(8, 42)?;
/// assert_eq!(mem.read(8)?, 42);
/// # Ok::<(), smt_mem::MemError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MainMemory {
    words: Vec<u64>,
}

impl MainMemory {
    /// Creates zeroed memory of `bytes` bytes (rounded up to a whole word).
    #[must_use]
    pub fn new(bytes: u64) -> Self {
        MainMemory {
            words: vec![0; bytes.div_ceil(WORD_BYTES) as usize],
        }
    }

    /// Memory size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.words.len() as u64 * WORD_BYTES
    }

    fn index(&self, addr: u64) -> Result<usize, MemError> {
        if !addr.is_multiple_of(WORD_BYTES) {
            return Err(MemError::Unaligned { addr });
        }
        let idx = (addr / WORD_BYTES) as usize;
        if idx >= self.words.len() {
            return Err(MemError::OutOfBounds {
                addr,
                size: self.size(),
            });
        }
        Ok(idx)
    }

    /// Reads the word at byte address `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError`] on unaligned or out-of-bounds access.
    pub fn read(&self, addr: u64) -> Result<u64, MemError> {
        Ok(self.words[self.index(addr)?])
    }

    /// Writes the word at byte address `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError`] on unaligned or out-of-bounds access.
    pub fn write(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        let idx = self.index(addr)?;
        self.words[idx] = value;
        Ok(())
    }

    /// Atomically increments the word at `addr`, returning the new value
    /// (the `POST` primitive).
    ///
    /// # Errors
    ///
    /// [`MemError`] on unaligned or out-of-bounds access.
    pub fn fetch_add(&mut self, addr: u64) -> Result<u64, MemError> {
        let idx = self.index(addr)?;
        self.words[idx] = self.words[idx].wrapping_add(1);
        Ok(self.words[idx])
    }

    /// The raw word array (index = byte address / 8).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites memory with `images` laid end to end, zero elsewhere —
    /// one program's data image, or a mix's, concatenated in thread order.
    /// Storage of the right size is reused; any other size is reallocated
    /// zeroed (so pages the images never touch stay untouched).
    ///
    /// # Panics
    ///
    /// Panics if an image initializer is unaligned or outside its image.
    pub fn load_images<'a>(&mut self, images: impl Iterator<Item = &'a DataImage> + Clone) {
        let len = images.clone().map(DataImage::word_len).sum();
        if self.words.len() == len {
            self.words.fill(0);
        } else {
            self.words = vec![0; len];
        }
        let mut at = 0;
        for image in images {
            let n = image.word_len();
            image.materialize_into(&mut self.words[at..at + n]);
            at += n;
        }
    }

    /// Serializes memory as a sparse delta against `baseline` (typically
    /// the program's initial data image): total word count, then
    /// `(index, value)` pairs for every word that differs. One pass: the
    /// pair count is patched in once the pairs are written.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` is not the same size as this memory.
    pub fn save_delta(&self, baseline: &[u64], w: &mut smt_checkpoint::Writer) {
        assert_eq!(
            baseline.len(),
            self.words.len(),
            "delta baseline must match memory size"
        );
        w.put_usize(self.words.len());
        let count_at = w.len();
        w.put_usize(0);
        let mut changed = 0;
        for (i, (&word, &base)) in self.words.iter().zip(baseline).enumerate() {
            if word != base {
                w.put_usize(i);
                w.put_u64(word);
                changed += 1;
            }
        }
        w.patch_usize(count_at, changed);
    }

    /// Applies a [`save_delta`](Self::save_delta) in place to memory that
    /// holds the delta's baseline (see [`load_images`](Self::load_images)).
    /// On error some pairs may already have been applied.
    pub fn decode_delta(
        &mut self,
        r: &mut smt_checkpoint::Reader<'_>,
    ) -> Result<(), smt_checkpoint::DecodeError> {
        let len = r.take_usize()?;
        if len != self.words.len() {
            return Err(smt_checkpoint::DecodeError::Malformed(format!(
                "memory delta for {len} words, baseline has {}",
                self.words.len()
            )));
        }
        let changed = r.take_usize()?;
        for _ in 0..changed {
            let i = r.take_usize()?;
            let v = r.take_u64()?;
            let slot = self.words.get_mut(i).ok_or_else(|| {
                smt_checkpoint::DecodeError::Malformed(format!("delta index {i} of {len} words"))
            })?;
            *slot = v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = MainMemory::new(64);
        m.write(0, 7).unwrap();
        m.write(56, 9).unwrap();
        assert_eq!(m.read(0).unwrap(), 7);
        assert_eq!(m.read(56).unwrap(), 9);
        assert_eq!(m.read(8).unwrap(), 0);
    }

    #[test]
    fn bounds_and_alignment() {
        let mut m = MainMemory::new(16);
        assert_eq!(
            m.read(16),
            Err(MemError::OutOfBounds { addr: 16, size: 16 })
        );
        assert_eq!(m.write(3, 1), Err(MemError::Unaligned { addr: 3 }));
        assert_eq!(m.size(), 16);
    }

    #[test]
    fn size_rounds_up() {
        assert_eq!(MainMemory::new(9).size(), 16);
        assert_eq!(MainMemory::new(0).size(), 0);
    }

    #[test]
    fn fetch_add_increments() {
        let mut m = MainMemory::new(8);
        assert_eq!(m.fetch_add(0).unwrap(), 1);
        assert_eq!(m.fetch_add(0).unwrap(), 2);
        assert_eq!(m.read(0).unwrap(), 2);
    }
}
