//! Versioned, self-describing binary snapshot format.
//!
//! Every component that participates in checkpoint/restore serializes
//! itself through the [`Writer`]/[`Reader`] pair defined here, so the
//! on-disk format has exactly one set of primitives: little-endian
//! fixed-width integers, length-prefixed byte strings, and u32 section
//! tags that make decode failures say *which* component's framing broke
//! rather than silently misaligning every field after the first bad one.
//!
//! A [`Snapshot`] wraps one serialized payload with a header (magic,
//! format version, config hash, program hash, cycle) and a trailing
//! [`checksum`] over everything before it: four independent lanes fed
//! 8-byte words, in the manner of xxHash64, so verifying a splice-sized
//! (~6 KB) snapshot costs well under a microsecond. `from_bytes` fails
//! closed: wrong magic, unknown version, short buffer, or checksum
//! mismatch all return a typed [`DecodeError`] — a torn write from a
//! killed sweep worker can never be mistaken for a valid resume point.
//!
//! Identity hashes — configuration, program, and cache keys — are a
//! different job: they must stay equal across builds so on-disk stores
//! stay valid, and they go through [`stable_hash`] (FNV-1a, via
//! [`StableHasher`]), which no format version changes.
//!
//! The crate is dependency-free and knows nothing about the simulator;
//! `smt-isa`, `smt-uarch`, `smt-mem`, and `smt-core` depend on it and keep
//! their fields private by implementing their own save/restore (or, for
//! a program, its identity) against these primitives.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Snapshot container format version. Bump on any layout change; old
/// snapshots are rejected, never reinterpreted.
///
/// v2: the scheduling unit moved to a struct-of-arrays slab core. The
/// serialized entry stream kept its field order, but entry handles and
/// the forwarding/producer index rebuild rules changed, so v1 payloads
/// written by the per-entry-struct implementation are not trusted.
///
/// v3: program identity became a per-thread vector to bind snapshots of
/// heterogeneous thread mixes (one program per hardware thread) to the
/// exact mix they were taken under. A single-element vector identifies a
/// homogeneous (SPMD) machine; v2 snapshots fail closed.
///
/// v4: an optional **warm-identity** section after the header records
/// which configuration identity fields a warmup-fork snapshot allows to
/// differ on restore (see [`WarmIdentity`]). Snapshots without it were
/// still written as v3.
///
/// v5: one layout for every snapshot. A presence byte after the header
/// says whether the warm-identity section follows, so exact and warm
/// snapshots share this version; v3 and v4 files fail closed.
///
/// v6: the trailing checksum is [`checksum`] (8-byte words in four
/// lanes) instead of byte-serial FNV-1a. The header and every payload
/// section keep their v5 layout, so a machine's v6 wire bytes differ from
/// its v5 bytes only in the version word and the checksum; v5 files fail
/// closed on the version word.
pub const FORMAT_VERSION: u32 = 6;

const MAGIC: [u8; 8] = *b"SMTSNAP\0";

/// Upper bound on the per-thread program-hash vector — far above any real
/// thread count, so a corrupted length can never drive a huge allocation.
const MAX_PROGRAM_HASHES: usize = 64;

/// Upper bound on the relaxed-field-id list of a [`WarmIdentity`] — far
/// above any real configuration field count, so a corrupted length can
/// never drive a huge allocation.
const MAX_RELAXED_FIELDS: usize = 64;

/// Section tag introducing the optional warm-identity header section.
const WARM_SECTION: u32 = 0x5741_524d; // "WARM"

/// Why a byte buffer could not be decoded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Fewer bytes remained than the next field needs.
    Truncated { wanted: usize, have: usize },
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    Version { found: u32, supported: u32 },
    /// The trailing checksum does not match the header + payload bytes.
    Checksum { stored: u64, computed: u64 },
    /// A section tag other than the expected one was found.
    Section { expected: u32, found: u32 },
    /// A field decoded but its value is impossible.
    Malformed(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { wanted, have } => {
                write!(f, "truncated snapshot: wanted {wanted} bytes, have {have}")
            }
            Self::BadMagic => write!(f, "not a snapshot (bad magic)"),
            Self::Version { found, supported } => {
                write!(f, "snapshot format v{found}, this build reads v{supported}")
            }
            Self::Checksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            Self::Section { expected, found } => {
                write!(
                    f,
                    "expected section tag {expected:#010x}, found {found:#010x}"
                )
            }
            Self::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only little-endian encoder.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An encoder whose buffer holds `capacity` bytes before it first
    /// regrows.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// `n` zero bytes at once — a run of empty slots of a sparse table,
    /// each of which [`put_u8`](Self::put_u8)`(0)` would write.
    pub fn put_zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// `usize` is always written as 8 bytes so the format does not depend
    /// on the writing platform's pointer width.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Overwrites the `usize` written at byte offset `at` (a [`len`](Self::len)
    /// taken just before its `put_usize`) — for a count known only once the
    /// items it counts have been written.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 8 bytes follow `at`.
    pub fn patch_usize(&mut self, at: usize, v: usize) {
        self.buf[at..at + 8].copy_from_slice(&(v as u64).to_le_bytes());
    }

    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
        }
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// A section tag marking the start of one component's state.
    pub fn section(&mut self, tag: u32) {
        self.put_u32(tag);
    }

    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over an encoded buffer; every take is bounds-checked.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                wanted: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes the zero bytes that come next, up to `max` of them, and
    /// returns how many it consumed — the run of empty slots a sparse
    /// table's [`put_zeros`](Writer::put_zeros) wrote, read eight at a
    /// time instead of one [`take_u8`](Self::take_u8) each.
    pub fn take_zeros(&mut self, max: usize) -> usize {
        let rest = &self.buf[self.pos..];
        let rest = &rest[..max.min(rest.len())];
        let mut n = 0;
        for word in rest.chunks_exact(8) {
            if word != [0; 8] {
                break;
            }
            n += 8;
        }
        n += rest[n..].iter().take_while(|&&b| b == 0).count();
        self.pos += n;
        n
    }

    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn take_bool(&mut self) -> Result<bool, DecodeError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(DecodeError::Malformed(format!("bool byte {v}"))),
        }
    }

    pub fn take_usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| DecodeError::Malformed(format!("usize {v} overflows")))
    }

    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_u64()?)),
            v => Err(DecodeError::Malformed(format!("option byte {v}"))),
        }
    }

    pub fn take_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.take_usize()?;
        self.take(n)
    }

    /// Consumes a section tag, failing if it is not `tag`.
    pub fn expect_section(&mut self, tag: u32) -> Result<(), DecodeError> {
        let found = self.take_u32()?;
        if found == tag {
            Ok(())
        } else {
            Err(DecodeError::Section {
                expected: tag,
                found,
            })
        }
    }

    /// Fails unless every byte has been consumed — catches framing bugs
    /// where writer and reader disagree about a component's field list.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::Malformed(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }
}

/// Identity relaxation carried by a warmup-fork snapshot.
///
/// An exact-restore snapshot binds to one configuration hash. A warm
/// snapshot instead records *which* configuration fields the forked run
/// may change (`relaxed`, as the field ids published by the simulator
/// crate) plus a hash of the source configuration with exactly those
/// fields canonicalized away (`warm_hash`). `fork_warm` recomputes the
/// canonical hash for the *target* configuration against the stored
/// relaxed list and compares: any difference in a non-relaxed field —
/// including a forged or extended relaxed list, which changes the hash
/// input — fails closed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WarmIdentity {
    /// Sorted, deduplicated configuration field ids allowed to differ.
    pub relaxed: Vec<u32>,
    /// Stable hash of the source configuration with every relaxed field
    /// replaced by its canonical (default) value.
    pub warm_hash: u64,
}

/// One complete machine state: identifying header plus opaque payload.
///
/// The hashes bind a snapshot to the exact `(SimConfig, programs)` pair
/// it was taken under; `Simulator::restore` refuses a snapshot whose
/// hashes do not match, so a sweep cache can never resume a cell with the
/// wrong machine. A snapshot carrying a [`WarmIdentity`] additionally
/// permits `fork_warm` under configurations differing only in the
/// relaxed fields.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Snapshot {
    /// Stable hash of the simulator configuration.
    pub config_hash: u64,
    /// Stable hash of each program image (text + entry + data). One
    /// element for a homogeneous (SPMD) machine where every thread runs
    /// the same program; one element *per hardware thread* for a
    /// heterogeneous mix.
    pub program_hashes: Vec<u64>,
    /// Cycle at which the snapshot was taken (informational; the payload
    /// carries the authoritative copy).
    pub cycle: u64,
    /// Identity relaxation for warmup forking; `None` for a snapshot that
    /// only supports exact restore.
    pub warm: Option<WarmIdentity>,
    /// Component state, encoded with [`Writer`].
    pub payload: Vec<u8>,
}

impl Snapshot {
    /// Serializes header + payload + checksum into one buffer, allocated
    /// once at its final size.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let warm_len = self
            .warm
            .as_ref()
            .map_or(0, |warm| 4 + 8 + 4 * warm.relaxed.len() + 8);
        let len = MAGIC.len()
            + 4
            + 8
            + 8 * (1 + self.program_hashes.len())
            + 8
            + 1
            + warm_len
            + 8
            + self.payload.len()
            + 8;
        let mut w = Writer::with_capacity(len);
        w.buf.extend_from_slice(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u64(self.config_hash);
        w.put_usize(self.program_hashes.len());
        for &h in &self.program_hashes {
            w.put_u64(h);
        }
        w.put_u64(self.cycle);
        w.put_bool(self.warm.is_some());
        if let Some(warm) = &self.warm {
            w.section(WARM_SECTION);
            w.put_usize(warm.relaxed.len());
            for &id in &warm.relaxed {
                w.put_u32(id);
            }
            w.put_u64(warm.warm_hash);
        }
        w.put_bytes(&self.payload);
        let sum = checksum(&w.buf);
        w.put_u64(sum);
        debug_assert_eq!(w.len(), len, "to_bytes sized its buffer exactly");
        w.into_bytes()
    }

    /// Decodes and validates a buffer produced by [`to_bytes`](Self::to_bytes).
    /// Any version other than [`FORMAT_VERSION`] fails closed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.take_u32()?;
        if version != FORMAT_VERSION {
            return Err(DecodeError::Version {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let config_hash = r.take_u64()?;
        let n = r.take_usize()?;
        if n == 0 || n > MAX_PROGRAM_HASHES {
            return Err(DecodeError::Malformed(format!(
                "{n} program hashes (1..={MAX_PROGRAM_HASHES} expected)"
            )));
        }
        let mut program_hashes = Vec::with_capacity(n);
        for _ in 0..n {
            program_hashes.push(r.take_u64()?);
        }
        let cycle = r.take_u64()?;
        let warm = if r.take_bool()? {
            r.expect_section(WARM_SECTION)?;
            let k = r.take_usize()?;
            if k > MAX_RELAXED_FIELDS {
                return Err(DecodeError::Malformed(format!(
                    "{k} relaxed fields (≤{MAX_RELAXED_FIELDS} expected)"
                )));
            }
            let mut relaxed = Vec::with_capacity(k);
            for _ in 0..k {
                relaxed.push(r.take_u32()?);
            }
            if !relaxed.windows(2).all(|w| w[0] < w[1]) {
                return Err(DecodeError::Malformed(
                    "relaxed field ids must be strictly ascending".into(),
                ));
            }
            let warm_hash = r.take_u64()?;
            Some(WarmIdentity { relaxed, warm_hash })
        } else {
            None
        };
        let payload = r.take_bytes()?;
        let body_len = bytes.len() - r.remaining();
        let stored = r.take_u64()?;
        let computed = checksum(&bytes[..body_len]);
        if stored != computed {
            return Err(DecodeError::Checksum { stored, computed });
        }
        r.finish()?;
        Ok(Self {
            config_hash,
            program_hashes,
            cycle,
            warm,
            payload: payload.to_vec(),
        })
    }
}

/// The xxHash64 primes: odd, so multiplying by one is a bijection of
/// `u64`.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One lane step. For a fixed word it is a bijection of the lane; for a
/// fixed lane it is injective in the word.
#[inline]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Folds one word into the converged state; a bijection of `h` for a
/// fixed word, injective in the word for a fixed `h`.
#[inline]
fn fold(h: u64, word: u64) -> u64 {
    (h ^ round(0, word))
        .rotate_left(27)
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("an 8-byte word"))
}

/// The snapshot integrity checksum (format v6).
///
/// Built like xxHash64 (seed 0), but not bit-compatible with it:
/// 32-byte stripes feed four independent lanes, one little-endian word
/// each; the lanes converge by rotate-and-add; the length is added; the
/// remaining whole words fold in one by one, then the last 1–7 bytes as
/// one zero-padded word; a 64-bit avalanche finishes. Every step is a
/// bijection of the state it updates and injective in the word it
/// consumes, so two inputs of one length that differ only inside one
/// 8-byte word (aligned to the start) always hash differently — every
/// single-bit flip of a snapshot body is caught.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() < 32 {
        P5
    } else {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = round(*lane, le_word(&stripe[8 * i..]));
            }
        }
        lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18))
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = fold(h, le_word(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(last));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a as a [`Hasher`], so any `#[derive(Hash)]` type gets a digest
/// that is stable across processes (unlike `DefaultHasher`, which is
/// randomly keyed). Used for the config/program identity hashes and the
/// sweep cache's content addressing; writing a byte slice with
/// [`Hasher::write`] gives FNV-1a over exactly those bytes.
#[derive(Debug)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Stable digest of any hashable value.
#[must_use]
pub fn stable_hash<T: Hash>(value: &T) -> u64 {
    let mut h = StableHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_bool(true);
        w.put_bool(false);
        w.put_usize(42);
        w.put_opt_u64(None);
        w.put_opt_u64(Some(9));
        w.put_bytes(b"hello");
        w.section(0x5155_0001);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_usize().unwrap(), 42);
        assert_eq!(r.take_opt_u64().unwrap(), None);
        assert_eq!(r.take_opt_u64().unwrap(), Some(9));
        assert_eq!(r.take_bytes().unwrap(), b"hello");
        r.expect_section(0x5155_0001).unwrap();
        r.finish().unwrap();
    }

    /// `take_zeros` reads back exactly the zero runs `put_zeros` wrote —
    /// across word boundaries, stopping at a nonzero byte, at its limit,
    /// and at the end of the buffer.
    #[test]
    fn zero_runs_round_trip() {
        for (run, max) in [
            (0, 64),
            (3, 64),
            (8, 64),
            (13, 64),
            (40, 64),
            (40, 17),
            (40, 8),
        ] {
            let mut w = Writer::new();
            w.put_zeros(run);
            w.put_u8(5);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.take_zeros(max), run.min(max), "run {run}, max {max}");
            if run <= max {
                assert_eq!(r.take_u8().unwrap(), 5);
                r.finish().unwrap();
            }
        }
        let zeros = [0u8; 11];
        let mut r = Reader::new(&zeros);
        assert_eq!(r.take_zeros(usize::MAX), 11);
        assert_eq!(r.take_zeros(usize::MAX), 0);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = Writer::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert!(matches!(
            r.take_u64(),
            Err(DecodeError::Truncated { wanted: 8, have: 4 })
        ));
    }

    #[test]
    fn section_mismatch_is_typed() {
        let mut w = Writer::new();
        w.section(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.expect_section(2),
            Err(DecodeError::Section {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new();
        w.put_u8(0);
        let bytes = w.into_bytes();
        let r = Reader::new(&bytes);
        assert!(matches!(r.finish(), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn snapshot_round_trip() {
        let snap = Snapshot {
            config_hash: 0x1111,
            program_hashes: vec![0x2222],
            cycle: 12345,
            warm: None,
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = snap.to_bytes();
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
    }

    /// Pins the single wire layout, for a snapshot with and one without a
    /// warm identity, against a hand-built byte image.
    #[test]
    fn layout_is_pinned_with_and_without_warm_identity() {
        let exact = Snapshot {
            config_hash: 0xabcd,
            program_hashes: vec![1, 2],
            cycle: 9,
            warm: None,
            payload: vec![7; 16],
        };
        let warm = Snapshot {
            warm: Some(WarmIdentity {
                relaxed: vec![2, 5, 9],
                warm_hash: 0xfeed_f00d,
            }),
            ..exact.clone()
        };
        for snap in [exact, warm] {
            let mut w = Writer::new();
            w.buf.extend_from_slice(b"SMTSNAP\0");
            w.put_u32(6);
            w.put_u64(snap.config_hash);
            w.put_usize(snap.program_hashes.len());
            for &h in &snap.program_hashes {
                w.put_u64(h);
            }
            w.put_u64(snap.cycle);
            match &snap.warm {
                None => w.put_u8(0),
                Some(warm) => {
                    w.put_u8(1);
                    w.put_u32(0x5741_524d);
                    w.put_usize(warm.relaxed.len());
                    for &id in &warm.relaxed {
                        w.put_u32(id);
                    }
                    w.put_u64(warm.warm_hash);
                }
            }
            w.put_bytes(&snap.payload);
            let sum = checksum(&w.buf);
            w.put_u64(sum);
            let bytes = snap.to_bytes();
            assert_eq!(bytes, w.into_bytes(), "warm: {:?}", snap.warm);
            assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
        }
    }

    #[test]
    fn warm_relaxed_list_must_be_sorted_and_bounded() {
        let snap = Snapshot {
            config_hash: 1,
            program_hashes: vec![2],
            cycle: 3,
            warm: Some(WarmIdentity {
                relaxed: vec![5, 2], // out of order
                warm_hash: 0,
            }),
            payload: vec![],
        };
        assert!(matches!(
            Snapshot::from_bytes(&snap.to_bytes()),
            Err(DecodeError::Malformed(_))
        ));
        let snap = Snapshot {
            warm: Some(WarmIdentity {
                relaxed: (0..100).collect(), // over the cap
                warm_hash: 0,
            }),
            ..snap
        };
        assert!(matches!(
            Snapshot::from_bytes(&snap.to_bytes()),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let snap = Snapshot {
            config_hash: 1,
            program_hashes: vec![2, 3, 4, 5],
            cycle: 3,
            warm: None,
            payload: vec![0xaa; 64],
        };
        let good = snap.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(Snapshot::from_bytes(&bad_magic), Err(DecodeError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[8] = 0xfe;
        assert!(matches!(
            Snapshot::from_bytes(&bad_version),
            Err(DecodeError::Version { .. })
        ));

        let mut flipped = good.clone();
        // Flip a payload byte (the payload is the last field before the
        // trailing 8-byte checksum): structurally valid, checksum-caught.
        let in_payload = good.len() - 12;
        flipped[in_payload] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&flipped),
            Err(DecodeError::Checksum { .. })
        ));

        let torn = &good[..good.len() - 9];
        assert!(matches!(
            Snapshot::from_bytes(torn),
            Err(DecodeError::Truncated { .. })
        ));
    }

    /// A snapshot from any retired format version must be rejected even
    /// when its checksum is intact — version precedes checksum in the
    /// decode order, and a stale-but-uncorrupted file is the realistic case
    /// (a sweep cache left on disk across a simulator upgrade).
    #[test]
    fn stale_version_rejected_with_valid_checksum() {
        let snap = Snapshot {
            config_hash: 1,
            program_hashes: vec![2],
            cycle: 3,
            warm: None,
            payload: vec![0x55; 32],
        };
        for stale in [2u32, 3, 4, 5] {
            let mut old = snap.to_bytes();
            old[8..12].copy_from_slice(&stale.to_le_bytes());
            // Re-seal: the forged version must carry a *valid* checksum so
            // the test proves rejection happens on version, not integrity.
            let body = old.len() - 8;
            let sum = checksum(&old[..body]);
            old[body..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                Snapshot::from_bytes(&old),
                Err(DecodeError::Version {
                    found: stale,
                    supported: FORMAT_VERSION,
                })
            );
        }
        // A genuine v5 file, sealed with v5's FNV-1a, fails the same way.
        let mut v5 = snap.to_bytes();
        v5[8..12].copy_from_slice(&5u32.to_le_bytes());
        let body = v5.len() - 8;
        let sum = fnv1a(&v5[..body]);
        v5[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&v5),
            Err(DecodeError::Version {
                found: 5,
                supported: FORMAT_VERSION,
            })
        );
    }

    /// FNV-1a over exactly `bytes`, as v5 sealed its snapshots.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = StableHasher::default();
        h.write(bytes);
        h.finish()
    }

    /// `len` bytes of a fixed, non-repeating pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
            .collect()
    }

    /// Pins the v6 checksum on inputs that reach each code path: no
    /// stripe (short input, with and without a partial last word), exactly
    /// one stripe, and a stripe plus a tail. The empty and the 8-byte
    /// inputs agree with xxHash64 (seed 0), whose path for short inputs
    /// of whole words this one shares.
    #[test]
    fn checksum_known_answers() {
        let pinned: [(usize, u64); 7] = [
            (0, 0xef46_db37_51d8_e999),
            (1, 0x7471_f39a_ed17_54f2),
            (7, 0x4e5f_58b2_a093_8d92),
            (8, 0x57cb_2b75_21f3_e21a),
            (31, 0x9cb8_12ac_963c_4644),
            (32, 0xa926_fd50_fcb2_07c6),
            (33, 0x8f25_4ce6_a183_2698),
        ];
        for (len, want) in pinned {
            let got = checksum(&pattern(len));
            assert_eq!(got, want, "checksum of {len} pattern bytes");
        }
        // The trailing checksum of a whole snapshot (the layout test's
        // warm snapshot).
        let snap = Snapshot {
            config_hash: 0xabcd,
            program_hashes: vec![1, 2],
            cycle: 9,
            warm: Some(WarmIdentity {
                relaxed: vec![2, 5, 9],
                warm_hash: 0xfeed_f00d,
            }),
            payload: vec![7; 16],
        };
        let bytes = snap.to_bytes();
        let sealed = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        assert_eq!(sealed, 0x3328_aa8d_9b96_f32b);
    }

    /// A change confined to one 8-byte word always changes the checksum:
    /// every single-bit flip of every input length up to three stripes
    /// plus a partial word.
    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        for len in 0..=100 {
            let bytes = pattern(len);
            let sum = checksum(&bytes);
            let mut flipped = bytes.clone();
            for bit in 0..len * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&flipped), sum, "length {len}, bit {bit}");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn stable_hash_is_deterministic_and_discriminating() {
        #[derive(Hash)]
        struct K {
            a: u64,
            b: &'static str,
        }
        let h1 = stable_hash(&K { a: 1, b: "x" });
        let h2 = stable_hash(&K { a: 1, b: "x" });
        let h3 = stable_hash(&K { a: 2, b: "x" });
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
        // Pinned values: the hash is part of the on-disk cache key, so a
        // silent change to the hashing scheme must fail a test.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(
            fnv1a(b"a"),
            (FNV_OFFSET ^ u64::from(b'a')).wrapping_mul(FNV_PRIME)
        );
        assert_eq!(stable_hash(&K { a: 1, b: "x" }), 0x51eb_8dc8_9e47_5f11);
    }
}
