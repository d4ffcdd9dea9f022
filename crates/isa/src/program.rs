//! Linked programs: text segment, initial data image, and metadata.

use std::collections::BTreeMap;
use std::fmt;

use crate::encode::{decode, encode, DecodeError, EncodeError};
use crate::insn::Instruction;
use crate::predecode::{self, DecodedInsn};
use crate::WORD_BYTES;

/// Byte address at which the data segment begins.
///
/// Addresses below this are reserved (a null page), so a kernel bug that
/// dereferences an uninitialized register tends to fault visibly in tests
/// rather than silently aliasing live data.
pub const DATA_BASE: u64 = 0x1000;

/// Initial contents of data memory: a size plus a sparse list of words.
#[derive(Clone, PartialEq, Hash, Debug, Default)]
pub struct DataImage {
    /// Total data memory size in bytes (8-byte aligned).
    pub size: u64,
    /// `(byte address, value)` pairs of initially non-zero words.
    pub words: Vec<(u64, u64)>,
}

impl DataImage {
    /// Materializes the image into a flat vector of 64-bit words
    /// (index = byte address / 8), zero-filled elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if an initializer lies outside `size` or is unaligned.
    #[must_use]
    pub fn to_words(&self) -> Vec<u64> {
        let mut mem = vec![0u64; self.word_len()];
        self.materialize_into(&mut mem);
        mem
    }

    /// Number of 64-bit words [`to_words`](Self::to_words) produces.
    #[must_use]
    pub fn word_len(&self) -> usize {
        (self.size / WORD_BYTES) as usize
    }

    /// Writes the initializers into `mem`, a zero-filled slice of
    /// [`word_len`](Self::word_len) words — [`to_words`](Self::to_words)
    /// without the allocation, so several images can share one buffer.
    ///
    /// # Panics
    ///
    /// Panics if `mem` is not `word_len` words long, or an initializer lies
    /// outside `size` or is unaligned.
    pub fn materialize_into(&self, mem: &mut [u64]) {
        let n = self.word_len();
        assert_eq!(mem.len(), n, "image of {n} words");
        for &(addr, value) in &self.words {
            assert_eq!(
                addr % WORD_BYTES,
                0,
                "unaligned data initializer at {addr:#x}"
            );
            let idx = (addr / WORD_BYTES) as usize;
            assert!(
                idx < n,
                "data initializer at {addr:#x} outside image of {} bytes",
                self.size
            );
            mem[idx] = value;
        }
    }
}

/// A fully linked program: instructions, entry point, and initial data.
///
/// All threads start at [`Program::entry`]; the homogeneous-multitasking
/// model of the paper means every thread executes the *same* text on a
/// different data partition (selected via the `tid` register seeded at
/// reset).
///
/// A program is immutable once built, so its [identity](Self::identity)
/// is hashed once, at construction.
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    text: Vec<Instruction>,
    decoded: Vec<DecodedInsn>,
    entry: usize,
    data: DataImage,
    labels: BTreeMap<String, usize>,
    /// Stable hash of `(text, entry, data)`; a function of those fields,
    /// so the derived equality means what it did without it.
    identity: u64,
}

impl Program {
    /// Creates a program from parts. Prefer
    /// [`ProgramBuilder`](crate::builder::ProgramBuilder) for anything
    /// non-trivial.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range or the text is empty.
    #[must_use]
    pub fn new(text: Vec<Instruction>, entry: usize, data: DataImage) -> Self {
        assert!(!text.is_empty(), "program text is empty");
        assert!(
            entry < text.len(),
            "entry {entry} outside text of {} instructions",
            text.len()
        );
        let decoded = predecode::predecode(&text);
        let identity = smt_checkpoint::stable_hash(&(text.as_slice(), entry, &data));
        Program {
            text,
            decoded,
            entry,
            data,
            labels: BTreeMap::new(),
            identity,
        }
    }

    /// Attaches debug labels (`name -> instruction index`).
    #[must_use]
    pub fn with_labels(mut self, labels: BTreeMap<String, usize>) -> Self {
        self.labels = labels;
        self
    }

    /// The instruction stream.
    #[must_use]
    pub fn text(&self) -> &[Instruction] {
        &self.text
    }

    /// The instruction at index `pc`, or `None` past the end.
    #[must_use]
    pub fn fetch(&self, pc: usize) -> Option<&Instruction> {
        self.text.get(pc)
    }

    /// The predecoded instruction stream (same indices as [`Program::text`]).
    #[must_use]
    pub fn decoded(&self) -> &[DecodedInsn] {
        &self.decoded
    }

    /// The predecoded instruction at index `pc`, or `None` past the end.
    #[must_use]
    pub fn fetch_decoded(&self, pc: usize) -> Option<&DecodedInsn> {
        self.decoded.get(pc)
    }

    /// Entry-point instruction index (shared by all threads).
    #[must_use]
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// Initial data image.
    #[must_use]
    pub fn data(&self) -> &DataImage {
        &self.data
    }

    /// Stable identity hash of the program — its text, entry point, and
    /// data image — as carried in snapshot headers and cell-store keys.
    /// Labels and other assembler conveniences do not contribute: two
    /// builds that produce the same machine program hash equally.
    #[must_use]
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// Debug labels attached by the builder or assembler.
    #[must_use]
    pub fn labels(&self) -> &BTreeMap<String, usize> {
        &self.labels
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the text segment is empty (never true for a valid program).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Encodes the text segment to binary machine words.
    ///
    /// # Errors
    ///
    /// Returns the first encoding failure (immediate/branch-offset overflow).
    pub fn encode_text(&self) -> Result<Vec<u32>, EncodeError> {
        self.text
            .iter()
            .enumerate()
            .map(|(pc, insn)| encode(insn, pc as u32))
            .collect()
    }

    /// Rebuilds a program from machine words (labels are not recoverable).
    ///
    /// # Errors
    ///
    /// Returns the first decoding failure.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty or `entry` is out of range (same contract
    /// as [`Program::new`]).
    pub fn decode_text(words: &[u32], entry: usize, data: DataImage) -> Result<Self, DecodeError> {
        let text = words
            .iter()
            .enumerate()
            .map(|(pc, &w)| decode(w, pc as u32))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program::new(text, entry, data))
    }

    /// Disassembles to text, one instruction per line, with label comments.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let by_index: BTreeMap<usize, &str> = self
            .labels
            .iter()
            .map(|(name, &i)| (i, name.as_str()))
            .collect();
        let mut out = String::new();
        for (i, insn) in self.text.iter().enumerate() {
            if let Some(name) = by_index.get(&i) {
                let _ = writeln!(out, "{name}:");
            }
            let _ = writeln!(out, "    {insn}");
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program of {} instructions, {} data bytes, entry {}",
            self.text.len(),
            self.data.size,
            self.entry
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Opcode;
    use crate::reg::Reg;

    fn tiny() -> Program {
        let r = |i| Reg::new(i);
        Program::new(
            vec![
                Instruction::i2(Opcode::Addi, r(2), r(0), 1),
                Instruction::branch(Opcode::Bne, r(2), r(1), 0),
                Instruction::halt(),
            ],
            0,
            DataImage {
                size: 64,
                words: vec![(8, 42)],
            },
        )
    }

    #[test]
    fn data_image_materializes() {
        let p = tiny();
        let words = p.data().to_words();
        assert_eq!(words.len(), 8);
        assert_eq!(words[1], 42);
        assert_eq!(words[0], 0);
    }

    #[test]
    #[should_panic(expected = "outside image")]
    fn data_image_rejects_out_of_range() {
        let img = DataImage {
            size: 8,
            words: vec![(8, 1)],
        };
        let _ = img.to_words();
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn data_image_rejects_unaligned() {
        let img = DataImage {
            size: 16,
            words: vec![(4, 1)],
        };
        let _ = img.to_words();
    }

    #[test]
    fn predecoded_table_tracks_text() {
        let p = tiny();
        assert_eq!(p.decoded().len(), p.len());
        for (d, i) in p.decoded().iter().zip(p.text()) {
            assert_eq!(d.op, i.op);
            assert_eq!(d.dest, i.dest());
            assert_eq!(d.srcs, i.sources());
            assert_eq!(d.imm, i.imm);
            assert_eq!(d.fu, i.op.fu_class());
        }
        assert_eq!(p.fetch_decoded(2).map(|d| d.op), Some(Opcode::Halt));
        assert!(p.fetch_decoded(3).is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = tiny();
        let words = p.encode_text().unwrap();
        let back = Program::decode_text(&words, p.entry(), p.data().clone()).unwrap();
        assert_eq!(back.text(), p.text());
    }

    #[test]
    fn identity_hashes_text_entry_and_data_only() {
        let p = tiny();
        assert_eq!(
            p.identity(),
            smt_checkpoint::stable_hash(&(p.text(), p.entry(), p.data()))
        );
        let mut labels = BTreeMap::new();
        labels.insert("loop".to_string(), 1);
        assert_eq!(p.clone().with_labels(labels).identity(), p.identity());
        let moved = Program::new(p.text().to_vec(), 1, p.data().clone());
        assert_ne!(moved.identity(), p.identity());
    }

    #[test]
    fn disassembly_includes_labels() {
        let mut labels = BTreeMap::new();
        labels.insert("loop".to_string(), 1);
        let p = tiny().with_labels(labels);
        let asm = p.disassemble();
        assert!(asm.contains("loop:"), "{asm}");
        assert!(asm.contains("halt"), "{asm}");
    }

    #[test]
    #[should_panic(expected = "entry")]
    fn rejects_bad_entry() {
        let _ = Program::new(vec![Instruction::halt()], 3, DataImage::default());
    }
}
