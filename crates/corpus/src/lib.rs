//! The on-disk workload corpus: assembly kernels loaded from a
//! `corpus/` directory and presented with the same contract as the
//! built-in benchmarks — a buildable [`Program`] plus a self-check
//! predicate over final memory.
//!
//! A corpus is a directory holding `manifest.toml` (parsed by
//! [`manifest`], a dependency-free TOML subset) and one `.s` file per
//! workload, assembled through [`smt_isa::asm::assemble`]. Each
//! manifest section names the source file, the scale knobs (`n` /
//! `n_paper`, plus `steps` for the pointer chase), the initial-data
//! fill, and the check predicate:
//!
//! ```text
//! [quicksort]
//! source = "quicksort.s"
//! check  = "sorted"
//! fill   = "lcg"
//! seed   = 1
//! n      = 48
//! n_paper = 192
//! ```
//!
//! # Memory layout contract
//!
//! Every kernel sees the same map, so one loader serves all of them.
//! The first data page ([`DATA_BASE`] = `0x1000`) starts with an
//! 8-word parameter block; the input, output, and scratch regions
//! follow, their base addresses published in that block so the `.s`
//! sources never hard-code region sizes:
//!
//! ```text
//! 0x1000  n          problem size (element count or matrix dim)
//! 0x1008  steps      auxiliary knob (pointer-chase hop count)
//! 0x1010  IN base    input region,  `in_words(n)` words, filled
//! 0x1018  OUT base   output region, `out_words(n)` words, zeroed
//! 0x1020  AUX base   scratch (barrier, slice table, sort stacks)
//! ```
//!
//! Kernels are SPMD over `r0 = tid`, `r1 = nthreads` and stay inside
//! `r0..=r15`, so they run unchanged from 1 to 8 hardware threads and
//! as single-thread members of a heterogeneous mix. All data values
//! are masked positive (below [`FILL_MASK`]) so the ISA's signed
//! compares and divides agree with the unsigned reference math.

pub mod manifest;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use smt_isa::asm::{self, AsmError};
use smt_isa::program::{DataImage, Program, DATA_BASE};
use smt_isa::WORD_BYTES;
use smt_workloads::{Scale, WorkloadKind};

use manifest::{ManValue, Section};

/// Fill values stay below this mask so every data word is positive as
/// an `i64`: the kernels' `blt`/`div` are signed, the checkers' Rust
/// reference math is unsigned, and keeping values in the common range
/// makes the two agree bit-for-bit.
pub const FILL_MASK: u64 = 0x3fff_ffff;

/// Words in the parameter block at [`DATA_BASE`].
const PARAM_WORDS: u64 = 8;

/// Byte address of the input region (parameter block + padding).
const IN_BASE: u64 = DATA_BASE + PARAM_WORDS * WORD_BYTES;

/// Scratch bytes the quicksort kernel expects: one barrier word, an
/// 8-entry `{cursor, end}` slice table (16 bytes each, at `AUX + 8`),
/// and eight 512-byte explicit quicksort stacks (at `AUX + 136`).
/// These offsets are part of the kernel ABI — `quicksort.s` hard-codes
/// them.
const SORT_AUX_BYTES: u64 = 8 + 8 * 16 + 8 * 512;

/// How a workload's input region is initialized.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fill {
    /// `in[i] = i`.
    Ramp,
    /// All zeros.
    Zero,
    /// Deterministic pseudo-random words (masked by [`FILL_MASK`]).
    Lcg,
    /// A seeded permutation of `0..len` (for the pointer chase).
    Perm,
}

impl Fill {
    fn parse(name: &str) -> Option<Fill> {
        Some(match name {
            "ramp" => Fill::Ramp,
            "zero" => Fill::Zero,
            "lcg" => Fill::Lcg,
            "perm" => Fill::Perm,
            _ => return None,
        })
    }
}

/// The final-state predicate a workload is checked against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckKind {
    /// `OUT` is the input sorted ascending.
    Sorted,
    /// `OUT` is the product of the two `n x n` matrices in `IN`.
    Matmul,
    /// `OUT` is the 3-point box blur of `IN` (clamped edges).
    Blur3,
    /// `OUT[i] = 1` exactly for composite `i` (prime-sieve flags).
    Sieve,
    /// `OUT` equals `IN`.
    Copy,
    /// `OUT[s]` is the node reached after `steps` hops from `s`
    /// through the permutation in `IN`.
    Chase,
}

impl CheckKind {
    fn parse(name: &str) -> Option<CheckKind> {
        Some(match name {
            "sorted" => CheckKind::Sorted,
            "matmul" => CheckKind::Matmul,
            "blur3" => CheckKind::Blur3,
            "sieve" => CheckKind::Sieve,
            "copy" => CheckKind::Copy,
            "chase" => CheckKind::Chase,
            _ => return None,
        })
    }

    fn in_words(self, n: u64) -> u64 {
        match self {
            CheckKind::Matmul => 2 * n * n,
            CheckKind::Sieve => 0,
            _ => n,
        }
    }

    fn out_words(self, n: u64) -> u64 {
        match self {
            CheckKind::Matmul => n * n,
            _ => n,
        }
    }

    fn aux_bytes(self) -> u64 {
        match self {
            CheckKind::Sorted => SORT_AUX_BYTES,
            _ => 0,
        }
    }
}

/// Anything that can go wrong loading or building a corpus.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CorpusError {
    /// Filesystem failure.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error text.
        message: String,
    },
    /// The manifest did not parse.
    Manifest(manifest::ManifestError),
    /// A section parsed but describes an unusable workload.
    Invalid {
        /// The offending workload.
        workload: String,
        /// What is wrong with it.
        message: String,
    },
    /// A source file did not assemble.
    Asm {
        /// The offending workload.
        workload: String,
        /// The assembler diagnostic (line/column/token).
        error: AsmError,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            CorpusError::Manifest(e) => e.fmt(f),
            CorpusError::Invalid { workload, message } => {
                write!(f, "workload [{workload}]: {message}")
            }
            CorpusError::Asm { workload, error } => {
                write!(f, "workload [{workload}]: {error}")
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// The scale-resolved memory layout of one workload instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Layout {
    /// Problem size (element count, or matrix dimension for matmul).
    pub n: u64,
    /// Auxiliary knob (pointer-chase hops; 0 elsewhere).
    pub steps: u64,
    /// Byte address of the input region.
    pub in_base: u64,
    /// Input region length in words.
    pub in_words: u64,
    /// Byte address of the output region.
    pub out_base: u64,
    /// Output region length in words.
    pub out_words: u64,
    /// Byte address of the scratch region.
    pub aux_base: u64,
    /// Total data-image size in bytes.
    pub size: u64,
}

/// One manifest-declared workload: source text plus its knobs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CorpusWorkload {
    name: String,
    source_file: String,
    source: String,
    check: CheckKind,
    fill: Fill,
    seed: u64,
    n: u64,
    n_paper: u64,
    steps: u64,
    steps_paper: u64,
}

impl CorpusWorkload {
    /// The workload's manifest name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The assembly source text.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The manifest's source file name (relative to the corpus dir).
    #[must_use]
    pub fn source_file(&self) -> &str {
        &self.source_file
    }

    /// The check predicate this workload is verified against.
    #[must_use]
    pub fn check_kind(&self) -> CheckKind {
        self.check
    }

    /// The scale-resolved layout (region bases, sizes).
    #[must_use]
    pub fn layout(&self, scale: Scale) -> Layout {
        let (n, steps) = match scale {
            Scale::Test => (self.n, self.steps),
            Scale::Paper => (self.n_paper, self.steps_paper),
        };
        let in_words = self.check.in_words(n);
        let out_words = self.check.out_words(n);
        let out_base = IN_BASE + in_words * WORD_BYTES;
        let aux_base = out_base + out_words * WORD_BYTES;
        Layout {
            n,
            steps,
            in_base: IN_BASE,
            in_words,
            out_base,
            out_words,
            aux_base,
            size: aux_base + self.check.aux_bytes(),
        }
    }

    /// The input-region fill at `scale`, exactly as the data image
    /// places it (checkers recompute their reference from this).
    #[must_use]
    pub fn input(&self, scale: Scale) -> Vec<u64> {
        let l = self.layout(scale);
        fill_words(self.fill, self.seed, l.in_words as usize)
    }

    /// The initial data image at `scale`: the null page, the parameter
    /// block, and the filled input region.
    #[must_use]
    pub fn image(&self, scale: Scale) -> DataImage {
        let l = self.layout(scale);
        let mut words: Vec<(u64, u64)> = vec![
            (DATA_BASE, l.n),
            (DATA_BASE + 8, l.steps),
            (DATA_BASE + 16, l.in_base),
            (DATA_BASE + 24, l.out_base),
            (DATA_BASE + 32, l.aux_base),
        ];
        for (i, &v) in self.input(scale).iter().enumerate() {
            if v != 0 {
                words.push((l.in_base + (i as u64) * WORD_BYTES, v));
            }
        }
        DataImage {
            size: l.size,
            words,
        }
    }

    /// Assembles the workload at `scale`. The program is thread-count
    /// independent: it partitions work over `r0`/`r1` at run time.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Asm`] with the assembler's line/column diagnostic.
    pub fn build(&self, scale: Scale) -> Result<Program, CorpusError> {
        asm::assemble(&self.source, self.image(scale)).map_err(|error| CorpusError::Asm {
            workload: self.name.clone(),
            error,
        })
    }

    /// Verifies final memory (word-indexed from address 0) against the
    /// workload's predicate, recomputing the reference from the
    /// deterministic input fill.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    pub fn verify(&self, mem_words: &[u64], scale: Scale) -> Result<(), String> {
        let l = self.layout(scale);
        let need = (l.size / WORD_BYTES) as usize;
        if mem_words.len() < need {
            return Err(format!(
                "{}: memory holds {} words, layout needs {need}",
                self.name,
                mem_words.len()
            ));
        }
        let input = self.input(scale);
        let out = region(mem_words, l.out_base, l.out_words);
        let expected = expected_output(self.check, &input, &l);
        for (i, (&got, &want)) in out.iter().zip(&expected).enumerate() {
            if got != want {
                return Err(format!(
                    "{}: OUT[{i}] (addr {:#x}) is {got}, expected {want}",
                    self.name,
                    l.out_base + (i as u64) * WORD_BYTES
                ));
            }
        }
        Ok(())
    }
}

fn region(words: &[u64], base: u64, len: u64) -> &[u64] {
    let lo = (base / WORD_BYTES) as usize;
    &words[lo..lo + len as usize]
}

/// The reference output every predicate compares against, computed
/// with the ISA's arithmetic (wrapping ops, signed division).
fn expected_output(check: CheckKind, input: &[u64], l: &Layout) -> Vec<u64> {
    let n = l.n as usize;
    match check {
        CheckKind::Copy => input.to_vec(),
        CheckKind::Sorted => {
            let mut v = input.to_vec();
            v.sort_unstable();
            v
        }
        CheckKind::Blur3 => (0..n)
            .map(|i| {
                let left = input[i.saturating_sub(1)];
                let right = input[(i + 1).min(n - 1)];
                let sum = left.wrapping_add(input[i]).wrapping_add(right);
                ((sum as i64) / 3) as u64
            })
            .collect(),
        CheckKind::Matmul => {
            let (a, b) = input.split_at(n * n);
            let mut c = vec![0u64; n * n];
            for i in 0..n {
                for j in 0..n {
                    let mut acc = 0u64;
                    for k in 0..n {
                        acc = acc.wrapping_add(a[i * n + k].wrapping_mul(b[k * n + j]));
                    }
                    c[i * n + j] = acc;
                }
            }
            c
        }
        CheckKind::Sieve => (0..n as u64)
            .map(|i| u64::from(i >= 4 && (2..i).take_while(|p| p * p <= i).any(|p| i % p == 0)))
            .collect(),
        CheckKind::Chase => (0..n)
            .map(|s| {
                let mut idx = s as u64;
                for _ in 0..l.steps {
                    idx = input[idx as usize];
                }
                idx
            })
            .collect(),
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic input fill: same `(fill, seed, len)` always produces
/// the same words, so checkers can recompute their reference instead
/// of carrying the initial image around.
#[must_use]
pub fn fill_words(fill: Fill, seed: u64, len: usize) -> Vec<u64> {
    let mut state = seed ^ 0x00C0_49B5_D0CA_11ED;
    match fill {
        Fill::Ramp => (0..len as u64).collect(),
        Fill::Zero => vec![0; len],
        Fill::Lcg => (0..len).map(|_| splitmix(&mut state) & FILL_MASK).collect(),
        Fill::Perm => {
            let mut v: Vec<u64> = (0..len as u64).collect();
            for i in (1..len).rev() {
                let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
                v.swap(i, j);
            }
            v
        }
    }
}

/// A loaded corpus: every manifest workload, sorted by name.
#[derive(Clone, PartialEq, Eq)]
pub struct Corpus {
    dir: PathBuf,
    workloads: Vec<CorpusWorkload>,
}

impl fmt::Debug for Corpus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Corpus")
            .field("dir", &self.dir)
            .field("workloads", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

impl Corpus {
    /// Loads `dir/manifest.toml` and every referenced source file,
    /// validating each workload (known keys, legal knobs, no name
    /// collision with a built-in benchmark, assembles at both scales).
    ///
    /// # Errors
    ///
    /// The first [`CorpusError`] encountered.
    pub fn load(dir: impl AsRef<Path>) -> Result<Corpus, CorpusError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest_path = dir.join("manifest.toml");
        let text = fs::read_to_string(&manifest_path).map_err(|e| CorpusError::Io {
            path: manifest_path.clone(),
            message: e.to_string(),
        })?;
        let sections = manifest::parse(&text).map_err(CorpusError::Manifest)?;
        if sections.is_empty() {
            return Err(CorpusError::Manifest(manifest::ManifestError {
                line: 0,
                message: "manifest declares no workloads".into(),
            }));
        }
        let mut workloads = Vec::with_capacity(sections.len());
        for section in &sections {
            workloads.push(load_workload(&dir, section)?);
        }
        workloads.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Corpus { dir, workloads })
    }

    /// The directory this corpus was loaded from.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks a workload up by manifest name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&CorpusWorkload> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// All workloads, sorted by name.
    #[must_use]
    pub fn workloads(&self) -> &[CorpusWorkload] {
        &self.workloads
    }

    /// Workload names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.workloads.iter().map(|w| w.name.as_str())
    }
}

fn invalid(workload: &str, message: impl Into<String>) -> CorpusError {
    CorpusError::Invalid {
        workload: workload.to_string(),
        message: message.into(),
    }
}

const KNOWN_KEYS: &[&str] = &[
    "source",
    "check",
    "fill",
    "seed",
    "n",
    "n_paper",
    "steps",
    "steps_paper",
];

fn load_workload(dir: &Path, section: &Section) -> Result<CorpusWorkload, CorpusError> {
    let name = section.name.as_str();
    if let Some(kind) = WorkloadKind::from_name(name) {
        return Err(invalid(
            name,
            format!("name collides with built-in benchmark {}", kind.name()),
        ));
    }
    for (key, _) in &section.entries {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            return Err(invalid(name, format!("unknown key {key:?}")));
        }
    }
    let str_key = |key: &str| -> Result<&str, CorpusError> {
        section
            .get(key)
            .ok_or_else(|| invalid(name, format!("missing key {key:?}")))?
            .as_str()
            .ok_or_else(|| invalid(name, format!("key {key:?} must be a string")))
    };
    let int_key = |key: &str, default: i64| -> Result<u64, CorpusError> {
        let v = match section.get(key) {
            None => default,
            Some(ManValue::Int(v)) => *v,
            Some(ManValue::Str(_)) => {
                return Err(invalid(name, format!("key {key:?} must be an integer")))
            }
        };
        u64::try_from(v).map_err(|_| invalid(name, format!("key {key:?} must be non-negative")))
    };

    let source_file = str_key("source")?.to_string();
    let check_name = str_key("check")?;
    let check = CheckKind::parse(check_name)
        .ok_or_else(|| invalid(name, format!("unknown check {check_name:?}")))?;
    let fill = match section.get("fill") {
        None => Fill::Zero,
        Some(v) => {
            let text = v
                .as_str()
                .ok_or_else(|| invalid(name, "key \"fill\" must be a string"))?;
            Fill::parse(text).ok_or_else(|| invalid(name, format!("unknown fill {text:?}")))?
        }
    };
    let seed = int_key("seed", 0)?;
    let n = int_key("n", 0)?;
    if n == 0 {
        return Err(invalid(name, "`n` must be a positive integer"));
    }
    let n_paper = match section.get("n_paper") {
        None => n,
        Some(_) => int_key("n_paper", 0)?,
    };
    if n_paper == 0 {
        return Err(invalid(name, "`n_paper` must be positive"));
    }
    let steps = int_key("steps", 0)?;
    let steps_paper = match section.get("steps_paper") {
        None => steps,
        Some(_) => int_key("steps_paper", 0)?,
    };
    if check == CheckKind::Chase && steps == 0 {
        return Err(invalid(name, "the chase predicate needs `steps` >= 1"));
    }
    if check == CheckKind::Chase && fill != Fill::Perm {
        return Err(invalid(name, "the chase predicate needs `fill = \"perm\"`"));
    }

    let source_path = dir.join(&source_file);
    let source = fs::read_to_string(&source_path).map_err(|e| CorpusError::Io {
        path: source_path,
        message: e.to_string(),
    })?;
    let workload = CorpusWorkload {
        name: name.to_string(),
        source_file,
        source,
        check,
        fill,
        seed,
        n,
        n_paper,
        steps,
        steps_paper,
    };
    // Surface assembly diagnostics at load time, for both scales, so a
    // broken kernel fails the `Corpus::load` call instead of the first
    // sweep cell that touches it.
    workload.build(Scale::Test)?;
    workload.build(Scale::Paper)?;
    Ok(workload)
}
