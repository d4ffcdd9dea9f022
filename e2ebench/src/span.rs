//! In-memory span trace for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions, on the benchmark's single thread, so a child
//! span always lies inside its parent and siblings never overlap. They are
//! kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call. `name` is `layer.call`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Shared by every span of one request or job.
    pub op: u64,
}

impl Span {
    /// The layer this span times: the name up to the first `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A handle to an open span, returned by [`Trace::enter`].
#[must_use = "an entered span must be exited"]
pub struct Open(usize);

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    #[must_use]
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 1,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh operation id.
    pub fn new_op(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        op
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn exit(&mut self, span: Open) {
        assert_eq!(
            self.open.pop(),
            Some(span.0),
            "spans must close innermost first"
        );
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Trace) -> R) -> R {
        let s = self.enter(name, op);
        let r = f(self);
        self.exit(s);
        r
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A position to measure from: spans recorded after it belong to
    /// the pass that took it.
    #[must_use]
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of every span called `name` recorded since
    /// `mark`, in start order.
    #[must_use]
    pub fn secs_of(&self, mark: usize, name: &str) -> Vec<f64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds in spans called `name` recorded since `mark`.
    #[must_use]
    pub fn total(&self, mark: usize, name: &str) -> f64 {
        self.secs_of(mark, name).iter().sum()
    }

    /// Per-span self time in seconds: the span's duration minus the time
    /// its direct children cover.
    #[must_use]
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Self time summed per layer.
    #[must_use]
    pub fn layer_self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            *out.entry(s.layer()).or_insert(0.0) += own;
        }
        out
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(iters: u64) -> u64 {
        (0..iters).fold(0u64, |a, i| std::hint::black_box(a.wrapping_add(i * i)))
    }

    #[test]
    fn nesting_parents_and_ops_are_recorded() {
        let mut t = Trace::new();
        let op = t.new_op();
        t.span("a.outer", op, |t| {
            t.span("b.inner", op, |_| spin(10_000));
            t.span("b.inner", op, |_| spin(10_000));
        });
        let other = t.new_op();
        t.span("c.alone", other, |_| spin(1000));
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!([s[0].op, s[1].op, s[2].op], [op; 3]);
        assert_ne!(s[3].op, op);
        assert_eq!(s[0].layer(), "a");
    }

    #[test]
    fn self_times_are_non_negative_and_parts_fit_their_whole() {
        let mut t = Trace::new();
        for _ in 0..3 {
            let op = t.new_op();
            t.span("x.root", op, |t| {
                spin(5000);
                t.span("y.child", op, |t| {
                    t.span("z.leaf", op, |_| spin(20_000));
                    spin(2000);
                });
                t.span("z.leaf", op, |_| spin(3000));
            });
        }
        let own = t.self_secs();
        for (s, o) in t.spans().iter().zip(&own) {
            assert!(*o >= 0.0, "{} self time {o}", s.name);
            if let Some(p) = s.parent {
                assert!(s.secs() <= t.spans()[p].secs(), "child outlasts parent");
            }
        }
        let layers = t.layer_self_secs();
        let sum: f64 = layers.values().sum();
        assert!(
            (sum - t.total(0, "x.root")).abs() < 1e-9,
            "self times partition the roots"
        );
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn out_of_order_exit_is_a_bug() {
        let mut t = Trace::new();
        let a = t.enter("a.x", 1);
        let _b = t.enter("a.y", 1);
        t.exit(a);
    }
}
