//! The command-line parser every binary of the workspace uses.
//!
//! A binary declares its [`Flags`]. [`Args::parse`] accepts them in any
//! order and refuses everything else: an undeclared flag, a value flag with
//! no value (last on the line, or followed by another flag), a value flag
//! given twice that may not repeat, and a positional beyond the declared
//! count. The typed getters return `Result`, with an error that names the
//! flag.
//!
//! [`main`] prints any error as one stderr line, `<binary>: <error>`, and
//! exits with code 2: the command line cannot be carried out, because a
//! flag, a value, or a path, address or corpus it names is unusable. A
//! binary exits with code 1 itself when the work ran and failed.

use std::fmt;
use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use smt_corpus::Corpus;
use smt_workloads::Scale;

use crate::sweep::{lookup, SweepOptions};

/// What a binary accepts; each list is flags separated by whitespace.
#[derive(Debug)]
pub struct Flags {
    /// Flags followed by a value (`--out results.json`).
    pub values: &'static str,
    /// The value flags that may be given more than once.
    pub repeated: &'static str,
    /// Flags that take no value (`--serial`).
    pub switches: &'static str,
    /// The most positional arguments the binary takes.
    pub positionals: usize,
}

/// A command line checked against its binary's [`Flags`].
#[derive(Debug, Default)]
pub struct Args {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positionals: Vec<String>,
}

impl Args {
    /// Checks `args` (without the program name) against `flags`.
    ///
    /// # Errors
    ///
    /// Any argument the [module docs](self) say is refused.
    pub fn parse(flags: &Flags, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let declared = |list: &'static str, arg: &str| list.split_whitespace().find(|&f| f == arg);
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(flag) = declared(flags.values, &arg) {
                let value = args.next().filter(|v| !v.starts_with("--"));
                let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
                if parsed.value(flag).is_some() && declared(flags.repeated, flag).is_none() {
                    return Err(format!("{flag} is given more than once"));
                }
                parsed.values.push((flag, value));
            } else if let Some(switch) = declared(flags.switches, &arg) {
                parsed.switches.push(switch);
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag `{arg}`"));
            } else if parsed.positionals.len() < flags.positionals {
                parsed.positionals.push(arg);
            } else {
                return Err(format!("unexpected argument `{arg}`"));
            }
        }
        Ok(parsed)
    }

    /// The value of `flag`, if given (the first one, for a repeated flag).
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.values.iter().find(|(f, _)| *f == flag)?;
        Some(value)
    }

    /// Every value of `flag`, in command-line order.
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let given = self.values.iter().filter(move |(f, _)| *f == flag);
        given.map(|(_, v)| v.as_str())
    }

    /// Whether the switch `flag` was given.
    #[must_use]
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The positional arguments, in order.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The value of `flag`, which must be given.
    ///
    /// # Errors
    ///
    /// `flag` is absent.
    pub fn required(&self, flag: &str) -> Result<&str, String> {
        self.value(flag)
            .ok_or_else(|| format!("{flag} is required"))
    }

    /// The value of `flag` passed through `parse`, if given.
    ///
    /// # Errors
    ///
    /// `parse`'s error, prefixed with the flag.
    pub fn parse_with<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let parsed = self.value(flag).map(parse).transpose();
        parsed.map_err(|e| format!("{flag}: {e}"))
    }

    /// The value of `flag` parsed as a `T`, if given. A count that must be
    /// positive parses as a `NonZeroUsize` or `NonZeroU64`.
    ///
    /// # Errors
    ///
    /// The value does not parse as a `T`.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: fmt::Display,
    {
        self.parse_with(flag, |s| {
            s.parse().map_err(|e| format!("cannot parse `{s}`: {e}"))
        })
    }

    /// The value of `flag` looked up among `levels`, the spellings of a
    /// `what` (see [`lookup`]), if given.
    ///
    /// # Errors
    ///
    /// The value is none of the spellings.
    pub fn level<T>(
        &self,
        flag: &str,
        what: &str,
        levels: impl IntoIterator<Item = (&'static str, T)>,
    ) -> Result<Option<T>, String> {
        self.parse_with(flag, |s| lookup(what, levels, s))
    }

    /// `--workers`, or the host's available parallelism when absent.
    ///
    /// # Errors
    ///
    /// The value is not a positive count.
    pub fn workers(&self) -> Result<usize, String> {
        let workers = self.get::<NonZeroUsize>("--workers")?;
        let workers = workers.or_else(|| std::thread::available_parallelism().ok());
        Ok(workers.map_or(1, NonZeroUsize::get))
    }

    /// `--scale paper|test`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// The value is neither `paper` nor `test`.
    pub fn scale(&self, default: Scale) -> Result<Scale, String> {
        let levels = [("paper", Scale::Paper), ("test", Scale::Test)];
        Ok(self.level("--scale", "scale", levels)?.unwrap_or(default))
    }

    /// The workload corpus in the `--corpus` directory, or in `default`
    /// when the flag is absent; `None` when neither names one.
    ///
    /// # Errors
    ///
    /// The directory does not hold a loadable corpus.
    pub fn corpus(&self, default: Option<&str>) -> Result<Option<Corpus>, String> {
        let Some(dir) = self.value("--corpus").or(default) else {
            return Ok(None);
        };
        let corpus = Corpus::load(dir).map_err(|e| {
            format!(
                "cannot load the workload corpus from directory `{dir}` ({e}); pass --corpus <dir>"
            )
        });
        Ok(Some(corpus?))
    }

    /// The sweep engine's options as `sweep` and `serve` take them:
    /// `--scale` (default `test`), `--workers`, `--checkpoint-every`, and
    /// `--corpus`, which falls back to `default_corpus`.
    ///
    /// # Errors
    ///
    /// One of the four flags has an unusable value.
    pub fn sweep_options(&self, default_corpus: Option<&str>) -> Result<SweepOptions, String> {
        let checkpoint_every = self.get::<NonZeroU64>("--checkpoint-every")?;
        Ok(SweepOptions {
            scale: self.scale(Scale::Test)?,
            workers: self.workers()?,
            checkpoint_every: checkpoint_every.map(NonZeroU64::get),
            corpus: self.corpus(default_corpus)?.map(Arc::new),
            ..SweepOptions::default()
        })
    }
}

/// Runs a binary: checks the process arguments against `flags`, then calls
/// `run`. An error from either is printed as one stderr line,
/// `<name>: <error>`, and exits with code 2.
pub fn main(
    name: &str,
    flags: &Flags,
    run: impl FnOnce(&Args) -> Result<ExitCode, String>,
) -> ExitCode {
    let args = std::env::args_os().skip(1).map(|a| {
        a.into_string()
            .map_err(|a| format!("argument {a:?} is not UTF-8"))
    });
    let args = args.collect::<Result<Vec<_>, String>>();
    match args.and_then(|args| run(&Args::parse(flags, args)?)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::from(2)
        }
    }
}
