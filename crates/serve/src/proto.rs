//! The wire protocol: newline-delimited JSON, one request or response
//! object per line.
//!
//! # Requests
//!
//! Every request is a JSON object with a `verb` field:
//!
//! | verb       | fields                                   | effect |
//! |------------|------------------------------------------|--------|
//! | `ping`     | —                                        | liveness + server identity |
//! | `status`   | —                                        | queue/worker/counter snapshot |
//! | `submit`   | `cells: [spec…]` and/or `grid: "name"`, optional `progress: bool`, `cpi: bool` | schedule cells, stream results |
//! | `fetch`    | `cell: spec`                             | cache-only probe, never simulates |
//! | `search`   | `workload`, optional `threads`, `seed`, `warmup`, `space: "smoke"\|"full"` | deterministic Pareto search, one `frontier` response |
//! | `shutdown` | —                                        | stop accepting, drain workers, exit |
//!
//! A *spec* object names one design-space cell. Only `workload` is
//! required; every other dimension defaults to the paper machine:
//!
//! ```json
//! {"workload":"sieve","policy":"trr","predictor":"btb","threads":4,
//!  "fetch_threads":1,"fetch_width":4,"su_depth":32,"cache":"sa"}
//! ```
//!
//! Dimension spellings match the cell-id abbreviations used everywhere
//! else in the repository: policies `trr|mrr|cs|ic`, predictors
//! `btb|gsh|pbtb`, caches `sa|dm`, workloads by case-insensitive
//! built-in name (`sieve`, `ll7`, `matrix`, …) or corpus name
//! (`quicksort`, …). A `'+'`-joined workload (`mpd+matmul`) is a
//! heterogeneous per-thread mix; its arity must equal `threads`, and
//! corpus names resolve only on a server started with `--corpus`.
//!
//! # Responses
//!
//! Every response is an object with a `type` field: `pong`, `status`,
//! `accepted`, `progress`, `cell`, `miss`, `done`, `bye`, or `error`.
//! Errors are *typed and line-framed* — a malformed request never kills
//! the connection (the server answers `{"type":"error","reason":…}` and
//! keeps reading), with one exception: a line exceeding the
//! [`MAX_LINE`](smt_experiments::json::MAX_LINE) cap cannot be safely
//! resynchronized and closes the connection after the error line.
//!
//! A `cell` response carries the full design point and its record — the
//! same fields, hashes, and float formatting as one entry of the batch
//! sweep's `results.json`, so a client holding `cell` lines can
//! reconstruct that file byte-identically (asserted by the black-box
//! suite).

use smt_core::config::defaults;
use smt_core::FetchPolicy;
use smt_experiments::explore::{hardware_cost, EvalMode, SearchReport, SearchSpace};
use smt_experiments::json::Value;
use smt_experiments::sweep::{lookup, CellRecord, CellSpec, CellStatus, Grid, Level, WorkSpec};
use smt_mem::CacheKind;
use smt_trace::{CpiBreakdown, SlotCause};
use smt_uarch::PredictorKind;

/// Most cells one `submit` may carry (the 990-cell paper grid fits with
/// headroom; a hostile 10⁶-cell submission does not).
pub const MAX_CELLS: usize = 4096;

/// A parsed, validated request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server snapshot.
    Status,
    /// Schedule cells; stream `progress` ticks and attach `cpi`
    /// telemetry when asked.
    Submit {
        /// The cells in request order, duplicates included (the server
        /// dedups).
        cells: Vec<CellSpec>,
        /// Stream per-quantum progress events.
        progress: bool,
        /// Attach a live CPI-stack breakdown to freshly simulated cells.
        cpi: bool,
    },
    /// Cache-only probe for one cell.
    Fetch(CellSpec),
    /// Deterministic Pareto search over a [`SearchSpace`], answered
    /// with one `frontier` response.
    Search {
        /// The searched region: the named one (`smoke` by default) around
        /// the request's workload and thread count.
        space: SearchSpace,
        /// Hill-climbing seed.
        seed: u64,
        /// How the points are measured: warm-forked after the requested
        /// warmup, or exact cold runs when it is 0.
        mode: EvalMode,
    },
    /// Stop the server.
    Shutdown,
}

impl Request {
    /// Parses and validates a request value.
    ///
    /// # Errors
    ///
    /// Returns a reason string (safe to echo into an `error` response)
    /// for anything that is not a well-formed request.
    pub fn parse(v: &Value) -> Result<Request, String> {
        let Value::Object(_) = v else {
            return Err("request must be a JSON object".into());
        };
        let verb = v
            .get("verb")
            .ok_or("missing \"verb\" field")?
            .as_str()
            .ok_or("\"verb\" must be a string")?;
        match verb {
            "ping" => Ok(Request::Ping),
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            "fetch" => {
                let cell = v.get("cell").ok_or("fetch needs a \"cell\" object")?;
                Ok(Request::Fetch(spec_from_value(cell)?))
            }
            "search" => {
                let workload = dim_str(v, "workload")?.ok_or("search needs a \"workload\"")?;
                let work = WorkSpec::parse(workload)?;
                let big = |key: &str| -> Result<Option<u64>, String> {
                    v.get(key)
                        .map(|x| {
                            x.as_u64()
                                .ok_or(format!("\"{key}\" must be a non-negative integer"))
                        })
                        .transpose()
                };
                let threads = dim(v, "threads", 1, defaults::THREADS)?;
                Ok(Request::Search {
                    space: SearchSpace::named(dim_str(v, "space")?, work, threads)?,
                    seed: big("seed")?.unwrap_or(0),
                    mode: EvalMode::from_warmup(big("warmup")?),
                })
            }
            "submit" => {
                let mut cells = Vec::new();
                if let Some(grid) = v.get("grid") {
                    let name = grid.as_str().ok_or("\"grid\" must be a string")?;
                    cells.extend(Grid::named(name)?.cells());
                }
                if let Some(list) = v.get("cells") {
                    let list = list.as_array().ok_or("\"cells\" must be an array")?;
                    for c in list {
                        cells.push(spec_from_value(c)?);
                    }
                }
                if cells.is_empty() {
                    return Err("submit needs \"cells\" and/or \"grid\"".into());
                }
                if cells.len() > MAX_CELLS {
                    return Err(format!(
                        "submission of {} cells exceeds the {MAX_CELLS}-cell cap",
                        cells.len()
                    ));
                }
                Ok(Request::Submit {
                    cells,
                    progress: flag(v, "progress")?,
                    cpi: flag(v, "cpi")?,
                })
            }
            other => Err(format!("unknown verb {other:?}")),
        }
    }
}

fn flag(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(false),
        Some(x) => x.as_bool().ok_or(format!("\"{key}\" must be a boolean")),
    }
}

/// Bounds on the numeric dimensions. Far wider than any feasible machine
/// (`SimConfig::validate` is the real arbiter); these only stop a crafted
/// request from allocating absurd structures before validation runs.
const DIM_MAX: u64 = 4096;

/// A numeric dimension: `default` when absent, else an integer in
/// `min..=DIM_MAX` (`min` is 0 only for knobs where 0 means "disabled",
/// like the speculation-depth limit).
fn dim(v: &Value, key: &str, min: u64, default: usize) -> Result<usize, String> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => {
            let n = x
                .as_u64()
                .ok_or(format!("\"{key}\" must be a non-negative integer"))?;
            if !(min..=DIM_MAX).contains(&n) {
                return Err(format!("\"{key}\" = {n} is outside {min}..={DIM_MAX}"));
            }
            Ok(usize::try_from(n).expect("DIM_MAX fits usize"))
        }
    }
}

/// An enumerated dimension: `default` when absent, else the level of
/// `options` it spells.
fn level<T: Copy, const N: usize>(
    v: &Value,
    key: &str,
    options: [(&'static str, T); N],
    default: T,
) -> Result<T, String> {
    dim_str(v, key)?.map_or(Ok(default), |s| lookup(key, options, s))
}

fn dim_str<'v>(v: &'v Value, key: &str) -> Result<Option<&'v str>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_str()
            .map(Some)
            .ok_or(format!("\"{key}\" must be a string")),
    }
}

/// Parses one cell spec, applying paper-machine defaults for absent
/// dimensions.
///
/// # Errors
///
/// Returns an echo-safe reason for missing/unknown workloads, unknown
/// dimension spellings, or out-of-range numerics.
pub fn spec_from_value(v: &Value) -> Result<CellSpec, String> {
    let Value::Object(_) = v else {
        return Err("cell spec must be a JSON object".into());
    };
    let workload = dim_str(v, "workload")?.ok_or("cell spec needs a \"workload\"")?;
    let d = CellSpec::default();
    let policies = FetchPolicy::ALL.map(|k| (k.abbrev(), k));
    let predictors = PredictorKind::ALL.map(|k| (k.abbrev(), k));
    let caches = CacheKind::ALL.map(|k| (k.abbrev(), k));
    Ok(CellSpec {
        work: WorkSpec::parse(workload)?,
        policy: level(v, "policy", policies, d.policy)?,
        predictor: level(v, "predictor", predictors, d.predictor)?,
        threads: dim(v, "threads", 1, d.threads)?,
        fetch_threads: dim(v, "fetch_threads", 1, d.fetch_threads)?,
        fetch_width: dim(v, "fetch_width", 1, d.fetch_width)?,
        su_depth: dim(v, "su_depth", 1, d.su_depth)?,
        cache: level(v, "cache", caches, d.cache)?,
        spec_depth: dim(v, "spec_depth", 0, d.spec_depth)?,
    })
}

/// Serializes a spec for a request or response.
#[must_use]
pub fn spec_to_value(spec: &CellSpec) -> Value {
    Value::Object(
        spec.levels()
            .into_iter()
            .map(|(axis, level)| {
                let value = match level {
                    Level::Name(name) => name.into(),
                    Level::Count(n) => (n as u64).into(),
                };
                (axis.into(), value)
            })
            .collect(),
    )
}

/// Builds the `cell` response: the spec dimensions plus every record
/// field, flat in one object, with an optional `cpi` telemetry object.
#[must_use]
pub fn cell_response(spec: &CellSpec, rec: &CellRecord, cpi: Option<&CpiBreakdown>) -> Value {
    let Value::Object(mut fields) = spec_to_value(spec) else {
        unreachable!("spec_to_value returns an object")
    };
    fields.insert(0, ("type".into(), "cell".into()));
    fields.extend([
        ("id".into(), rec.id.as_str().into()),
        ("code_version".into(), rec.code_version.as_str().into()),
        (
            "config_hash".into(),
            format!("{:#018x}", rec.config_hash).into(),
        ),
        (
            "program_hash".into(),
            format!("{:#018x}", rec.program_hash).into(),
        ),
        ("status".into(), rec.status.as_str().into()),
        ("cycles".into(), rec.cycles.into()),
        ("committed".into(), rec.committed.into()),
        ("ipc".into(), rec.ipc.into()),
        ("hit_rate".into(), rec.hit_rate.into()),
        ("branch_accuracy".into(), rec.branch_accuracy.into()),
        ("su_stalls".into(), rec.su_stalls.into()),
        ("reason".into(), rec.reason.as_str().into()),
    ]);
    if let Some(b) = cpi {
        let causes: Vec<(String, Value)> = SlotCause::ALL
            .into_iter()
            .filter(|&c| b.slot_count(c) > 0)
            .map(|c| (c.name().to_string(), b.slot_count(c).into()))
            .collect();
        fields.push((
            "cpi".into(),
            Value::Object(vec![
                ("width".into(), u64::from(b.width).into()),
                ("cycles".into(), b.cycles.into()),
                ("slots".into(), Value::Object(causes)),
            ]),
        ));
    }
    Value::Object(fields)
}

/// Client-side inverse of [`cell_response`]: recovers the design point
/// and its record (bit-exact floats included) from a `cell` line.
///
/// # Errors
///
/// Returns a reason for any missing or mistyped field.
pub fn parse_cell_response(v: &Value) -> Result<(CellSpec, CellRecord), String> {
    let spec = spec_from_value(v)?;
    let s = |key: &str| -> Result<String, String> {
        Ok(dim_str(v, key)?
            .ok_or(format!("cell response missing \"{key}\""))?
            .to_string())
    };
    let int = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("cell response missing integer \"{key}\""))
    };
    let float = |key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("cell response missing number \"{key}\""))
    };
    let hex = |key: &str| -> Result<u64, String> {
        let text = s(key)?;
        text.strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or(format!("cell response field \"{key}\" is not a hash"))
    };
    let status_text = s("status")?;
    let status =
        CellStatus::parse(&status_text).ok_or(format!("unknown cell status {status_text:?}"))?;
    let rec = CellRecord {
        id: s("id")?,
        code_version: s("code_version")?,
        config_hash: hex("config_hash")?,
        program_hash: hex("program_hash")?,
        status,
        cycles: int("cycles")?,
        committed: int("committed")?,
        ipc: float("ipc")?,
        hit_rate: float("hit_rate")?,
        branch_accuracy: float("branch_accuracy")?,
        su_stalls: int("su_stalls")?,
        reason: s("reason")?,
    };
    if rec.id != spec.id() {
        return Err(format!(
            "cell response id {:?} does not match its dimensions ({:?})",
            rec.id,
            spec.id()
        ));
    }
    Ok((spec, rec))
}

/// Builds the `frontier` response for a finished search: the run shape,
/// the trajectory digest (two servers answering the same request agree
/// on it iff their trajectory artifacts are byte-equal), and the
/// frontier as an array of cells with measured IPC and modeled cost, in
/// ascending-cost order.
#[must_use]
pub fn search_response(report: &SearchReport) -> Value {
    let frontier: Vec<Value> = report
        .frontier
        .iter()
        .map(|(spec, rec)| {
            let Value::Object(mut fields) = spec_to_value(spec) else {
                unreachable!("spec_to_value returns an object")
            };
            fields.extend([
                ("id".into(), rec.id.as_str().into()),
                ("status".into(), rec.status.as_str().into()),
                ("ipc".into(), rec.ipc.into()),
                ("cost".into(), hardware_cost(spec).into()),
            ]);
            Value::Object(fields)
        })
        .collect();
    Value::Object(vec![
        ("type".into(), "frontier".into()),
        (
            "evaluations".into(),
            (report.outcome.evaluations.len() as u64).into(),
        ),
        ("steps".into(), (report.outcome.steps.len() as u64).into()),
        (
            "trajectory_hash".into(),
            format!("{:#018x}", report.trajectory_hash).into(),
        ),
        ("frontier".into(), Value::Array(frontier)),
    ])
}

/// Builds a typed error response.
#[must_use]
pub fn error_response(reason: &str) -> Value {
    Value::Object(vec![
        ("type".into(), "error".into()),
        ("reason".into(), reason.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_experiments::explore::DEFAULT_WARMUP;
    use smt_experiments::json::parse_value;
    use smt_workloads::WorkloadKind;

    fn sieve4() -> CellSpec {
        CellSpec {
            work: WorkloadKind::Sieve.into(),
            policy: FetchPolicy::TrueRoundRobin,
            predictor: PredictorKind::SharedBtb,
            threads: 4,
            fetch_threads: 1,
            fetch_width: 4,
            su_depth: 32,
            cache: CacheKind::SetAssociative,
            spec_depth: 0,
        }
    }

    #[test]
    fn minimal_spec_gets_paper_defaults() {
        let v = parse_value(r#"{"workload":"sieve"}"#).unwrap();
        let spec = spec_from_value(&v).unwrap();
        assert_eq!(spec, sieve4());
    }

    #[test]
    fn specs_round_trip_through_the_wire_format() {
        let spec = CellSpec {
            work: WorkloadKind::Ll7.into(),
            policy: FetchPolicy::Icount,
            predictor: PredictorKind::Gshare,
            threads: 8,
            fetch_threads: 2,
            fetch_width: 8,
            su_depth: 16,
            cache: CacheKind::DirectMapped,
            spec_depth: 2,
        };
        let back = spec_from_value(&spec_to_value(&spec)).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn corpus_and_mix_workloads_round_trip_through_the_wire_format() {
        for name in ["quicksort", "mpd+matmul", "memstress+ll7"] {
            let spec = CellSpec {
                work: WorkSpec::parse(name).unwrap(),
                threads: 2,
                ..sieve4()
            };
            let back = spec_from_value(&spec_to_value(&spec)).unwrap();
            assert_eq!(back, spec, "{name}");
        }
        let v = parse_value(r#"{"workload":"mpd+not a name"}"#).unwrap();
        assert!(spec_from_value(&v).is_err(), "bad mix slots are typed");
    }

    #[test]
    fn spec_validation_is_typed_and_bounded() {
        for (bad, why) in [
            (r#"{}"#, "workload"),
            (r#"{"workload":"No Such Thing!"}"#, "neither"),
            (r#"{"workload":"sieve","threads":0}"#, "outside"),
            (r#"{"workload":"sieve","threads":5000}"#, "outside"),
            (r#"{"workload":"sieve","threads":-1}"#, "non-negative"),
            (r#"{"workload":"sieve","policy":"zz"}"#, "unknown policy"),
            (r#"{"workload":"sieve","su_depth":1.5}"#, "non-negative"),
            (r#"[]"#, "object"),
        ] {
            let v = parse_value(bad).unwrap();
            let err = spec_from_value(&v).expect_err(bad);
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn requests_parse_and_reject_by_verb() {
        let ping = parse_value(r#"{"verb":"ping"}"#).unwrap();
        assert!(matches!(Request::parse(&ping), Ok(Request::Ping)));
        let submit =
            parse_value(r#"{"verb":"submit","cells":[{"workload":"sieve"}],"progress":true}"#)
                .unwrap();
        let Ok(Request::Submit {
            cells,
            progress,
            cpi,
        }) = Request::parse(&submit)
        else {
            panic!("submit parses");
        };
        assert_eq!(cells, vec![sieve4()]);
        assert!(progress && !cpi);
        let grid = parse_value(r#"{"verb":"submit","grid":"smoke"}"#).unwrap();
        let Ok(Request::Submit { cells, .. }) = Request::parse(&grid) else {
            panic!("grid submit parses");
        };
        assert_eq!(cells.len(), Grid::smoke().cells().len());
        for bad in [
            r#"{"verb":"dance"}"#,
            r#"{"verb":42}"#,
            r#"{"noverb":1}"#,
            r#"{"verb":"submit"}"#,
            r#"{"verb":"submit","cells":[]}"#,
            r#"{"verb":"submit","grid":"bogus"}"#,
            r#"{"verb":"submit","cells":[{"workload":"sieve"}],"progress":"yes"}"#,
            r#"{"verb":"fetch"}"#,
            r#"7"#,
        ] {
            let v = parse_value(bad).unwrap();
            assert!(Request::parse(&v).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn search_requests_parse_defaults_and_reject_bad_shapes() {
        let minimal = parse_value(r#"{"verb":"search","workload":"sieve"}"#).unwrap();
        let Ok(Request::Search { space, seed, mode }) = Request::parse(&minimal) else {
            panic!("minimal search parses");
        };
        assert_eq!(*space.work(), WorkSpec::from(WorkloadKind::Sieve));
        assert_eq!(space.threads(), defaults::THREADS);
        assert_eq!(seed, 0);
        assert!(matches!(mode, EvalMode::Warm { warmup } if warmup == DEFAULT_WARMUP));
        assert_eq!(
            space.axes(),
            SearchSpace::smoke(WorkloadKind::Sieve.into(), 4).axes(),
            "space defaults to smoke"
        );

        let explicit = parse_value(
            r#"{"verb":"search","workload":"matrix","threads":2,"seed":7,"warmup":0,"space":"full"}"#,
        )
        .unwrap();
        let Ok(Request::Search { space, seed, mode }) = Request::parse(&explicit) else {
            panic!("explicit search parses");
        };
        assert_eq!((space.threads(), seed), (2, 7));
        assert!(
            matches!(mode, EvalMode::Full),
            "warmup 0 means exact cold runs"
        );
        assert_eq!(
            space.axes(),
            SearchSpace::full(WorkloadKind::Matrix.into(), 2).axes()
        );

        for bad in [
            r#"{"verb":"search"}"#,
            r#"{"verb":"search","workload":42}"#,
            r#"{"verb":"search","workload":"sieve","space":"bogus"}"#,
            r#"{"verb":"search","workload":"sieve","warmup":-1}"#,
            r#"{"verb":"search","workload":"sieve","seed":"lucky"}"#,
            r#"{"verb":"search","workload":"sieve","threads":0}"#,
        ] {
            let v = parse_value(bad).unwrap();
            assert!(Request::parse(&v).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn cell_responses_round_trip_records_bit_exactly() {
        let spec = sieve4();
        let rec = CellRecord {
            id: spec.id(),
            code_version: "0.1.0".into(),
            config_hash: 0x0123_4567_89ab_cdef,
            program_hash: 0xfedc_ba98_7654_3210,
            status: CellStatus::Done,
            cycles: 123_456,
            committed: 98_765,
            ipc: 1.234_567_890_123_456_7,
            hit_rate: 99.017_234,
            branch_accuracy: 87.5,
            su_stalls: 42,
            reason: String::new(),
        };
        let line = cell_response(&spec, &rec, None).to_line();
        let v = parse_value(&line).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("cell"));
        let (spec2, rec2) = parse_cell_response(&v).unwrap();
        assert_eq!(spec2, spec);
        assert_eq!(rec2, rec);
        assert_eq!(rec2.ipc.to_bits(), rec.ipc.to_bits());
    }

    #[test]
    fn mismatched_id_and_dimensions_are_rejected() {
        let spec = sieve4();
        let mut rec = CellRecord {
            id: "matrix-trr-t4-su32-sa".into(),
            code_version: "v".into(),
            config_hash: 1,
            program_hash: 2,
            status: CellStatus::Done,
            cycles: 1,
            committed: 1,
            ipc: 1.0,
            hit_rate: 0.0,
            branch_accuracy: 0.0,
            su_stalls: 0,
            reason: String::new(),
        };
        let v = parse_value(&cell_response(&spec, &rec, None).to_line()).unwrap();
        assert!(parse_cell_response(&v).is_err(), "forged id is caught");
        rec.id = spec.id();
        let v = parse_value(&cell_response(&spec, &rec, None).to_line()).unwrap();
        assert!(parse_cell_response(&v).is_ok());
    }
}
