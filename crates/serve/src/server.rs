//! The daemon: accept loop, worker pool, and in-flight deduplication on
//! top of one [`Scheduler`].
//!
//! Structure: [`Server::start`] binds a `TcpListener`, spawns one accept
//! thread and `opts.workers` simulation workers, and returns a handle.
//! Each connection gets its own handler thread speaking the [`proto`]
//! line protocol. Cells a submission needs are first probed against the
//! store (cache hits answer inline, without touching the worker pool);
//! misses go through a single in-flight table keyed by cell id, so any
//! number of concurrent submissions of the same cell share one
//! execution and all receive its events.
//!
//! Failure containment: each cell runs under `catch_unwind`, so a
//! watchdog trip or workload-check failure inside the simulator becomes
//! a typed per-cell error event — the worker, the other cells, and the
//! server all survive. Locks are taken with poison-tolerant guards for
//! the same reason.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use smt_experiments::explore::run_search;
use smt_experiments::json::{write_json_line, Frame, JsonLineReader, Value, MAX_LINE};
use smt_experiments::sweep::{CellOutcome, CellSpec, Scheduler, SweepOptions};
use smt_search::SearchParams;
use smt_workloads::Scale;

use crate::proto::{self, Request};

/// Acquires a mutex, tolerating poison: a panicking worker must not take
/// the whole server down with it (the poisoned state is a plain
/// collection that stays consistent across the panic points).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One scheduled execution.
struct Job {
    spec: CellSpec,
    /// Whether the originating submission asked for CPI telemetry. Later
    /// submissions that join the in-flight cell share this choice.
    cpi: bool,
}

/// What subscribers of a cell receive.
#[derive(Clone, Debug)]
enum Event {
    /// The cell simulated another quantum.
    Progress {
        id: String,
        cycle: u64,
        committed: u64,
    },
    /// The cell finished — with its outcome, or with the text of the
    /// panic that killed it.
    Finished {
        id: String,
        result: Result<Box<CellOutcome>, String>,
    },
}

/// State shared by the accept thread, workers, and connection handlers.
struct Shared {
    sched: Scheduler,
    addr: SocketAddr,
    queue: Mutex<VecDeque<Job>>,
    work: Condvar,
    /// Cell id → subscribers. Registration and completion both hold this
    /// lock, so a submission either joins a live execution or schedules a
    /// fresh one — never a removed entry.
    inflight: Mutex<HashMap<String, Vec<Sender<Event>>>>,
    quit: AtomicBool,
    // Counters for the `status` verb (and the dedup assertions in the
    // black-box suite).
    cached_hits: AtomicU64,
    simulated: AtomicU64,
    joined: AtomicU64,
    failed: AtomicU64,
    workers: usize,
}

impl Shared {
    /// Registers `tx` for the cell: joins the in-flight execution if one
    /// exists, otherwise enqueues a fresh job. Returns whether a job was
    /// newly scheduled.
    ///
    /// # Errors
    ///
    /// Refuses once shutdown has begun (workers may already have
    /// drained), so a late submission gets an error instead of a wedge.
    fn subscribe(&self, spec: &CellSpec, cpi: bool, tx: Sender<Event>) -> Result<bool, String> {
        let id = spec.id();
        let mut inflight = lock(&self.inflight);
        if let Some(subs) = inflight.get_mut(&id) {
            subs.push(tx);
            self.joined.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        // Workers only exit after observing `quit` under the queue lock
        // with an empty queue; checking under the same lock means a job
        // we enqueue here cannot be stranded.
        let mut queue = lock(&self.queue);
        if self.quit.load(Ordering::SeqCst) {
            return Err("server is shutting down".into());
        }
        inflight.insert(id, vec![tx]);
        queue.push_back(Job {
            spec: spec.clone(),
            cpi,
        });
        self.work.notify_one();
        Ok(true)
    }

    /// Fans a progress tick out to the cell's current subscribers.
    fn tick(&self, id: &str, cycle: u64, committed: u64) {
        let inflight = lock(&self.inflight);
        if let Some(subs) = inflight.get(id) {
            for tx in subs {
                let _ = tx.send(Event::Progress {
                    id: id.to_string(),
                    cycle,
                    committed,
                });
            }
        }
    }

    /// Delivers the terminal event and retires the in-flight entry, under
    /// the same lock [`subscribe`](Self::subscribe) registers through.
    fn complete(&self, id: &str, result: &Result<Box<CellOutcome>, String>) {
        let subs = lock(&self.inflight).remove(id).unwrap_or_default();
        for tx in subs {
            let _ = tx.send(Event::Finished {
                id: id.to_string(),
                result: result.clone(),
            });
        }
    }

    fn begin_shutdown(&self) {
        self.quit.store(true, Ordering::SeqCst);
        self.work.notify_all();
        // The accept thread blocks in `incoming()`; a throwaway connection
        // to ourselves wakes it so it can observe `quit` and return.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Simulation worker: pops jobs until shutdown *and* an empty queue —
/// queued work is always drained, so no subscriber waits forever.
fn worker(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.quit.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .work
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let id = job.spec.id();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.sched.run_cell(&job.spec, job.cpi, &mut |t| {
                shared.tick(t.id, t.cycle, t.committed);
            })
        }));
        let result = match outcome {
            Ok(o) => {
                if o.ran {
                    shared.simulated.fetch_add(1, Ordering::Relaxed);
                } else {
                    // Raced with another process sharing the store: the
                    // cell landed in cache between probe and execution.
                    shared.cached_hits.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Box::new(o))
            }
            Err(panic) => {
                shared.failed.fetch_add(1, Ordering::Relaxed);
                Err(panic_text(&panic))
            }
        };
        shared.complete(&id, &result);
    }
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "simulation panicked".to_string()
    }
}

/// A running server. Dropping the handle does *not* stop the daemon;
/// send a `shutdown` request (or use [`sweep-client shutdown`]) and then
/// [`join`](Server::join).
pub struct Server {
    addr: SocketAddr,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), opens the store
    /// under `store`, and spawns the accept thread plus `opts.workers`
    /// simulation workers.
    ///
    /// # Errors
    ///
    /// Fails on bind or store-creation errors.
    pub fn start(addr: &str, store: &Path, opts: SweepOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = opts.workers.max(1);
        let shared = Arc::new(Shared {
            sched: Scheduler::new(store, opts)?,
            addr: local,
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            quit: AtomicBool::new(false),
            cached_hits: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            joined: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            workers,
        });
        let pool = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker(&shared))
            })
            .collect();
        let accept = thread::spawn(move || accept_loop(&listener, &shared));
        Ok(Server {
            addr: local,
            accept,
            workers: pool,
        })
    }

    /// The actually bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client's `shutdown` request stops the daemon, then
    /// joins the accept thread and every worker.
    pub fn join(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.quit.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        thread::spawn(move || {
            // Transport errors (client vanished mid-reply) end the
            // handler; the in-flight machinery tolerates dead receivers.
            let _ = handle(stream, &shared);
        });
    }
    // Belt and braces: make sure idle workers observe `quit`.
    shared.work.notify_all();
}

/// One connection: read frames, answer each with one or more response
/// lines. Returns when the client disconnects, sends an unframeable
/// line, or asks for shutdown.
fn handle(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut frames = JsonLineReader::new(BufReader::new(stream.try_clone()?));
    let mut out = stream;
    while let Some(frame) = frames.next_value()? {
        match frame {
            Frame::Oversized => {
                // The rest of the line is unread and unbounded; after the
                // error there is no safe way to resynchronize.
                let reason = format!("line exceeds the {MAX_LINE}-byte cap");
                write_json_line(&mut out, &proto::error_response(&reason))?;
                return Ok(());
            }
            Frame::Malformed(reason) => {
                write_json_line(&mut out, &proto::error_response(&reason))?;
            }
            Frame::Value(v) => match Request::parse(&v) {
                Err(reason) => {
                    write_json_line(&mut out, &proto::error_response(&reason))?;
                }
                Ok(req) => {
                    if !respond(&mut out, shared, req)? {
                        return Ok(());
                    }
                }
            },
        }
    }
    Ok(())
}

/// Executes one request. Returns `false` when the connection should
/// close (shutdown acknowledged).
fn respond(out: &mut TcpStream, shared: &Shared, req: Request) -> io::Result<bool> {
    match req {
        Request::Ping => {
            let opts = shared.sched.opts();
            let scale = match opts.scale {
                Scale::Test => "test",
                Scale::Paper => "paper",
            };
            write_json_line(
                out,
                &Value::Object(vec![
                    ("type".into(), "pong".into()),
                    ("code_version".into(), opts.code_version.as_str().into()),
                    ("scale".into(), scale.into()),
                    ("workers".into(), (shared.workers as u64).into()),
                ]),
            )?;
        }
        Request::Status => {
            let queue = lock(&shared.queue).len();
            let inflight = lock(&shared.inflight).len();
            let n = |c: &AtomicU64| Value::from(c.load(Ordering::Relaxed));
            write_json_line(
                out,
                &Value::Object(vec![
                    ("type".into(), "status".into()),
                    ("workers".into(), (shared.workers as u64).into()),
                    ("queue".into(), (queue as u64).into()),
                    ("inflight".into(), (inflight as u64).into()),
                    ("cached_hits".into(), n(&shared.cached_hits)),
                    ("simulated".into(), n(&shared.simulated)),
                    ("joined".into(), n(&shared.joined)),
                    ("failed".into(), n(&shared.failed)),
                ]),
            )?;
        }
        Request::Fetch(spec) => {
            if let Err(reason) = shared.sched.resolve(&spec.work) {
                write_json_line(out, &proto::error_response(&reason))?;
            } else if let Some(rec) = shared.sched.probe(&spec) {
                shared.cached_hits.fetch_add(1, Ordering::Relaxed);
                write_json_line(out, &proto::cell_response(&spec, &rec, None))?;
            } else {
                write_json_line(
                    out,
                    &Value::Object(vec![
                        ("type".into(), "miss".into()),
                        ("id".into(), spec.id().into()),
                    ]),
                )?;
            }
        }
        Request::Submit {
            cells,
            progress,
            cpi,
        } => submit(out, shared, &cells, progress, cpi)?,
        Request::Search { space, seed, mode } => {
            // Searches run on the handler thread: one search is a whole
            // campaign of cells, so parking a connection on it (rather
            // than a pool worker) keeps submit traffic flowing. The
            // store-level cache still dedups the cells themselves.
            if let Err(reason) = shared.sched.resolve(space.work()) {
                write_json_line(out, &proto::error_response(&reason))?;
                return Ok(true);
            }
            let params = SearchParams {
                seed,
                ..SearchParams::default()
            };
            let report = catch_unwind(AssertUnwindSafe(|| {
                run_search(&shared.sched, &space, mode, &params)
            }));
            match report {
                Ok(Ok(report)) => {
                    // Evaluations answered from the store are hits, as a
                    // submit's cached cells are.
                    let simulated = report.simulated as u64;
                    let evaluations = report.outcome.evaluations.len() as u64;
                    shared.simulated.fetch_add(simulated, Ordering::Relaxed);
                    shared
                        .cached_hits
                        .fetch_add(evaluations - simulated, Ordering::Relaxed);
                    write_json_line(out, &proto::search_response(&report))?;
                }
                Ok(Err(e)) => {
                    shared.failed.fetch_add(1, Ordering::Relaxed);
                    write_json_line(
                        out,
                        &proto::error_response(&format!("search I/O failed: {e}")),
                    )?;
                }
                Err(panic) => {
                    shared.failed.fetch_add(1, Ordering::Relaxed);
                    write_json_line(out, &proto::error_response(&panic_text(&panic)))?;
                }
            }
        }
        Request::Shutdown => {
            write_json_line(out, &Value::Object(vec![("type".into(), "bye".into())]))?;
            shared.begin_shutdown();
            return Ok(false);
        }
    }
    Ok(true)
}

/// The submit flow: probe every cell against the store, answer hits
/// inline, schedule-or-join the misses, then stream events until all
/// have finished.
fn submit(
    out: &mut TcpStream,
    shared: &Shared,
    cells: &[CellSpec],
    progress: bool,
    cpi: bool,
) -> io::Result<()> {
    // Dedup within the request (a grid plus explicit cells may overlap),
    // preserving first-occurrence order.
    let mut seen = HashSet::new();
    let unique: Vec<&CellSpec> = cells.iter().filter(|s| seen.insert(s.id())).collect();

    let (tx, rx) = channel();
    let mut cached = Vec::new();
    let (mut scheduled, mut joined, mut refused) = (0u64, 0u64, Vec::new());
    for spec in &unique {
        // Admission check: a typo'd corpus name (or a corpus-less server)
        // answers with a typed per-cell error instead of writing an
        // infeasible record into the shared store.
        if let Err(reason) = shared.sched.resolve(&spec.work) {
            refused.push((spec.id(), reason));
            continue;
        }
        if let Some(rec) = shared.sched.probe(spec) {
            shared.cached_hits.fetch_add(1, Ordering::Relaxed);
            cached.push(((*spec).clone(), rec));
        } else {
            match shared.subscribe(spec, cpi, tx.clone()) {
                Ok(true) => scheduled += 1,
                Ok(false) => joined += 1,
                Err(reason) => refused.push((spec.id(), reason)),
            }
        }
    }
    drop(tx);

    write_json_line(
        out,
        &Value::Object(vec![
            ("type".into(), "accepted".into()),
            ("total".into(), (unique.len() as u64).into()),
            ("cached".into(), (cached.len() as u64).into()),
            ("scheduled".into(), scheduled.into()),
            ("joined".into(), joined.into()),
        ]),
    )?;
    let mut failed = 0u64;
    for (id, reason) in refused {
        failed += 1;
        write_json_line(out, &cell_error(&id, &reason))?;
    }
    for (spec, rec) in &cached {
        write_json_line(out, &proto::cell_response(spec, rec, None))?;
    }

    let mut pending = scheduled + joined;
    while pending > 0 {
        // Workers drain the queue even during shutdown and `complete`
        // always fires (panics included), so this cannot wedge; a closed
        // channel here would mean a worker died outside its unwind guard.
        let Ok(event) = rx.recv() else {
            failed += pending;
            write_json_line(
                out,
                &proto::error_response("server lost a worker; remaining cells abandoned"),
            )?;
            break;
        };
        match event {
            Event::Progress {
                id,
                cycle,
                committed,
            } => {
                if progress {
                    write_json_line(
                        out,
                        &Value::Object(vec![
                            ("type".into(), "progress".into()),
                            ("id".into(), id.into()),
                            ("cycle".into(), cycle.into()),
                            ("committed".into(), committed.into()),
                        ]),
                    )?;
                }
            }
            Event::Finished { id, result } => {
                pending -= 1;
                match result {
                    Ok(o) => {
                        write_json_line(
                            out,
                            &proto::cell_response(&o.spec, &o.rec, o.cpi.as_ref()),
                        )?;
                    }
                    Err(reason) => {
                        failed += 1;
                        write_json_line(out, &cell_error(&id, &reason))?;
                    }
                }
            }
        }
    }

    write_json_line(
        out,
        &Value::Object(vec![
            ("type".into(), "done".into()),
            ("total".into(), (unique.len() as u64).into()),
            ("failed".into(), failed.into()),
        ]),
    )
}

/// A per-cell failure inside a submit stream: an `error` carrying the
/// cell id, so the client can account for it against `total`.
fn cell_error(id: &str, reason: &str) -> Value {
    Value::Object(vec![
        ("type".into(), "error".into()),
        ("id".into(), id.into()),
        ("reason".into(), reason.into()),
    ])
}
