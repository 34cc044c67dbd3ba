//! The persistent fleet service: a long-running socket front-end over
//! [`FleetEngine`].
//!
//! Batch mode (`parse_jsonl` → [`FleetEngine::run`]) reads a whole
//! request, runs it, exits. This module keeps the engine — and, more
//! importantly, its warmed operator caches — alive across requests:
//! clients connect over TCP (or a Unix socket), stream JSONL job lines,
//! and read JSONL result lines back on the same connection, while the
//! engine's workers serve every connection off one shared cache.
//!
//! Design, front to back:
//!
//! * **Admission** — each connection gets a reader thread running a
//!   streaming [`RequestParser`]: floorplan definitions build a
//!   *connection-local* registry, and each job line is bound to its
//!   `Arc<Floorplan>` at admission. Workers then run jobs via
//!   [`FleetEngine::run_resolved`], never consulting a shared name
//!   table — two connections may both define `"chip"` without
//!   colliding, and a served job takes the exact solve path (and bit
//!   pattern) of the same job in a batch run.
//! * **Scheduling** — admitted jobs join one *bounded* first-in,
//!   first-out queue; each of the engine's `threads` workers takes the
//!   oldest admitted job whenever it is free.
//! * **Backpressure** — when the queue is at capacity the job is
//!   refused at admission with a typed `"refused": "backpressure"`
//!   line naming the depth, rather than buffered without bound. The
//!   client retries; the server's memory stays flat.
//! * **Results** — each job carries an `mpsc` handle to its
//!   connection's writer thread; result lines stream back as jobs
//!   complete (tagged `"job": n` in per-connection admission order,
//!   matching the line numbering a batch run of the same request would
//!   use).
//! * **Control** — `{"type": "stats"}` answers with a metrics line
//!   ([`ServeMetrics::stats_json`]: cache hit rates, queue depth, jobs
//!   served, retries/panics, p50/p99 job latency); `{"type":
//!   "shutdown"}` initiates graceful drain.
//! * **Graceful shutdown** — on a shutdown record, or whenever the
//!   [`FleetServer::shutdown_handle`] flag is raised (the `fleet serve`
//!   binary wires SIGTERM and stdin-close to it), the server stops
//!   accepting, closes the queue, drains every admitted job to its
//!   result line, flushes and closes connections. Zero admitted jobs
//!   are lost.
//! * **Persistence** — with a manifest path configured, startup warms
//!   the caches from the previous run's manifest
//!   ([`crate::persist::warm`]) and drain saves the current recipes
//!   back ([`crate::persist::manifest`]), so a restarted service is
//!   serving cache hits from its first job.

use crate::engine::FleetEngine;
use crate::jobs::{ControlRecord, JobSpec, ParsedLine, RequestParser};
use crate::json::Json;
use crate::metrics::ServeMetrics;
use crate::persist::{self, WarmReport};
use ptherm_floorplan::Floorplan;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// How often blocking-free loops (accept, drain supervisor) re-check
/// the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Serve-mode configuration (engine configuration lives in
/// [`crate::engine::FleetConfig`]; this is only the front-end).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission bound: jobs queued but not yet claimed by a worker.
    /// At capacity, new jobs are refused with a typed backpressure
    /// line instead of buffered.
    pub queue_capacity: usize,
    /// Cache manifest to warm from at startup and save on drain
    /// (`None`: no persistence).
    pub manifest_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    /// A 256-job admission bound, no persistence.
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            manifest_path: None,
        }
    }
}

/// A bound accept socket the server serves on.
#[derive(Debug)]
pub enum ServeListener {
    /// A bound TCP listener.
    Tcp(TcpListener),
    /// A bound Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl ServeListener {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            ServeListener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            ServeListener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            ServeListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            ServeListener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(Conn::Unix(stream))
            }
        }
    }
}

/// One accepted connection, TCP or Unix, with uniform clone/shutdown.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(how),
        }
    }
}

impl io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// One admitted job: its spec, the floorplan bound at admission, its
/// per-connection sequence number, and the way home.
struct Admitted {
    seq: usize,
    spec: JobSpec,
    plan: Arc<Floorplan>,
    reply: mpsc::Sender<String>,
}

/// Why [`JobQueue::push`] refused an item. The queue is unchanged
/// either way; the refusal text goes back to the client verbatim.
#[derive(Debug, PartialEq, Eq)]
enum PushError {
    /// The queue already holds `capacity` items.
    Full { depth: usize, capacity: usize },
    /// [`JobQueue::close`] was called: the server is draining.
    Closed,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Full { depth, capacity } => {
                write!(f, "queue full (depth {depth}/{capacity})")
            }
            PushError::Closed => write!(f, "queue closed"),
        }
    }
}

/// The bounded first-in, first-out queue between connection readers
/// (producers) and the engine's workers (consumers).
struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Signalled on every push and on close.
    ready: Condvar,
    /// Admission bound: at most this many items wait at any instant.
    capacity: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> JobQueue<T> {
    /// An open, empty queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: such a queue would refuse every
    /// admission.
    fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        JobQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        // Every critical section is one `VecDeque` call or one flag
        // store, so a panicking holder cannot leave the state half
        // updated.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Items admitted and not yet claimed.
    fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Admits `item` behind every item already waiting and wakes one
    /// parked worker. On `Err` the item was dropped unqueued.
    fn push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed);
        }
        let depth = state.items.len();
        if depth >= self.capacity {
            return Err(PushError::Full {
                depth,
                capacity: self.capacity,
            });
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Refuses every later push; items already queued still drain.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Claims the oldest waiting item, parking while the queue is open
    /// and empty. `None` means the queue is closed *and* drained.
    fn pop_wait(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// What a completed [`FleetServer::serve`] did.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Cache warm-up outcome (`None`: no manifest configured or none
    /// existed yet).
    pub warm: Option<WarmReport>,
    /// Whether a manifest was saved on drain.
    pub manifest_saved: bool,
    /// The final stats line (same shape the `{"type": "stats"}`
    /// control record answers with).
    pub stats: Json,
}

/// Everything the per-connection and worker threads share.
struct Shared<'e> {
    engine: &'e FleetEngine,
    queue: JobQueue<Admitted>,
    metrics: &'e ServeMetrics,
    shutdown: &'e AtomicBool,
    /// Read-half clones of every live connection, nudged
    /// (`Shutdown::Read`) at drain time to unblock reader threads.
    conns: Mutex<Vec<Conn>>,
}

impl Shared<'_> {
    fn lock_conns(&self) -> MutexGuard<'_, Vec<Conn>> {
        match self.conns.lock() {
            Ok(guard) => guard,
            // Registry operations (push / shutdown-nudge) cannot leave
            // the Vec inconsistent mid-panic.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn stats_line(&self) -> String {
        self.metrics
            .stats_json(
                self.queue.depth(),
                self.queue.capacity,
                &[
                    ("steady", self.engine.cache().steady_stats()),
                    ("transient", self.engine.cache().transient_stats()),
                    ("map", self.engine.cache().map_stats()),
                    ("spectral", self.engine.cache().spectral_stats()),
                    ("results", self.engine.cache().result_stats()),
                ],
            )
            .render()
    }
}

/// The persistent fleet service (see the [module docs](self)).
#[derive(Debug)]
pub struct FleetServer {
    engine: FleetEngine,
    config: ServeConfig,
    metrics: Arc<ServeMetrics>,
    shutdown: Arc<AtomicBool>,
}

impl FleetServer {
    /// A server over a (typically builder-constructed) engine.
    pub fn new(engine: FleetEngine, config: ServeConfig) -> Self {
        FleetServer {
            engine,
            config,
            metrics: Arc::new(ServeMetrics::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The flag that initiates graceful drain when set: share it with a
    /// signal handler (the `fleet serve` binary raises it on SIGTERM)
    /// or a watchdog thread. Also raised internally by a
    /// `{"type": "shutdown"}` control record.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Live serve counters (shared; readable while serving).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &FleetEngine {
        &self.engine
    }

    /// Serves connections from `listeners` until the shutdown flag is
    /// raised, then drains: stops accepting, closes the admission
    /// queue, runs every already-admitted job to its result line,
    /// flushes and closes every connection, and (if configured) saves
    /// the cache manifest. Every admitted job is either answered with
    /// a result line or — never silently — refused at admission.
    ///
    /// # Errors
    ///
    /// Only setup I/O failures (putting a listener into non-blocking
    /// mode). Per-connection I/O errors close that connection and are
    /// otherwise absorbed.
    pub fn serve(&self, listeners: Vec<ServeListener>) -> io::Result<ServeSummary> {
        let warm = self.warm_from_manifest();
        let workers = self.engine.config().threads.max(1);
        let shared = Shared {
            engine: &self.engine,
            queue: JobQueue::bounded(self.config.queue_capacity),
            metrics: &self.metrics,
            shutdown: &self.shutdown,
            conns: Mutex::new(Vec::new()),
        };
        for listener in &listeners {
            listener.set_nonblocking(true)?;
        }
        thread::scope(|scope| {
            for _ in 0..workers {
                let shared = &shared;
                scope.spawn(move || worker_loop(shared));
            }
            for listener in listeners {
                let shared = &shared;
                scope.spawn(move || accept_loop(scope, listener, shared));
            }
            // Supervise: wait for the flag, then drain. Workers finish
            // the queue and exit on `pop_wait → None`; the read-side
            // nudge unblocks reader threads so they drop their reply
            // handles; writers then drain their channels and close.
            while !self.shutdown.load(Ordering::SeqCst) {
                thread::park_timeout(POLL_INTERVAL);
            }
            shared.queue.close();
            for conn in shared.lock_conns().iter() {
                let _ = conn.shutdown(Shutdown::Read);
            }
        });
        let manifest_saved = self.save_manifest();
        Ok(ServeSummary {
            warm,
            manifest_saved,
            stats: self.metrics.stats_json(
                0,
                self.config.queue_capacity,
                &[
                    ("steady", self.engine.cache().steady_stats()),
                    ("transient", self.engine.cache().transient_stats()),
                    ("map", self.engine.cache().map_stats()),
                    ("spectral", self.engine.cache().spectral_stats()),
                    ("results", self.engine.cache().result_stats()),
                ],
            ),
        })
    }

    /// Warms the engine's caches from the configured manifest, if one
    /// exists and parses. A missing or stale manifest is not an error —
    /// the service starts cold, exactly as if no manifest were
    /// configured.
    fn warm_from_manifest(&self) -> Option<WarmReport> {
        let path = self.config.manifest_path.as_ref()?;
        let text = std::fs::read_to_string(path).ok()?;
        let manifest = persist::parse_manifest(&text).ok()?;
        Some(persist::warm(&self.engine, &manifest))
    }

    /// Saves the current cache recipes to the configured manifest
    /// (write-then-rename, so a crash mid-save never truncates the
    /// previous manifest). Returns whether a manifest was written.
    fn save_manifest(&self) -> bool {
        let Some(path) = self.config.manifest_path.as_ref() else {
            return false;
        };
        let manifest = persist::manifest(&self.engine).render();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        if std::fs::write(&tmp, manifest).is_err() {
            return false;
        }
        std::fs::rename(&tmp, path).is_ok()
    }
}

/// Claims admitted jobs, oldest first, until the queue is closed *and*
/// drained, running each with its admission-time floorplan and
/// streaming the result line back to its connection.
fn worker_loop(shared: &Shared<'_>) {
    while let Some(job) = shared.queue.pop_wait() {
        let record = shared.engine.run_resolved(&job.spec, &job.plan, job.seq);
        shared.metrics.job_done(&record);
        let line = record.to_json(&job.spec).render();
        // A vanished connection only loses delivery of this line, not
        // the job: it ran, and its cache effects persist.
        let _ = job.reply.send(line);
    }
}

/// Accepts connections (non-blocking + poll, so shutdown is prompt)
/// and spawns each connection's reader and writer threads.
fn accept_loop<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    listener: ServeListener,
    shared: &'scope Shared<'env>,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok(conn) => {
                if conn.set_nonblocking(false).is_err() {
                    continue;
                }
                spawn_connection(scope, conn, shared);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(POLL_INTERVAL);
            }
            // Transient accept failures (e.g. aborted handshakes):
            // back off briefly and keep serving.
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

fn spawn_connection<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    conn: Conn,
    shared: &'scope Shared<'env>,
) {
    let write_half = match conn.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    if let Ok(nudge) = conn.try_clone() {
        shared.lock_conns().push(nudge);
    }
    shared.metrics.connection_opened();
    let (tx, rx) = mpsc::channel::<String>();
    scope.spawn(move || writer_loop(write_half, rx, shared));
    scope.spawn(move || reader_loop(conn, tx, shared));
}

/// Streams the connection's output lines until every reply handle —
/// the reader's own and one per in-flight job — is gone and the
/// channel is drained, then closes the socket for good.
fn writer_loop(mut conn: Conn, rx: mpsc::Receiver<String>, shared: &Shared<'_>) {
    for line in rx {
        if writeln!(conn, "{line}").is_err() {
            break;
        }
        if conn.flush().is_err() {
            break;
        }
    }
    let _ = conn.shutdown(Shutdown::Both);
    shared.metrics.connection_closed();
}

/// Parses the connection's request lines and admits jobs into the
/// queue. Errors are line-isolated: a malformed line yields a typed
/// refusal and the connection keeps serving (unlike batch mode, where
/// one bad line fails the whole request file).
fn reader_loop(conn: Conn, tx: mpsc::Sender<String>, shared: &Shared<'_>) {
    let mut parser = RequestParser::new();
    let mut jobs_seen = 0usize;
    for raw in BufReader::new(conn).lines() {
        let Ok(raw) = raw else { break };
        match parser.parse_line(&raw) {
            Ok(ParsedLine::Empty) | Ok(ParsedLine::Floorplan(_)) => {}
            Ok(ParsedLine::Job { spec, plan }) => {
                let seq = jobs_seen;
                jobs_seen += 1;
                let admitted = Admitted {
                    seq,
                    spec: *spec,
                    plan,
                    reply: tx.clone(),
                };
                match shared.queue.push(admitted) {
                    Ok(()) => shared.metrics.job_admitted(),
                    Err(e @ PushError::Full { .. }) => {
                        shared.metrics.refused_backpressure();
                        let _ = tx.send(refusal_line(Some(seq), "backpressure", &e.to_string()));
                    }
                    Err(e @ PushError::Closed) => {
                        let _ = tx.send(refusal_line(Some(seq), "shutdown", &e.to_string()));
                    }
                }
            }
            Ok(ParsedLine::Control(ControlRecord::Stats)) => {
                let _ = tx.send(shared.stats_line());
            }
            Ok(ParsedLine::Control(ControlRecord::Shutdown)) => {
                let ack = Json::Object(vec![
                    ("type".into(), Json::String("shutdown".into())),
                    ("draining".into(), Json::Number(shared.queue.depth() as f64)),
                ]);
                let _ = tx.send(ack.render());
                shared.shutdown.store(true, Ordering::SeqCst);
                // Unpark the supervisor promptly? It polls; 10 ms is
                // prompt enough and keeps this handler trivial.
                break;
            }
            Err(e) => {
                shared.metrics.refused_protocol();
                let _ = tx.send(refusal_line(None, "protocol", &e.to_string()));
            }
        }
    }
    // Dropping `tx` lets the writer finish once in-flight jobs land.
}

/// A typed refusal line: `{"job": n, "refused": kind, "error": why}`.
fn refusal_line(job: Option<usize>, kind: &str, error: &str) -> String {
    let mut fields = Vec::new();
    if let Some(job) = job {
        fields.push(("job".into(), Json::Number(job as f64)));
    }
    fields.push(("refused".into(), Json::String(kind.into())));
    fields.push(("error".into(), Json::String(error.into())));
    Json::Object(fields).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushed_items_round_trip() {
        let q: JobQueue<String> = JobQueue::bounded(8);
        assert_eq!(q.depth(), 0);
        assert!(q.push("a".into()).is_ok());
        assert!(q.push("b".into()).is_ok());
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop_wait().as_deref(), Some("a"));
        assert_eq!(q.pop_wait().as_deref(), Some("b"));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn every_claim_returns_the_oldest_item() {
        let q: JobQueue<u32> = JobQueue::bounded(8);
        for i in 0..4 {
            assert!(q.push(i).is_ok());
        }
        assert_eq!(q.pop_wait(), Some(0));
        assert_eq!(q.pop_wait(), Some(1));
        // A later push queues behind everything already waiting.
        assert!(q.push(4).is_ok());
        let rest: Vec<u32> = (0..3).filter_map(|_| q.pop_wait()).collect();
        assert_eq!(rest, vec![2, 3, 4]);
    }

    #[test]
    fn full_queue_refuses_with_typed_depth() {
        let q: JobQueue<u32> = JobQueue::bounded(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        let refusal = q.push(3);
        assert_eq!(
            refusal,
            Err(PushError::Full {
                depth: 2,
                capacity: 2
            })
        );
        assert_eq!(
            refusal.map_err(|e| e.to_string()),
            Err("queue full (depth 2/2)".to_string())
        );
        // Claiming one item frees a slot.
        assert_eq!(q.pop_wait(), Some(1));
        assert!(q.push(3).is_ok());
    }

    #[test]
    fn close_refuses_new_pushes_but_drains_queued_items() {
        let q: JobQueue<u32> = JobQueue::bounded(8);
        assert!(q.push(7).is_ok());
        q.close();
        assert_eq!(q.push(8), Err(PushError::Closed));
        assert_eq!(PushError::Closed.to_string(), "queue closed");
        // The queued item still drains, then the stream reports over.
        assert_eq!(q.pop_wait(), Some(7));
        assert_eq!(q.pop_wait(), None);
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn pop_wait_parks_until_an_item_lands() {
        let q: JobQueue<u32> = JobQueue::bounded(4);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| q.pop_wait());
            // Give the consumer a moment to park, then feed it; it
            // must return the item whether or not it parked first.
            std::thread::sleep(Duration::from_millis(20));
            assert!(q.push(42).is_ok());
            assert_eq!(consumer.join().expect("join"), Some(42));
        });
    }

    #[test]
    fn concurrent_claims_are_exactly_once() {
        let total: usize = 2_000;
        let q: JobQueue<usize> = JobQueue::bounded(total);
        std::thread::scope(|scope| {
            let producers: Vec<_> = (0..2)
                .map(|p| {
                    let q = &q;
                    scope.spawn(move || {
                        for i in (p..total).step_by(2) {
                            // Capacity equals the total, so every push
                            // must be admitted.
                            q.push(i).expect("under capacity");
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let q = &q;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(item) = q.pop_wait() {
                            mine.push(item);
                        }
                        mine
                    })
                })
                .collect();
            for p in producers {
                p.join().expect("producer");
            }
            q.close();
            let mut all: Vec<usize> = consumers
                .into_iter()
                .flat_map(|c| c.join().expect("consumer"))
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..total).collect::<Vec<_>>());
        });
        assert_eq!(q.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = JobQueue::<u32>::bounded(0);
    }
}
