//! The scheduling daemon: listener, connection handling, worker pool.
//!
//! One thread runs a non-blocking accept loop; each accepted connection
//! gets its own handler thread with a short read timeout so it can poll
//! the shutdown flag while idle. Scheduling work fans out to a fixed
//! pool of `--jobs` worker threads shared by all connections, so one
//! client submitting a large batch saturates the machine and two clients
//! share it fairly (the pool's queue interleaves their functions).
//!
//! Shutdown is graceful: the flag (set by a client `shutdown` request,
//! [`Server::request_shutdown`], or a signal via
//! [`install_signal_handlers`]) stops the accept loop, idle connections
//! close on their next poll, in-flight batches run to completion, and
//! the unix socket file is unlinked before [`Server::join`] returns the
//! final metrics.

use crate::cache::{cache_key, source_prefix, CachedSchedule, ScheduleCache, SourceAddr};
use crate::protocol::{
    batch_end_line, error_line, parse_request, pong_line, push_hit_line, push_schedule_line,
    resolve_machine, shutdown_line, stats_line, BatchSummary, FuncOutcome, Lang, Request,
    ScheduleRequest,
};
use gis_core::{compile, effective_jobs, SchedConfig};
use gis_ir::hash::fnv64_str;
use gis_machine::MachineDescription;
use gis_trace::Metrics;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A unix domain socket at this path.
    Unix(PathBuf),
    /// A TCP address (`HOST:PORT`; port 0 picks a free port).
    Tcp(String),
}

impl Listen {
    /// Parses a `--listen` spec: `unix:PATH` or `tcp:HOST:PORT`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted forms.
    pub fn parse(spec: &str) -> Result<Listen, String> {
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix listen spec has an empty path".to_owned());
            }
            Ok(Listen::Unix(PathBuf::from(path)))
        } else if let Some(addr) = spec.strip_prefix("tcp:") {
            if !addr.contains(':') {
                return Err(format!("tcp listen spec '{addr}' has no port"));
            }
            Ok(Listen::Tcp(addr.to_owned()))
        } else {
            Err(format!("expected unix:PATH or tcp:HOST:PORT, got '{spec}'"))
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Where to listen.
    pub listen: Listen,
    /// Worker threads for scheduling; `0` means one per available CPU.
    pub jobs: usize,
    /// Schedule cache capacity in entries; `0` disables caching.
    pub cache_cap: usize,
    /// Per-batch deadline in milliseconds; functions not finished by then
    /// are answered `timeout`. `0` disables the deadline.
    pub timeout_ms: u64,
    /// Longest accepted request line; longer lines are discarded and
    /// answered with an `error` response.
    pub max_line_bytes: usize,
    /// Persist the schedule cache here: reloaded on start (a missing
    /// file starts cold; a foreign or stale-version image is rejected
    /// and counted under `cache.persist.rejected`), written back after
    /// the drain completes. `None` keeps the cache in memory only.
    pub cache_file: Option<PathBuf>,
}

impl ServeConfig {
    /// Defaults: 0 jobs (per-CPU), 1024 cached schedules, no timeout,
    /// 4 MiB line limit, no cache persistence.
    pub fn new(listen: Listen) -> Self {
        ServeConfig {
            listen,
            jobs: 0,
            cache_cap: 1024,
            timeout_ms: 0,
            max_line_bytes: 4 << 20,
            cache_file: None,
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One function's answer: its index in the batch, its name and outcome.
type FuncResult = (usize, String, FuncOutcome);

/// Starts `workers` pool threads, each running jobs from the returned
/// queue until every sender is dropped.
fn spawn_pool(workers: usize) -> (mpsc::Sender<Job>, Vec<thread::JoinHandle<()>>) {
    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Arc::new(Mutex::new(rx));
    let handles = (0..workers)
        .map(|_| {
            let rx = Arc::clone(&rx);
            thread::spawn(move || loop {
                let job = rx.lock().expect("pool queue lock").recv();
                match job {
                    Ok(job) => job(),
                    Err(_) => break,
                }
            })
        })
        .collect();
    (tx, handles)
}

/// The pool job for function `index` of a batch: runs `work` and sends
/// its outcome to `results`, under `name` when the request gave one. A
/// panic in `work` is answered as that function's `error` line
/// (`internal error: …`) and the worker goes on to its next job.
/// Unwinding out of a compile leaves nothing shared half-updated: the
/// schedule cache and the region memo hold their locks only for a
/// lookup or an insert, never while a compile runs.
fn schedule_job(
    index: usize,
    name: Option<String>,
    work: impl FnOnce() -> (String, FuncOutcome) + Send + 'static,
    results: mpsc::Sender<FuncResult>,
) -> Job {
    Box::new(move || {
        let (own_name, outcome) = panic::catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|p| {
            let what = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "the compile panicked".to_owned());
            let message = format!("internal error: {what}");
            (format!("func{index}"), FuncOutcome::Error { message })
        });
        let _ = results.send((index, name.unwrap_or(own_name), outcome));
    })
}

struct Shared {
    cache: ScheduleCache,
    metrics: Mutex<Metrics>,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    pool_tx: Mutex<Option<mpsc::Sender<Job>>>,
    timeout_ms: u64,
    max_line_bytes: usize,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal_pending()
    }
}

/// A running daemon. Dropping the handle does *not* stop it; call
/// [`Server::request_shutdown`] then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: thread::JoinHandle<()>,
    tcp_addr: Option<SocketAddr>,
    cache_file: Option<PathBuf>,
}

impl Server {
    /// The bound TCP address (None for unix sockets) — lets tests bind
    /// port 0 and discover the real port.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Asks the daemon to drain and exit.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested (by a client, a signal, or
    /// [`Server::request_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Blocks until the daemon has fully drained, then returns the final
    /// metrics (scheduler perf counters plus `cache.*`, `cache.region.*`
    /// and `serve.*`). When a cache file is configured, the drained
    /// cache is written back to it first (atomically: a sibling
    /// temporary renamed into place), so the next daemon starts warm.
    pub fn join(self) -> Metrics {
        let _ = self.accept_thread.join();
        let mut metrics = self
            .shared
            .metrics
            .lock()
            .map(|m| m.clone())
            .unwrap_or_default();
        if let Some(path) = &self.cache_file {
            let image = self.shared.cache.dump();
            let tmp = path.with_extension("tmp");
            let saved = std::fs::write(&tmp, &image)
                .and_then(|()| std::fs::rename(&tmp, path))
                .is_ok();
            if saved {
                metrics.record("cache.persist.saved", self.shared.cache.len() as u64);
            }
        }
        for (name, value) in self.shared.cache.counters() {
            metrics.record(name, value);
        }
        for (name, value) in gis_core::region_memo_counters().metrics() {
            metrics.record(name, value);
        }
        metrics
    }
}

enum Acceptor {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

/// Starts the daemon.
///
/// # Errors
///
/// Returns the bind error when the socket path or TCP address is
/// unavailable.
pub fn start(config: ServeConfig) -> io::Result<Server> {
    let (acceptor, tcp_addr) = match &config.listen {
        Listen::Unix(path) => {
            let listener = UnixListener::bind(path)?;
            (Acceptor::Unix(listener, path.clone()), None)
        }
        Listen::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            let local = listener.local_addr()?;
            (Acceptor::Tcp(listener), Some(local))
        }
    };

    let shared = Arc::new(Shared {
        cache: ScheduleCache::new(config.cache_cap),
        metrics: Mutex::new(Metrics::default()),
        shutdown: AtomicBool::new(false),
        active_connections: AtomicUsize::new(0),
        pool_tx: Mutex::new(None),
        timeout_ms: config.timeout_ms,
        max_line_bytes: config.max_line_bytes,
    });

    // Warm start: restore the previous daemon's cache image if one was
    // left behind. A missing file is a normal cold start; an unreadable
    // or stale image is rejected (counted, never fatal) — the daemon
    // will overwrite it with a current-version image on drain.
    if let Some(path) = &config.cache_file {
        match std::fs::read(path) {
            Ok(image) => match shared.cache.load(&image) {
                Ok(loaded) => record(&shared, "cache.persist.loaded", loaded as u64),
                Err(_) => record(&shared, "cache.persist.rejected", 1),
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(_) => record(&shared, "cache.persist.rejected", 1),
        }
    }

    // Fixed worker pool shared by every connection.
    let (tx, worker_handles) = spawn_pool(effective_jobs(config.jobs));
    *shared.pool_tx.lock().expect("pool lock") = Some(tx);

    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::spawn(move || {
        accept_loop(&acceptor, &accept_shared);
        // Drain: wait for connection handlers, then retire the pool.
        while accept_shared.active_connections.load(Ordering::SeqCst) > 0 {
            thread::sleep(Duration::from_millis(5));
        }
        accept_shared.pool_tx.lock().expect("pool lock").take();
        for handle in worker_handles {
            let _ = handle.join();
        }
        if let Acceptor::Unix(_, path) = &acceptor {
            let _ = std::fs::remove_file(path);
        }
    });

    Ok(Server {
        shared,
        accept_thread,
        tcp_addr,
        cache_file: config.cache_file,
    })
}

fn accept_loop(acceptor: &Acceptor, shared: &Arc<Shared>) {
    match acceptor {
        Acceptor::Unix(l, _) => l.set_nonblocking(true).expect("nonblocking unix listener"),
        Acceptor::Tcp(l) => l.set_nonblocking(true).expect("nonblocking tcp listener"),
    }
    while !shared.shutting_down() {
        let accepted: io::Result<Box<dyn Conn>> = match acceptor {
            Acceptor::Unix(l, _) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
            Acceptor::Tcp(l) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
        };
        match accepted {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                shared.active_connections.fetch_add(1, Ordering::SeqCst);
                thread::spawn(move || {
                    handle_connection(stream, &shared);
                    shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The two stream types, unified for the connection handler.
trait Conn: Read + Write + Send {
    fn set_read_poll_interval(&self, interval: Duration) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_poll_interval(&self, interval: Duration) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_read_timeout(Some(interval))
    }
}

impl Conn for UnixStream {
    fn set_read_poll_interval(&self, interval: Duration) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_read_timeout(Some(interval))
    }
}

#[derive(Debug, PartialEq, Eq)]
enum ReadLine {
    Line(String),
    Oversized,
    NotUtf8,
    Closed,
}

/// Reads `\n`-terminated lines with a hard size cap, buffering any bytes
/// a pipelining client sends ahead of the next request.
struct LineReader {
    /// Bytes received but not yet consumed by a returned line.
    pending: Vec<u8>,
    /// Leading bytes of `pending` already searched for a `\n`, so each
    /// byte is scanned once however many reads a long line takes.
    scanned: usize,
    /// Longest line returned; longer ones are discarded.
    max_line_bytes: usize,
}

impl LineReader {
    fn new(max_line_bytes: usize) -> Self {
        LineReader {
            pending: Vec::new(),
            scanned: 0,
            max_line_bytes,
        }
    }

    /// Reads one line. Oversized lines are consumed to their terminating
    /// newline and reported, leaving the stream positioned at the next
    /// request. Returns [`ReadLine::Closed`] on EOF, on a mid-line
    /// disconnect, or when `shutting_down` holds while the connection is
    /// idle.
    fn read_line(&mut self, stream: &mut dyn Read, shutting_down: impl Fn() -> bool) -> ReadLine {
        let mut discarding = false;
        let mut chunk = [0u8; 8192];
        loop {
            let unscanned = &self.pending[self.scanned..];
            if let Some(at) = unscanned.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(self.scanned + at + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                self.scanned = 0;
                line.pop(); // trailing '\n'
                if line.len() > self.max_line_bytes {
                    return ReadLine::Oversized;
                }
                return String::from_utf8(line).map_or(ReadLine::NotUtf8, ReadLine::Line);
            }
            self.scanned = self.pending.len();
            if self.pending.len() > self.max_line_bytes {
                discarding = true;
                self.pending.clear();
                self.scanned = 0;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return ReadLine::Closed,
                Ok(n) => {
                    if discarding {
                        // Keep only what follows the line's newline.
                        if let Some(pos) = chunk[..n].iter().position(|&b| b == b'\n') {
                            self.pending.extend_from_slice(&chunk[pos + 1..n]);
                            return ReadLine::Oversized;
                        }
                    } else {
                        self.pending.extend_from_slice(&chunk[..n]);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Idle poll: close only when quiescent — pending bytes
                    // mean the client is mid-send, so give it until the
                    // next poll even during shutdown.
                    if shutting_down() && self.pending.is_empty() && !discarding {
                        return ReadLine::Closed;
                    }
                }
                Err(_) => return ReadLine::Closed,
            }
        }
    }
}

fn handle_connection(mut stream: Box<dyn Conn>, shared: &Arc<Shared>) {
    if stream
        .set_read_poll_interval(Duration::from_millis(50))
        .is_err()
    {
        return;
    }
    let mut reader = LineReader::new(shared.max_line_bytes);
    let mut out = Outbox::default();
    loop {
        let request = match reader.read_line(stream.as_mut(), || shared.shutting_down()) {
            ReadLine::Closed => return,
            ReadLine::Oversized => Err(format!(
                "request line exceeds {} bytes and was discarded",
                shared.max_line_bytes
            )),
            ReadLine::NotUtf8 => Err("request line is not UTF-8".to_owned()),
            ReadLine::Line(line) if line.trim().is_empty() => continue,
            ReadLine::Line(line) => parse_request(&line),
        };
        if request.is_ok() {
            record(shared, "serve.requests", 1);
        }
        match request {
            Err(message) => out.push(&error_line(&message)),
            Ok(Request::Ping { id }) => out.push(&pong_line(id)),
            Ok(Request::Stats { id }) => out.push(&stats_line(id, &current_counters(shared))),
            Ok(Request::Shutdown { id }) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                out.push(&shutdown_line(id));
                let _ = out.flush(stream.as_mut());
                return;
            }
            Ok(Request::Schedule(req)) => {
                if handle_schedule(stream.as_mut(), &mut out, shared, req).is_err() {
                    return; // client went away mid-stream; the daemon lives on
                }
            }
        }
        if out.flush(stream.as_mut()).is_err() {
            return;
        }
    }
}

/// Response lines not yet written: each `flush` sends everything
/// buffered, `\n`s included, in one `write_all`. The buffer lives as
/// long as the connection, so a warm connection allocates no line.
#[derive(Default)]
struct Outbox {
    buf: String,
}

impl Outbox {
    fn push(&mut self, line: &str) {
        self.buf.push_str(line);
        self.buf.push('\n');
    }

    /// Queues a `schedule` line, serialized straight into the buffer.
    fn push_schedule(&mut self, id: i64, index: usize, name: &str, outcome: &FuncOutcome) {
        push_schedule_line(&mut self.buf, id, index, name, outcome);
        self.buf.push('\n');
    }

    /// Queues the `schedule` line of a source-index hit, serialized
    /// straight from the cache entry.
    fn push_hit(&mut self, id: i64, index: usize, name: &str, hit: &CachedSchedule, nanos: u64) {
        push_hit_line(&mut self.buf, id, index, name, hit, nanos);
        self.buf.push('\n');
    }

    fn flush(&mut self, stream: &mut dyn Conn) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let sent = stream
            .write_all(self.buf.as_bytes())
            .and_then(|()| stream.flush());
        self.buf.clear();
        sent
    }
}

fn record(shared: &Shared, name: &str, by: u64) {
    if let Ok(mut m) = shared.metrics.lock() {
        m.record(name, by);
    }
}

fn current_counters(shared: &Shared) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = shared
        .metrics
        .lock()
        .map(|m| {
            m.counters()
                .map(|(k, v)| (k.to_owned(), v))
                .collect::<Vec<_>>()
        })
        .unwrap_or_default();
    for (name, value) in shared.cache.counters() {
        out.push((name.to_owned(), value));
    }
    for (name, value) in gis_core::region_memo_counters().metrics() {
        out.push((name.to_owned(), value));
    }
    out.sort();
    out
}

/// Where one function of a batch stands.
enum Slot {
    /// With the pool; the name answers a timeout.
    Pending(String),
    /// Answered from the source index: name, schedule, lookup time.
    Hit(String, Arc<CachedSchedule>, u64),
    /// Answered by a worker.
    Done(String, FuncOutcome),
}

/// Answers one batch into `out`. A function whose text the source index
/// knows is answered here, on the connection thread; the rest go to the
/// pool. Result lines stream: whatever is ready is flushed before each
/// wait for the next result, and the last result line goes out with
/// `batch-end` in the caller's flush.
fn handle_schedule(
    stream: &mut dyn Conn,
    out: &mut Outbox,
    shared: &Arc<Shared>,
    req: ScheduleRequest,
) -> io::Result<()> {
    let resolved = resolve_machine(&req.machine).and_then(|machine| {
        let config = req.config.resolve()?;
        let pool = shared.pool_tx.lock().expect("pool lock").clone();
        Ok((machine, config, pool.ok_or("daemon is shutting down")?))
    });
    let (machine, config, pool) = match resolved {
        Ok((machine, config, pool)) => (Arc::new(machine), Arc::new(config), pool),
        Err(message) => {
            out.push(&error_line(&message));
            return Ok(());
        }
    };

    let started = Instant::now();
    let count = req.funcs.len();
    let prefix = source_prefix(req.lang, &machine, &config);
    let (results_tx, results_rx) = mpsc::channel::<FuncResult>();
    let mut slots = Vec::with_capacity(count);
    let mut waiting = 0usize;
    for (index, func) in req.funcs.into_iter().enumerate() {
        let looked_up = Instant::now();
        let addr = shared.cache.source_addr(prefix, &func.text);
        if let Some((entry, hit)) = shared.cache.lookup_source(&addr) {
            let name = func.name.unwrap_or_else(|| entry.name.to_string());
            let nanos = looked_up.elapsed().as_nanos() as u64;
            slots.push(Slot::Hit(name, hit, nanos));
            continue;
        }
        slots.push(Slot::Pending(
            func.name.clone().unwrap_or_else(|| format!("func{index}")),
        ));
        let machine = Arc::clone(&machine);
        let config = Arc::clone(&config);
        let shared = Arc::clone(shared);
        let (lang, text) = (req.lang, func.text);
        let work = move || schedule_one(&shared, lang, &text, &machine, &config, addr);
        let job = schedule_job(index, func.name, work, results_tx.clone());
        // A pool retired mid-shutdown refuses the job; it times out below.
        if pool.send(job).is_ok() {
            waiting += 1;
        }
    }
    drop(results_tx);

    let deadline =
        (shared.timeout_ms > 0).then(|| started + Duration::from_millis(shared.timeout_ms));
    let mut next_emit = 0usize;
    let mut summary = BatchSummary {
        count: count as u64,
        ..BatchSummary::default()
    };
    loop {
        // Queue every line now ready, in input order.
        while let Some(slot) = slots.get(next_emit) {
            if matches!(slot, Slot::Pending(_)) {
                break;
            }
            emit(out, &mut summary, req.id, next_emit, slot);
            next_emit += 1;
        }
        if waiting == 0 {
            break;
        }
        out.flush(stream)?;
        let next = match deadline {
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    break;
                }
                results_rx.recv_timeout(d - now)
            }
            None => results_rx
                .recv()
                .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        };
        match next {
            Ok((index, name, outcome)) => {
                slots[index] = Slot::Done(name, outcome);
                waiting -= 1;
            }
            Err(_) => break, // deadline hit, or pool retired under shutdown
        }
    }

    // Anything still pending missed the deadline (results that arrived
    // out of order past `next_emit` are still emitted as themselves).
    for (index, slot) in slots.iter().enumerate().skip(next_emit) {
        emit(out, &mut summary, req.id, index, slot);
    }

    summary.nanos = started.elapsed().as_nanos() as u64;
    record(shared, "serve.functions", count as u64);
    record(shared, "serve.batches", 1);
    out.push(&batch_end_line(req.id, &summary));
    Ok(())
}

/// Queues function `index`'s line and counts it in `summary`; a slot
/// still pending is a timeout.
fn emit(out: &mut Outbox, summary: &mut BatchSummary, id: i64, index: usize, slot: &Slot) {
    match slot {
        Slot::Pending(name) => {
            tally(summary, &FuncOutcome::Timeout);
            out.push_schedule(id, index, name, &FuncOutcome::Timeout);
        }
        Slot::Hit(name, hit, nanos) => {
            summary.ok += 1;
            summary.cache_hits += 1;
            out.push_hit(id, index, name, hit, *nanos);
        }
        Slot::Done(name, outcome) => {
            tally(summary, outcome);
            out.push_schedule(id, index, name, outcome);
        }
    }
}

fn tally(summary: &mut BatchSummary, outcome: &FuncOutcome) {
    match outcome {
        FuncOutcome::Ok { cached, .. } => {
            summary.ok += 1;
            if *cached {
                summary.cache_hits += 1;
            } else {
                summary.cache_misses += 1;
            }
        }
        FuncOutcome::Error { .. } | FuncOutcome::Timeout => summary.errors += 1,
    }
}

/// Schedules one function: front end, cache probe, compile on a miss.
/// Once the function is cached, the source index learns that the text
/// at `addr` compiles to it.
fn schedule_one(
    shared: &Shared,
    lang: Lang,
    text: &str,
    machine: &MachineDescription,
    config: &SchedConfig,
    addr: SourceAddr,
) -> (String, FuncOutcome) {
    let started = Instant::now();
    let mut function = match lang {
        Lang::TinyC => match gis_tinyc::compile_program(text) {
            Ok(program) => program.function,
            Err(e) => {
                return (
                    "<frontend>".to_owned(),
                    FuncOutcome::Error {
                        message: format!("tiny-C front end: {e}"),
                    },
                )
            }
        },
        Lang::Asm => match gis_ir::parse_function(text) {
            Ok(f) => f,
            Err(e) => {
                return (
                    "<parse>".to_owned(),
                    FuncOutcome::Error {
                        message: format!("IR parse: {e}"),
                    },
                )
            }
        },
    };
    let name = function.name().to_owned();
    let key = cache_key(&function, machine, config);

    if let Some(hit) = shared.cache.get(key) {
        shared.cache.record_source(addr, key, &name);
        return (
            name,
            FuncOutcome::Ok {
                cached: true,
                hash: hit.hash,
                nanos: started.elapsed().as_nanos() as u64,
                moved_useful: hit.moved_useful,
                moved_speculative: hit.moved_speculative,
                schedule: hit.text.clone(),
            },
        );
    }

    match compile(&mut function, machine, config) {
        Ok(stats) => {
            let schedule = function.to_string();
            let hash = fnv64_str(&schedule);
            let nanos = started.elapsed().as_nanos() as u64;
            let entry = Arc::new(CachedSchedule {
                text: schedule.clone(),
                hash,
                moved_useful: stats.moved_useful as u64,
                moved_speculative: stats.moved_speculative as u64,
                nanos,
            });
            shared.cache.insert(key, entry);
            shared.cache.record_source(addr, key, &name);
            if let Ok(mut m) = shared.metrics.lock() {
                for (counter, value) in stats.perf_counters() {
                    m.record(counter, value);
                }
            }
            (
                name,
                FuncOutcome::Ok {
                    cached: false,
                    hash,
                    nanos,
                    moved_useful: stats.moved_useful as u64,
                    moved_speculative: stats.moved_speculative as u64,
                    schedule,
                },
            )
        }
        Err(e) => (
            name,
            FuncOutcome::Error {
                message: format!("scheduler: {e}"),
            },
        ),
    }
}

// ---------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SIGNALED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // The only async-signal-safe thing we do: one atomic store.
        SIGNALED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// Installs SIGINT/SIGTERM handlers that flip a process-global flag the
/// accept loop polls, turning ctrl-c and `kill` into the same graceful
/// drain as a client `shutdown` request. No-op on non-unix targets.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    sig::install();
}

/// Whether a shutdown signal has arrived since
/// [`install_signal_handlers`].
pub fn signal_pending() -> bool {
    #[cfg(unix)]
    {
        sig::SIGNALED.load(Ordering::SeqCst)
    }
    #[cfg(not(unix))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::FuncSpec;

    /// A `jobs 1` daemon on a fresh unix socket.
    fn test_daemon(tag: &str) -> (Server, Client) {
        let path =
            std::env::temp_dir().join(format!("gis-serve-unit-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listen = Listen::Unix(path);
        let mut config = ServeConfig::new(listen.clone());
        config.jobs = 1;
        let server = start(config).expect("daemon starts");
        let client = Client::connect(&listen).expect("connects");
        (server, client)
    }

    /// Schedules one textual-IR function on `rs6k`: its name, `cached`
    /// flag and hash.
    fn submit(client: &mut Client, text: &str) -> (String, bool, u64) {
        let spec = [FuncSpec {
            name: None,
            text: text.to_owned(),
        }];
        let batch = client
            .schedule_batch(Lang::Asm, "rs6k", Vec::new(), &spec)
            .expect("batch");
        let result = &batch.funcs[0];
        let FuncOutcome::Ok { cached, hash, .. } = result.outcome else {
            panic!("{} failed: {:?}", result.name, result.outcome);
        };
        (result.name.clone(), cached, hash)
    }

    fn counter(client: &mut Client, name: &str) -> u64 {
        let stats = client.stats().expect("stats");
        stats
            .into_iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| v)
    }

    const A: &str = "func a\ne:\n LI r0=1\n LI r1=2\n A r2=r0,r1\n PRINT r2\n RET\n";
    const B: &str = "func b\ne:\n LI r0=3\n PRINT r0\n RET\n";

    fn source_addr(server: &Server, text: &str) -> SourceAddr {
        let prefix = source_prefix(
            Lang::Asm,
            &MachineDescription::rs6k(),
            &SchedConfig::speculative(),
        );
        server.shared.cache.source_addr(prefix, text)
    }

    fn ir_key(text: &str) -> u64 {
        let f = gis_ir::parse_function(text).expect("parses");
        cache_key(&f, &MachineDescription::rs6k(), &SchedConfig::speculative())
    }

    #[test]
    fn a_mismatched_index_entry_is_a_collision_and_is_replaced() {
        let (server, mut client) = test_daemon("collision");
        let (_, false, a_hash) = submit(&mut client, A) else {
            panic!("A compiles cold");
        };
        submit(&mut client, B);
        let addr = source_addr(&server, A);
        let planted = [
            SourceAddr {
                check: addr.check ^ 1,
                ..addr
            },
            SourceAddr {
                len: addr.len + 1,
                ..addr
            },
        ];
        for (n, wrong) in planted.into_iter().enumerate() {
            // Under A's key, an entry that points at B's schedule.
            server.shared.cache.record_source(wrong, ir_key(B), "b");
            let got = submit(&mut client, A);
            assert_eq!(got, ("a".to_owned(), true, a_hash), "{wrong:?}");
            assert_eq!(counter(&mut client, "cache.source.collision"), n as u64 + 1);
            assert_eq!(counter(&mut client, "cache.source.hit"), 0);
        }
        // The slow path put the right entry back.
        assert_eq!(submit(&mut client, A), ("a".to_owned(), true, a_hash));
        assert_eq!(counter(&mut client, "cache.source.hit"), 1);
        let lookups = counter(&mut client, "cache.hits") + counter(&mut client, "cache.misses");
        assert_eq!(lookups, 5, "one schedule lookup per request");
        client.shutdown_server().expect("shutdown");
        server.join();
    }

    #[test]
    fn an_index_entry_whose_schedule_is_gone_falls_back_with_one_miss() {
        let (server, mut client) = test_daemon("stale");
        // A matching entry for a text never compiled, under a schedule
        // key the cache does not hold: as after an eviction.
        server
            .shared
            .cache
            .record_source(source_addr(&server, A), ir_key(A) ^ 1, "a");
        let (name, cached, _) = submit(&mut client, A);
        assert_eq!((name.as_str(), cached), ("a", false));
        assert_eq!(counter(&mut client, "cache.misses"), 1, "counted once");
        assert_eq!(counter(&mut client, "cache.hits"), 0);
        assert_eq!(counter(&mut client, "cache.source.miss"), 1);
        assert_eq!(counter(&mut client, "cache.source.collision"), 0);
        let (_, cached, _) = submit(&mut client, A);
        assert!(cached);
        assert_eq!(
            counter(&mut client, "cache.source.hit"),
            1,
            "entry replaced"
        );
        client.shutdown_server().expect("shutdown");
        server.join();
    }

    #[test]
    fn a_panicking_job_answers_an_error_and_keeps_its_worker() {
        let (pool, workers) = spawn_pool(1);
        let (tx, rx) = mpsc::channel();
        let planted = || -> (String, FuncOutcome) { panic!("planted") };
        let next = || ("next".to_owned(), FuncOutcome::Timeout);
        for job in [
            schedule_job(0, None, planted, tx.clone()),
            schedule_job(1, None, next, tx),
        ] {
            pool.send(job).expect("the pool is running");
        }
        let wait = Duration::from_secs(30);
        let (index, name, outcome) = rx.recv_timeout(wait).expect("the panic is answered");
        assert_eq!((index, name.as_str()), (0, "func0"));
        assert!(
            matches!(&outcome, FuncOutcome::Error { message } if message == "internal error: planted"),
            "{outcome:?}"
        );
        let (index, name, _) = rx.recv_timeout(wait).expect("the worker ran the next job");
        assert_eq!((index, name.as_str()), (1, "next"));
        drop(pool);
        for worker in workers {
            worker
                .join()
                .expect("the worker exits when the pool closes");
        }
    }

    #[test]
    fn listen_specs_parse() {
        assert_eq!(
            Listen::parse("unix:/tmp/x.sock").expect("unix"),
            Listen::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Listen::parse("tcp:127.0.0.1:0").expect("tcp"),
            Listen::Tcp("127.0.0.1:0".to_owned())
        );
        assert!(Listen::parse("unix:").is_err());
        assert!(Listen::parse("tcp:localhost").is_err());
        assert!(Listen::parse("/tmp/x.sock").is_err());
        assert!(Listen::parse("udp:1.2.3.4:5").is_err());
    }

    /// Hands out `input` at most `chunk` bytes per read.
    struct Chunked<'a> {
        input: &'a [u8],
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.input.len());
            buf[..n].copy_from_slice(&self.input[..n]);
            self.input = &self.input[n..];
            Ok(n)
        }
    }

    #[test]
    fn lines_read_alike_in_any_chunking() {
        const MAX: usize = 64 << 10;
        let ping = |id: u32| format!("{{\"req\":\"ping\",\"id\":{id}}}");
        let longest = format!("{}{}", ping(3), " ".repeat(MAX - ping(3).len()));
        let mut input = Vec::new();
        for line in [ping(1), "x".repeat(3 * MAX), ping(2), "y".repeat(MAX + 1)] {
            input.extend_from_slice(line.as_bytes());
            input.push(b'\n');
        }
        input.extend_from_slice(longest.as_bytes());
        input.extend_from_slice(b"\n\n\xff\xfe\n");
        input.extend_from_slice(ping(4).as_bytes()); // no newline: cut off
        let after_discard = ping(1).len() + 3 * MAX + 2;
        let want = vec![
            ReadLine::Line(ping(1)),
            ReadLine::Oversized,
            ReadLine::Line(ping(2)),
            ReadLine::Oversized,
            ReadLine::Line(longest),
            ReadLine::Line(String::new()),
            ReadLine::NotUtf8,
            ReadLine::Closed,
        ];
        for chunk in [1, 8 << 10, 100_000] {
            let mut stream = Chunked {
                input: &input,
                chunk,
            };
            let mut reader = LineReader::new(MAX);
            let mut got = Vec::new();
            loop {
                let line = reader.read_line(&mut stream, || false);
                if line == ReadLine::Oversized && got.len() == 1 {
                    // Only bytes past the discarded line's newline stay.
                    assert!(input[after_discard..].starts_with(&reader.pending));
                }
                let closed = line == ReadLine::Closed;
                got.push(line);
                if closed {
                    break;
                }
            }
            // (The lines are too long to print whole.)
            let differ = got.iter().zip(&want).position(|(g, w)| g != w);
            assert!(
                got == want,
                "{chunk}-byte reads: {} results, first wrong at {differ:?}",
                got.len()
            );
        }
    }
}
