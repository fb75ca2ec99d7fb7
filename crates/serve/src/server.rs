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

use crate::cache::{cache_key, CachedSchedule, ScheduleCache};
use crate::protocol::{
    batch_end_line, error_line, parse_request, pong_line, resolve_machine, schedule_line,
    shutdown_line, stats_line, BatchSummary, FuncOutcome, Lang, Request, ScheduleRequest,
};
use gis_core::{compile, effective_jobs, SchedConfig};
use gis_ir::hash::fnv64_str;
use gis_machine::MachineDescription;
use gis_trace::Metrics;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
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
    let workers = effective_jobs(config.jobs);
    let (tx, rx) = mpsc::channel::<Job>();
    *shared.pool_tx.lock().expect("pool lock") = Some(tx);
    let rx = Arc::new(Mutex::new(rx));
    let worker_handles: Vec<_> = (0..workers)
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

enum ReadLine {
    Line(String),
    Oversized,
    Closed,
}

/// Reads `\n`-terminated lines with a hard size cap, buffering any bytes
/// a pipelining client sends ahead of the next request.
struct LineReader {
    /// Bytes received but not yet consumed by a returned line.
    pending: Vec<u8>,
}

impl LineReader {
    fn new() -> Self {
        LineReader {
            pending: Vec::new(),
        }
    }

    /// Reads one line. Oversized lines are consumed to their terminating
    /// newline and reported, leaving the stream positioned at the next
    /// request. Returns [`ReadLine::Closed`] on EOF, on a mid-line
    /// disconnect, or when shutdown is requested while the connection is
    /// idle.
    fn read_line(&mut self, stream: &mut dyn Conn, shared: &Shared) -> ReadLine {
        let mut discarding = false;
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let mut line = self.pending.split_off(pos + 1);
                std::mem::swap(&mut line, &mut self.pending);
                line.pop(); // trailing '\n'
                if line.len() > shared.max_line_bytes {
                    return ReadLine::Oversized;
                }
                return match String::from_utf8(line) {
                    Ok(s) => ReadLine::Line(s),
                    // Hand non-UTF-8 downstream as an empty line so the
                    // client gets a parse-error response, not a hangup.
                    Err(_) => ReadLine::Line(String::new()),
                };
            }
            if self.pending.len() > shared.max_line_bytes {
                discarding = true;
                self.pending.clear();
            }
            match stream.read(&mut chunk) {
                Ok(0) => return ReadLine::Closed,
                Ok(n) => {
                    if discarding {
                        // Keep only a possible newline position.
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
                    if shared.shutting_down() && self.pending.is_empty() && !discarding {
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
    let mut reader = LineReader::new();
    loop {
        let line = match reader.read_line(stream.as_mut(), shared) {
            ReadLine::Closed => return,
            ReadLine::Oversized => {
                let msg = format!(
                    "request line exceeds {} bytes and was discarded",
                    shared.max_line_bytes
                );
                if write_line(stream.as_mut(), &error_line(&msg)).is_err() {
                    return;
                }
                continue;
            }
            ReadLine::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&line) {
            Ok(r) => r,
            Err(message) => {
                if write_line(stream.as_mut(), &error_line(&message)).is_err() {
                    return;
                }
                continue;
            }
        };
        record(shared, "serve.requests", 1);
        let result = match request {
            Request::Ping { id } => write_line(stream.as_mut(), &pong_line(id)),
            Request::Stats { id } => {
                let counters = current_counters(shared);
                write_line(stream.as_mut(), &stats_line(id, &counters))
            }
            Request::Shutdown { id } => {
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = write_line(stream.as_mut(), &shutdown_line(id));
                return;
            }
            Request::Schedule(req) => handle_schedule(stream.as_mut(), shared, req),
        };
        if result.is_err() {
            return; // client went away mid-stream; the daemon lives on
        }
    }
}

fn write_line(stream: &mut dyn Conn, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
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

fn handle_schedule(
    stream: &mut dyn Conn,
    shared: &Arc<Shared>,
    req: ScheduleRequest,
) -> io::Result<()> {
    let machine = match resolve_machine(&req.machine) {
        Ok(m) => Arc::new(m),
        Err(message) => return write_line(stream, &error_line(&message)),
    };
    let config = match req.config.resolve() {
        Ok(c) => Arc::new(c),
        Err(message) => return write_line(stream, &error_line(&message)),
    };
    let Some(pool) = shared.pool_tx.lock().expect("pool lock").clone() else {
        return write_line(stream, &error_line("daemon is shutting down"));
    };

    let started = Instant::now();
    let count = req.funcs.len();
    let fallback_names: Vec<String> = req
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| f.name.clone().unwrap_or_else(|| format!("func{i}")))
        .collect();

    let (results_tx, results_rx) = mpsc::channel::<(usize, String, FuncOutcome)>();
    for (index, func) in req.funcs.into_iter().enumerate() {
        let results_tx = results_tx.clone();
        let machine = Arc::clone(&machine);
        let config = Arc::clone(&config);
        let shared = Arc::clone(shared);
        let lang = req.lang;
        let job: Job = Box::new(move || {
            let (name, outcome) = schedule_one(&shared, lang, &func.text, &machine, &config);
            let name = func.name.unwrap_or(name);
            let _ = results_tx.send((index, name, outcome));
        });
        if pool.send(job).is_err() {
            break; // pool retired mid-shutdown; unfinished funcs time out below
        }
    }
    drop(results_tx);

    let deadline =
        (shared.timeout_ms > 0).then(|| started + Duration::from_millis(shared.timeout_ms));
    let mut results: Vec<Option<(String, FuncOutcome)>> = (0..count).map(|_| None).collect();
    let mut received = 0usize;
    let mut next_emit = 0usize;
    let mut summary = BatchSummary {
        count: count as u64,
        ..BatchSummary::default()
    };

    let emit_ready = |results: &mut Vec<Option<(String, FuncOutcome)>>,
                      next_emit: &mut usize,
                      summary: &mut BatchSummary,
                      stream: &mut dyn Conn|
     -> io::Result<()> {
        while *next_emit < count {
            let Some((name, outcome)) = results[*next_emit].take() else {
                break;
            };
            tally(summary, &outcome);
            write_line(stream, &schedule_line(req.id, *next_emit, &name, &outcome))?;
            *next_emit += 1;
        }
        Ok(())
    };

    while received < count {
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
                results[index] = Some((name, outcome));
                received += 1;
                emit_ready(&mut results, &mut next_emit, &mut summary, stream)?;
            }
            Err(_) => break, // deadline hit, or pool retired under shutdown
        }
    }

    // Anything still pending missed the deadline (results that arrived
    // out of order past `next_emit` are still emitted as themselves).
    for index in next_emit..count {
        let (name, outcome) = results[index]
            .take()
            .unwrap_or_else(|| (fallback_names[index].clone(), FuncOutcome::Timeout));
        tally(&mut summary, &outcome);
        write_line(stream, &schedule_line(req.id, index, &name, &outcome))?;
    }

    summary.nanos = started.elapsed().as_nanos() as u64;
    record(shared, "serve.functions", count as u64);
    record(shared, "serve.batches", 1);
    write_line(stream, &batch_end_line(req.id, &summary))
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
fn schedule_one(
    shared: &Shared,
    lang: Lang,
    text: &str,
    machine: &MachineDescription,
    config: &SchedConfig,
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
}
