//! A blocking client for the daemon protocol.
//!
//! Used by `gisc serve-request`, the load generator and the benchmark
//! harness; also the reference implementation for clients in other
//! languages (the protocol is plain JSON lines, so a shell script with
//! `nc` works too).

use crate::protocol::{
    parse_response, schedule_request_line, BatchSummary, FuncOutcome, FuncSpec, Lang, Response,
};
use crate::server::Listen;
use gis_trace::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// One function's result as seen by the client.
#[derive(Debug, Clone)]
pub struct FuncResult {
    /// Position within the batch.
    pub index: usize,
    /// Function display name.
    pub name: String,
    /// What happened.
    pub outcome: FuncOutcome,
}

/// A completed batch: per-function results in input order plus the
/// server's summary line.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-function results, in input order.
    pub funcs: Vec<FuncResult>,
    /// The `batch-end` totals.
    pub summary: BatchSummary,
}

/// A connected protocol client.
pub struct Client {
    writer: Conn,
    reader: BufReader<Conn>,
    /// The last response line read, kept for its capacity.
    line: String,
    next_id: i64,
}

/// Read buffer size: a mid-size schedule line and the `batch-end` line
/// the daemon writes with it arrive in one read.
const READ_BUFFER_BYTES: usize = 64 << 10;

fn protocol_err(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect(listen: &Listen) -> io::Result<Client> {
        let (writer, reader) = match listen {
            Listen::Unix(path) => {
                let s = UnixStream::connect(path)?;
                let r = s.try_clone()?;
                (Conn::Unix(s), Conn::Unix(r))
            }
            Listen::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                let r = s.try_clone()?;
                (Conn::Tcp(s), Conn::Tcp(r))
            }
        };
        Ok(Client {
            writer,
            reader: BufReader::with_capacity(READ_BUFFER_BYTES, reader),
            line: String::new(),
            next_id: 1,
        })
    }

    /// Sends `line` and its `\n` in one write.
    fn send_line(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Reads the next response line into `self.line`, without its `\n`.
    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        parse_response(self.read_line()?).map_err(protocol_err)
    }

    fn fresh_id(&mut self) -> i64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Round-trips a `ping`.
    ///
    /// # Errors
    ///
    /// I/O failure, or an unexpected response kind.
    pub fn ping(&mut self) -> io::Result<()> {
        let id = self.fresh_id();
        self.send_line(format!("{{\"req\":\"ping\",\"id\":{id}}}"))?;
        match self.read_response()? {
            Response::Pong { .. } => Ok(()),
            other => Err(protocol_err(format!("expected pong, got {other:?}"))),
        }
    }

    /// Fetches the daemon's counters.
    ///
    /// # Errors
    ///
    /// I/O failure, or an unexpected response kind.
    pub fn stats(&mut self) -> io::Result<Vec<(String, u64)>> {
        let id = self.fresh_id();
        self.send_line(format!("{{\"req\":\"stats\",\"id\":{id}}}"))?;
        match self.read_response()? {
            Response::Stats { counters, .. } => Ok(counters),
            Response::Error { message } => Err(protocol_err(message)),
            other => Err(protocol_err(format!("expected stats, got {other:?}"))),
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// I/O failure, or an unexpected response kind.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        let id = self.fresh_id();
        self.send_line(format!("{{\"req\":\"shutdown\",\"id\":{id}}}"))?;
        match self.read_response()? {
            Response::ShutdownAck { .. } => Ok(()),
            other => Err(protocol_err(format!("expected shutdown, got {other:?}"))),
        }
    }

    /// Submits a batch and collects its streamed results.
    ///
    /// `config` members mirror [`crate::protocol::ConfigSpec`]; pass an
    /// empty vec for the full speculative pipeline.
    ///
    /// # Errors
    ///
    /// I/O failure, a protocol error response, or a malformed stream.
    pub fn schedule_batch(
        &mut self,
        lang: Lang,
        machine: &str,
        config: Vec<(String, Json)>,
        funcs: &[FuncSpec],
    ) -> io::Result<BatchResult> {
        let id = self.fresh_id();
        self.send_line(schedule_request_line(id, lang, machine, &config, funcs))?;

        let mut results = Vec::with_capacity(funcs.len());
        loop {
            match self.read_response()? {
                Response::Schedule {
                    index,
                    name,
                    outcome,
                    ..
                } => results.push(FuncResult {
                    index,
                    name,
                    outcome,
                }),
                Response::BatchEnd { summary, .. } => {
                    return Ok(BatchResult {
                        funcs: results,
                        summary,
                    })
                }
                Response::Error { message } => return Err(protocol_err(message)),
                other => {
                    return Err(protocol_err(format!(
                        "unexpected response in batch stream: {other:?}"
                    )))
                }
            }
        }
    }

    /// Sends a raw request line and returns the raw response line —
    /// the escape hatch `gisc serve-request --raw` uses.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn round_trip_raw(&mut self, line: &str) -> io::Result<String> {
        self.send_line(line.to_owned())?;
        self.read_line().map(str::to_owned)
    }
}
