//! The JSON-lines wire protocol.
//!
//! Every request and every response is one compact JSON object on one
//! line, terminated by `\n` — the same framing as `gis-trace` event
//! streams, and built on the same [`Json`] value type. A connection
//! carries any number of requests; responses to a `schedule` batch are
//! *streamed* (one line per function, in input order, followed by a
//! `batch-end` summary line) so a client can pipeline work and observe
//! progress. Protocol errors are answered with a `{"resp":"error",...}`
//! line and the connection stays open; only I/O failure or an oversized
//! line after `shutdown` closes it.
//!
//! The full request/response grammar is specified in `docs/SERVICE.md`.

use crate::cache::CachedSchedule;
use gis_core::SchedConfig;
use gis_machine::MachineDescription;
use gis_trace::{Json, ObjectWriter};
use std::fmt::Write as _;

/// The source language of a submitted function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lang {
    /// Tiny-C source; each function compiles through `gis-tinyc`.
    TinyC,
    /// The textual IR accepted by [`gis_ir::parse_function`].
    Asm,
}

/// One function in a `schedule` batch.
#[derive(Debug, Clone)]
pub struct FuncSpec {
    /// Optional display name; defaults to the function's own name.
    pub name: Option<String>,
    /// The program text (tiny-C or textual IR, per the batch [`Lang`]).
    pub text: String,
}

/// Scheduling options carried by a `schedule` request. Unset fields keep
/// the preset's defaults, so an empty `"config":{}` means the full
/// speculative pipeline.
#[derive(Debug, Clone, Default)]
pub struct ConfigSpec {
    /// `"base"`, `"useful"` or `"speculative"` (the default).
    pub preset: Option<String>,
    /// Override [`SchedConfig::rename`].
    pub rename: Option<bool>,
    /// Override [`SchedConfig::unroll`].
    pub unroll: Option<bool>,
    /// Override [`SchedConfig::rotate`].
    pub rotate: Option<bool>,
    /// Override [`SchedConfig::final_bb_pass`].
    pub final_bb: Option<bool>,
    /// Override [`SchedConfig::max_speculation_branches`].
    pub max_branches: Option<usize>,
    /// Override [`SchedConfig::duplication`].
    pub duplication: Option<bool>,
}

impl ConfigSpec {
    /// Resolves the spec to a concrete [`SchedConfig`].
    ///
    /// # Errors
    ///
    /// Returns a message when the preset name is unknown.
    pub fn resolve(&self) -> Result<SchedConfig, String> {
        let mut config = match self.preset.as_deref() {
            None | Some("speculative") => SchedConfig::speculative(),
            Some("useful") => SchedConfig::useful(),
            Some("base") => SchedConfig::base(),
            Some(other) => {
                return Err(format!(
                    "unknown config preset '{other}' (expected base, useful or speculative)"
                ))
            }
        };
        if let Some(v) = self.rename {
            config.rename = v;
        }
        if let Some(v) = self.unroll {
            config.unroll = v;
        }
        if let Some(v) = self.rotate {
            config.rotate = v;
        }
        if let Some(v) = self.final_bb {
            config.final_bb_pass = v;
        }
        if let Some(v) = self.max_branches {
            config.max_speculation_branches = v;
        }
        if let Some(v) = self.duplication {
            config.duplication = v;
        }
        Ok(config)
    }
}

/// A `schedule` request: a batch of functions to compile under one
/// machine and configuration.
#[derive(Debug, Clone)]
pub struct ScheduleRequest {
    /// Client-chosen request id, echoed on every response line.
    pub id: i64,
    /// Language of every function in the batch.
    pub lang: Lang,
    /// Machine preset name (`rs6k`, `scalar`, `wideN`).
    pub machine: String,
    /// Scheduling options.
    pub config: ConfigSpec,
    /// The batch, scheduled and answered in this order.
    pub funcs: Vec<FuncSpec>,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Echoed id.
        id: i64,
    },
    /// Ask for the daemon's counters.
    Stats {
        /// Echoed id.
        id: i64,
    },
    /// Ask the daemon to drain and exit.
    Shutdown {
        /// Echoed id.
        id: i64,
    },
    /// Compile a batch.
    Schedule(ScheduleRequest),
}

fn as_str(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn as_i64(v: &Json) -> Option<i64> {
    match v {
        Json::Int(i) => Some(*i),
        _ => None,
    }
}

fn as_bool(v: &Json) -> Option<bool> {
    match v {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Parses one request line. The error string is ready to ship back in an
/// `error` response. Function texts are moved out of the parsed line,
/// not copied.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut v = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    if !matches!(v, Json::Obj(_)) {
        return Err("request must be a JSON object".to_owned());
    }
    let req = v
        .get("req")
        .and_then(as_str)
        .ok_or("request is missing the \"req\" member")?;
    let id = v.get("id").and_then(as_i64).unwrap_or(0);
    match req {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "schedule" => {
            let lang = match v.get("lang").and_then(as_str) {
                None | Some("tinyc") => Lang::TinyC,
                Some("asm") => Lang::Asm,
                Some(other) => {
                    return Err(format!("unknown lang '{other}' (expected tinyc or asm)"))
                }
            };
            let machine = v
                .get("machine")
                .and_then(as_str)
                .unwrap_or("rs6k")
                .to_owned();
            let mut config = ConfigSpec::default();
            if let Some(c) = v.get("config") {
                if !matches!(c, Json::Obj(_)) {
                    return Err("\"config\" must be an object".to_owned());
                }
                config.preset = c.get("preset").and_then(as_str).map(str::to_owned);
                config.rename = c.get("rename").and_then(as_bool);
                config.unroll = c.get("unroll").and_then(as_bool);
                config.rotate = c.get("rotate").and_then(as_bool);
                config.final_bb = c.get("final_bb").and_then(as_bool);
                config.max_branches = c
                    .get("max_branches")
                    .and_then(as_i64)
                    .and_then(|n| usize::try_from(n).ok());
                config.duplication = c.get("duplication").and_then(as_bool);
            }
            let funcs = match v.take("funcs") {
                Some(Json::Arr(items)) if !items.is_empty() => items
                    .into_iter()
                    .map(|mut f| {
                        let text =
                            take_str(&mut f, "text").ok_or("every func needs a \"text\" member")?;
                        Ok(FuncSpec {
                            name: take_str(&mut f, "name"),
                            text,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                Some(Json::Arr(_)) => return Err("\"funcs\" must not be empty".to_owned()),
                _ => return Err("schedule request needs a \"funcs\" array".to_owned()),
            };
            Ok(Request::Schedule(ScheduleRequest {
                id,
                lang,
                machine,
                config,
                funcs,
            }))
        }
        other => Err(format!(
            "unknown request '{other}' (expected schedule, stats, ping or shutdown)"
        )),
    }
}

/// Moves string member `key` out of object `v`; `None` when `v` is not
/// an object or the member is missing or not a string.
fn take_str(v: &mut Json, key: &str) -> Option<String> {
    match v.take(key) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

/// The `schedule` request line [`crate::Client::schedule_batch`] sends,
/// written straight from the borrowed function texts.
pub fn schedule_request_line(
    id: i64,
    lang: Lang,
    machine: &str,
    config: &[(String, Json)],
    funcs: &[FuncSpec],
) -> String {
    let text_len: usize = funcs.iter().map(|f| f.text.len()).sum();
    let mut out = String::with_capacity(line_capacity(text_len));
    let mut line = ObjectWriter::new(&mut out);
    line.str("req", "schedule").int("id", id);
    line.str(
        "lang",
        match lang {
            Lang::TinyC => "tinyc",
            Lang::Asm => "asm",
        },
    );
    line.str("machine", machine);
    let mut members = ObjectWriter::new(line.key("config"));
    for (key, value) in config {
        members.value(key, value);
    }
    members.end();
    let array = line.key("funcs");
    array.push('[');
    for (i, f) in funcs.iter().enumerate() {
        if i > 0 {
            array.push(',');
        }
        let mut func = ObjectWriter::new(array);
        if let Some(name) = &f.name {
            func.str("name", name);
        }
        func.str("text", &f.text);
        func.end();
    }
    array.push(']');
    line.end();
    out
}

/// Resolves a machine preset name the same way the `gisc` CLI does —
/// both route through [`MachineDescription::by_name`], so every surface
/// accepts the same presets.
///
/// # Errors
///
/// Returns a message when the name is not `rs6k`, `scalar`, `issue2`,
/// `issue4`, `issue8`, `wideN` or `vliwN`.
pub fn resolve_machine(name: &str) -> Result<MachineDescription, String> {
    MachineDescription::by_name(name).ok_or_else(|| {
        format!("unknown machine '{name}' (expected rs6k, scalar, issue2/4/8, wideN or vliwN)")
    })
}

// ---------------------------------------------------------------------
// Response lines (server → client)
// ---------------------------------------------------------------------

/// Bytes to reserve for a line carrying `text_len` bytes of strings:
/// room for their escapes (a `\n` per short line), the other members and
/// the `\n` that ends the line on the wire.
fn line_capacity(text_len: usize) -> usize {
    text_len + text_len / 8 + 192
}

/// Appends a `resp` line with the members `rest` adds (no `\n`).
fn push_response(out: &mut String, resp: &str, rest: impl FnOnce(&mut ObjectWriter)) {
    let mut obj = ObjectWriter::new(out);
    obj.str("resp", resp);
    rest(&mut obj);
    obj.end();
}

/// A `resp` line with the members `rest` adds.
fn response_line(resp: &str, rest: impl FnOnce(&mut ObjectWriter)) -> String {
    let mut out = String::new();
    push_response(&mut out, resp, rest);
    out
}

/// `pong` line.
pub fn pong_line(id: i64) -> String {
    response_line("pong", |o| {
        o.int("id", id);
    })
}

/// `shutdown` acknowledgement line.
pub fn shutdown_line(id: i64) -> String {
    response_line("shutdown", |o| {
        o.int("id", id);
    })
}

/// `stats` line carrying the daemon counters.
pub fn stats_line(id: i64, counters: &[(String, u64)]) -> String {
    response_line("stats", |o| {
        o.int("id", id);
        let mut members = ObjectWriter::new(o.key("counters"));
        for (k, v) in counters {
            members.int(k, *v as i64);
        }
        members.end();
    })
}

/// Protocol `error` line (connection stays open).
pub fn error_line(message: &str) -> String {
    response_line("error", |o| {
        o.str("error", message);
    })
}

/// The per-function outcome carried by one `schedule` response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuncOutcome {
    /// Scheduled (possibly from cache).
    Ok {
        /// Whether the schedule came from the cache.
        cached: bool,
        /// FNV-64 of the scheduled text.
        hash: u64,
        /// Compile time (cold) or lookup time (warm), nanoseconds.
        nanos: u64,
        /// Useful motions.
        moved_useful: u64,
        /// Speculative motions.
        moved_speculative: u64,
        /// The scheduled function text.
        schedule: String,
    },
    /// Compilation failed (parse error, verifier rejection, ...).
    Error {
        /// What went wrong.
        message: String,
    },
    /// The per-function deadline expired before a result was ready.
    Timeout,
}

/// One `schedule` response line for function `index` of batch `id`. The
/// schedule text is escaped straight into the line, never copied first.
pub fn schedule_line(id: i64, index: usize, name: &str, outcome: &FuncOutcome) -> String {
    let mut out = String::new();
    push_schedule_line(&mut out, id, index, name, outcome);
    out
}

/// Appends [`schedule_line`]'s line to `out` (no `\n`), reserving room
/// for it first.
pub(crate) fn push_schedule_line(
    out: &mut String,
    id: i64,
    index: usize,
    name: &str,
    outcome: &FuncOutcome,
) {
    let text_len = name.len()
        + match outcome {
            FuncOutcome::Ok { schedule, .. } => schedule.len(),
            FuncOutcome::Error { message } => message.len(),
            FuncOutcome::Timeout => 0,
        };
    out.reserve(line_capacity(text_len));
    push_response(out, "schedule", |o| {
        o.int("id", id).int("index", index as i64).str("name", name);
        match outcome {
            FuncOutcome::Ok {
                cached,
                hash,
                nanos,
                moved_useful,
                moved_speculative,
                schedule,
            } => {
                let moved = (*moved_useful, *moved_speculative);
                ok_members(o, *cached, *hash, *nanos, moved, schedule);
            }
            FuncOutcome::Error { message } => {
                o.str("status", "error").str("error", message);
            }
            FuncOutcome::Timeout => {
                o.str("status", "timeout");
            }
        }
    });
}

/// Appends the line [`push_schedule_line`] writes for a cached
/// [`FuncOutcome::Ok`] looked up in `nanos`, escaping the schedule
/// straight from the cache entry `hit`.
pub(crate) fn push_hit_line(
    out: &mut String,
    id: i64,
    index: usize,
    name: &str,
    hit: &CachedSchedule,
    nanos: u64,
) {
    out.reserve(line_capacity(name.len() + hit.text.len()));
    push_response(out, "schedule", |o| {
        o.int("id", id).int("index", index as i64).str("name", name);
        let moved = (hit.moved_useful, hit.moved_speculative);
        ok_members(o, true, hit.hash, nanos, moved, &hit.text);
    });
}

/// The members of a [`FuncOutcome::Ok`] line.
fn ok_members(
    o: &mut ObjectWriter,
    cached: bool,
    hash: u64,
    nanos: u64,
    (moved_useful, moved_speculative): (u64, u64),
    schedule: &str,
) {
    o.str("status", "ok").bool("cached", cached);
    let _ = write!(o.key("hash"), "\"{hash:016x}\"");
    o.int("nanos", nanos as i64)
        .int("moved_useful", moved_useful as i64)
        .int("moved_speculative", moved_speculative as i64)
        .str("schedule", schedule);
}

/// The `batch-end` summary line closing batch `id`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Functions in the batch.
    pub count: u64,
    /// Functions that scheduled successfully.
    pub ok: u64,
    /// Functions that failed or timed out.
    pub errors: u64,
    /// Cache hits within the batch.
    pub cache_hits: u64,
    /// Cache misses within the batch.
    pub cache_misses: u64,
    /// Wall time for the whole batch, nanoseconds.
    pub nanos: u64,
}

/// Serializes the `batch-end` line.
pub fn batch_end_line(id: i64, summary: &BatchSummary) -> String {
    response_line("batch-end", |o| {
        o.int("id", id)
            .int("count", summary.count as i64)
            .int("ok", summary.ok as i64)
            .int("errors", summary.errors as i64)
            .int("cache_hits", summary.cache_hits as i64)
            .int("cache_misses", summary.cache_misses as i64)
            .int("nanos", summary.nanos as i64);
    })
}

// ---------------------------------------------------------------------
// Response parsing (client side)
// ---------------------------------------------------------------------

/// A parsed response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to `ping`.
    Pong {
        /// Echoed id.
        id: i64,
    },
    /// Reply to `shutdown`.
    ShutdownAck {
        /// Echoed id.
        id: i64,
    },
    /// Reply to `stats`.
    Stats {
        /// Echoed id.
        id: i64,
        /// Counter name/value pairs, in server order.
        counters: Vec<(String, u64)>,
    },
    /// One function's result within a batch.
    Schedule {
        /// Echoed batch id.
        id: i64,
        /// Position within the batch.
        index: usize,
        /// Function display name.
        name: String,
        /// The outcome.
        outcome: FuncOutcome,
    },
    /// End of a batch.
    BatchEnd {
        /// Echoed batch id.
        id: i64,
        /// Totals.
        summary: BatchSummary,
    },
    /// A protocol error report.
    Error {
        /// The server's message.
        message: String,
    },
}

/// Parses one response line (the inverse of the serializers above). A
/// schedule's text is moved out of the parsed line, not copied.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let mut v = Json::parse(line).map_err(|e| format!("malformed response JSON: {e}"))?;
    let resp = v
        .get("resp")
        .and_then(as_str)
        .ok_or("response is missing the \"resp\" member")?;
    let id = v.get("id").and_then(as_i64).unwrap_or(0);
    let u = |key: &str| -> u64 {
        v.get(key)
            .and_then(as_i64)
            .and_then(|n| u64::try_from(n).ok())
            .unwrap_or(0)
    };
    match resp {
        "pong" => Ok(Response::Pong { id }),
        "shutdown" => Ok(Response::ShutdownAck { id }),
        "error" => Ok(Response::Error {
            message: take_str(&mut v, "error").unwrap_or_else(|| "unknown error".to_owned()),
        }),
        "stats" => {
            let counters = match v.take("counters") {
                Some(Json::Obj(members)) => members
                    .into_iter()
                    .map(|(k, val)| {
                        let n = as_i64(&val)
                            .and_then(|n| u64::try_from(n).ok())
                            .ok_or_else(|| format!("counter '{k}' is not a number"))?;
                        Ok((k, n))
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                _ => return Err("stats response has no \"counters\" object".to_owned()),
            };
            Ok(Response::Stats { id, counters })
        }
        "batch-end" => Ok(Response::BatchEnd {
            id,
            summary: BatchSummary {
                count: u("count"),
                ok: u("ok"),
                errors: u("errors"),
                cache_hits: u("cache_hits"),
                cache_misses: u("cache_misses"),
                nanos: u("nanos"),
            },
        }),
        "schedule" => {
            let index = usize::try_from(v.get("index").and_then(as_i64).unwrap_or(0))
                .map_err(|_| "bad index".to_owned())?;
            let outcome = match v.get("status").and_then(as_str) {
                Some("ok") => FuncOutcome::Ok {
                    cached: v.get("cached").and_then(as_bool).unwrap_or(false),
                    hash: v
                        .get("hash")
                        .and_then(as_str)
                        .and_then(|h| u64::from_str_radix(h, 16).ok())
                        .ok_or("schedule response has no valid \"hash\"")?,
                    nanos: u("nanos"),
                    moved_useful: u("moved_useful"),
                    moved_speculative: u("moved_speculative"),
                    schedule: take_str(&mut v, "schedule")
                        .ok_or("schedule response has no \"schedule\" text")?,
                },
                Some("error") => FuncOutcome::Error {
                    message: take_str(&mut v, "error")
                        .unwrap_or_else(|| "unknown error".to_owned()),
                },
                Some("timeout") => FuncOutcome::Timeout,
                _ => return Err("schedule response has no valid \"status\"".to_owned()),
            };
            Ok(Response::Schedule {
                id,
                index,
                name: take_str(&mut v, "name").unwrap_or_default(),
                outcome,
            })
        }
        other => Err(format!("unknown response '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_core::SchedLevel;

    #[test]
    fn parses_a_full_schedule_request() {
        let line = r#"{"req":"schedule","id":7,"lang":"asm","machine":"wide2",
            "config":{"preset":"useful","unroll":false,"max_branches":2},
            "funcs":[{"name":"f","text":"func f\ne:\n RET\n"}]}"#
            .replace('\n', " ");
        let Request::Schedule(req) = parse_request(&line).expect("parses") else {
            panic!("not a schedule request");
        };
        assert_eq!(req.id, 7);
        assert_eq!(req.lang, Lang::Asm);
        assert_eq!(req.machine, "wide2");
        assert_eq!(req.funcs.len(), 1);
        assert_eq!(req.funcs[0].name.as_deref(), Some("f"));
        let config = req.config.resolve().expect("resolves");
        assert_eq!(config.level, SchedLevel::Useful);
        assert!(!config.unroll);
        assert_eq!(config.max_speculation_branches, 2);
        assert!(!config.duplication, "not requested: preset default");
    }

    #[test]
    fn duplication_round_trips_through_config() {
        let line = r#"{"req":"schedule","id":1,"lang":"asm",
            "config":{"duplication":true},
            "funcs":[{"text":"func f\ne:\n RET\n"}]}"#
            .replace('\n', " ");
        let Request::Schedule(req) = parse_request(&line).expect("parses") else {
            panic!("not a schedule request");
        };
        assert_eq!(req.config.duplication, Some(true));
        let config = req.config.resolve().expect("resolves");
        assert!(config.duplication);
        // Explicitly off round-trips too (distinct from unset).
        let line = line.replace("true", "false");
        let Request::Schedule(req) = parse_request(&line).expect("parses") else {
            panic!("not a schedule request");
        };
        assert_eq!(req.config.duplication, Some(false));
        assert!(!req.config.resolve().expect("resolves").duplication);
    }

    #[test]
    fn defaults_fill_in() {
        let req = parse_request(r#"{"req":"schedule","funcs":[{"text":"int x;"}]}"#)
            .expect("minimal request parses");
        let Request::Schedule(req) = req else {
            panic!("not a schedule request");
        };
        assert_eq!(req.id, 0);
        assert_eq!(req.lang, Lang::TinyC);
        assert_eq!(req.machine, "rs6k");
        let config = req.config.resolve().expect("resolves");
        assert_eq!(config.level, SchedLevel::Speculative);
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
        assert!(parse_request(r#"{"id":1}"#).is_err());
        assert!(parse_request(r#"{"req":"frobnicate"}"#).is_err());
        assert!(parse_request(r#"{"req":"schedule"}"#).is_err());
        assert!(parse_request(r#"{"req":"schedule","funcs":[]}"#).is_err());
        assert!(parse_request(r#"{"req":"schedule","funcs":[{"name":"f"}]}"#).is_err());
        assert!(
            parse_request(r#"{"req":"schedule","lang":"cobol","funcs":[{"text":"x"}]}"#).is_err()
        );
    }

    #[test]
    fn unknown_preset_is_an_error() {
        let spec = ConfigSpec {
            preset: Some("turbo".to_owned()),
            ..ConfigSpec::default()
        };
        assert!(spec.resolve().unwrap_err().contains("turbo"));
    }

    #[test]
    fn machine_names_resolve_like_the_cli() {
        assert_eq!(resolve_machine("rs6k").expect("rs6k").name(), "rs6k");
        assert_eq!(resolve_machine("scalar").expect("scalar").name(), "scalar");
        assert_eq!(resolve_machine("wide4").expect("wide4").name(), "wide4");
        assert!(resolve_machine("wide0").is_err());
        assert!(resolve_machine("wide9999").is_err());
        assert!(resolve_machine("pdp11").is_err());
    }

    #[test]
    fn response_lines_round_trip() {
        let ok = FuncOutcome::Ok {
            cached: true,
            hash: 0xdead_beef_0123_4567,
            nanos: 42,
            moved_useful: 3,
            moved_speculative: 1,
            schedule: "func f\ne:\n    (I0)   RET\n".to_owned(),
        };
        let line = schedule_line(9, 2, "f", &ok);
        let hit = CachedSchedule {
            text: "func f\ne:\n    (I0)   RET\n".to_owned(),
            hash: 0xdead_beef_0123_4567,
            moved_useful: 3,
            moved_speculative: 1,
            nanos: 7,
        };
        let mut from_hit = String::new();
        push_hit_line(&mut from_hit, 9, 2, "f", &hit, 42);
        assert_eq!(from_hit, line, "a source-index hit writes the same line");
        let Response::Schedule {
            id,
            index,
            name,
            outcome,
        } = parse_response(&line).expect("parses")
        else {
            panic!("wrong response kind");
        };
        assert_eq!((id, index, name.as_str()), (9, 2, "f"));
        let FuncOutcome::Ok {
            cached,
            hash,
            schedule,
            ..
        } = outcome
        else {
            panic!("wrong outcome");
        };
        assert!(cached);
        assert_eq!(hash, 0xdead_beef_0123_4567);
        assert!(schedule.contains("RET"));

        let summary = BatchSummary {
            count: 4,
            ok: 3,
            errors: 1,
            cache_hits: 2,
            cache_misses: 2,
            nanos: 1000,
        };
        let line = batch_end_line(9, &summary);
        let Response::BatchEnd { id, summary: got } = parse_response(&line).expect("parses") else {
            panic!("wrong response kind");
        };
        assert_eq!(id, 9);
        assert_eq!(got, summary);

        assert!(matches!(
            parse_response(&pong_line(1)).expect("parses"),
            Response::Pong { id: 1 }
        ));
        assert!(matches!(
            parse_response(&shutdown_line(2)).expect("parses"),
            Response::ShutdownAck { id: 2 }
        ));
        let line = stats_line(3, &[("cache.hits".to_owned(), 5)]);
        let Response::Stats { counters, .. } = parse_response(&line).expect("parses") else {
            panic!("wrong response kind");
        };
        assert_eq!(counters, vec![("cache.hits".to_owned(), 5)]);
        assert!(matches!(
            parse_response(&error_line("boom")).expect("parses"),
            Response::Error { message } if message == "boom"
        ));
    }
}
