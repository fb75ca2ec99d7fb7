//! End-to-end tests: a real daemon on a real socket, driven by the
//! protocol client.

use gis_ir::hash::fnv64_str;
use gis_serve::{start, Client, FuncOutcome, FuncSpec, Lang, Listen, ServeConfig, Server};
use gis_workloads::loadgen;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn unique_socket(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "gis-serve-test-{}-{tag}-{n}.sock",
        std::process::id()
    ))
}

fn start_unix(tag: &str, configure: impl FnOnce(&mut ServeConfig)) -> (Server, Listen) {
    let listen = Listen::Unix(unique_socket(tag));
    let mut config = ServeConfig::new(listen.clone());
    config.jobs = 2;
    configure(&mut config);
    let server = start(config).expect("daemon starts");
    (server, listen)
}

fn tinyc_specs(items: &[loadgen::CorpusItem]) -> Vec<FuncSpec> {
    items
        .iter()
        .map(|i| FuncSpec {
            name: Some(i.name.clone()),
            text: i.source.clone(),
        })
        .collect()
}

fn ok_hashes(results: &[gis_serve::client::FuncResult]) -> Vec<(bool, u64)> {
    results
        .iter()
        .map(|r| match &r.outcome {
            FuncOutcome::Ok { cached, hash, .. } => (*cached, *hash),
            other => panic!("function {} did not schedule: {other:?}", r.name),
        })
        .collect()
}

fn counter(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

fn one(text: &str) -> Vec<FuncSpec> {
    vec![FuncSpec {
        name: None,
        text: text.to_owned(),
    }]
}

#[test]
fn warm_batch_hits_the_cache_with_identical_hashes() {
    let (server, listen) = start_unix("warm", |_| {});
    let corpus = loadgen::corpus(4, 4, 4, 2, 42);
    let specs = tinyc_specs(&corpus);

    let mut client = Client::connect(&listen).expect("connects");
    client.ping().expect("ping");

    let cold = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &specs)
        .expect("cold batch");
    assert_eq!(cold.summary.ok, 4);
    assert_eq!(cold.summary.cache_hits, 0);
    assert_eq!(cold.summary.cache_misses, 4);
    let cold_hashes = ok_hashes(&cold.funcs);
    assert!(cold_hashes.iter().all(|(cached, _)| !cached));

    let warm = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &specs)
        .expect("warm batch");
    assert_eq!(warm.summary.cache_hits, 4, "everything repeats");
    let warm_hashes = ok_hashes(&warm.funcs);
    assert!(warm_hashes.iter().all(|(cached, _)| *cached));
    assert_eq!(
        cold_hashes.iter().map(|(_, h)| h).collect::<Vec<_>>(),
        warm_hashes.iter().map(|(_, h)| h).collect::<Vec<_>>(),
        "warm hits return bit-identical schedules"
    );

    // Results stream in input order.
    let indices: Vec<usize> = warm.funcs.iter().map(|r| r.index).collect();
    assert_eq!(indices, vec![0, 1, 2, 3]);

    let stats = client.stats().expect("stats");
    let counter = |name: &str| {
        stats
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert_eq!(counter("cache.hits"), 4);
    assert_eq!(counter("cache.misses"), 4);
    assert_eq!(counter("serve.batches"), 2);

    client.shutdown_server().expect("shutdown ack");
    let metrics = server.join();
    assert_eq!(metrics.counter("cache.hits"), 4);
    let Listen::Unix(path) = &listen else {
        unreachable!()
    };
    assert!(!path.exists(), "socket file unlinked on shutdown");
}

#[test]
fn cached_schedule_matches_a_fresh_in_process_compile() {
    let (server, listen) = start_unix("correct", |_| {});
    let source = loadgen::corpus(1, 1, 5, 3, 7).remove(0).source;

    // The reference: compile the same function locally, no daemon.
    let mut reference = gis_tinyc::compile_program(&source)
        .expect("frontend")
        .function;
    gis_core::compile(
        &mut reference,
        &gis_machine::MachineDescription::rs6k(),
        &gis_core::SchedConfig::speculative(),
    )
    .expect("schedules");
    let reference_hash = fnv64_str(&reference.to_string());

    let mut client = Client::connect(&listen).expect("connects");
    let spec = vec![FuncSpec {
        name: None,
        text: source,
    }];
    for pass in ["cold", "warm"] {
        let batch = client
            .schedule_batch(Lang::TinyC, "rs6k", vec![], &spec)
            .expect(pass);
        let FuncOutcome::Ok { hash, schedule, .. } = &batch.funcs[0].outcome else {
            panic!("{pass} pass failed: {:?}", batch.funcs[0].outcome);
        };
        assert_eq!(*hash, reference_hash, "{pass} hash matches local compile");
        assert_eq!(fnv64_str(schedule), reference_hash, "{pass} text matches");
    }

    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn tcp_listener_speaks_the_same_protocol() {
    let listen = Listen::Tcp("127.0.0.1:0".to_owned());
    let mut config = ServeConfig::new(listen);
    config.jobs = 1;
    let server = start(config).expect("daemon starts");
    let addr = server.tcp_addr().expect("bound tcp address");
    let listen = Listen::Tcp(addr.to_string());

    let mut client = Client::connect(&listen).expect("connects");
    // Textual IR straight in, no front end.
    let batch = client
        .schedule_batch(
            Lang::Asm,
            "wide2",
            vec![],
            &[FuncSpec {
                name: None,
                text: "func t\nentry:\n    LI r0=1\n    LI r1=2\n    A r2=r0,r1\n    RET\n"
                    .to_owned(),
            }],
        )
        .expect("asm batch");
    assert_eq!(batch.summary.ok, 1);
    let FuncOutcome::Ok { schedule, .. } = &batch.funcs[0].outcome else {
        panic!("asm function failed: {:?}", batch.funcs[0].outcome);
    };
    assert!(schedule.contains("func t"));

    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn malformed_lines_get_error_responses_and_the_connection_survives() {
    let (server, listen) = start_unix("malformed", |_| {});
    let mut client = Client::connect(&listen).expect("connects");

    for bad in [
        "this is not json",
        "[1,2,3]",
        r#"{"id":9}"#,
        r#"{"req":"frobnicate","id":9}"#,
        r#"{"req":"schedule","id":9,"funcs":[]}"#,
        r#"{"req":"schedule","id":9,"machine":"pdp11","funcs":[{"text":"int x;"}]}"#,
        r#"{"req":"schedule","id":9,"config":{"preset":"turbo"},"funcs":[{"text":"int x;"}]}"#,
    ] {
        let response = client.round_trip_raw(bad).expect("server answers");
        assert!(
            response.contains("\"resp\":\"error\""),
            "{bad} => {response}"
        );
    }

    // A line that is not UTF-8 is answered too, not skipped.
    let Listen::Unix(path) = &listen else {
        unreachable!()
    };
    let mut raw = std::os::unix::net::UnixStream::connect(path).expect("connects");
    raw.write_all(b"\xff\xfe\n{\"req\":\"ping\",\"id\":5}\n")
        .expect("send");
    let mut replies = BufReader::new(&raw);
    for want in ["{\"resp\":\"error\"", "{\"resp\":\"pong\""] {
        let mut reply = String::new();
        replies.read_line(&mut reply).expect("a reply");
        assert!(reply.starts_with(want), "{reply}");
    }

    // Front-end failures are per-function, not protocol errors.
    let batch = client
        .schedule_batch(
            Lang::TinyC,
            "rs6k",
            vec![],
            &[FuncSpec {
                name: Some("broken".to_owned()),
                text: "void f( {".to_owned(),
            }],
        )
        .expect("batch completes");
    assert_eq!(batch.summary.errors, 1);
    assert!(matches!(batch.funcs[0].outcome, FuncOutcome::Error { .. }));

    // After all that abuse the connection still schedules real work.
    client.ping().expect("still alive");
    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn out_of_range_register_indices_are_answered_with_an_error() {
    let (server, listen) = start_unix("regbound", |_| {});
    let mut client = Client::connect(&listen).expect("connects");
    let batch = client
        .schedule_batch(
            Lang::Asm,
            "rs6k",
            vec![],
            &[FuncSpec {
                name: Some("huge".to_owned()),
                text: "func t\ne:\n    LI r4294967295=1\n    RET\n".to_owned(),
            }],
        )
        .expect("batch completes");
    assert_eq!(batch.summary.errors, 1);
    let FuncOutcome::Error { message } = &batch.funcs[0].outcome else {
        panic!("expected an error: {:?}", batch.funcs[0].outcome);
    };
    assert!(message.contains("line 3"), "{message}");
    client.ping().expect("the daemon still answers");
    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn oversized_requests_are_discarded_not_fatal() {
    let (server, listen) = start_unix("oversized", |c| c.max_line_bytes = 1024);
    let mut client = Client::connect(&listen).expect("connects");

    let huge = format!(
        r#"{{"req":"schedule","id":1,"funcs":[{{"text":"{}"}}]}}"#,
        "x".repeat(8192)
    );
    let response = client.round_trip_raw(&huge).expect("server answers");
    assert!(response.contains("exceeds 1024 bytes"), "{response}");

    client
        .ping()
        .expect("connection survives an oversized line");
    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn deeply_nested_lines_are_errors_not_crashes() {
    let (server, listen) = start_unix("nested", |_| {});
    let mut client = Client::connect(&listen).expect("connects");

    // 20 KB of `[` once overflowed the connection thread's stack and
    // aborted the whole daemon.
    for deep in ["[".repeat(20_000), "{\"a\":".repeat(5_000)] {
        let response = client.round_trip_raw(&deep).expect("server answers");
        assert!(
            response.starts_with("{\"resp\":\"error\"") && response.contains("nested too deep"),
            "{response}"
        );
    }

    client.ping().expect("the same connection still answers");
    let batch = client
        .schedule_batch(
            Lang::TinyC,
            "rs6k",
            vec![],
            &tinyc_specs(&loadgen::corpus(1, 1, 2, 1, 5)),
        )
        .expect("and still schedules");
    assert_eq!(batch.summary.ok, 1);
    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn mid_stream_disconnect_leaves_the_daemon_serving() {
    let (server, listen) = start_unix("disconnect", |_| {});
    let corpus = loadgen::corpus(3, 3, 6, 3, 9);

    {
        // A rude client: submit a batch, read half a response, vanish.
        let Listen::Unix(path) = &listen else {
            unreachable!()
        };
        let mut stream = std::os::unix::net::UnixStream::connect(path).expect("connects");
        let specs = tinyc_specs(&corpus);
        let funcs: Vec<String> = specs
            .iter()
            .map(|f| format!(r#"{{"text":{}}}"#, gis_trace::Json::Str(f.text.clone())))
            .collect();
        let request = format!(
            r#"{{"req":"schedule","id":1,"funcs":[{}]}}"#,
            funcs.join(",")
        );
        stream.write_all(request.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
        let mut reader = BufReader::new(&stream);
        let mut first = String::new();
        reader.read_line(&mut first).expect("first response line");
        assert!(first.contains("\"resp\":"));
        // Drop: the stream closes with schedule lines still unsent.
    }

    // The daemon must still serve new clients.
    let mut client = Client::connect(&listen).expect("second client connects");
    client.ping().expect("daemon alive after rude disconnect");
    let batch = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &tinyc_specs(&corpus[..1]))
        .expect("still schedules");
    assert_eq!(batch.summary.ok, 1);

    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn deadline_turns_unfinished_functions_into_timeouts() {
    // One worker, a 1 ms deadline, and a queue of mid-sized functions:
    // the later ones cannot possibly finish in time. (Sizes are kept
    // moderate — the workers drain the queue even after the deadline,
    // and shutdown waits for them.)
    let (server, listen) = start_unix("timeout", |c| {
        c.jobs = 1;
        c.timeout_ms = 1;
    });
    let corpus = loadgen::corpus(4, 4, 24, 3, 3);
    let mut client = Client::connect(&listen).expect("connects");
    let batch = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &tinyc_specs(&corpus))
        .expect("batch completes despite timeouts");
    assert_eq!(batch.funcs.len(), 4, "every function gets a response");
    let timeouts = batch
        .funcs
        .iter()
        .filter(|r| matches!(r.outcome, FuncOutcome::Timeout))
        .count();
    assert!(
        timeouts > 0,
        "a 1ms deadline must expire: {:?}",
        batch.summary
    );
    assert_eq!(batch.summary.errors, timeouts as u64);

    // The connection survives a timed-out batch.
    client.ping().expect("alive");
    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn bounded_cache_evicts_and_counts() {
    let (server, listen) = start_unix("evict", |c| c.cache_cap = 1);
    let corpus = loadgen::corpus(2, 2, 3, 1, 5);
    let specs = tinyc_specs(&corpus);
    let mut client = Client::connect(&listen).expect("connects");

    // A and B thrash a 1-entry cache; repeats of the pair never hit.
    for _ in 0..2 {
        client
            .schedule_batch(Lang::TinyC, "rs6k", vec![], &specs)
            .expect("batch");
    }
    let stats = client.stats().expect("stats");
    let counter = |name: &str| {
        stats
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert_eq!(counter("cache.capacity"), 1);
    assert_eq!(counter("cache.entries"), 1);
    assert!(counter("cache.evictions") >= 2, "thrashing evicts");

    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn cache_persists_across_restarts() {
    let cache_file = std::env::temp_dir().join(format!(
        "gis-serve-test-persist-{}.cache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache_file);
    let corpus = loadgen::corpus(3, 3, 4, 2, 17);
    let specs = tinyc_specs(&corpus);

    // First daemon: cold compiles, then dumps its cache on drain.
    let (server, listen) = start_unix("persist1", |c| c.cache_file = Some(cache_file.clone()));
    let mut client = Client::connect(&listen).expect("connects");
    let cold = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &specs)
        .expect("cold batch");
    assert_eq!(cold.summary.cache_misses, 3);
    let cold_hashes = ok_hashes(&cold.funcs);
    client.shutdown_server().expect("shutdown");
    let metrics = server.join();
    assert_eq!(metrics.counter("cache.persist.saved"), 3);
    assert!(cache_file.exists(), "image written on drain");

    // Second daemon: reloads the image and serves the batch warm.
    let (server, listen) = start_unix("persist2", |c| c.cache_file = Some(cache_file.clone()));
    let mut client = Client::connect(&listen).expect("connects");
    let warm = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &specs)
        .expect("warm batch");
    assert_eq!(warm.summary.cache_hits, 3, "restored entries hit");
    let warm_hashes = ok_hashes(&warm.funcs);
    assert!(warm_hashes.iter().all(|&(cached, _)| cached));
    assert_eq!(
        warm_hashes.iter().map(|(_, h)| h).collect::<Vec<_>>(),
        cold_hashes.iter().map(|(_, h)| h).collect::<Vec<_>>(),
        "bit-identical"
    );
    let stats = client.stats().expect("stats");
    let loaded = stats
        .iter()
        .find(|(k, _)| k == "cache.persist.loaded")
        .map(|&(_, v)| v);
    assert_eq!(loaded, Some(3));
    // The source index is not persisted: the first resubmit went through
    // the front end to the restored schedules; the second skips it.
    assert_eq!(counter(&stats, "cache.source.hit"), 0);
    assert_eq!(counter(&stats, "cache.source.entries"), 3);
    let again = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &specs)
        .expect("second warm batch");
    assert_eq!(ok_hashes(&again.funcs), warm_hashes);
    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "cache.source.hit"), 3);
    assert_eq!(counter(&stats, "cache.hits"), 6);
    client.shutdown_server().expect("shutdown");
    server.join();
    let _ = std::fs::remove_file(&cache_file);
}

#[test]
fn stale_cache_images_are_rejected_cleanly() {
    let cache_file =
        std::env::temp_dir().join(format!("gis-serve-test-stale-{}.cache", std::process::id()));
    // A version far beyond anything this build speaks.
    let mut image = Vec::new();
    image.extend_from_slice(b"GISC");
    image.extend_from_slice(&999u32.to_le_bytes());
    image.extend_from_slice(&0u64.to_le_bytes());
    std::fs::write(&cache_file, &image).expect("writes stale image");

    let (server, listen) = start_unix("stale", |c| c.cache_file = Some(cache_file.clone()));
    let mut client = Client::connect(&listen).expect("daemon starts despite the image");
    client.ping().expect("serves");
    let stats = client.stats().expect("stats");
    let counter = |name: &str| {
        stats
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert_eq!(counter("cache.persist.rejected"), 1);
    assert_eq!(counter("cache.entries"), 0, "nothing imported");
    client.shutdown_server().expect("shutdown");
    server.join();
    // The drain overwrites the stale image with a current-version one.
    let rewritten = std::fs::read(&cache_file).expect("image rewritten");
    assert_eq!(&rewritten[4..8], &2u32.to_le_bytes(), "current version");
    let _ = std::fs::remove_file(&cache_file);
}

/// Editing one function of a warm batch invalidates only its changed
/// regions: the whole-function cache misses for the edited function, but
/// the in-process region memo re-serves its untouched loops.
#[test]
fn editing_one_function_warm_hits_unchanged_regions() {
    let (server, listen) = start_unix("region-warm", |_| {});
    let before = "int a[8];\nvoid f() {\n  int i = 0; int acc = 0;\n\
                  \x20 while (i < 9) { acc = acc + a[i & 7] * 3; i = i + 1; }\n\
                  \x20 int j = 0;\n\
                  \x20 while (j < 9) { acc = acc + a[j & 7] * 5; j = j + 1; }\n\
                  \x20 print(acc);\n}\n";
    // Same shape, one constant changed in the second loop: the first
    // loop's blocks keep identical ids and content, so its region keys
    // are unchanged.
    let after = before.replace("* 5", "* 7");
    assert_ne!(before, after);
    let other = "int b[4];\nvoid g() {\n  int k = 0; int s = 0;\n\
                 \x20 while (k < 5) { s = s + b[k & 3]; k = k + 1; }\n\
                 \x20 print(s);\n}\n";
    let spec = |text: &str, name: &str| FuncSpec {
        name: Some(name.to_owned()),
        text: text.to_owned(),
    };

    let mut client = Client::connect(&listen).expect("connects");
    let counter_of = |stats: &[(String, u64)], name: &str| {
        stats
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    client
        .schedule_batch(
            Lang::TinyC,
            "rs6k",
            vec![],
            &[spec(before, "f"), spec(other, "g")],
        )
        .expect("cold batch");
    let stats = client.stats().expect("stats");
    let hits_before = counter_of(&stats, "cache.region.hit");

    let edited = client
        .schedule_batch(
            Lang::TinyC,
            "rs6k",
            vec![],
            &[spec(&after, "f"), spec(other, "g")],
        )
        .expect("edited batch");
    // The unchanged function hits the whole-function cache; the edited
    // one misses it but warm-hits its untouched region.
    assert_eq!(edited.summary.cache_hits, 1);
    assert_eq!(edited.summary.cache_misses, 1);
    let stats = client.stats().expect("stats");
    let hits_after = counter_of(&stats, "cache.region.hit");
    assert!(
        hits_after > hits_before,
        "edited function re-serves unchanged regions from the memo \
         ({hits_before} -> {hits_after})"
    );

    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn request_shutdown_drains_without_a_client() {
    let (server, listen) = start_unix("drain", |_| {});
    let mut client = Client::connect(&listen).expect("connects");
    client.ping().expect("ping");
    drop(client);
    server.request_shutdown();
    assert!(server.shutdown_requested());
    let metrics = server.join();
    assert_eq!(metrics.counter("serve.requests"), 1);
}

#[test]
fn an_identical_resubmit_is_answered_from_the_source_index() {
    let (server, listen) = start_unix("source-hit", |_| {});
    let source = loadgen::corpus(1, 1, 4, 2, 23).remove(0).source;
    let mut client = Client::connect(&listen).expect("connects");
    let cold = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &one(&source))
        .expect("cold");
    let warm = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &one(&source))
        .expect("warm");
    let [(false, cold_hash)] = ok_hashes(&cold.funcs)[..] else {
        panic!("cold pass: {:?}", cold.funcs);
    };
    assert_eq!(ok_hashes(&warm.funcs), vec![(true, cold_hash)]);
    assert_eq!(
        warm.funcs[0].name, cold.funcs[0].name,
        "the function's own name"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "cache.source.hit"), 1);
    assert_eq!(counter(&stats, "cache.source.miss"), 1);
    assert_eq!(counter(&stats, "cache.hits"), 1);
    assert_eq!(counter(&stats, "cache.misses"), 1);
    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn a_whitespace_only_edit_misses_the_index_and_hits_the_canonical_cache() {
    let (server, listen) = start_unix("source-space", |_| {});
    let source = loadgen::corpus(1, 1, 4, 2, 29).remove(0).source;
    let spaced = source.replace('\n', "\n\n");
    assert_ne!(source, spaced);
    let mut client = Client::connect(&listen).expect("connects");
    let cold = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &one(&source))
        .expect("cold");
    let [(false, cold_hash)] = ok_hashes(&cold.funcs)[..] else {
        panic!("cold pass: {:?}", cold.funcs);
    };
    let edited = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &one(&spaced))
        .expect("edited");
    assert_eq!(ok_hashes(&edited.funcs), vec![(true, cold_hash)]);
    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "cache.source.hit"), 0);
    assert_eq!(counter(&stats, "cache.source.miss"), 2);
    assert_eq!(counter(&stats, "cache.source.entries"), 2, "both texts");
    assert_eq!(counter(&stats, "cache.hits"), 1);
    assert_eq!(counter(&stats, "cache.entries"), 1, "one function");
    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn a_batch_mixing_index_hits_and_a_miss_streams_in_input_order() {
    let (server, listen) = start_unix("source-mixed", |c| c.jobs = 1);
    let corpus = tinyc_specs(&loadgen::corpus(3, 3, 5, 2, 31));
    let mut client = Client::connect(&listen).expect("connects");
    let known = [corpus[0].clone(), corpus[2].clone()];
    let cold = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &known)
        .expect("cold");
    let cold = ok_hashes(&cold.funcs);
    let mixed = client
        .schedule_batch(Lang::TinyC, "rs6k", vec![], &corpus)
        .expect("mixed");
    let indices: Vec<usize> = mixed.funcs.iter().map(|r| r.index).collect();
    assert_eq!(indices, vec![0, 1, 2], "lines stream in input order");
    let names: Vec<&str> = mixed.funcs.iter().map(|r| r.name.as_str()).collect();
    let want: Vec<&str> = corpus.iter().map(|f| f.name.as_deref().unwrap()).collect();
    assert_eq!(names, want, "the request's names");
    let got = ok_hashes(&mixed.funcs);
    let flags: Vec<bool> = got.iter().map(|&(cached, _)| cached).collect();
    assert_eq!(flags, vec![true, false, true]);
    assert_eq!((got[0].1, got[2].1), (cold[0].1, cold[1].1));
    assert_eq!(
        (
            mixed.summary.ok,
            mixed.summary.cache_hits,
            mixed.summary.cache_misses
        ),
        (3, 2, 1)
    );
    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "cache.source.hit"), 2);
    assert_eq!(
        counter(&stats, "cache.hits") + counter(&stats, "cache.misses"),
        5
    );
    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn zero_cache_capacity_disables_the_source_index_too() {
    let (server, listen) = start_unix("source-off", |c| c.cache_cap = 0);
    let source = loadgen::corpus(1, 1, 3, 1, 37).remove(0).source;
    let mut client = Client::connect(&listen).expect("connects");
    let mut hashes = Vec::new();
    for pass in ["first", "second"] {
        let batch = client
            .schedule_batch(Lang::TinyC, "rs6k", vec![], &one(&source))
            .expect(pass);
        hashes.extend(ok_hashes(&batch.funcs));
    }
    assert_eq!(hashes[0], hashes[1], "both compiled cold, alike");
    assert!(!hashes[0].0);
    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "cache.source.hit"), 0);
    assert_eq!(counter(&stats, "cache.source.entries"), 0);
    assert_eq!(counter(&stats, "cache.misses"), 2);
    client.shutdown_server().expect("shutdown");
    server.join();
}
