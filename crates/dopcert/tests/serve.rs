//! End-to-end acceptance of `dopcert serve`: concurrent clients over
//! real TCP, answers bit-identical to a fresh `--no-session` run of
//! the same request, per-request error handling, per-tenant budget
//! admission, and a nonzero memo hit-rate on repetition-heavy traffic.

use dopcert::api::{execute, Request, RequestOptions};
use dopcert::serve::{request_once, ServeConfig, Server, MAX_LINE_BYTES};
use dopcert::wire::{decode_response, encode_request, Json};
use egraph::session::BatchBudget;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// A repetition-heavy script stream: the same few goals posed over and
/// over — the traffic shape a resident daemon amortizes.
fn scripts() -> Vec<String> {
    let goals = [
        "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);",
        "table R(int, int);\nverify DISTINCT SELECT Right.Left FROM R \
         == DISTINCT SELECT Right.Left.Left FROM R, R \
         WHERE Right.Left.Left = Right.Right.Left;",
        "table S(int);\nrefute S == (S UNION ALL S);",
    ];
    (0..4)
        .flat_map(|_| goals.iter().map(|g| (*g).to_owned()))
        .collect()
}

/// The single-shot CLI baseline: fresh state, `--no-session`.
fn baseline(script: &str) -> Vec<String> {
    execute(&Request::Prove {
        script: script.to_owned(),
        opts: RequestOptions {
            session: false,
            ..RequestOptions::default()
        },
    })
    .render()
}

#[test]
fn concurrent_clients_get_answers_bit_identical_to_the_fresh_cli() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();

    // Two clients, each with its own connection, interleaving the same
    // repetition-heavy stream — every answer must equal the fresh
    // `--no-session` baseline byte for byte, whichever worker answered
    // and however warm its memos were.
    let handles: Vec<_> = (0..2)
        .map(|client| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(&addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                for (i, script) in scripts().iter().enumerate() {
                    let req = Request::Prove {
                        script: script.clone(),
                        opts: RequestOptions::default(),
                    };
                    let id = Json::Num((client * 100 + i) as f64);
                    let line = encode_request(&id, "default", &req);
                    writer.write_all(line.as_bytes()).expect("write");
                    writer.write_all(b"\n").expect("write");
                    writer.flush().expect("flush");
                    let mut reply = String::new();
                    reader.read_line(&mut reply).expect("read");
                    let reply = decode_response(reply.trim()).expect("decode");
                    assert_eq!(reply.id, id, "responses arrive in request order");
                    assert_eq!(
                        reply.lines,
                        baseline(script),
                        "daemon answers must be bit-identical to the fresh CLI"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client");
    }

    // 24 prove requests over 3 distinct scripts: almost all goals must
    // have been answered from the resident memos.
    let stats = server.stats();
    assert_eq!(stats.requests, 24);
    assert_eq!(stats.ok, 24);
    assert!(
        stats.memo_hits > 0,
        "repetition-heavy traffic must hit the memo: {stats:?}"
    );
    assert!(stats.goals >= 24);
    server.shutdown();
    server.wait();
}

#[test]
fn malformed_and_over_budget_requests_fail_without_poisoning_the_connection() {
    let config = ServeConfig {
        tenant_budget: BatchBudget {
            max_total_iters: 72,
            max_nodes: 60_000,
            per_goal_iters: 24,
        },
        ..ServeConfig::default()
    };
    let server = Server::start(config).expect("bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: &str| {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        decode_response(reply.trim()).expect("decode")
    };

    // Malformed JSON, a bad cmd, and a zero budget: each answers with
    // a typed error on the same connection.
    let reply = roundtrip("{{{");
    assert!(!reply.ok);
    assert!(reply.error.expect("error").starts_with("bad request:"));
    let reply = roundtrip(r#"{"cmd":"levitate"}"#);
    assert!(!reply.ok);
    let reply = roundtrip(r#"{"cmd":"prove","script":"x","budget":{"iters":0}}"#);
    assert!(!reply.ok);
    assert!(reply.error.expect("error").contains("must be positive"));

    // An oversized request trips the per-goal cap; a tenant that spent
    // its allowance is exhausted; a fresh tenant still gets through.
    let script = "table R(int);\nverify R == R;".to_owned();
    let reply = roundtrip(
        r#"{"cmd":"prove","script":"table R(int);\nverify R == R;","budget":{"iters":999}}"#,
    );
    assert!(!reply.ok);
    assert!(reply.error.expect("error").contains("per-request cap"));
    for _ in 0..3 {
        let reply = roundtrip(&encode_request(
            &Json::Null,
            "hot",
            &Request::Prove {
                script: script.clone(),
                opts: RequestOptions::default(),
            },
        ));
        assert!(reply.ok, "{reply:?}");
    }
    let reply = roundtrip(&encode_request(
        &Json::Null,
        "hot",
        &Request::Prove {
            script: script.clone(),
            opts: RequestOptions::default(),
        },
    ));
    assert!(!reply.ok);
    assert!(reply.error.expect("error").contains("exhausted"));
    let reply = roundtrip(&encode_request(
        &Json::Null,
        "cold",
        &Request::Prove {
            script,
            opts: RequestOptions::default(),
        },
    ));
    assert!(reply.ok, "one tenant's exhaustion must not starve another");

    let stats = server.stats();
    assert_eq!(stats.budget_rejections, 2);
    assert_eq!(stats.errors, 3, "the three malformed lines");
    server.shutdown();
    server.wait();
}

#[test]
fn hostile_lines_get_bad_request_and_the_daemon_keeps_serving() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    {
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut roundtrip = |line: &[u8]| {
            writer.write_all(line).expect("write");
            writer.write_all(b"\n").expect("write");
            writer.flush().expect("flush");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read");
            decode_response(reply.trim()).expect("decode")
        };
        // One line of 40 000 nested brackets: a parser without a nesting
        // cap recurses off its thread's stack and aborts the process.
        let reply = roundtrip("[".repeat(40_000).as_bytes());
        let error = reply.error.expect("error");
        assert!(error.starts_with("bad request:"), "{error}");
        assert!(error.contains("nesting"), "{error}");
        // A line past the length cap and a line that is not UTF-8.
        let reply = roundtrip(&vec![b'x'; MAX_LINE_BYTES + 1]);
        let error = reply.error.expect("error");
        assert!(
            error.starts_with("bad request: line longer than"),
            "{error}"
        );
        let reply = roundtrip(&[0xFF, 0xFE, b'{']);
        let error = reply.error.expect("error");
        assert!(error.starts_with("bad request:"), "{error}");
        // The same connection still answers ...
        let reply = roundtrip(br#"{"cmd":"stats"}"#);
        assert!(reply.ok, "{reply:?}");
    }
    // ... and so does a new one.
    let reply =
        request_once(&addr, &Json::Null, "default", &Request::Stats).expect("daemon survived");
    assert!(reply.ok, "{reply:?}");
    assert_eq!(reply.kind, "stats");
    assert_eq!(server.stats().errors, 3, "the three hostile lines");
    server.shutdown();
    server.wait();
}

#[test]
fn a_shutdown_request_stops_the_server() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let reply =
        request_once(&addr, &Json::Num(9.0), "default", &Request::Shutdown).expect("request");
    assert!(reply.ok);
    assert_eq!(reply.kind, "shutdown");
    assert_eq!(reply.id, Json::Num(9.0));
    // wait() returns because the shutdown request stopped the listener
    // and drained the workers; a fresh connection must now fail.
    server.wait();
    assert!(TcpStream::connect(&addr).is_err(), "listener must be gone");
}

#[test]
fn non_default_option_requests_run_fresh_and_still_match_the_baseline() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut opts = RequestOptions {
        session: false,
        ..RequestOptions::default()
    };
    opts.budget.set("iters", 12).unwrap();
    let req = Request::Prove {
        script: "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);".into(),
        opts,
    };
    let reply = request_once(&addr, &Json::Null, "default", &req).expect("request");
    assert!(reply.ok, "{reply:?}");
    assert_eq!(reply.lines, execute(&req).render());
    assert_eq!(server.stats().memo_hits, 0, "fresh path bypasses the memo");

    // An optimize request through the same daemon.
    let opt = Request::Optimize {
        script: "table R(int, int);\nrows R 1000000;\n\
                 verify DISTINCT SELECT Right.Left FROM R \
                 == DISTINCT SELECT Right.Left.Left FROM R, R \
                 WHERE Right.Left.Left = Right.Right.Left;"
            .into(),
        opts: RequestOptions::default(),
    };
    let reply = request_once(&addr, &Json::Null, "default", &opt).expect("request");
    assert!(reply.ok, "{reply:?}");
    assert_eq!(reply.lines, execute(&opt).render());
    server.shutdown();
    server.wait();
}
