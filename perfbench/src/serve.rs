//! `serve-mixed`: an in-process `dopcert serve` daemon (workers =
//! nproc, default tenant budget) under nproc closed-loop client
//! connections, each waiting for its reply before it sends again.
//!
//! Requests mix hot prove scripts that recur (read the resident memos),
//! cold prove scripts with fresh goals, some inequivalent (write the
//! sessions, use CQ containment), and optimize scripts sent twice each.
//! This is the only workload that goes through `wire`, routing, the
//! per-worker queue, `.dop` parsing and CQ containment.

use crate::gen::{self, Kind, ServeOp};
use crate::ledger::{Counters, Ledger};
use crate::{check, stats, Outcome};
use dopcert::api::ServerStats;
use dopcert::serve::{ServeConfig, Server};
use dopcert::wire::{self, Json};
use dopcert::Request;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Every `SAMPLE_EVERY`-th reply is compared byte for byte with a fresh
/// `api::execute` of the same request.
const SAMPLE_EVERY: usize = 4;

/// One request on the wire: its line (newline included) and its id.
fn line_of(id: usize, tenant: &str, op: &ServeOp) -> String {
    let mut line = wire::encode_request(&Json::Num(id as f64), tenant, &op.request());
    line.push('\n');
    line
}

/// Each request is its own tenant: the default per-tenant allowance
/// covers about 85 default-budget requests, and a run sends more than
/// that, so one shared tenant would be refused part-way through.
fn tenant(id: usize) -> String {
    format!("t{id}")
}

/// A request's reply and the time from its first byte sent to its
/// reply line read.
struct Reply {
    time: Duration,
    line: String,
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn call(&mut self, line: &str) -> std::io::Result<Reply> {
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        let time = start.elapsed();
        if reply.is_empty() {
            return Err(std::io::Error::other("connection closed before the reply"));
        }
        reply.truncate(reply.trim_end().len());
        Ok(Reply { time, line: reply })
    }
}

fn start_server(nproc: usize) -> Result<Server, String> {
    Server::start(ServeConfig {
        workers: nproc,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting the daemon: {e}"))
}

fn stop_server(server: Server) {
    server.shutdown();
    server.wait();
}

/// The set-up a single-shot user pays: `Server::start` plus the first
/// request on each connection, in seconds.
pub fn setup(nproc: usize) -> Result<f64, String> {
    let warm = gen::serve_setup_ops(nproc);
    let lines: Vec<String> = warm
        .iter()
        .enumerate()
        .map(|(c, op)| line_of(c, &tenant(c), op))
        .collect();
    let start = Instant::now();
    let server = start_server(nproc)?;
    let addr = server.local_addr();
    let replies: Result<Vec<Reply>, String> = std::thread::scope(|s| {
        let handles: Vec<_> = lines
            .iter()
            .map(|line| s.spawn(move || Client::connect(addr)?.call(line)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("client thread panicked")
                    .map_err(|e| format!("set-up request: {e}"))
            })
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    stop_server(server);
    replies?;
    Ok(elapsed)
}

/// Sum and count of the daemon's own request latencies (µs), from its
/// metrics exposition.
fn server_latency(server: &Server) -> (f64, f64) {
    let (mut sum, mut count) = (0.0, 0.0);
    for line in server.metrics_text().lines() {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let value: f64 = value.parse().unwrap_or(0.0);
        if name.contains("request_latency_us_sum") {
            sum += value;
        } else if name.contains("request_latency_us_count") {
            count += value;
        }
    }
    (sum, count)
}

/// One pass over the request list against a fresh daemon.
struct Pass {
    replies: Vec<Reply>,
    stats: ServerStats,
    /// Mean daemon-side latency of the measured requests, ms.
    server_ms: f64,
    /// Wall time of the measured requests.
    wall: Duration,
}

fn pass(warm: &[ServeOp], ops: &[ServeOp], nproc: usize) -> Result<Pass, String> {
    let conns = nproc;
    let warm_lines: Vec<String> = warm
        .iter()
        .enumerate()
        .map(|(c, op)| line_of(ops.len() + c, &tenant(ops.len() + c), op))
        .collect();
    let lines: Vec<String> = ops
        .iter()
        .enumerate()
        .map(|(j, op)| line_of(j, &tenant(j), op))
        .collect();
    let server = start_server(nproc)?;
    let addr = server.local_addr();
    let barrier = Barrier::new(conns + 1);
    let result = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (barrier, lines, warm_line) = (&barrier, &lines, &warm_lines[c]);
                s.spawn(move || -> std::io::Result<Vec<(usize, Reply)>> {
                    let client = Client::connect(addr).and_then(|mut client| {
                        client.call(warm_line)?;
                        Ok(client)
                    });
                    barrier.wait();
                    barrier.wait();
                    let mut client = client?;
                    (c..lines.len())
                        .step_by(conns)
                        .map(|j| Ok((j, client.call(&lines[j])?)))
                        .collect()
                })
            })
            .collect();
        barrier.wait();
        let before = server_latency(&server);
        barrier.wait();
        let start = Instant::now();
        let mut replies: Vec<Option<Reply>> = (0..lines.len()).map(|_| None).collect();
        for h in handles {
            let got = h
                .join()
                .expect("client thread panicked")
                .map_err(|e| format!("client connection: {e}"))?;
            for (j, reply) in got {
                replies[j] = Some(reply);
            }
        }
        let wall = start.elapsed();
        let after = server_latency(&server);
        let server_ms = (after.0 - before.0) / (after.1 - before.1) / 1e3;
        Ok(Pass {
            replies: replies
                .into_iter()
                .map(|r| r.expect("every request answered"))
                .collect(),
            stats: server.stats(),
            server_ms,
            wall,
        })
    });
    stop_server(server);
    result
}

/// Checked reply contents.
#[derive(Default)]
struct Tally {
    verify_attempted: usize,
    verify_proved: usize,
    plan_ratios: Vec<f64>,
}

/// Checks every reply against its goals' known answers and a sample
/// byte for byte against a fresh `api::execute`. Error replies count
/// as failed.
fn check_replies(ops: &[ServeOp], replies: &[Reply], out: &mut Outcome) -> Tally {
    let mut tally = Tally::default();
    let mut planned = HashSet::new();
    for (j, (op, reply)) in ops.iter().zip(replies).enumerate() {
        let decoded = match wire::decode_response(&reply.line) {
            Ok(d) => d,
            Err(e) => {
                out.wrong
                    .push(format!("undecodable reply to request {j}: {e}"));
                continue;
            }
        };
        if decoded.kind == "error" {
            out.failed += 1;
            continue;
        }
        match op.kind {
            Kind::Hot | Kind::Cold => match check::served_goals(&op.goals, &decoded.lines) {
                Ok(proved) => {
                    for (goal, p) in op.goals.iter().zip(proved) {
                        if goal.equivalent {
                            tally.verify_attempted += 1;
                            tally.verify_proved += usize::from(p);
                        }
                    }
                }
                Err(e) => out.wrong.push(e),
            },
            Kind::Optimize => match check::served_plan_ratios(&decoded.lines) {
                Ok(ratios) if planned.insert(&op.script) => tally.plan_ratios.extend(ratios),
                Ok(_) => {}
                Err(e) => out.wrong.push(e),
            },
        }
        if j % SAMPLE_EVERY == 0 {
            let fresh =
                wire::encode_response(&Json::Num(j as f64), &dopcert::execute(&op.request()));
            if let Err(e) = check::reply(&reply.line, &fresh) {
                out.wrong.push(e);
            }
        }
    }
    tally
}

fn client_ms(pass: &Pass) -> Vec<f64> {
    pass.replies
        .iter()
        .map(|r| r.time.as_secs_f64() * 1e3)
        .collect()
}

/// The untraced run: the daemon as shipped, end-to-end metrics.
pub fn measure(seed: u64, nproc: usize) -> Result<Outcome, String> {
    let warm = gen::serve_setup_ops(nproc);
    let ops = gen::serve_ops(seed);
    let pass = pass(&warm, &ops, nproc)?;
    let mut out = Outcome {
        attempted: ops.len(),
        ..Outcome::default()
    };
    let tally = check_replies(&ops, &pass.replies, &mut out);
    let ms = client_ms(&pass);
    // Prove goals, plus the distinct queries an optimize request plans.
    let goals: usize = ops
        .iter()
        .map(|op| match op.kind {
            Kind::Optimize => {
                let sides = op
                    .goals
                    .iter()
                    .flat_map(|g| [g.lhs.to_string(), g.rhs.to_string()]);
                sides.collect::<HashSet<_>>().len()
            }
            Kind::Hot | Kind::Cold => op.goals.len(),
        })
        .sum();
    out.set(
        "goals_per_s",
        goals as f64 / pass.wall.as_secs_f64(),
        ms.len(),
    );
    out.set_latency(&ms);
    out.set_opt(
        "proved_ratio",
        stats::ratio(tally.verify_proved as f64, tally.verify_attempted as f64),
        tally.verify_attempted,
    );
    if !tally.plan_ratios.is_empty() {
        out.set(
            "plan_cost_gmean",
            stats::geometric_mean(&tally.plan_ratios),
            tally.plan_ratios.len(),
        );
    }
    Ok(out)
}

/// The daemon's routing rule, mirrored so the replay sends each request
/// to the workspace the daemon used: a hash of the request kind and its
/// script, modulo the worker count.
fn route(req: &Request, workers: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    match req {
        Request::Prove { script, .. } => {
            "prove".hash(&mut hasher);
            script.hash(&mut hasher);
        }
        Request::Optimize { script, .. } => {
            "optimize".hash(&mut hasher);
            script.hash(&mut hasher);
        }
        _ => {}
    }
    (hasher.finish() % workers as u64) as usize
}

/// The traced run: the request list against the daemon twice (the
/// second time with telemetry counters cleared first), then replayed
/// on one thread through the wire codec, the script parser, CQ
/// containment and one `Workspace` per worker in route order.
pub fn trace(seed: u64, nproc: usize) -> Result<Outcome, String> {
    let warm = gen::serve_setup_ops(nproc);
    let ops = gen::serve_ops(seed);
    let n = ops.len();
    let mut out = Outcome {
        attempted: n,
        ..Outcome::default()
    };
    let untraced = pass(&warm, &ops, nproc)?;
    check_replies(&ops, &untraced.replies, &mut out);
    Counters::start();
    let traced = pass(&warm, &ops, nproc)?;
    let counters = Counters::stop();
    check_replies(&ops, &traced.replies, &mut out);

    let client = client_ms(&untraced);
    out.set(
        "trace.overhead_ratio",
        stats::median(&client_ms(&traced)) / stats::median(&client),
        n,
    );
    out.set_opt(
        "session.verdict_hit_ratio",
        counters.hit_ratio("verdict"),
        n,
    );
    out.set_opt("session.plan_hit_ratio", counters.hit_ratio("plan"), n);
    counters.norm_metrics(&mut out, n);
    counters.egraph_metrics(&mut out, n, false);
    // Goals outside the CQ fragment are the ones the verdict memo sees.
    let env = gen::env();
    let session_goals: HashSet<String> = warm
        .iter()
        .chain(&ops)
        .filter(|op| op.kind != Kind::Optimize)
        .flat_map(|op| &op.goals)
        .filter(|g| {
            cq::translate::from_query(&g.lhs, &env).is_none()
                || cq::translate::from_query(&g.rhs, &env).is_none()
        })
        .map(|g| g.statement())
        .collect();
    out.set(
        "session.misses_per_distinct",
        counters.get("memo.verdict.miss") / session_goals.len() as f64,
        session_goals.len(),
    );

    let mut ledger = Ledger::default();
    let (mut request_bytes, mut reply_bytes) = (0usize, 0usize);
    let mut search = cq::containment::SearchStats::default();
    let mut workspaces: Vec<dopcert::Workspace> = (0..nproc)
        .map(|_| dopcert::Workspace::new(dopcert::RequestOptions::default()))
        .collect();
    let mut warm_ledger = Ledger::default();
    let requests = warm
        .iter()
        .enumerate()
        .map(|(c, op)| (n + c, op, true))
        .chain(ops.iter().enumerate().map(|(j, op)| (j, op, false)));
    for (id, op, is_warm) in requests {
        let ledger = if is_warm {
            &mut warm_ledger
        } else {
            &mut ledger
        };
        let line = line_of(id, &tenant(id), op);
        let Ok((id_json, _, req)) = ledger.time("decode", || wire::decode_request(line.trim_end()))
        else {
            out.wrong.push(format!("request {id} does not decode"));
            continue;
        };
        if let Ok(script) = ledger.time("parse", || dopcert::script::parse_script(&op.script)) {
            if op.kind != Kind::Optimize {
                let mut queries = Vec::new();
                let mut pairs = Vec::new();
                for goal in &script.goals {
                    let l = cq::translate::from_query(&goal.lhs, &script.env);
                    let r = cq::translate::from_query(&goal.rhs, &script.env);
                    if let (Some(l), Some(r)) = (l, r) {
                        pairs.push((queries.len(), queries.len() + 1));
                        queries.extend([l, r]);
                    }
                }
                let (_, s) = ledger.time("cq", || {
                    cq::containment::equivalent_set_batch_stats(&queries, &pairs)
                });
                if !is_warm {
                    search.merge(&s);
                }
            }
        }
        let worker = route(&req, nproc);
        let resp = ledger.time("execute", || workspaces[worker].execute(&req));
        let reply = ledger.time("encode", || wire::encode_response(&id_json, &resp));
        if !is_warm {
            request_bytes += line.len();
            reply_bytes += reply.len() + 1;
        }
    }
    let per_request = |layer: &str| ledger.per_op_ms(layer, n);
    out.set_opt("hottsql.parse_ms", per_request("parse"), n);
    out.set_opt("cq.containment_ms", per_request("cq"), n);
    out.set_opt(
        "cq.pruned_ratio",
        stats::ratio(search.bitset_pruned as f64, search.candidates_total as f64),
        n,
    );
    out.set_opt(
        "wire.decode_us",
        per_request("decode").map(|ms| ms * 1e3),
        n,
    );
    out.set_opt(
        "wire.encode_us",
        per_request("encode").map(|ms| ms * 1e3),
        n,
    );
    out.set("wire.request_bytes", request_bytes as f64 / n as f64, n);
    out.set("wire.reply_bytes", reply_bytes as f64 / n as f64, n);
    let execute = per_request("execute").unwrap_or(0.0);
    out.set("serve.execute_ms", execute, n);
    out.set("serve.server_ms", untraced.server_ms, n);
    out.set("serve.queue_ms", untraced.server_ms - execute, n);
    let client_mean = stats::mean(&client);
    out.set("serve.outside_ms", client_mean - untraced.server_ms, n);
    out.set("serve.memo_hits", untraced.stats.memo_hits as f64, 1);
    out.set(
        "serve.rejections",
        untraced.stats.budget_rejections as f64,
        1,
    );
    let layers = ["decode", "execute", "encode"]
        .iter()
        .filter_map(|l| per_request(l))
        .sum::<f64>();
    out.set("unattributed_ms", client_mean - layers, n);
    Ok(out)
}
