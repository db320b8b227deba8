//! `dopcert serve`: the resident proving/optimization daemon.
//!
//! The server accepts newline-delimited JSON requests ([`crate::wire`])
//! over plain TCP and shards them across a fixed pool of worker
//! threads, each owning one resident [`Workspace`] (prover session +
//! planner session). Requests are routed by a stable hash of their
//! script, so a repeated script always lands on the worker whose memos
//! already hold its verdicts — that is where the hit-rate reported by
//! `stats` comes from. By the session-identity guarantee, every answer
//! is byte-identical to a fresh single-shot CLI run of the same
//! request (`tests/serve.rs` asserts this against [`crate::execute`]).
//!
//! Admission control is per *tenant* (the request's `tenant` field,
//! default `"default"`): each prove/optimize/catalog/discover request
//! charges its effective per-goal iteration budget against the
//! server's [`BatchBudget`] before dispatch. A single oversized
//! request is rejected by the per-goal cap; a tenant that has spent
//! its cumulative allowance is rejected as exhausted, so one hot
//! client cannot starve the rest. With a [`RefillPolicy`] configured
//! (`--budget-refill`), spent iterations decay over wall-clock time,
//! so a steady client regains allowance instead of being locked out
//! for the daemon's lifetime.
//!
//! Observability is part of the protocol: every request's end-to-end
//! latency lands in a per-request-kind histogram, each worker's memo
//! hits are published *live* (mid-request, not only after a worker
//! finishes), and a `metrics` request answers with a Prometheus-style
//! text exposition combining these server-owned series with the
//! process-wide [`telemetry`] snapshot (phase spans, memo counters).
//!
//! Error handling is per request: a malformed line or rejected budget
//! answers with an error *response* on the same connection — the
//! connection stays open and subsequent lines are processed normally.
//! A `shutdown` request is acknowledged, then the listener and all
//! workers drain and exit; [`Server::wait`] joins them.

use crate::api::{KindLatency, Request, RequestOptions, Response, ServerStats, Workspace};
use crate::wire::{decode_request, encode_response, Json};
use egraph::session::{Admission, BatchBudget};
use egraph::solve::Budget;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::Histogram;

/// How often blocked connection reads wake up to poll the shutdown
/// flag. Short enough that `shutdown` feels immediate, long enough
/// that idle connections cost nothing measurable.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// Longest request line a connection accepts, newline excluded. A
/// longer line is discarded as it streams in (never buffered whole) and
/// answered with a `bad request` error; the connection stays open.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Budget refill: a tenant's spent iterations decay at this rate, so
/// exhaustion is a rate limit rather than a lifetime ban.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefillPolicy {
    /// Iterations credited back per second of wall-clock time.
    pub iters_per_sec: u64,
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; port 0 picks a free port (the default —
    /// [`Server::local_addr`] reports what was bound).
    pub addr: String,
    /// Worker threads, each with one resident [`Workspace`].
    pub workers: usize,
    /// Options resident workspaces are built at; requests that resolve
    /// to different effective options run on fresh state instead.
    pub defaults: RequestOptions,
    /// Per-tenant admission budget.
    pub tenant_budget: BatchBudget,
    /// Budget refill policy; `None` (the default) keeps the original
    /// behavior where spent iterations never decay.
    pub refill: Option<RefillPolicy>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            defaults: RequestOptions::default(),
            tenant_budget: BatchBudget::default(),
            refill: None,
        }
    }
}

/// Rolling counters behind one lock (all cheap increments; the lock is
/// never held across proving work).
#[derive(Debug, Default)]
struct Counters {
    requests: usize,
    ok: usize,
    errors: usize,
    budget_rejections: usize,
    goals: usize,
    micros: u128,
}

/// One tenant's admission account.
#[derive(Debug)]
struct TenantEntry {
    /// Iterations charged so far (net of refill).
    spent: usize,
    /// Clock reading (ns since server start) up to which refill has
    /// been credited; the fractional remainder stays pending so slow
    /// drips are not rounded away.
    credited_ns: u64,
}

/// Per-tenant spent-iteration accounts with optional time-based decay.
/// The clock is injected (`now_ns`) so the refill arithmetic is unit
/// testable without sleeping.
#[derive(Debug)]
struct TenantLedger {
    policy: Option<RefillPolicy>,
    entries: HashMap<String, TenantEntry>,
}

impl TenantLedger {
    fn new(policy: Option<RefillPolicy>) -> TenantLedger {
        TenantLedger {
            policy,
            entries: HashMap::new(),
        }
    }

    /// Refills the tenant's account (if a policy is configured), then
    /// charges `iters` against it under `budget`'s admission rule.
    fn charge(
        &mut self,
        tenant: &str,
        iters: usize,
        now_ns: u64,
        budget: BatchBudget,
    ) -> Admission {
        let e = self
            .entries
            .entry(tenant.to_owned())
            .or_insert(TenantEntry {
                spent: 0,
                credited_ns: now_ns,
            });
        if let Some(policy) = self.policy {
            let elapsed = now_ns.saturating_sub(e.credited_ns);
            let refill = (elapsed as u128 * policy.iters_per_sec as u128 / 1_000_000_000) as usize;
            if refill >= e.spent {
                // Fully refilled; restart the drip from now.
                e.spent = 0;
                e.credited_ns = now_ns;
            } else if refill > 0 {
                e.spent -= refill;
                // Advance only by the time the granted refill accounts
                // for, keeping the fractional remainder pending.
                e.credited_ns +=
                    (refill as u128 * 1_000_000_000 / policy.iters_per_sec as u128) as u64;
            }
        }
        let admission = budget.admit(e.spent, iters);
        if admission == Admission::Admit {
            e.spent += iters;
        }
        admission
    }
}

/// One worker's live memo-hit counters. The resident sessions store
/// into these on *every* memo hit (see `publish_hits_to`), so `stats`
/// sees progress mid-request instead of only after a worker finishes.
#[derive(Debug)]
struct WorkerHits {
    prover: Arc<AtomicUsize>,
    planner: Arc<AtomicUsize>,
}

impl WorkerHits {
    fn total(&self) -> usize {
        self.prover.load(Ordering::Relaxed) + self.planner.load(Ordering::Relaxed)
    }
}

/// State shared by the listener, every connection, and every worker.
#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    /// The bound listen address (port 0 resolved).
    addr: SocketAddr,
    /// The refill clock's epoch (ns-since-start feeds the ledger).
    started: Instant,
    shutdown: AtomicBool,
    counters: Mutex<Counters>,
    /// Per-tenant admission accounts.
    tenants: Mutex<TenantLedger>,
    /// Each worker's live memo-hit counters.
    memo_hits: Vec<WorkerHits>,
    /// End-to-end request latency (µs) per request kind, including
    /// queueing — the tail a client actually observes.
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
    /// The daemon-wide mined catalog: published by whichever worker
    /// answers a `mine` request, adopted by every worker before an
    /// `optimize` request with `mined-rules` on — one catalog shared
    /// across all resident sessions.
    mined: std::sync::RwLock<Option<Arc<Vec<egraph::MinedRule>>>>,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let by_worker: Vec<usize> = self.memo_hits.iter().map(WorkerHits::total).collect();
        let c = self.counters.lock().expect("counters lock");
        ServerStats {
            workers: self.config.workers,
            requests: c.requests,
            ok: c.ok,
            errors: c.errors,
            budget_rejections: c.budget_rejections,
            goals: c.goals,
            memo_hits: by_worker.iter().sum(),
            micros: c.micros,
            memo_hits_by_worker: by_worker,
            latency: self.latency_summaries(),
            trace_dropped: telemetry::snapshot().counter("trace.dropped"),
        }
    }

    /// Counts a finished response into the rolling counters.
    fn count_response(&self, resp: &Response, micros: u128) {
        let mut c = self.counters.lock().expect("counters lock");
        match resp {
            Response::Error(_) => c.errors += 1,
            Response::Goals(goals) => {
                c.ok += 1;
                c.goals += goals.len();
            }
            _ => c.ok += 1,
        }
        c.micros += micros;
    }

    /// Records one request's end-to-end latency under its kind.
    fn record_latency(&self, kind: &'static str, micros: u64) {
        let mut lat = self.latency.lock().expect("latency lock");
        lat.entry(kind).or_default().record(micros);
    }

    /// Per-kind latency summaries for the `stats` response.
    fn latency_summaries(&self) -> Vec<KindLatency> {
        let lat = self.latency.lock().expect("latency lock");
        lat.iter()
            .map(|(kind, h)| KindLatency {
                kind: (*kind).to_owned(),
                count: h.count(),
                p50_us: h.p50(),
                p90_us: h.p90(),
                p99_us: h.p99(),
            })
            .collect()
    }

    /// The Prometheus-style text exposition: server-owned counters and
    /// latency histograms merged with the process-wide [`telemetry`]
    /// snapshot (phase spans, memo hit/miss counters).
    fn metrics_text(&self) -> String {
        let mut bag = telemetry::snapshot();
        // Surface the drop counter even while it is zero, so dashboards
        // can alert on it existing-but-rising rather than appearing.
        bag.incr("trace.dropped", 0);
        {
            let c = self.counters.lock().expect("counters lock");
            bag.incr("serve.requests", c.requests as u64);
            bag.incr("serve.ok", c.ok as u64);
            bag.incr("serve.errors", c.errors as u64);
            bag.incr("serve.budget_rejections", c.budget_rejections as u64);
            bag.incr("serve.goals", c.goals as u64);
        }
        for (slot, hits) in self.memo_hits.iter().enumerate() {
            bag.incr(
                &format!("serve.memo_hits{{worker=\"{slot}\"}}"),
                hits.total() as u64,
            );
        }
        {
            let lat = self.latency.lock().expect("latency lock");
            for (kind, h) in lat.iter() {
                bag.merge_hist(&format!("request.latency_us{{kind=\"{kind}\"}}"), h);
            }
        }
        bag.render_prometheus()
    }
}

/// A unit of work handed to a worker: the request plus a reply slot.
struct Job {
    req: Request,
    reply: Sender<Response>,
}

/// A running `dopcert serve` daemon. Dropping the handle does *not*
/// stop the server — call [`Server::shutdown`] (or send a `shutdown`
/// request) and then [`Server::wait`].
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    senders: Vec<Sender<Job>>,
    listener_thread: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the address and starts the listener and worker threads.
    /// Enables process-wide telemetry metrics (if not already on) so
    /// the `metrics` exposition carries phase spans and memo counters,
    /// and per-rule attribution profiling so a `profile` request always
    /// has a table to answer with.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        if !telemetry::metrics_enabled() {
            telemetry::enable();
        }
        telemetry::enable_profiling();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let refill = config.refill;
        let shared = Arc::new(Shared {
            config: ServeConfig { workers, ..config },
            addr,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            counters: Mutex::new(Counters::default()),
            tenants: Mutex::new(TenantLedger::new(refill)),
            memo_hits: (0..workers)
                .map(|_| WorkerHits {
                    prover: Arc::new(AtomicUsize::new(0)),
                    planner: Arc::new(AtomicUsize::new(0)),
                })
                .collect(),
            latency: Mutex::new(BTreeMap::new()),
            mined: std::sync::RwLock::new(None),
        });

        let mut senders = Vec::with_capacity(workers);
        let mut worker_threads = Vec::with_capacity(workers);
        for slot in 0..workers {
            let (tx, rx) = channel::<Job>();
            senders.push(tx);
            let shared = Arc::clone(&shared);
            worker_threads.push(std::thread::spawn(move || {
                let mut workspace = Workspace::new(shared.config.defaults);
                // Live publishing: the resident sessions store into the
                // shared counters on every memo hit, so `stats` during a
                // long request reflects it mid-flight.
                workspace.publish_memo_hits(
                    Arc::clone(&shared.memo_hits[slot].prover),
                    Arc::clone(&shared.memo_hits[slot].planner),
                );
                while let Ok(job) = rx.recv() {
                    let start = Instant::now();
                    // The mined catalog is daemon-wide: adopt the latest
                    // published one before a mined-rules plan search …
                    if let Request::Optimize { opts, .. } = &job.req {
                        if opts.mined_rules {
                            let published =
                                shared.mined.read().expect("mined catalog lock").clone();
                            if let Some(rules) = published {
                                workspace.set_mined_catalog(rules);
                            }
                        }
                    }
                    let resp = workspace.execute(&job.req);
                    // … and publish the outcome of a mining run for the
                    // other workers' sessions.
                    if matches!(job.req, Request::Mine { .. }) {
                        *shared.mined.write().expect("mined catalog lock") =
                            Some(workspace.mined_catalog());
                    }
                    shared.count_response(&resp, start.elapsed().as_micros());
                    // A dropped receiver means the client hung up
                    // mid-request; the work is already counted.
                    let _ = job.reply.send(resp);
                }
            }));
        }

        let listener_shared = Arc::clone(&shared);
        let listener_senders = senders.clone();
        let listener_thread = std::thread::spawn(move || {
            let mut connections = Vec::new();
            for stream in listener.incoming() {
                if listener_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shared = Arc::clone(&listener_shared);
                let senders = listener_senders.clone();
                connections.push(std::thread::spawn(move || {
                    serve_connection(stream, &shared, &senders);
                }));
            }
            connections
        });

        Ok(Server {
            addr,
            shared,
            senders,
            listener_thread: Some(listener_thread),
            worker_threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The Prometheus-style text exposition the `metrics` request
    /// answers with.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Initiates a graceful shutdown: no new connections are accepted,
    /// open connections drain their in-flight request and close.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared, self.addr);
    }

    /// Blocks until the listener, every connection, and every worker
    /// have exited. Call after [`Server::shutdown`] or after a client
    /// sent a `shutdown` request.
    pub fn wait(mut self) {
        if let Some(listener) = self.listener_thread.take() {
            if let Ok(connections) = listener.join() {
                for conn in connections {
                    let _ = conn.join();
                }
            }
        }
        // Workers exit once every sender is gone (connections hold
        // clones only transiently, and they have all joined by now).
        self.senders.clear();
        for worker in self.worker_threads.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Flips the shutdown flag and wakes the blocking `accept` with one
/// throwaway connection so the listener notices.
fn request_shutdown(shared: &Shared, addr: SocketAddr) {
    shared.shutdown.store(true, Ordering::SeqCst);
    drop(TcpStream::connect(addr));
}

/// One connection's read loop: one request per line, one response line
/// per request, until EOF or shutdown. Lines are read with a length cap
/// ([`MAX_LINE_BYTES`]); an overlong or non-UTF-8 line gets a `bad
/// request` reply like any other malformed request.
fn serve_connection(stream: TcpStream, shared: &Shared, senders: &[Sender<Job>]) {
    // Reads wake up periodically to poll the shutdown flag; a timeout
    // mid-line keeps the partial line in `line` and resumes appending.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    // Set once the current line passes the cap; its bytes are dropped
    // until the newline.
    let mut overlong = false;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let (complete, used, eof) = match reader.fill_buf() {
            // EOF: the client hung up; answer a final unterminated line.
            Ok([]) => (!line.is_empty() || overlong, 0, true),
            Ok(buf) => {
                let newline = buf.iter().position(|&b| b == b'\n');
                let chunk = &buf[..newline.unwrap_or(buf.len())];
                if overlong || line.len() + chunk.len() > MAX_LINE_BYTES {
                    overlong = true;
                    line.clear();
                } else {
                    line.extend_from_slice(chunk);
                }
                (
                    newline.is_some(),
                    newline.map_or(buf.len(), |i| i + 1),
                    false,
                )
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => return,
        };
        reader.consume(used);
        if complete {
            let text = if overlong {
                Err(format!("line longer than {MAX_LINE_BYTES} bytes"))
            } else {
                std::str::from_utf8(&line)
                    .map(str::trim)
                    .map_err(|_| "line is not UTF-8".to_owned())
            };
            if text != Ok("") {
                let reply = answer_line(text, shared, senders);
                if writer
                    .write_all(reply.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    return;
                }
            }
            line.clear();
            overlong = false;
        }
        if eof {
            return;
        }
    }
}

/// The latency-histogram label of a request.
fn kind_of(req: &Request) -> &'static str {
    match req {
        Request::Prove { .. } => "prove",
        Request::Optimize { .. } => "optimize",
        Request::Catalog { .. } => "catalog",
        Request::Discover { .. } => "discover",
        Request::Mine { .. } => "mine",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Profile => "profile",
        Request::Trace => "trace",
        Request::Shutdown => "shutdown",
    }
}

/// Answers one request line, recording its end-to-end latency
/// (decode through response, queueing included) under its kind.
fn answer_line(line: Result<&str, String>, shared: &Shared, senders: &[Sender<Job>]) -> String {
    let start = Instant::now();
    let (kind, reply) = handle_line(line, shared, senders);
    shared.record_latency(kind, start.elapsed().as_micros() as u64);
    reply
}

/// One request line's actual handling: decode, admit, dispatch, encode.
fn handle_line(
    line: Result<&str, String>,
    shared: &Shared,
    senders: &[Sender<Job>],
) -> (&'static str, String) {
    shared.counters.lock().expect("counters lock").requests += 1;
    let (id, tenant, req) = match line.and_then(decode_request) {
        Ok(parts) => parts,
        Err(e) => {
            shared.counters.lock().expect("counters lock").errors += 1;
            return (
                "invalid",
                encode_response(&Json::Null, &Response::Error(format!("bad request: {e}"))),
            );
        }
    };
    let kind = kind_of(&req);

    // Control requests are answered inline — they must work even when
    // every worker is busy proving.
    match req {
        Request::Stats => {
            let resp = Response::Stats(shared.stats());
            shared.counters.lock().expect("counters lock").ok += 1;
            return (kind, encode_response(&id, &resp));
        }
        Request::Metrics => {
            let resp = Response::Metrics(shared.metrics_text());
            shared.counters.lock().expect("counters lock").ok += 1;
            return (kind, encode_response(&id, &resp));
        }
        Request::Profile => {
            // The process-wide profile is already merged across worker
            // flushes; snapshotting it here costs one lock, not a trip
            // through the (possibly busy) worker pool.
            let resp = Response::Profile(telemetry::profile_snapshot());
            shared.counters.lock().expect("counters lock").ok += 1;
            return (kind, encode_response(&id, &resp));
        }
        Request::Trace => {
            // Drain-and-render on demand: the daemon keeps running and
            // the buffer starts filling again from empty.
            let events = telemetry::take_trace();
            let resp = Response::Trace(telemetry::trace::render_chrome_trace(&events));
            shared.counters.lock().expect("counters lock").ok += 1;
            return (kind, encode_response(&id, &resp));
        }
        Request::Shutdown => {
            shared.counters.lock().expect("counters lock").ok += 1;
            // Acknowledge first, then stop the listener; the caller's
            // connection drains with everyone else's.
            let ack = {
                let mut map = std::collections::BTreeMap::new();
                map.insert("id".to_owned(), id);
                map.insert("ok".to_owned(), Json::Bool(true));
                map.insert("kind".to_owned(), Json::Str("shutdown".to_owned()));
                map.insert(
                    "lines".to_owned(),
                    Json::Arr(vec![Json::Str("shutting down".to_owned())]),
                );
                Json::Obj(map).render()
            };
            request_shutdown(shared, shared.addr);
            return (kind, ack);
        }
        _ => {}
    }

    if let Err(rejection) = admit(&tenant, &req, shared) {
        let mut c = shared.counters.lock().expect("counters lock");
        c.budget_rejections += 1;
        return (kind, encode_response(&id, &Response::Error(rejection)));
    }

    let (reply_tx, reply_rx) = channel();
    let worker = route(&req, senders.len());
    if senders[worker]
        .send(Job {
            req,
            reply: reply_tx,
        })
        .is_err()
    {
        shared.counters.lock().expect("counters lock").errors += 1;
        return (
            kind,
            encode_response(&id, &Response::Error("server is shutting down".into())),
        );
    }
    match reply_rx.recv() {
        Ok(resp) => (kind, encode_response(&id, &resp)),
        Err(_) => {
            shared.counters.lock().expect("counters lock").errors += 1;
            (
                kind,
                encode_response(&id, &Response::Error("server is shutting down".into())),
            )
        }
    }
}

/// Per-tenant admission control: charges the request's effective
/// per-goal iteration budget against the tenant's allowance (refilled
/// first, when a policy is configured).
fn admit(tenant: &str, req: &Request, shared: &Shared) -> Result<(), String> {
    let iters = match req {
        Request::Prove { opts, .. }
        | Request::Optimize { opts, .. }
        | Request::Catalog { opts, .. }
        | Request::Discover { opts } => {
            // The declared budget; scripts cannot raise it past the
            // admission check because a script directive only fills
            // knobs the request left unset, and unset knobs resolve to
            // the same default charged here.
            opts.budget.apply(Budget::default()).max_iters
        }
        // Mining runs its own internal discovery/certification budgets;
        // charge it like a default-budget request.
        Request::Mine { .. } => Budget::default().max_iters,
        Request::Stats
        | Request::Metrics
        | Request::Profile
        | Request::Trace
        | Request::Shutdown => return Ok(()),
    };
    let budget = shared.config.tenant_budget;
    let now_ns = shared.started.elapsed().as_nanos() as u64;
    let mut ledger = shared.tenants.lock().expect("tenants lock");
    match ledger.charge(tenant, iters, now_ns, budget) {
        Admission::Admit => Ok(()),
        Admission::PerGoalCap => Err(format!(
            "budget rejected: {iters} iterations exceeds the per-request cap of {}",
            budget.per_goal_iters
        )),
        Admission::Exhausted => Err(format!(
            "budget rejected: tenant {tenant:?} has exhausted its allowance of {} iterations",
            budget.max_total_iters
        )),
    }
}

/// Stable request routing: identical scripts hash to the same worker,
/// so repeats land on the workspace whose memos already hold them.
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
        Request::Catalog { .. } => "catalog".hash(&mut hasher),
        Request::Discover { .. } => "discover".hash(&mut hasher),
        Request::Mine { seed, .. } => {
            "mine".hash(&mut hasher);
            seed.hash(&mut hasher);
        }
        Request::Stats
        | Request::Metrics
        | Request::Profile
        | Request::Trace
        | Request::Shutdown => {}
    }
    (hasher.finish() % workers as u64) as usize
}

/// Blocking client helper: sends one request and reads one response
/// line — the `dopcert request` subcommand and the CI smoke test.
///
/// # Errors
///
/// Returns the connect/write/read error, or the malformed response
/// line described as [`ErrorKind::InvalidData`].
pub fn request_once(
    addr: &str,
    id: &Json,
    tenant: &str,
    req: &Request,
) -> std::io::Result<crate::wire::WireReply> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let line = crate::wire::encode_request(id, tenant, req);
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    crate::wire::decode_response(reply.trim())
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::execute;

    fn local_config() -> ServeConfig {
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let req = Request::Prove {
            script: "table R(int);\nverify R == R;".into(),
            opts: RequestOptions::default(),
        };
        let w = route(&req, 4);
        assert_eq!(route(&req, 4), w, "same script, same worker");
        assert!(w < 4);
        assert_eq!(route(&Request::Stats, 1), 0);
    }

    #[test]
    fn server_answers_identically_to_fresh_execute() {
        let server = Server::start(local_config()).expect("bind");
        let addr = server.local_addr().to_string();
        let req = Request::Prove {
            script: "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);".into(),
            opts: RequestOptions::default(),
        };
        let reply = request_once(&addr, &Json::Num(1.0), "default", &req).expect("request");
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.lines, execute(&req).render());
        server.shutdown();
        server.wait();
    }

    #[test]
    fn malformed_lines_get_error_responses_and_the_connection_survives() {
        let server = Server::start(local_config()).expect("bind");
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer.write_all(b"this is not json\n").expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let reply = crate::wire::decode_response(line.trim()).expect("decode");
        assert!(!reply.ok);
        assert!(reply.error.expect("error").starts_with("bad request:"));
        // The connection is still usable.
        writer.write_all(b"{\"cmd\":\"stats\"}\n").expect("write");
        line.clear();
        reader.read_line(&mut line).expect("read");
        let reply = crate::wire::decode_response(line.trim()).expect("decode");
        assert!(reply.ok);
        let stats = reply.stats.expect("stats");
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 1);
        server.shutdown();
        server.wait();
    }

    #[test]
    fn admission_rejects_oversized_and_exhausted_tenants() {
        let mut config = local_config();
        config.tenant_budget = BatchBudget {
            max_total_iters: 48,
            max_nodes: 60_000,
            per_goal_iters: 24,
        };
        let server = Server::start(config).expect("bind");
        let addr = server.local_addr().to_string();
        let mut big = RequestOptions::default();
        big.budget.set("iters", 100).unwrap();
        let oversized = Request::Prove {
            script: "table R(int);\nverify R == R;".into(),
            opts: big,
        };
        let reply = request_once(&addr, &Json::Null, "default", &oversized).expect("request");
        assert!(!reply.ok);
        assert!(
            reply.error.expect("error").contains("per-request cap"),
            "oversized request hits the per-goal cap"
        );

        let small = Request::Prove {
            script: "table R(int);\nverify R == R;".into(),
            opts: RequestOptions::default(),
        };
        // Default budget is 24 iters; the third request exceeds 48.
        for _ in 0..2 {
            let reply = request_once(&addr, &Json::Null, "bob", &small).expect("request");
            assert!(reply.ok, "{reply:?}");
        }
        let reply = request_once(&addr, &Json::Null, "bob", &small).expect("request");
        assert!(!reply.ok);
        assert!(reply.error.expect("error").contains("exhausted"));
        // Another tenant's allowance is untouched.
        let reply = request_once(&addr, &Json::Null, "carol", &small).expect("request");
        assert!(reply.ok, "{reply:?}");
        assert_eq!(server.stats().budget_rejections, 2);
        server.shutdown();
        server.wait();
    }

    #[test]
    fn refill_recovers_an_exhausted_tenant_over_time() {
        let budget = BatchBudget {
            max_total_iters: 48,
            max_nodes: 60_000,
            per_goal_iters: 24,
        };
        let mut ledger = TenantLedger::new(Some(RefillPolicy { iters_per_sec: 24 }));
        // Two 24-iter requests exhaust the 48-iter allowance at t=0.
        assert_eq!(ledger.charge("bob", 24, 0, budget), Admission::Admit);
        assert_eq!(ledger.charge("bob", 24, 0, budget), Admission::Admit);
        assert_eq!(ledger.charge("bob", 24, 0, budget), Admission::Exhausted);
        // Half a second refills 12 iterations — not yet enough headroom
        // for a 24-iter request (36 + 24 > 48).
        assert_eq!(
            ledger.charge("bob", 24, 500_000_000, budget),
            Admission::Exhausted
        );
        // A full second from start has refilled 24 total: recovered.
        assert_eq!(
            ledger.charge("bob", 24, 1_000_000_000, budget),
            Admission::Admit
        );
        // The per-goal cap is not affected by refill.
        assert_eq!(
            ledger.charge("bob", 100, 2_000_000_000, budget),
            Admission::PerGoalCap
        );
    }

    #[test]
    fn refill_fractions_accumulate_and_no_policy_means_no_decay() {
        let budget = BatchBudget {
            max_total_iters: 10,
            max_nodes: 60_000,
            per_goal_iters: 10,
        };
        // 4 iters/sec: one 250ms step is exactly one iteration; an 80ms
        // step grants nothing but the remainder must not be lost.
        let mut ledger = TenantLedger::new(Some(RefillPolicy { iters_per_sec: 4 }));
        assert_eq!(ledger.charge("t", 10, 0, budget), Admission::Admit);
        assert_eq!(
            ledger.charge("t", 1, 80_000_000, budget),
            Admission::Exhausted
        );
        assert_eq!(
            ledger.charge("t", 1, 160_000_000, budget),
            Admission::Exhausted
        );
        // 250ms total: the three fractional steps add up to 1 iteration.
        assert_eq!(ledger.charge("t", 1, 250_000_000, budget), Admission::Admit);

        // Without a policy, exhaustion is permanent (pre-refill
        // behavior preserved — the default configuration).
        let mut fixed = TenantLedger::new(None);
        assert_eq!(fixed.charge("t", 10, 0, budget), Admission::Admit);
        assert_eq!(fixed.charge("t", 1, u64::MAX, budget), Admission::Exhausted);
    }

    #[test]
    fn profile_and_trace_requests_answer_inline() {
        let server = Server::start(local_config()).expect("bind");
        let addr = server.local_addr().to_string();
        let opts = RequestOptions {
            saturate: crate::prove::SaturateMode::Only,
            ..Default::default()
        };
        let prove = Request::Prove {
            script: "table R(int);\ntable S(int);\nverify (R UNION ALL S) == (S UNION ALL R);"
                .into(),
            opts,
        };
        let reply = request_once(&addr, &Json::Null, "default", &prove).expect("request");
        assert!(reply.ok, "{reply:?}");

        // The daemon enabled profiling at start, so the saturation run
        // left per-rule attribution rows behind.
        let reply =
            request_once(&addr, &Json::Null, "default", &Request::Profile).expect("profile");
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.kind, "profile");
        let profile = reply.profile.expect("profile table");
        assert!(
            !profile.is_empty(),
            "a saturation run must leave attribution rows"
        );

        // `trace` drains on demand without stopping the daemon; with
        // tracing off the buffer is empty but the reply is well-formed.
        let reply = request_once(&addr, &Json::Null, "default", &Request::Trace).expect("trace");
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.kind, "trace");
        assert!(reply.lines.concat().contains("traceEvents"), "{reply:?}");
        server.shutdown();
        server.wait();
    }

    #[test]
    fn mine_request_over_the_wire_publishes_the_daemon_catalog() {
        let server = Server::start(local_config()).expect("bind");
        let addr = server.local_addr().to_string();
        let mine_req = Request::Mine {
            seed: mine::MineConfig::default().seed,
            count: 3,
        };
        let reply = request_once(&addr, &Json::Null, "default", &mine_req).expect("request");
        assert!(reply.ok, "{reply:?}");
        assert!(
            reply.lines[0].starts_with("mined 3 rules"),
            "{:?}",
            reply.lines
        );
        assert_eq!(reply.lines, execute(&mine_req).render());
        // The mined catalog is now daemon-resident: a flagged optimize
        // adopts it and still ships a certified plan.
        let opt_req = Request::Optimize {
            script: "table R(int);\nverify (R UNION ALL R) == (R UNION ALL R);".into(),
            opts: RequestOptions {
                mined_rules: true,
                ..RequestOptions::default()
            },
        };
        let reply = request_once(&addr, &Json::Null, "default", &opt_req).expect("request");
        assert!(reply.ok, "{reply:?}");
        server.shutdown();
        server.wait();
    }

    #[test]
    fn metrics_exposition_reflects_served_traffic() {
        let server = Server::start(local_config()).expect("bind");
        let addr = server.local_addr().to_string();
        let prove = Request::Prove {
            script: "table R(int);\nverify R == R;".into(),
            opts: RequestOptions::default(),
        };
        for _ in 0..2 {
            let reply = request_once(&addr, &Json::Null, "default", &prove).expect("request");
            assert!(reply.ok, "{reply:?}");
        }
        let reply = request_once(&addr, &Json::Null, "default", &Request::Metrics)
            .expect("metrics request");
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.kind, "metrics");
        let text = reply.lines.join("\n");
        // Server-owned counters match the actual request totals: two
        // proves plus the metrics request itself.
        assert!(text.contains("dopcert_serve_requests 3"), "{text}");
        assert!(text.contains("dopcert_serve_ok 2"), "{text}");
        // The per-kind latency histogram counted both proves.
        assert!(
            text.contains("dopcert_request_latency_us_count{kind=\"prove\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("dopcert_request_latency_us_bucket{kind=\"prove\",le=\"+Inf\"} 2"),
            "{text}"
        );
        // Quantile summary lines are present for the kind.
        assert!(
            text.contains("dopcert_request_latency_us{kind=\"prove\",quantile=\"0.5\"}"),
            "{text}"
        );
        // The whole exposition parses: every non-comment line is
        // `name[{labels}] value` with a numeric value.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("metric line");
            assert!(!name.is_empty(), "{line}");
            value.parse::<f64>().unwrap_or_else(|_| panic!("{line}"));
        }

        // Live memo hits: the repeated script was a memo hit on its
        // worker, visible in `stats` per worker and in total.
        let stats = server.stats();
        assert!(stats.memo_hits >= 1, "{stats:?}");
        assert_eq!(
            stats.memo_hits,
            stats.memo_hits_by_worker.iter().sum::<usize>()
        );
        assert!(
            stats
                .latency
                .iter()
                .any(|l| l.kind == "prove" && l.count == 2),
            "{stats:?}"
        );
        server.shutdown();
        server.wait();
    }
}
