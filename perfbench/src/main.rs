//! End-to-end and per-layer benchmark of the DOPCERT batch engine, the
//! certified optimizer and the `dopcert serve` daemon.
//!
//! ```text
//! perfbench --workload <prove-repeat|optimize-distinct|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run processes a fixed op list generated from the seed, checks
//! every answer against its known value, and prints a meta line and
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ledger. See `README.md`.

mod check;
mod gen;
mod ledger;
mod optimize;
mod prove;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// End-to-end metrics: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("goals_per_s", "goals/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("proved_ratio", "ratio"),
    ("plan_cost_gmean", "ratio"),
];

/// Per-layer metrics: name and unit. Times and counts are per op.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.prologue_ms", "ms"),
    ("engine.scaling", "ratio"),
    ("session.verdict_hit_ratio", "ratio"),
    ("session.misses_per_distinct", "ratio"),
    ("session.plan_hit_ratio", "ratio"),
    ("uninomial.normalize_ms", "ms"),
    ("uninomial.normalize_hit_ratio", "ratio"),
    ("uninomial.shared_hit_ratio", "ratio"),
    ("uninomial.tactics_ms", "ms"),
    ("uninomial.tactics_closed_ratio", "ratio"),
    ("hottsql.parse_ms", "ms"),
    ("hottsql.denote_ms", "ms"),
    ("hottsql.typecheck_ms", "ms"),
    ("hottsql.readback_ms", "ms"),
    ("cq.containment_ms", "ms"),
    ("cq.pruned_ratio", "ratio"),
    ("egraph.saturate_ms", "ms"),
    ("egraph.extract_ms", "ms"),
    ("egraph.iters", "count"),
    ("egraph.nodes_added", "count"),
    ("egraph.unions", "count"),
    ("egraph.oracle_calls", "count"),
    ("egraph.oracle_memo_hit_ratio", "ratio"),
    ("egraph.union_ratio", "ratio"),
    ("egraph.mined_unions", "count"),
    ("optimizer.optimize_ms", "ms"),
    ("optimizer.replay_ms", "ms"),
    ("optimizer.improved_ratio", "ratio"),
    ("mine.corpus_ms", "ms"),
    ("mine.discover_ms", "ms"),
    ("mine.anti_unify_ms", "ms"),
    ("mine.screen_ms", "ms"),
    ("mine.certify_ms", "ms"),
    ("mine.candidates", "count"),
    ("mine.accept_ratio", "ratio"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("wire.reply_bytes", "bytes"),
    ("serve.server_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.memo_hits", "count"),
    ("serve.rejections", "count"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// The value printed for a metric whose layer or subject does not
/// exist on a workload; the meta line lists such metrics as `absent`.
const ABSENT: f64 = -1.0;

/// Fresh-process set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 9;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Engine::prove_pairs` batches that repeat goals.
    ProveRepeat,
    /// `Engine::optimize_batch` over queries that never repeat.
    OptimizeDistinct,
    /// An in-process `dopcert serve` daemon under closed-loop clients.
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "prove-repeat" => Some(Workload::ProveRepeat),
            "optimize-distinct" => Some(Workload::OptimizeDistinct),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ProveRepeat => "prove-repeat",
            Workload::OptimizeDistinct => "optimize-distinct",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted (engine batches or daemon requests).
    pub attempted: usize,
    /// Ops refused or answered with an error.
    pub failed: usize,
    /// Wrong answers found by the checks.
    pub wrong: Vec<String>,
    /// Measured metrics: value and the number of samples behind it.
    pub metrics: BTreeMap<&'static str, (f64, usize)>,
}

impl Outcome {
    /// Records a metric with its sample count.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, (value, samples));
    }

    /// Records `op_p50_ms` and `op_p90_ms` from per-op times (ms); a p90
    /// without ten samples beyond it fails the run.
    pub fn set_latency(&mut self, ms: &[f64]) {
        self.set("op_p50_ms", stats::median(ms), ms.len());
        match stats::percentile(ms, 90.0) {
            Ok(p90) => self.set("op_p90_ms", p90, ms.len()),
            Err(e) => self.wrong.push(e),
        }
    }

    /// Records a metric when it exists on this workload.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        if let Some(v) = value {
            self.set(name, v, samples);
        }
    }
}

/// The CPU count. `Engine` threads, daemon workers and client
/// connections all equal it.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, 10, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_probe,
    })
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The commit the checkout was built from, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

/// Runs the set-up probe of a workload in `SETUP_SAMPLES` fresh
/// processes and returns the samples in seconds. A fresh process pays
/// the first-touch page faults a single-shot user pays, and the median
/// of several keeps one unlucky CPU placement from setting the value.
fn setup_samples(workload: Workload, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_SAMPLES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .output()
                .map_err(|e| format!("spawning the set-up probe: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .lines()
                .find_map(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("set-up probe printed no sample: {stdout}"))
        })
        .collect()
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        ABSENT.to_string()
    }
}

/// Name and unit of each metric a run reports.
type MetricList = &'static [(&'static str, &'static str)];

fn run(args: &Args) -> Result<(Outcome, MetricList), String> {
    let nproc = nproc();
    let mut outcome = match (args.workload, args.trace) {
        (Workload::ProveRepeat, false) => prove::measure(args.seed, nproc),
        (Workload::ProveRepeat, true) => prove::trace(args.seed, nproc),
        (Workload::OptimizeDistinct, false) => optimize::measure(args.seed, nproc),
        (Workload::OptimizeDistinct, true) => optimize::trace(args.seed, nproc),
        (Workload::ServeMixed, false) => serve::measure(args.seed, nproc)?,
        (Workload::ServeMixed, true) => serve::trace(args.seed, nproc)?,
    };
    if args.trace {
        return Ok((outcome, PER_LAYER));
    }
    let setup = setup_samples(args.workload, args.seed)?;
    outcome.set("setup_s", stats::median(&setup), setup.len());
    if let Some(rss) = peak_rss_mb() {
        outcome.set("peak_rss_mb", rss, 1);
    }
    Ok((outcome, END_TO_END))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let nproc = nproc();
        let secs = match args.workload {
            Workload::ProveRepeat => prove::setup(args.seed, nproc),
            Workload::OptimizeDistinct => optimize::setup(args.seed, nproc),
            Workload::ServeMixed => match serve::setup(nproc) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            },
        };
        println!("setup_s {secs}");
        return ExitCode::SUCCESS;
    }
    let (outcome, wanted) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for w in &outcome.wrong {
        eprintln!("perfbench: WRONG ANSWER: {w}");
    }
    let nproc = nproc();
    let mut metrics = Vec::new();
    let mut samples = Vec::new();
    let mut absent = Vec::new();
    for &(name, unit) in wanted {
        let value = match outcome.metrics.get(name) {
            Some(&(v, n)) => {
                samples.push(format!("{}:{n}", json_string(name)));
                v
            }
            None => {
                absent.push(json_string(name));
                ABSENT
            }
        };
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_string(name),
            json_number(value),
            json_string(unit)
        ));
    }
    println!(
        "{{\"meta\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"engine_threads\":{nproc},\"daemon_workers\":{nproc},\"client_connections\":{nproc},\
         \"profile\":{},\"commit\":{},\"ops\":{},\"percentile\":\"nearest-rank\",\
         \"samples\":{{{}}},\"absent\":[{}],\"absent_value\":{ABSENT}}}}}",
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_string(&commit()),
        outcome.attempted,
        samples.join(","),
        absent.join(","),
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.wrong.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
