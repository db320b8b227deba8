//! `prove-repeat`: `Engine::prove_pairs` batches whose goals repeat.
//!
//! Each op is one batch of `gen::PROVE_GOALS` goals drawn with
//! repetition from its own pool of `gen::PROVE_POOL` pairs, one in
//! eight known to be inequivalent. Within a batch the warm-snapshot
//! prologue, the cursor that hands repeats to every worker, the
//! session verdict memo and the shared normalization memo decide the
//! time.

use crate::gen::{self, ProveOp};
use crate::ledger::{Counters, Ledger};
use crate::{check, stats, Outcome};
use dopcert::engine::{Engine, EngineConfig, PairReport};
use dopcert::prove::denote_instance;
use dopcert::RuleInstance;
use hottsql::ast::Query;
use hottsql::env::QueryEnv;
use relalg::Schema;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};
use uninomial::normalize::{normalization_input, normalize_with_cache, NormCache, Trace};
use uninomial::Interner;

/// Measured batches per run (after the set-up batch).
const OPS: usize = 100;

fn engine(threads: usize) -> Engine {
    Engine::with_config(EngineConfig::with_threads(threads))
}

/// Times every batch on `engine`.
fn run(
    engine: &Engine,
    env: &QueryEnv,
    batches: &[Vec<(Query, Query)>],
) -> (Vec<Duration>, Vec<Vec<PairReport>>) {
    batches
        .iter()
        .map(|pairs| {
            let start = Instant::now();
            let reports = engine.prove_pairs(env, black_box(pairs));
            (start.elapsed(), black_box(reports))
        })
        .unzip()
}

/// The set-up a single-shot user pays: `Engine` construction plus the
/// first (cold) batch, in seconds.
pub fn setup(seed: u64, nproc: usize) -> f64 {
    let ops = gen::prove_ops(seed, 1);
    let (env, pairs) = (gen::env(), ops[0].pairs());
    let start = Instant::now();
    let engine = engine(nproc);
    black_box(engine.prove_pairs(&env, &pairs));
    start.elapsed().as_secs_f64()
}

/// Checks every report against its goal's known answer; returns the
/// equivalent goals attempted and proved.
fn check_reports(
    ops: &[ProveOp],
    reports: &[Vec<PairReport>],
    out: &mut Outcome,
) -> (usize, usize) {
    let (mut attempted, mut proved) = (0, 0);
    for (op, batch) in ops.iter().zip(reports) {
        if batch.len() != op.picks.len() {
            out.wrong.push(format!(
                "{} reports for {} goals",
                batch.len(),
                op.picks.len()
            ));
            continue;
        }
        for (&pick, report) in op.picks.iter().zip(batch) {
            let goal = &op.pool[pick];
            if let Err(e) = check::verdict(goal, report.proved) {
                out.wrong.push(e);
            }
            if goal.equivalent {
                attempted += 1;
                proved += usize::from(report.proved);
            }
        }
    }
    (attempted, proved)
}

struct Prepared {
    env: QueryEnv,
    ops: Vec<ProveOp>,
    batches: Vec<Vec<(Query, Query)>>,
}

fn prepare(seed: u64) -> Prepared {
    // Op 0 is the set-up batch; the measured ops follow it.
    let ops = gen::prove_ops(seed, OPS + 1);
    let batches = ops.iter().map(ProveOp::pairs).collect();
    Prepared {
        env: gen::env(),
        ops,
        batches,
    }
}

/// The untraced run: end-to-end metrics at `nproc` engine threads.
pub fn measure(seed: u64, nproc: usize) -> Outcome {
    let p = prepare(seed);
    let engine = engine(nproc);
    let (_, warm) = run(&engine, &p.env, &p.batches[..1]);
    let (times, reports) = run(&engine, &p.env, &p.batches[1..]);
    let mut out = Outcome {
        attempted: times.len(),
        ..Outcome::default()
    };
    check_reports(&p.ops[..1], &warm, &mut out);
    let (eq_attempted, eq_proved) = check_reports(&p.ops[1..], &reports, &mut out);
    let ms = stats::millis(&times);
    out.set(
        "goals_per_s",
        stats::items_per_s(&p.batches[1..], &times),
        ms.len(),
    );
    out.set_latency(&ms);
    out.set_opt(
        "proved_ratio",
        stats::ratio(eq_proved as f64, eq_attempted as f64),
        eq_attempted,
    );
    out
}

/// The traced run: the same batches untraced, with telemetry counters,
/// at one thread, and replayed layer by layer.
pub fn trace(seed: u64, nproc: usize) -> Outcome {
    let p = prepare(seed);
    let batches = &p.batches[1..];
    let ops = &p.ops[1..];
    let n = batches.len();
    let wide = engine(nproc);
    run(&wide, &p.env, &p.batches[..1]);
    let mut out = Outcome {
        attempted: n,
        ..Outcome::default()
    };

    let (untraced, reports) = run(&wide, &p.env, batches);
    check_reports(ops, &reports, &mut out);

    Counters::start();
    let (traced, reports) = run(&wide, &p.env, batches);
    let counters = Counters::stop();
    check_reports(ops, &reports, &mut out);

    let (single, reports) = run(&engine(1), &p.env, batches);
    check_reports(ops, &reports, &mut out);

    let untraced_p50 = stats::median(&stats::millis(&untraced));
    out.set(
        "trace.overhead_ratio",
        stats::median(&stats::millis(&traced)) / untraced_p50,
        n,
    );
    out.set(
        "engine.scaling",
        stats::items_per_s(batches, &untraced) / stats::items_per_s(batches, &single),
        n,
    );
    counters.norm_metrics(&mut out, n);
    counters.egraph_metrics(&mut out, n, false);
    out.set_opt(
        "session.verdict_hit_ratio",
        counters.hit_ratio("verdict"),
        n,
    );
    let distinct: usize = ops.iter().map(|op| op.pool.len()).sum();
    out.set(
        "session.misses_per_distinct",
        counters.get("memo.verdict.miss") / distinct as f64,
        n,
    );

    let ledger = replay(&p.env, ops, batches, &mut out);
    // Every replayed layer is top-level here: their sum is the work the
    // ledger accounts for.
    let mut layers = 0.0;
    for (metric, layer) in [
        ("engine.prologue_ms", "prologue"),
        ("hottsql.denote_ms", "denote"),
        ("hottsql.typecheck_ms", "typecheck"),
        ("uninomial.normalize_ms", "normalize"),
        ("uninomial.tactics_ms", "tactics"),
        ("egraph.saturate_ms", "saturate"),
    ] {
        let ms = ledger.per_op_ms(layer, n);
        layers += ms.unwrap_or(0.0);
        out.set_opt(metric, ms, n);
    }
    out.set(
        "unattributed_ms",
        stats::mean(&stats::millis(&untraced)) - layers,
        n,
    );
    out
}

/// Replays each batch on one thread through the layers' public
/// functions: the warm-snapshot prologue over the whole batch, then,
/// for each distinct goal (a repeat is a memo hit in the engine),
/// type inference, denotation, normalization, the tactics, and
/// saturation where the tactics fail.
fn replay(
    env: &QueryEnv,
    ops: &[ProveOp],
    batches: &[Vec<(Query, Query)>],
    out: &mut Outcome,
) -> Ledger {
    let mut ledger = Ledger::default();
    let (mut tried, mut closed) = (0usize, 0usize);
    for (op, pairs) in ops.iter().zip(batches) {
        ledger.time("prologue", || {
            let mut interner = Interner::new();
            for (l, r) in pairs {
                let inst = RuleInstance::plain(env.clone(), l.clone(), r.clone());
                if let Ok((el, er, mut gen)) = denote_instance(&inst) {
                    interner.intern(&normalization_input(&el, &mut gen));
                    interner.intern(&normalization_input(&er, &mut gen));
                }
            }
            interner.snapshot()
        });
        let mut cache = NormCache::new();
        let mut seen = HashSet::new();
        for &pick in &op.picks {
            if !seen.insert(pick) {
                continue;
            }
            let goal = &op.pool[pick];
            let inst = RuleInstance::plain(env.clone(), goal.lhs.clone(), goal.rhs.clone());
            let typed = ledger.time("typecheck", || {
                let l = hottsql::ty::infer_query(&goal.lhs, env, &Schema::Empty);
                let r = hottsql::ty::infer_query(&goal.rhs, env, &Schema::Empty);
                l.is_ok() && r.is_ok()
            });
            if !typed {
                out.wrong
                    .push(format!("goal does not type: {} == {}", goal.lhs, goal.rhs));
                continue;
            }
            let Ok((el, er, mut gen)) = ledger.time("denote", || denote_instance(&inst)) else {
                out.wrong.push(format!(
                    "goal does not denote: {} == {}",
                    goal.lhs, goal.rhs
                ));
                continue;
            };
            // The tactics normalize both sides first; an identical
            // denotation stream warms the cache so `tactics` times what
            // the tactics add on top of normalization.
            let (nl, nr, mut warm_gen) = denote_instance(&inst).expect("denoted above");
            ledger.time("normalize", || {
                let mut trace = Trace::new();
                normalize_with_cache(&nl, &mut warm_gen, &mut trace, &mut cache);
                normalize_with_cache(&nr, &mut warm_gen, &mut trace, &mut cache);
            });
            tried += 1;
            let tactic = ledger.time("tactics", || {
                uninomial::prove::prove_eq_cached(&el, &er, &[], &mut gen, &mut cache)
            });
            let proved = match tactic {
                Ok(_) => {
                    closed += 1;
                    true
                }
                Err(_) => ledger.time("saturate", || {
                    egraph::prove_eq_saturate_cached(
                        &el,
                        &er,
                        &[],
                        &mut gen,
                        &mut cache,
                        egraph::Budget::default(),
                    )
                    .is_ok()
                }),
            };
            if let Err(e) = check::verdict(goal, proved) {
                out.wrong.push(e);
            }
        }
    }
    out.set_opt(
        "uninomial.tactics_closed_ratio",
        stats::ratio(closed as f64, tried as f64),
        tried,
    );
    ledger
}
