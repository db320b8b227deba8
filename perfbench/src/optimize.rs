//! `optimize-distinct`: `Engine::optimize_batch` with the mined rule
//! catalog attached, over queries that never repeat.
//!
//! Plan search over unique queries gets no memo hits, so saturation,
//! extraction, `mined:` matching, readback and certification set the
//! time. A memo or routing change should leave this workload alone.

use crate::gen;
use crate::ledger::{Counters, Ledger};
use crate::{check, stats, Outcome};
use dopcert::engine::{Engine, EngineConfig};
use dopcert::prove::ProveOptions;
use egraph::{BatchBudget, Budget, MinedRule, Session, Solver};
use hottsql::ast::Query;
use hottsql::env::QueryEnv;
use hottsql::eval::Instance;
use optimizer::{OptimizeError, OptimizeReport, StatsCost};
use relalg::stats::Statistics;
use relalg::Schema;
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uninomial::normalize::{
    normalization_input, normalize, normalize_with_cache, NormCache, Trace,
};
use uninomial::{Interner, VarGen};

/// Measured batches per run (after the set-up batch).
const OPS: usize = 100;
/// Seeded databases every improved plan is evaluated on.
const CHECK_DBS: u64 = 3;

type Reports = Vec<Result<OptimizeReport, OptimizeError>>;

fn engine(threads: usize, mined: &Arc<Vec<MinedRule>>) -> Engine {
    let mut config = EngineConfig::with_threads(threads);
    config.mined = Some(Arc::clone(mined));
    Engine::with_config(config)
}

fn mine_catalog() -> Arc<Vec<MinedRule>> {
    Arc::new(mine::mine(&mine::MineConfig::default()).rules)
}

fn run(engine: &Engine, env: &QueryEnv, batches: &[Vec<Query>]) -> (Vec<Duration>, Vec<Reports>) {
    let stats = Statistics::new();
    batches
        .iter()
        .map(|queries| {
            let start = Instant::now();
            let reports = engine.optimize_batch(env, &stats, black_box(queries));
            (start.elapsed(), black_box(reports))
        })
        .unzip()
}

/// The set-up a single-shot user pays: the mining run that builds the
/// catalog, `Engine` construction and the first (cold) batch, in
/// seconds.
pub fn setup(seed: u64, nproc: usize) -> f64 {
    let batches = gen::optimize_ops(seed, 1);
    let env = gen::env();
    let start = Instant::now();
    let mined = mine_catalog();
    let engine = engine(nproc, &mined);
    black_box(engine.optimize_batch(&env, &Statistics::new(), &batches[0]));
    start.elapsed().as_secs_f64()
}

/// Per-query outcome of the checks.
#[derive(Default)]
struct Checked {
    ratios: Vec<f64>,
    improved: usize,
    wrong: Vec<String>,
    ledger: Ledger,
}

/// Checks every plan: no costlier than its input, certificate replays,
/// and (when changed) evaluates equal to its input on seeded databases.
/// The checks run outside the timed region, on `threads` threads.
fn check_reports(
    env: &QueryEnv,
    reports: &[Reports],
    dbs: &[u64],
    threads: usize,
    out: &mut Outcome,
) -> Checked {
    let all: Vec<&Result<OptimizeReport, OptimizeError>> = reports.iter().flatten().collect();
    let chunk = all.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Checked> = std::thread::scope(|s| {
        let handles: Vec<_> = all
            .chunks(chunk)
            .map(|part| s.spawn(move || check_part(env, part, dbs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    let mut checked = Checked::default();
    for part in parts {
        checked.ratios.extend(part.ratios);
        checked.improved += part.improved;
        out.wrong.extend(part.wrong);
        checked.ledger.merge(part.ledger);
    }
    checked
}

fn check_part(
    env: &QueryEnv,
    reports: &[&Result<OptimizeReport, OptimizeError>],
    db_seeds: &[u64],
) -> Checked {
    let dbs: Vec<Instance> = db_seeds.iter().map(|&s| gen::database(s)).collect();
    let mut checked = Checked::default();
    for report in reports {
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                checked.wrong.push(format!("optimizer error: {}", e.0));
                continue;
            }
        };
        // An unchanged plan evaluates like its input trivially.
        let dbs = if report.output == report.input {
            &[][..]
        } else {
            &dbs[..]
        };
        if let Err(e) = checked
            .ledger
            .time("replay", || check::plan(report, env, dbs))
        {
            checked.wrong.push(e);
        }
        if report.cost_before > 0.0 {
            checked.ratios.push(report.cost_after / report.cost_before);
        }
        checked.improved += usize::from(report.improved);
    }
    checked
}

struct Prepared {
    env: QueryEnv,
    batches: Vec<Vec<Query>>,
    /// Seeds of the databases plans are evaluated on.
    dbs: Vec<u64>,
    mined: Arc<Vec<MinedRule>>,
}

fn prepare(seed: u64) -> Prepared {
    Prepared {
        env: gen::env(),
        // Batch 0 is the set-up batch; the measured batches follow it.
        batches: gen::optimize_ops(seed, OPS + 1),
        dbs: (0..CHECK_DBS)
            .map(|k| gen::derive(seed, "check-db", k))
            .collect(),
        mined: mine_catalog(),
    }
}

/// The untraced run: end-to-end metrics at `nproc` engine threads.
pub fn measure(seed: u64, nproc: usize) -> Outcome {
    let p = prepare(seed);
    let engine = engine(nproc, &p.mined);
    let (_, warm) = run(&engine, &p.env, &p.batches[..1]);
    let (times, reports) = run(&engine, &p.env, &p.batches[1..]);
    let mut out = Outcome {
        attempted: times.len(),
        ..Outcome::default()
    };
    check_reports(&p.env, &warm, &p.dbs, nproc, &mut out);
    let checked = check_reports(&p.env, &reports, &p.dbs, nproc, &mut out);
    let ms = stats::millis(&times);
    out.set(
        "goals_per_s",
        stats::items_per_s(&p.batches[1..], &times),
        ms.len(),
    );
    out.set_latency(&ms);
    if !checked.ratios.is_empty() {
        out.set(
            "plan_cost_gmean",
            stats::geometric_mean(&checked.ratios),
            checked.ratios.len(),
        );
    }
    out
}

/// The traced run: the same batches untraced, with telemetry counters,
/// at one thread, and replayed layer by layer; plus the mining run
/// replayed stage by stage.
pub fn trace(seed: u64, nproc: usize) -> Outcome {
    let p = prepare(seed);
    let batches = &p.batches[1..];
    let n = batches.len();
    let wide = engine(nproc, &p.mined);
    run(&wide, &p.env, &p.batches[..1]);
    let mut out = Outcome {
        attempted: n,
        ..Outcome::default()
    };
    let (untraced, reports) = run(&wide, &p.env, batches);
    let mut checked = check_reports(&p.env, &reports, &p.dbs, nproc, &mut out);
    let mut ledger = std::mem::take(&mut checked.ledger);

    Counters::start();
    let (traced, _) = run(&wide, &p.env, batches);
    let counters = Counters::stop();
    let (single, _) = run(&engine(1, &p.mined), &p.env, batches);

    out.set(
        "trace.overhead_ratio",
        stats::median(&stats::millis(&traced)) / stats::median(&stats::millis(&untraced)),
        n,
    );
    out.set(
        "engine.scaling",
        stats::items_per_s(batches, &untraced) / stats::items_per_s(batches, &single),
        n,
    );
    counters.norm_metrics(&mut out, n);
    counters.egraph_metrics(&mut out, n, true);
    out.set_opt("session.plan_hit_ratio", counters.hit_ratio("plan"), n);
    let queries = checked.ratios.len().max(1);
    out.set(
        "optimizer.improved_ratio",
        checked.improved as f64 / queries as f64,
        queries,
    );

    replay_whole(&p, batches, &mut ledger);
    replay_stages(&p, batches, &mut ledger, &mut out);
    for (metric, layer) in [
        ("engine.prologue_ms", "prologue"),
        ("optimizer.optimize_ms", "optimize"),
        ("optimizer.replay_ms", "replay"),
        ("hottsql.typecheck_ms", "typecheck"),
        ("hottsql.denote_ms", "denote"),
        ("uninomial.normalize_ms", "normalize"),
        ("egraph.saturate_ms", "saturate"),
        ("egraph.extract_ms", "extract"),
        ("hottsql.readback_ms", "readback"),
        ("cq.containment_ms", "cq-minimize"),
        ("uninomial.tactics_ms", "tactics"),
    ] {
        out.set_opt(metric, ledger.per_op_ms(layer, n), n);
    }
    let layers: f64 = ["prologue", "optimize"]
        .iter()
        .filter_map(|l| ledger.per_op_ms(l, n))
        .sum();
    out.set(
        "unattributed_ms",
        stats::mean(&stats::millis(&untraced)) - layers,
        n,
    );
    mine_stages(&mut out);
    out
}

/// Replays each batch on one thread: the engine's warm-snapshot
/// prologue, then one `Planner` (as one engine worker holds) calling
/// `optimizer::optimize` on every query.
fn replay_whole(p: &Prepared, batches: &[Vec<Query>], ledger: &mut Ledger) {
    let stats = Statistics::new();
    for queries in batches {
        ledger.time("prologue", || {
            let mut interner = Interner::new();
            for q in queries {
                let mut gen = VarGen::new();
                if let Ok((_, e)) = hottsql::denote::denote_closed_query(q, &p.env, &mut gen) {
                    interner.intern(&normalization_input(&e, &mut gen));
                }
            }
            interner.snapshot()
        });
        let mut planner = dopcert::Planner::with_cache(NormCache::new(), ProveOptions::default());
        planner.set_mined_rules(Some(Arc::clone(&p.mined)));
        for q in queries {
            ledger.time("optimize", || planner.optimize(q, &p.env, &stats).is_ok());
        }
    }
}

/// Replays the optimizer's stages one public call at a time: typing,
/// denotation, normalization, saturation with the mined catalog,
/// extraction, readback, CQ core minimization, and certification of
/// the extracted plan (tactics, saturation where they fail).
fn replay_stages(p: &Prepared, batches: &[Vec<Query>], ledger: &mut Ledger, out: &mut Outcome) {
    let model = StatsCost::new(&Statistics::new());
    let budget = Budget::default();
    let (mut tried, mut closed) = (0usize, 0usize);
    for queries in batches {
        let mut cache = NormCache::new();
        for q in queries {
            if ledger
                .time("typecheck", || {
                    hottsql::ty::infer_query(q, &p.env, &Schema::Empty)
                })
                .is_err()
            {
                out.wrong.push(format!("query does not type: {q}"));
                continue;
            }
            let mut gen = VarGen::new();
            let Ok((t, e)) = ledger.time("denote", || {
                hottsql::denote::denote_closed_query(q, &p.env, &mut gen)
            }) else {
                out.wrong.push(format!("query does not denote: {q}"));
                continue;
            };
            let nf = ledger.time("normalize", || {
                normalize_with_cache(&e, &mut gen, &mut Trace::new(), &mut cache)
            });
            let mut solver = Solver::new(budget);
            solver.set_mined_rules(Arc::clone(&p.mined));
            let root = ledger.time("saturate", || {
                let root = solver.seed_expr(&nf.reify());
                solver.saturate();
                root
            });
            let best = ledger.time("extract", || solver.extract_best(root, &model));
            let plan = best.and_then(|(_, best)| {
                ledger.time("readback", || {
                    gen.reserve_above(best.max_var_id());
                    let nf = normalize(&best, &mut gen, &mut Trace::new());
                    hottsql::readback::query_of_spnf(&nf, &t, &p.env)
                })
            });
            if let Some(cq0) = cq::translate::from_query(q, &p.env) {
                ledger.time("cq-minimize", || cq::minimize::minimize(&cq0));
            }
            let Some(plan) = plan else { continue };
            let mut cgen = VarGen::new();
            let Ok((ct, el)) = hottsql::denote::denote_closed_query(q, &p.env, &mut cgen) else {
                continue;
            };
            let Ok(er) = hottsql::denote::denote_query(
                &plan,
                &p.env,
                &Schema::Empty,
                &uninomial::Term::Unit,
                &uninomial::Term::var(&ct),
                &mut cgen,
            ) else {
                continue;
            };
            tried += 1;
            let tactic = ledger.time("tactics", || {
                uninomial::prove::prove_eq_cached(&el, &er, &[], &mut cgen, &mut cache)
            });
            if tactic.is_ok() {
                closed += 1;
            } else {
                ledger.time("saturate", || {
                    egraph::prove_eq_saturate_cached(&el, &er, &[], &mut cgen, &mut cache, budget)
                        .is_ok()
                });
            }
        }
    }
    out.set_opt(
        "uninomial.tactics_closed_ratio",
        stats::ratio(closed as f64, tried as f64),
        tried,
    );
}

/// Replays `mine::mine` stage by stage through the crate's public
/// functions: the corpus, discovery in one shared session (the budget
/// the miner uses), anti-unification of every discovered pair with
/// every other plus the ground candidates, screening and
/// certification. Checks that it accepts as many rules as the miner.
fn mine_stages(out: &mut Outcome) {
    let cfg = mine::MineConfig::default();
    let mut ledger = Ledger::default();
    let pool = ledger.time("corpus", || mine::corpus::corpus(cfg.seed, cfg.atoms));
    let pairs = ledger.time("discover", || {
        let mut session = Session::with_batch_budget(
            Budget::new(3, 3_000),
            BatchBudget {
                max_total_iters: 3,
                max_nodes: 3_000,
                per_goal_iters: 3,
            },
        );
        for (i, e) in pool.iter().enumerate() {
            session.add_root(format!("c{i}"), e);
        }
        session.discovered_exprs()
    });
    let candidates = ledger.time("anti-unify", || {
        let mut seen = HashSet::new();
        let mut cands = Vec::new();
        for i in 0..pairs.len() {
            for j in (i + 1)..pairs.len() {
                if cands.len() >= cfg.max_candidates {
                    break;
                }
                if let Some(g) = mine::antiunify::anti_unify(&pairs[i], &pairs[j]) {
                    if seen.insert(mine::antiunify::canonical_key(
                        &g.candidate.lhs,
                        &g.candidate.rhs,
                    )) {
                        cands.push(g.candidate);
                    }
                }
            }
        }
        for pair in &pairs {
            if cands.len() >= cfg.max_candidates {
                break;
            }
            if let Some(c) = mine::antiunify::ground_candidate(pair) {
                if seen.insert(mine::antiunify::canonical_key(&c.lhs, &c.rhs)) {
                    cands.push(c);
                }
            }
        }
        cands
    });
    let mut screen_pool: Vec<_> = pool
        .iter()
        .filter(|e| mine::antiunify::size(e) <= 12)
        .cloned()
        .collect();
    if screen_pool.is_empty() {
        screen_pool = pool.clone();
    }
    let screen_cfg = mine::screen::ScreenConfig {
        trials: cfg.trials,
        seed: cfg.seed ^ 0x5C4E,
    };
    let (mut tried, mut accepted) = (0usize, 0usize);
    for cand in &candidates {
        if accepted >= cfg.max_rules {
            break;
        }
        tried += 1;
        if ledger
            .time("screen", || {
                mine::screen::screen(cand, &screen_pool, &screen_cfg)
            })
            .is_err()
        {
            continue;
        }
        if ledger
            .time("certify", || mine::certify::certify(&cand.lhs, &cand.rhs))
            .is_some()
        {
            accepted += 1;
        }
    }
    let mined = mine::mine(&cfg).rules.len();
    if accepted != mined {
        // The replay mirrors the miner's loop from outside; a mismatch
        // means the mirror is stale, not that a rule is wrong.
        eprintln!("perfbench: stage-by-stage mining accepted {accepted} rules, mine::mine {mined}");
    }
    for (metric, layer) in [
        ("mine.corpus_ms", "corpus"),
        ("mine.discover_ms", "discover"),
        ("mine.anti_unify_ms", "anti-unify"),
        ("mine.screen_ms", "screen"),
        ("mine.certify_ms", "certify"),
    ] {
        out.set_opt(metric, ledger.total_ms(layer), 1);
    }
    out.set("mine.candidates", candidates.len() as f64, 1);
    out.set_opt(
        "mine.accept_ratio",
        stats::ratio(accepted as f64, tried as f64),
        tried,
    );
}
