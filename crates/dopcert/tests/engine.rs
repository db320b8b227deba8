//! The acceptance gate for the batch engine: parallel catalog proving
//! must be observationally identical to the sequential loop, across the
//! full catalog (sound rules, extension rules, unsound rules, and the
//! conjunctive-query instances that take the decision-procedure path);
//! and a batch with repeated items must answer each distinct item once
//! while returning, slot for slot, what verifying or optimizing each
//! item alone returns.

use dopcert::api::{prove_rule, Prover};
use dopcert::engine::{Engine, PairReport};
use dopcert::prove::ProveOptions;
use dopcert::rule::RuleInstance;
use dopcert::{catalog, RuleReport};
use hottsql::ast::Query;
use hottsql::env::QueryEnv;
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

/// Tests in one binary run on parallel threads and the telemetry state
/// is process-wide: every test that runs the engine holds this, so the
/// one that counts memo misses sees only its own batch.
fn exclusive() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn key(r: &RuleReport) -> (String, bool, String, usize) {
    (
        r.name.to_owned(),
        r.proved,
        r.method.map(|m| m.to_string()).unwrap_or_default(),
        r.steps,
    )
}

#[test]
fn parallel_prove_catalog_equals_sequential_on_full_catalog() {
    let _guard = exclusive();
    let rules = catalog::all_rules();
    let sequential: Vec<_> = rules.iter().map(prove_rule).map(|r| key(&r)).collect();
    for threads in [1, 2, 4, 8] {
        let engine = Engine::with_threads(threads);
        let parallel: Vec<_> = engine.prove_catalog(&rules).iter().map(key).collect();
        assert_eq!(
            parallel, sequential,
            "{threads}-thread engine diverged from the sequential path"
        );
    }
}

#[test]
fn parallel_prove_catalog_is_deterministic_across_runs() {
    let _guard = exclusive();
    let rules = catalog::sound_rules();
    let engine = Engine::with_threads(4);
    let first: Vec<_> = engine.prove_catalog(&rules).iter().map(key).collect();
    let second: Vec<_> = engine.prove_catalog(&rules).iter().map(key).collect();
    assert_eq!(first, second);
}

#[test]
fn parallel_check_catalog_accepts_sound_and_rejects_unsound() {
    let _guard = exclusive();
    let engine = Engine::new();
    let results = engine.check_catalog(&catalog::all_rules());
    let failures: Vec<&str> = results
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        failures.is_empty(),
        "catalog check failed for: {failures:?}"
    );
    // Order must be catalog order.
    let names: Vec<&str> = results.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = catalog::all_rules().iter().map(|r| r.name).collect();
    assert_eq!(names, expected);
}

#[test]
fn engine_difftest_matches_direct_difftest_verdicts() {
    let _guard = exclusive();
    let rules = catalog::unsound_rules();
    let engine = Engine::with_threads(4);
    let outcomes = engine.difftest_catalog(&rules, 200, 0x5EED);
    for (rule, (name, outcome)) in rules.iter().zip(&outcomes) {
        assert_eq!(rule.name, name);
        assert!(
            matches!(outcome, dopcert::difftest::DiffOutcome::Refuted(_)),
            "unsound rule {name} not refuted by the engine path: {outcome:?}"
        );
    }
}

/// A seeded goal list with repeats: `goals` draws from a pool of
/// generated equivalent CQ pairs rendered as queries, plus one
/// inequivalent cross pair (the first pair's left side against the
/// second pair's right side) posed twice.
fn repeating_goals(seed: u64, goals: usize, pool: usize) -> (QueryEnv, Vec<(Query, Query)>) {
    use relalg::{BaseType, Schema};
    let binary = Schema::flat([BaseType::Int, BaseType::Int]);
    let env = QueryEnv::new()
        .with_table("R", binary.clone())
        .with_table("S", binary.clone())
        .with_table("T", binary);
    let base: Vec<(Query, Query)> = cq::generate::equivalent_pairs(seed, pool)
        .into_iter()
        .filter_map(|(a, b)| {
            Some((
                cq::translate::to_query(&a, &env)?,
                cq::translate::to_query(&b, &env)?,
            ))
        })
        .collect();
    assert!(base.len() >= 2, "pool must render at least two pairs");
    let mut out = Vec::with_capacity(goals + 2);
    let mut state = seed | 1;
    for _ in 0..goals {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.push(base[(state >> 33) as usize % base.len()].clone());
    }
    let cross = (base[0].0.clone(), base[1].1.clone());
    out.insert(goals / 3, cross.clone());
    out.push(cross);
    (env, out)
}

fn distinct_count<T: std::hash::Hash + Eq>(items: &[T]) -> usize {
    items.iter().collect::<HashSet<_>>().len()
}

#[test]
fn prove_pairs_with_repeats_equals_verifying_each_goal_alone() {
    let _guard = exclusive();
    let (env, pairs) = repeating_goals(0xD15C, 40, 8);
    assert!(distinct_count(&pairs) < pairs.len(), "corpus must repeat");
    let alone: Vec<PairReport> = pairs
        .iter()
        .map(|(l, r)| {
            let inst = RuleInstance::plain(env.clone(), l.clone(), r.clone());
            match Prover::new(ProveOptions::default()).verify_instance(&inst) {
                Ok((method, steps, _)) => PairReport {
                    proved: true,
                    method: Some(method),
                    steps,
                },
                Err(_) => PairReport {
                    proved: false,
                    method: None,
                    steps: 0,
                },
            }
        })
        .collect();
    assert!(
        alone.iter().any(|r| !r.proved),
        "the cross pair stays unproved"
    );
    for threads in [2, 4] {
        let batch = Engine::with_threads(threads).prove_pairs(&env, &pairs);
        assert_eq!(batch, alone, "{threads} threads: reports or order diverged");
    }
}

#[test]
fn prove_pairs_misses_the_verdict_memo_once_per_distinct_goal() {
    let _guard = exclusive();
    let (env, pairs) = repeating_goals(0xD15C, 40, 8);
    let distinct = distinct_count(&pairs) as u64;
    for threads in [2, 4] {
        telemetry::disable();
        telemetry::reset();
        telemetry::enable();
        Engine::with_threads(threads).prove_pairs(&env, &pairs);
        let snap = telemetry::snapshot();
        telemetry::disable();
        telemetry::reset();
        assert_eq!(
            snap.counter("memo.verdict.miss"),
            distinct,
            "{threads} threads: every distinct goal is derived exactly once"
        );
        assert_eq!(
            snap.counter("memo.verdict.hit"),
            0,
            "{threads} threads: repeats never reach a worker"
        );
    }
}

#[test]
fn optimize_batch_answers_a_repeated_query_identically_in_every_slot() {
    use optimizer::{optimize, OptimizeOptions, PlanCtx};
    use relalg::stats::Statistics;
    let _guard = exclusive();
    let (env, pairs) = repeating_goals(0x0971CA, 6, 6);
    let mut queries: Vec<Query> = pairs.iter().map(|(a, _)| a.clone()).collect();
    queries.push(queries[0].clone());
    let stats = Statistics::new().with_rows("R", 1e5).with_rows("S", 2e4);
    let opts = OptimizeOptions::default();
    for threads in [2, 4] {
        let reports = Engine::with_threads(threads).optimize_batch(&env, &stats, &queries);
        assert_eq!(reports.len(), queries.len());
        let reports: Vec<_> = reports
            .into_iter()
            .map(|r| r.expect("corpus optimizes"))
            .collect();
        for (q, r) in queries.iter().zip(&reports) {
            assert_eq!(&r.input, q, "{threads} threads: input order");
            let alone = optimize(q, &env, &stats, opts, PlanCtx::default()).expect("optimizes");
            assert_eq!(r.output, alone.output, "{q}");
            assert_eq!(r.route, alone.route, "{q}");
            assert_eq!(r.cost_after, alone.cost_after, "{q}");
            assert_eq!(
                r.certificate.trace.steps(),
                alone.certificate.trace.steps(),
                "{q}"
            );
            assert!(
                r.certificate.replay(&r.input, &r.output, &env, opts.budget),
                "{q}: certificate does not replay"
            );
        }
        // Every slot holding the same query carries the same report.
        for (i, q) in queries.iter().enumerate() {
            let first = queries.iter().position(|p| p == q).expect("present");
            assert_eq!(
                format!("{:?}", reports[i]),
                format!("{:?}", reports[first]),
                "{threads} threads: slots {first} and {i} differ"
            );
        }
    }
}
