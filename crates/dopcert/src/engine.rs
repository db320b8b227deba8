//! The batch proving engine: verify, differentially test, and optimize
//! whole batches across CPU cores.
//!
//! - **Parallelism** — items are handed out by a shared atomic cursor
//!   (`std::thread`; the environment has no third-party crates), which
//!   balances few, coarse, unevenly sized tasks dynamically. A batch on
//!   `n` threads spawns `n − 1` scoped workers and runs the last worker
//!   on the calling thread, which would otherwise only wait. There is no
//!   serial prologue: every worker starts from an empty
//!   [`NormCache`](uninomial::NormCache) and interns as it goes.
//! - **Each distinct item once** — [`Engine::prove_pairs`] and
//!   [`Engine::optimize_batch`] group identical items before dispatch,
//!   hand only the distinct ones to the workers, and copy each result
//!   into every slot that holds the same item. A session's answer on a
//!   repeat is byte-identical to a fresh derivation, so the copy changes
//!   no verdict, method, step count, plan, or certificate.
//! - **Per-worker state** — each worker keeps ONE persistent state value
//!   for every item it claims (an [`api::Prover`](crate::api::Prover)
//!   for proving, an [`api::Planner`](crate::api::Planner) for
//!   optimizing — each owning its normalization cache and, unless
//!   `prove.session` is off, its session): structurally shared subterms
//!   normalize once per worker, and every saturation goal seeds the
//!   session's multi-seed e-graph. Session answers are byte-identical to
//!   fresh-solver mode by construction.
//!
//! Determinism: every prove call creates its own
//! [`VarGen`](uninomial::VarGen), exactly as on the sequential path, and
//! reports are returned **in input order** regardless of which worker
//! finished when. `prove_catalog` is observationally identical to the
//! sequential loop — same verdicts, methods, and step counts (wall-clock
//! fields excepted) — which `tests/engine.rs` asserts for the full
//! catalog at several thread counts.

use crate::api::{Planner, Prover};
use crate::difftest::{differential_test, DiffOutcome};
use crate::prove::{ProveOptions, RuleReport, VerifyMethod};
use crate::rule::{Rule, RuleInstance};
use hottsql::ast::Query;
use hottsql::env::QueryEnv;
use optimizer::{OptimizeError, OptimizeReport};
use relalg::stats::Statistics;
use std::collections::HashMap;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning for the batch engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads. Defaults to the machine's available parallelism.
    pub threads: NonZeroUsize,
    /// Verification options for every rule: by default the tactics run
    /// first and equality saturation is the fallback when they fail,
    /// reported as the distinct [`crate::prove::VerifyMethod::Saturation`].
    pub prove: ProveOptions,
    /// Mined rewrite rules for every worker's plan search
    /// (`--mined-rules`). `None` (the default) keeps optimization
    /// bit-identical to a build without the mining subsystem.
    pub mined: Option<Arc<Vec<egraph::MinedRule>>>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            threads: std::thread::available_parallelism()
                .unwrap_or(NonZeroUsize::new(1).expect("1 is nonzero")),
            prove: ProveOptions::default(),
            mined: None,
        }
    }
}

impl EngineConfig {
    /// A config with an explicit worker count.
    pub fn with_threads(threads: usize) -> EngineConfig {
        EngineConfig {
            threads: NonZeroUsize::new(threads.max(1)).expect("clamped to >= 1"),
            ..EngineConfig::default()
        }
    }
}

/// The batch proving engine. Construction is cheap; all per-batch state
/// lives in the workers of one call.
#[derive(Clone, Debug, Default)]
pub struct Engine {
    config: EngineConfig,
}

/// Outcome of one goal in a [`Engine::prove_pairs`] batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairReport {
    /// Whether the pair was proved equivalent.
    pub proved: bool,
    /// The successful method, if any.
    pub method: Option<VerifyMethod>,
    /// Proof-trace length (0 when unproved).
    pub steps: usize,
}

impl Engine {
    /// An engine with default configuration (all cores).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Engine {
        Engine { config }
    }

    /// An engine with an explicit worker count.
    pub fn with_threads(threads: usize) -> Engine {
        Engine::with_config(EngineConfig::with_threads(threads))
    }

    /// An engine with explicit verification options (all cores).
    pub fn with_prove_options(prove: ProveOptions) -> Engine {
        Engine::with_config(EngineConfig {
            prove,
            ..EngineConfig::default()
        })
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.config.threads.get()
    }

    /// Proves every rule of the catalog in parallel, returning reports
    /// in catalog order. Verdicts, methods, and step counts are
    /// identical to running [`crate::api::prove_rule`] sequentially.
    /// Each worker is one [`crate::api::Prover`] for every rule it
    /// claims — normalization cache plus (unless `prove.session` is
    /// off) the persistent session with memoized verdicts and the
    /// multi-seed discovery graph — with answers byte-identical to the
    /// sessionless path.
    pub fn prove_catalog(&self, rules: &[Rule]) -> Vec<RuleReport> {
        let opts = self.config.prove;
        self.par_map(
            rules,
            || Prover::new(opts),
            |rule, prover| prover.prove_rule(rule),
        )
    }

    /// Differentially tests every rule in parallel (`trials` random
    /// instances each), returning `(name, outcome)` in catalog order.
    pub fn difftest_catalog(
        &self,
        rules: &[Rule],
        trials: usize,
        base_seed: u64,
    ) -> Vec<(String, DiffOutcome)> {
        self.par_map(
            rules,
            || (),
            |rule, ()| {
                (
                    rule.name.to_owned(),
                    differential_test(rule, trials, base_seed),
                )
            },
        )
    }

    /// The full catalog check the CLI runs: each rule passes when the
    /// prover's verdict matches its expected soundness; an unsound rule
    /// the prover *wrongly accepts* can still pass via the fallback —
    /// differential testing refuting it with a concrete counterexample
    /// (the same acceptance condition as the old sequential
    /// `script::run_catalog` loop this replaces). Returns
    /// `(name, passed)` in catalog order.
    pub fn check_catalog(&self, rules: &[Rule]) -> Vec<(String, bool)> {
        let opts = self.config.prove;
        self.par_map(
            rules,
            || Prover::new(opts),
            |rule, prover| {
                let report = prover.prove_rule(rule);
                let ok = report.proved == rule.expected_sound
                    || (!rule.expected_sound
                        && matches!(differential_test(rule, 200, 0xC11), DiffOutcome::Refuted(_)));
                (rule.name.to_owned(), ok)
            },
        )
    }

    /// Optimizes a batch of closed queries in parallel with the
    /// certified optimizer, returning reports in input order. Budget
    /// comes from the engine's prove options; each distinct query is
    /// optimized once by one worker's [`crate::api::Planner`], and
    /// reports are identical to calling [`optimizer::optimize()`]
    /// sequentially on fresh state.
    pub fn optimize_batch(
        &self,
        env: &QueryEnv,
        stats: &Statistics,
        queries: &[Query],
    ) -> Vec<Result<OptimizeReport, OptimizeError>> {
        let opts = self.config.prove;
        let mined = self.config.mined.clone();
        self.par_map_distinct(
            queries,
            || {
                let mut planner = Planner::new(opts);
                planner.set_mined_rules(mined.clone());
                planner
            },
            |q, planner| planner.optimize(q, env, stats),
        )
    }

    /// Batch-proves arbitrary query pairs in parallel — the traffic-
    /// scale entry point behind the `session_vs_fresh` BENCH series.
    /// Each distinct pair is verified once by one worker's
    /// [`crate::api::Prover`]; reports land in input order and are
    /// identical to verifying each pair alone.
    pub fn prove_pairs(&self, env: &QueryEnv, pairs: &[(Query, Query)]) -> Vec<PairReport> {
        let opts = self.config.prove;
        self.par_map_distinct(
            pairs,
            || Prover::new(opts),
            |(l, r), prover| {
                let inst = RuleInstance::plain(env.clone(), l.clone(), r.clone());
                match prover.verify_instance(&inst) {
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
            },
        )
    }

    /// [`Engine::par_map`] over the distinct items only: identical items
    /// are grouped before dispatch, each group's first occurrence is
    /// computed once, and its result is copied into every slot of the
    /// group, in input order. Sound whenever `f` answers a repeat
    /// exactly as it answered the first occurrence — which the session
    /// memo already guarantees.
    fn par_map_distinct<T, S, R, F, M>(&self, items: &[T], mk_state: M, f: F) -> Vec<R>
    where
        T: Hash + Eq + Sync,
        R: Clone + Send,
        M: Fn() -> S + Sync,
        F: Fn(&T, &mut S) -> R + Sync,
    {
        let mut first: HashMap<&T, usize> = HashMap::new();
        let mut distinct: Vec<&T> = Vec::new();
        let group: Vec<usize> = items
            .iter()
            .map(|item| {
                *first.entry(item).or_insert_with(|| {
                    distinct.push(item);
                    distinct.len() - 1
                })
            })
            .collect();
        let results = self.par_map(&distinct, mk_state, |item, state| f(item, state));
        group.into_iter().map(|g| results[g].clone()).collect()
    }

    /// Order-preserving parallel map over a work list: a shared atomic
    /// cursor hands out indices, each worker builds ONE state value
    /// (`mk_state` — an [`api::Prover`](crate::api::Prover), an
    /// [`api::Planner`](crate::api::Planner), or `()` for cache-free
    /// work) and keeps it for every item it claims, and results land in
    /// their input slots. Of the `threads` workers, `threads − 1` are
    /// spawned; the last one runs on the calling thread.
    fn par_map<T, S, R, F, M>(&self, items: &[T], mk_state: M, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        M: Fn() -> S + Sync,
        F: Fn(&T, &mut S) -> R + Sync,
    {
        let threads = self.threads().min(items.len()).max(1);
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
        let worker = || {
            let mut state = mk_state();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item, &mut state);
                slots.lock().expect("no poisoned workers")[i] = Some(result);
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(worker);
            }
            worker();
        });
        slots
            .into_inner()
            .expect("scope joined all workers")
            .into_iter()
            .map(|slot| slot.expect("every index was claimed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn single_threaded_engine_matches_sequential_prover() {
        let rules = catalog::sound_rules();
        let engine = Engine::with_threads(1);
        let parallel = engine.prove_catalog(&rules);
        assert_eq!(parallel.len(), rules.len());
        for (rule, report) in rules.iter().zip(&parallel) {
            let sequential = crate::api::prove_rule(rule);
            assert_eq!(report.name, sequential.name);
            assert_eq!(report.proved, sequential.proved, "{}", rule.name);
            assert_eq!(report.method, sequential.method, "{}", rule.name);
            assert_eq!(report.steps, sequential.steps, "{}", rule.name);
        }
    }

    #[test]
    fn thread_count_clamps_to_at_least_one() {
        let engine = Engine::with_threads(0);
        assert_eq!(engine.threads(), 1);
    }

    #[test]
    fn difftest_catalog_preserves_order() {
        let rules: Vec<Rule> = catalog::sound_rules().into_iter().take(4).collect();
        let engine = Engine::with_threads(4);
        let outcomes = engine.difftest_catalog(&rules, 8, 0xDA7A);
        assert_eq!(outcomes.len(), 4);
        for (rule, (name, outcome)) in rules.iter().zip(&outcomes) {
            assert_eq!(rule.name, name);
            assert!(outcome.agreed(), "{name}: {outcome:?}");
        }
    }
}
