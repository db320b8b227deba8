//! Proving rewrite rules: denotation plus tactic dispatch.
//!
//! For a conjunctive-query rule, the automated decision procedure
//! (Sec. 5.2) decides equivalence outright — "1 line of Coq" in Fig. 8,
//! zero manual steps here. Every other rule is denoted via Fig. 7 and
//! handed to the UniNomial provers with any declared axioms.

use crate::rule::{Category, Rule, RuleInstance};
use crate::session::ProveSession;
use egraph::solve::Budget;
use egraph::{prove_eq_saturate, prove_eq_saturate_cached, prove_eq_saturate_session};
use hottsql::denote::{denote_closed_query, denote_query};
use relalg::Schema;
use std::time::Instant;
use uninomial::normalize::NormCache;
use uninomial::prove::{prove_eq_cached, prove_eq_with_axioms, Method};
use uninomial::syntax::{Term, UExpr, VarGen};

/// How a rule was verified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyMethod {
    /// The conjunctive-query decision procedure (fully automatic).
    CqDecision,
    /// A UniNomial normalization-based tactic.
    Tactic(Method),
    /// Equality-saturation proof search (the `egraph` crate).
    Saturation,
}

impl std::fmt::Display for VerifyMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyMethod::CqDecision => write!(f, "decision procedure"),
            VerifyMethod::Tactic(m) => write!(f, "{m} tactic"),
            VerifyMethod::Saturation => write!(f, "saturation search"),
        }
    }
}

/// When the saturation tactic runs relative to the normalization-based
/// tactics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SaturateMode {
    /// Never saturate (the pre-saturation pipeline).
    Off,
    /// Try the tactics first; fall back to saturation when they fail.
    #[default]
    Fallback,
    /// Saturation only (the `--saturate` smoke mode): every non-CQ rule
    /// must fall to the generic search, no bespoke tactic involved.
    Only,
}

/// Verification options: saturation scheduling, budget, and whether
/// batch callers keep a persistent per-worker session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProveOptions {
    /// When to run the saturation tactic.
    pub saturate: SaturateMode,
    /// Saturation budget (iterations / e-nodes / oracle calls).
    pub budget: Budget,
    /// Whether batch callers (engine workers, scripts) keep one
    /// persistent [`ProveSession`](crate::session::ProveSession) across
    /// their goals (on by default; `--no-session` is the escape hatch
    /// and the differential baseline). Verdicts and traces are identical
    /// either way — the session only memoizes and discovers.
    pub session: bool,
}

impl Default for ProveOptions {
    fn default() -> ProveOptions {
        ProveOptions {
            saturate: SaturateMode::default(),
            budget: Budget::default(),
            session: true,
        }
    }
}

/// The result of attempting to verify one rule.
#[derive(Clone, Debug)]
pub struct RuleReport {
    /// Rule name.
    pub name: &'static str,
    /// Fig. 8 category.
    pub category: Category,
    /// Whether verification succeeded.
    pub proved: bool,
    /// The successful method, if any.
    pub method: Option<VerifyMethod>,
    /// Proof-trace length (the Fig. 8 "LOC" analog; 1 for the decision
    /// procedure, matching the paper's "1 (automatic)").
    pub steps: usize,
    /// Wall-clock verification time in microseconds.
    pub micros: u128,
    /// Every method attempted, in order (also populated on success).
    pub attempted: Vec<String>,
    /// Failure diagnostics when not proved: the attempted-method list,
    /// saturation budget status if saturation ran, and normal forms.
    pub failure: Option<String>,
}

/// Verifies a rule with the appropriate procedure (default options:
/// tactics with saturation fallback).
#[deprecated(note = "use `dopcert::api::prove_rule` (or an `api::Prover` for batches)")]
pub fn prove_rule(rule: &Rule) -> RuleReport {
    prove_rule_on(rule, None, None, ProveOptions::default())
}

/// [`api::prove_rule`](crate::api::prove_rule) with memoized
/// normalization through a reusable [`NormCache`].
#[deprecated(note = "use an `api::Prover` (it owns the cache)")]
pub fn prove_rule_cached(rule: &Rule, cache: &mut NormCache) -> RuleReport {
    prove_rule_on(rule, Some(cache), None, ProveOptions::default())
}

/// [`prove_rule_cached`] with explicit verification options.
#[deprecated(note = "use an `api::Prover` built with the options")]
#[allow(deprecated)]
pub fn prove_rule_with(rule: &Rule, cache: &mut NormCache, opts: ProveOptions) -> RuleReport {
    prove_rule_on(rule, Some(cache), None, opts)
}

/// [`prove_rule_with`] through a persistent per-worker
/// [`ProveSession`].
#[deprecated(note = "use an `api::Prover` (it owns the session)")]
#[allow(deprecated)]
pub fn prove_rule_session(
    rule: &Rule,
    cache: &mut NormCache,
    session: Option<&mut ProveSession>,
    opts: ProveOptions,
) -> RuleReport {
    prove_rule_on(rule, Some(cache), session, opts)
}

/// The one rule-verification pipeline all entry points share; which
/// state it runs on is the caller's choice ([`crate::api::Prover`]
/// makes it once, at construction). Verdict, method, and step count
/// are identical whatever state is supplied (property-tested); only
/// `micros` (wall clock) differs. Repeated goals are answered from the
/// session memo and every saturation goal feeds the session's
/// multi-seed discovery graph.
pub(crate) fn prove_rule_on(
    rule: &Rule,
    cache: Option<&mut NormCache>,
    session: Option<&mut ProveSession>,
    opts: ProveOptions,
) -> RuleReport {
    let start = Instant::now();
    let inst = rule.generic();
    // Conjunctive-query rules go to the decision procedure.
    if rule.category == Category::ConjunctiveQuery {
        let ok = decide_cq(&inst);
        return RuleReport {
            name: rule.name,
            category: rule.category,
            proved: ok == Some(true),
            method: ok.map(|_| VerifyMethod::CqDecision),
            steps: 1,
            micros: start.elapsed().as_micros(),
            attempted: vec!["decision procedure".into()],
            failure: match ok {
                Some(true) => None,
                Some(false) => Some("decision procedure: not equivalent".into()),
                None => Some("not in the conjunctive-query fragment".into()),
            },
        };
    }
    match verify_instance_session(&inst, cache, session, opts) {
        Ok((method, steps, attempted)) => RuleReport {
            name: rule.name,
            category: rule.category,
            proved: true,
            method: Some(method),
            steps,
            micros: start.elapsed().as_micros(),
            attempted,
            failure: None,
        },
        Err((msg, attempted)) => RuleReport {
            name: rule.name,
            category: rule.category,
            proved: false,
            method: None,
            steps: 0,
            micros: start.elapsed().as_micros(),
            failure: Some(format!("tried [{}]; {msg}", attempted.join(", "))),
            attempted,
        },
    }
}

/// Runs the CQ decision procedure on an instance. `None` when either
/// side is outside the fragment.
pub fn decide_cq(inst: &RuleInstance) -> Option<bool> {
    let l = cq::translate::from_query(&inst.lhs, &inst.env)?;
    let r = cq::translate::from_query(&inst.rhs, &inst.env)?;
    Some(cq::containment::equivalent_set(&l, &r))
}

/// Denotes both sides (same output tuple variable) and runs the tactic
/// pipeline; returns the method and trace length.
///
/// # Errors
///
/// Returns a diagnostic string (typing error or differing normal forms).
pub fn prove_instance(inst: &RuleInstance) -> Result<(Method, usize), String> {
    prove_instance_impl(inst, None)
}

/// Denotes both sides of an instance without proving anything — used by
/// the session's multi-seed discovery pass to seed every rule's sides.
///
/// Returns the [`VarGen`] alongside the denotations: its state matches
/// what [`prove_instance`] holds when it reaches normalization (same
/// fresh-variable stream, consumed in the same order), which lets a
/// caller reproduce the exact trees the prover interns.
///
/// # Errors
///
/// Returns the denotation diagnostic when either side fails Fig. 7.
pub fn denote_instance(inst: &RuleInstance) -> Result<(UExpr, UExpr, VarGen), String> {
    let mut gen = VarGen::new();
    let (t, el) =
        denote_closed_query(&inst.lhs, &inst.env, &mut gen).map_err(|e| format!("lhs: {e}"))?;
    let er = denote_query(
        &inst.rhs,
        &inst.env,
        &Schema::Empty,
        &Term::Unit,
        &Term::var(&t),
        &mut gen,
    )
    .map_err(|e| format!("rhs: {e}"))?;
    Ok((el, er, gen))
}

fn prove_instance_impl(
    inst: &RuleInstance,
    cache: Option<&mut NormCache>,
) -> Result<(Method, usize), String> {
    let opts = ProveOptions {
        saturate: SaturateMode::Off,
        ..ProveOptions::default()
    };
    match verify_instance(inst, cache, opts) {
        Ok((VerifyMethod::Tactic(m), steps, _)) => Ok((m, steps)),
        Ok((other, _, _)) => Err(format!("unexpected method {other}")),
        Err((msg, _)) => Err(msg),
    }
}

/// Denotes an instance and runs the configured verification pipeline.
/// On success returns the method, step count, and every method
/// attempted; on failure the diagnostic and the attempted list.
#[allow(clippy::type_complexity)] // (method, steps, attempts) / (diag, attempts)
pub fn verify_instance(
    inst: &RuleInstance,
    cache: Option<&mut NormCache>,
    opts: ProveOptions,
) -> Result<(VerifyMethod, usize, Vec<String>), (String, Vec<String>)> {
    verify_instance_session(inst, cache, None, opts)
}

/// [`verify_instance`] through a persistent per-worker
/// [`ProveSession`]. Axiom-free goals are answered from the session's
/// verdict memo when already seen (byte-identical by determinism of the
/// pipeline); misses run the ordinary pipeline — with the saturation
/// step routed through the session's goal memo and multi-seed graph —
/// and are recorded.
#[allow(clippy::type_complexity)] // same result shape as verify_instance
pub fn verify_instance_session(
    inst: &RuleInstance,
    cache: Option<&mut NormCache>,
    mut session: Option<&mut ProveSession>,
    opts: ProveOptions,
) -> Result<(VerifyMethod, usize, Vec<String>), (String, Vec<String>)> {
    let bail = |msg: String| (msg, Vec::new());
    // Query-level verdict memo: for axiom-free goals the whole pipeline
    // — denotation, typing, tactics, saturation — is a deterministic
    // function of (env, lhs, rhs), so a repeated query pair is answered
    // here, before the denote/infer work the denotation-keyed layer
    // below still pays.
    if let Some(session) = session.as_deref_mut() {
        if let Some(verdict) = session.lookup_query(inst, opts) {
            return verdict;
        }
    }
    let mut gen = VarGen::new();
    let (t, el) = denote_closed_query(&inst.lhs, &inst.env, &mut gen)
        .map_err(|e| bail(format!("lhs: {e}")))?;
    let er = denote_query(
        &inst.rhs,
        &inst.env,
        &Schema::Empty,
        &Term::Unit,
        &Term::var(&t),
        &mut gen,
    )
    .map_err(|e| bail(format!("rhs: {e}")))?;
    // Schemas of both sides must agree for the rule to be well-formed.
    let sl = hottsql::ty::infer_query(&inst.lhs, &inst.env, &Schema::Empty)
        .map_err(|e| bail(e.to_string()))?;
    let sr = hottsql::ty::infer_query(&inst.rhs, &inst.env, &Schema::Empty)
        .map_err(|e| bail(e.to_string()))?;
    if sl != sr {
        return Err(bail(format!("schema mismatch: {sl} vs {sr}")));
    }
    // Verdict memo: raw denotations are deterministic per query pair
    // (fresh `VarGen` each instance), so they key the whole pipeline.
    // Declared axioms are not part of the key — such goals bypass.
    let memoizable = inst.axioms.is_empty();
    if memoizable {
        if let Some(session) = session.as_deref_mut() {
            if let Some(verdict) = session.lookup(&el, &er, opts) {
                return verdict;
            }
        }
    }
    let verdict = verify_denoted(&el, &er, inst, &mut gen, cache, &mut session, opts);
    if memoizable {
        if let Some(session) = session {
            session.record(&el, &er, opts, verdict.clone());
            session.record_query(inst, opts, verdict.clone());
        }
    }
    verdict
}

/// The tactic/saturation pipeline over already-denoted sides.
#[allow(clippy::type_complexity)] // same result shape as verify_instance
fn verify_denoted(
    el: &UExpr,
    er: &UExpr,
    inst: &RuleInstance,
    gen: &mut VarGen,
    mut cache: Option<&mut NormCache>,
    session: &mut Option<&mut ProveSession>,
    opts: ProveOptions,
) -> Result<(VerifyMethod, usize, Vec<String>), (String, Vec<String>)> {
    let mut attempted: Vec<String> = Vec::new();
    let mut tactic_diag: Option<String> = None;
    if opts.saturate != SaturateMode::Only {
        attempted.extend(["syntactic", "equational", "deductive"].map(String::from));
        let outcome = match cache.as_deref_mut() {
            Some(cache) => prove_eq_cached(el, er, &inst.axioms, gen, cache),
            None => prove_eq_with_axioms(el, er, &inst.axioms, gen),
        };
        match outcome {
            Ok(proof) => {
                return Ok((
                    VerifyMethod::Tactic(proof.method()),
                    proof.steps(),
                    attempted,
                ))
            }
            Err(e) => tactic_diag = Some(e.to_string()),
        }
    }
    if opts.saturate != SaturateMode::Off {
        attempted.push(format!(
            "saturation (≤{} iters, ≤{} nodes)",
            opts.budget.max_iters, opts.budget.max_nodes
        ));
        let outcome = match (cache, session.as_deref_mut()) {
            (Some(cache), Some(session)) => {
                prove_eq_saturate_session(el, er, &inst.axioms, gen, cache, &mut session.sat)
            }
            (Some(cache), None) => {
                prove_eq_saturate_cached(el, er, &inst.axioms, gen, cache, opts.budget)
            }
            (None, _) => prove_eq_saturate(el, er, &inst.axioms, gen, opts.budget),
        };
        match outcome {
            Ok(proof) => return Ok((VerifyMethod::Saturation, proof.steps(), attempted)),
            Err(sat) => {
                let mut msg = sat.to_string();
                if let Some(diag) = tactic_diag {
                    msg = format!("{diag}; saturation: {msg}");
                }
                return Err((msg, attempted));
            }
        }
    }
    Err((
        tactic_diag.unwrap_or_else(|| "no verification method enabled".into()),
        attempted,
    ))
}

/// A Fig. 8 table row: per-category counts and average proof steps.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig8Row {
    /// Category name.
    pub category: Category,
    /// Number of rules proved.
    pub proved: usize,
    /// Number of rules attempted.
    pub total: usize,
    /// Average trace steps over proved rules.
    pub avg_steps: f64,
    /// Average proof time in microseconds over proved rules.
    pub avg_micros: f64,
}

/// Computes the Fig. 8 table from a set of reports.
pub fn fig8_table(reports: &[RuleReport]) -> Vec<Fig8Row> {
    Category::FIG8
        .iter()
        .map(|&category| {
            let rows: Vec<&RuleReport> =
                reports.iter().filter(|r| r.category == category).collect();
            let proved: Vec<&&RuleReport> = rows.iter().filter(|r| r.proved).collect();
            let avg = |f: &dyn Fn(&RuleReport) -> f64| -> f64 {
                if proved.is_empty() {
                    0.0
                } else {
                    proved.iter().map(|r| f(r)).sum::<f64>() / proved.len() as f64
                }
            };
            Fig8Row {
                category,
                proved: proved.len(),
                total: rows.len(),
                avg_steps: avg(&|r| r.steps as f64),
                avg_micros: avg(&|r| r.micros as f64),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{RuleInstance, SchemaSource};
    use hottsql::ast::{Predicate, Query};
    use hottsql::env::QueryEnv;

    fn fig1(src: &mut dyn SchemaSource) -> RuleInstance {
        let sigma = src.schema("sigma");
        let pred_ctx = Schema::node(Schema::Empty, sigma.clone());
        let env = QueryEnv::new()
            .with_table("R", sigma.clone())
            .with_table("S", sigma)
            .with_pred("b", pred_ctx);
        let lhs = Query::where_(
            Query::union_all(Query::table("R"), Query::table("S")),
            Predicate::var("b"),
        );
        let rhs = Query::union_all(
            Query::where_(Query::table("R"), Predicate::var("b")),
            Query::where_(Query::table("S"), Predicate::var("b")),
        );
        RuleInstance::plain(env, lhs, rhs)
    }

    #[test]
    fn fig1_proves() {
        let rule = Rule {
            name: "fig1",
            category: Category::Basic,
            description: "Fig. 1",
            build: fig1,
            expected_sound: true,
        };
        let report = crate::api::prove_rule(&rule);
        assert!(report.proved, "{:?}", report.failure);
        assert!(report.steps >= 1);
    }

    #[test]
    fn schema_mismatch_is_reported() {
        fn bad(src: &mut dyn SchemaSource) -> RuleInstance {
            let sigma = src.schema("s");
            let env = QueryEnv::new()
                .with_table("R", sigma.clone())
                .with_table("S", Schema::node(sigma.clone(), sigma));
            RuleInstance::plain(env, Query::table("R"), Query::table("S"))
        }
        let rule = Rule {
            name: "bad",
            category: Category::Basic,
            description: "ill-formed",
            build: bad,
            expected_sound: false,
        };
        let report = crate::api::prove_rule(&rule);
        assert!(!report.proved);
        assert!(report.failure.unwrap().contains("schema mismatch"));
    }

    #[test]
    fn fig8_aggregation_of_empty_is_zeroes() {
        let rows = fig8_table(&[]);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.total == 0));
    }
}
