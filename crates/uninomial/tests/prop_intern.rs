//! Property-based validation of the hash-consed core: interning must
//! round-trip exactly, cached analyses must agree with the tree
//! computations, and the memoizing normalizer must be observationally
//! identical to the tree normalizer — same normal form, same trace —
//! even when one cache is shared across many expressions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relalg::{BaseType, Schema};
use uninomial::normalize::{normalize, normalize_with_cache, NormCache, Trace};
use uninomial::syntax::intern::Interner;
use uninomial::syntax::{Term, UExpr, Var, VarGen};

/// Random well-scoped UniNomial expressions (same shape as the
/// generator in `prop_normalize.rs`, plus aggregate terms so the
/// binder-detection logic is exercised).
struct ExprGen {
    rng: StdRng,
    gen: VarGen,
}

impl ExprGen {
    fn new(seed: u64) -> ExprGen {
        ExprGen {
            rng: StdRng::seed_from_u64(seed),
            gen: VarGen::new(),
        }
    }

    fn schema(&mut self) -> Schema {
        if self.rng.gen_bool(0.7) {
            Schema::leaf(BaseType::Int)
        } else {
            Schema::node(Schema::leaf(BaseType::Int), Schema::leaf(BaseType::Int))
        }
    }

    fn term(&mut self, scope: &[Var], depth: usize) -> Term {
        let leafy: Vec<&Var> = scope
            .iter()
            .filter(|v| matches!(v.schema, Schema::Leaf(_)))
            .collect();
        match self.rng.gen_range(0..7) {
            0 if depth > 0 => Term::func("f", vec![self.term(scope, depth - 1)]),
            1 if depth > 0 => {
                let v = self.gen.fresh(Schema::leaf(BaseType::Int));
                let body = UExpr::rel("R", Term::var(&v));
                Term::agg("SUM", v, body)
            }
            2 => Term::int(self.rng.gen_range(-2..=2)),
            _ if !leafy.is_empty() => Term::var(leafy[self.rng.gen_range(0..leafy.len())]),
            _ => Term::int(self.rng.gen_range(-2..=2)),
        }
    }

    fn expr(&mut self, scope: &[Var], depth: usize) -> UExpr {
        if depth == 0 {
            return self.atom(scope);
        }
        match self.rng.gen_range(0..9) {
            0 => UExpr::add(self.expr(scope, depth - 1), self.expr(scope, depth - 1)),
            1 => UExpr::mul(self.expr(scope, depth - 1), self.expr(scope, depth - 1)),
            2 => UExpr::not(self.expr(scope, depth - 1)),
            3 => UExpr::squash(self.expr(scope, depth - 1)),
            4 | 5 => {
                let schema = self.schema();
                let v = self.gen.fresh(schema);
                let mut inner = scope.to_vec();
                inner.push(v.clone());
                let body = UExpr::mul(
                    UExpr::rel(
                        if self.rng.gen_bool(0.5) { "R" } else { "S" },
                        Term::var(&v),
                    ),
                    self.expr(&inner, depth - 1),
                );
                UExpr::sum(v, body)
            }
            6 => {
                // Deliberately duplicated subtree: the memoizer's bread
                // and butter.
                let shared = self.expr(scope, depth - 1);
                UExpr::mul(shared.clone(), shared)
            }
            _ => self.atom(scope),
        }
    }

    fn atom(&mut self, scope: &[Var]) -> UExpr {
        match self.rng.gen_range(0..5) {
            0 => UExpr::One,
            1 => UExpr::Zero,
            2 => UExpr::eq(self.term(scope, 1), self.term(scope, 1)),
            3 => UExpr::pred("b", self.term(scope, 1)),
            _ => {
                let t = self.term(scope, 0);
                UExpr::rel("R", t)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn intern_extract_roundtrips(seed in 0u64..1_000_000) {
        let mut eg = ExprGen::new(seed);
        let scope = eg.gen.fresh(Schema::leaf(BaseType::Int));
        let e = eg.expr(&[scope], 3);
        let mut interner = Interner::new();
        let id = interner.intern(&e);
        prop_assert_eq!(interner.extract(id), e.clone());
        // Re-interning the extracted tree is the identity on ids.
        let extracted = interner.extract(id);
        prop_assert_eq!(interner.intern(&extracted), id);
        // Cached analyses agree with the tree computations.
        prop_assert_eq!(interner.free_vars(id), &e.free_vars());
    }

    #[test]
    fn term_intern_roundtrips(seed in 0u64..1_000_000) {
        let mut eg = ExprGen::new(seed);
        let scope = eg.gen.fresh(Schema::leaf(BaseType::Int));
        let t = eg.term(&[scope], 3);
        let mut interner = Interner::new();
        let id = interner.intern_term(&t);
        prop_assert_eq!(interner.extract_term(id), t.clone());
        prop_assert_eq!(interner.term_free_vars(id), &t.free_vars());
    }

    #[test]
    fn memoized_normalization_matches_tree_normalizer(seed in 0u64..200_000) {
        let mut eg = ExprGen::new(seed);
        let scope = eg.gen.fresh(Schema::leaf(BaseType::Int));
        let e = eg.expr(&[scope], 3);

        // Tree path.
        let mut gen_tree = VarGen::new();
        gen_tree.reserve_above(e.max_var_id());
        let mut trace_tree = Trace::new();
        let nf_tree = normalize(&e, &mut gen_tree, &mut trace_tree);

        // Memoized path, twice over the same cache: the second run is
        // all hits and must still replay identically.
        let mut cache = NormCache::new();
        for round in 0..2 {
            let mut gen_memo = VarGen::new();
            gen_memo.reserve_above(e.max_var_id());
            let mut trace_memo = Trace::new();
            let nf_memo = normalize_with_cache(&e, &mut gen_memo, &mut trace_memo, &mut cache);
            prop_assert_eq!(
                &nf_memo, &nf_tree,
                "round {}: memoized NF diverged for {}", round, e
            );
            prop_assert_eq!(
                trace_memo.steps(), trace_tree.steps(),
                "round {}: memoized trace diverged for {}", round, e
            );
        }
    }
}

#[test]
fn shared_cache_across_goals_is_consistent_and_hits() {
    // One cache over many expressions drawn from overlapping generators:
    // results must stay identical to the tree normalizer and the memo
    // table must actually get hits (the engine's usage pattern).
    let mut cache = NormCache::new();
    let mut total_hits = 0;
    for seed in 0..120u64 {
        let mut eg = ExprGen::new(seed % 17); // overlapping seeds → shared structure
        let scope = eg.gen.fresh(Schema::leaf(BaseType::Int));
        let e = eg.expr(&[scope], 3);

        let mut gen_tree = VarGen::new();
        gen_tree.reserve_above(e.max_var_id());
        let mut tr_tree = Trace::new();
        let nf_tree = normalize(&e, &mut gen_tree, &mut tr_tree);

        let mut gen_memo = VarGen::new();
        gen_memo.reserve_above(e.max_var_id());
        let mut tr_memo = Trace::new();
        let nf_memo = normalize_with_cache(&e, &mut gen_memo, &mut tr_memo, &mut cache);

        assert_eq!(nf_memo, nf_tree, "seed {seed}: {e}");
        assert_eq!(tr_memo.steps(), tr_tree.steps(), "seed {seed}: {e}");
        total_hits = cache.hits();
    }
    assert!(
        total_hits > 0,
        "expected memo hits across overlapping expressions"
    );
}

#[test]
fn cached_prover_agrees_with_uncached_prover() {
    use uninomial::prove::{prove_eq_cached, prove_eq_with_axioms};
    let mut cache = NormCache::new();
    for seed in 0..60u64 {
        let mut eg = ExprGen::new(seed);
        let scope = eg.gen.fresh(Schema::leaf(BaseType::Int));
        let a = eg.expr(std::slice::from_ref(&scope), 2);
        let b = eg.expr(&[scope], 2);

        let mut g1 = VarGen::new();
        g1.reserve_above(a.max_var_id().max(b.max_var_id()));
        let plain = prove_eq_with_axioms(&a, &b, &[], &mut g1);

        let mut g2 = VarGen::new();
        g2.reserve_above(a.max_var_id().max(b.max_var_id()));
        let cached = prove_eq_cached(&a, &b, &[], &mut g2, &mut cache);

        match (&plain, &cached) {
            (Ok(p), Ok(c)) => {
                assert_eq!(p.method(), c.method(), "seed {seed}");
                assert_eq!(p.steps(), c.steps(), "seed {seed}");
                assert_eq!(p.lhs_normal_form(), c.lhs_normal_form(), "seed {seed}");
                assert_eq!(p.rhs_normal_form(), c.rhs_normal_form(), "seed {seed}");
            }
            (Err(pe), Err(ce)) => {
                assert_eq!(pe.lhs_nf, ce.lhs_nf, "seed {seed}");
                assert_eq!(pe.rhs_nf, ce.rhs_nf, "seed {seed}");
            }
            _ => panic!(
                "seed {seed}: cached/uncached provers disagree on provability: {:?} vs {:?}",
                plain.is_ok(),
                cached.is_ok()
            ),
        }
    }
}
