//! UniNomial: the algebra of univalent types (Definition 3.1) and the
//! provers built on it.
//!
//! The paper denotes every HoTTSQL query into *UniNomial* — formal
//! expressions over the structure `(U, 0, 1, +, ×, ·→0, ‖·‖, Σ)` where
//! `U` is the universe of univalent types. A relation is a function
//! `Tuple σ → U`; equivalence of two queries is equality of the denoted
//! functions. This crate implements that algebra symbolically:
//!
//! - [`syntax`] — the term language: tuple-valued [`Term`]s and
//!   type-valued [`UExpr`]s (the paper's UNINOMIAL expressions).
//! - [`normalize`] — rewriting into *sum-product normal form* ([`Spnf`]):
//!   a sum of `Σ x₁…xₖ. (product of atoms)` terms, using only the trusted
//!   semiring/squash/sum axioms cataloged in [`lemmas`].
//! - [`congruence`] — congruence closure over tuple terms, used to reason
//!   from equality atoms (the paper's Nelson–Oppen-style step, Sec. 3.4).
//! - [`equiv`] — equivalence of normal forms up to variable bijection and
//!   AC of `+`/`×`, with Lemma 5.3 absorption of entailed propositions.
//! - [`deduce`] — the deductive prover for squash goals: proves
//!   `‖A‖ = ‖B‖` from `A ↔ B` by instantiation search, exactly the Ltac
//!   procedure of Sec. 5.2.
//! - [`prove`] — tactic orchestration and machine-checkable
//!   [`ProofTrace`]s.
//! - [`eval`] — concrete evaluation of `UExpr`s over finite domains;
//!   the soundness oracle for the rewrite axioms.
//!
//! # Example
//!
//! Proving Fig. 1 (selection distributes over `UNION ALL`) at the algebra
//! level: `(R t + S t) × b t = R t × b t + S t × b t`.
//!
//! ```
//! use uninomial::syntax::{Term, UExpr, VarGen};
//! use relalg::{BaseType, Schema};
//!
//! let mut gen = VarGen::new();
//! let t = gen.fresh(Schema::leaf(BaseType::Int));
//! let r = UExpr::rel("R", Term::var(&t));
//! let s = UExpr::rel("S", Term::var(&t));
//! let b = UExpr::pred("b", Term::var(&t));
//! let lhs = UExpr::mul(UExpr::add(r.clone(), s.clone()), b.clone());
//! let rhs = UExpr::add(UExpr::mul(r, b.clone()), UExpr::mul(s, b));
//! let proof = uninomial::prove::prove_eq(&lhs, &rhs, &mut gen).expect("provable");
//! assert!(proof.trace().len() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod axioms;
pub mod congruence;
pub mod deduce;
pub mod equiv;
pub mod eval;
pub mod lemmas;
pub mod normalize;
pub mod prove;
pub mod syntax;

pub use axioms::RelAxiom;
pub use normalize::{Atom, NormCache, Spnf, SpnfTerm};
pub use prove::{prove_eq, Proof, ProofTrace, ProveError};
pub use syntax::intern::{Interner, InternerSnapshot, TermId, UExprId};
pub use syntax::{Term, UExpr, Var, VarGen};
