//! Seeded inputs for the three workloads.
//!
//! Every op list is a pure function of the seed argument: the program
//! under test receives only the queries and scripts built here. The
//! goals, queries and scripts themselves come from a corpus generated
//! once from [`CORPUS_SEED`]; the run seed arranges that corpus — which
//! batch a goal or query lands in, how often each goal repeats, and the
//! order of requests — but not its content. Runs with different seeds
//! therefore do the same total work, and their spread measures the
//! system rather than the luck of the draw (drawing fresh corpora moved
//! `plan_cost_gmean` by 13% and throughput by 16% from seed to seed).
//! Each goal carries its known answer. Equivalent goals come from
//! `cq::generate::equivalent_pairs` and are cross-checked by a CQ
//! decision procedure; inequivalent goals carry the seed of a database
//! on which the two sides evaluate differently.

use cq::Cq;
use hottsql::ast::Query;
use hottsql::env::QueryEnv;
use hottsql::eval::Instance;
use relalg::generate::{GenConfig, Generator};
use relalg::{BaseType, Relation, Schema, Tuple};
use std::collections::HashSet;

/// Goals in one `prove-repeat` batch.
pub const PROVE_GOALS: usize = 72;
/// Distinct pairs each `prove-repeat` batch draws its goals from.
pub const PROVE_POOL: usize = 16;
/// Known-inequivalent pairs among them (1 in 8).
pub const PROVE_INEQUIVALENT: usize = 2;
/// Queries in one `optimize-distinct` batch.
pub const OPTIMIZE_QUERIES: usize = 12;
/// Distinct hot scripts in a `serve-mixed` run.
pub const SERVE_HOT_SCRIPTS: usize = 8;
/// Visits to each hot script.
pub const SERVE_HOT_VISITS: usize = 12;
/// Cold prove scripts in a `serve-mixed` run.
pub const SERVE_COLD: usize = 240;
/// Distinct optimize scripts in a `serve-mixed` run; each is sent twice.
pub const SERVE_OPTIMIZE_SCRIPTS: usize = 72;
/// Goals per optimize script (both sides of each are optimized).
pub const SERVE_OPTIMIZE_GOALS: usize = 3;

/// Seed of the goal, query and script corpus.
pub const CORPUS_SEED: u64 = 0x00D0_CCE2_7BE1_C4ED;

/// The relation vocabulary every generated query ranges over.
pub const TABLES: [&str; 3] = ["R", "S", "T"];

/// The schema environment: three binary integer tables.
pub fn env() -> QueryEnv {
    let binary = Schema::flat([BaseType::Int, BaseType::Int]);
    TABLES
        .iter()
        .fold(QueryEnv::new(), |env, t| env.with_table(*t, binary.clone()))
}

/// The `.dop` declarations matching [`env`].
pub const SCRIPT_HEADER: &str = "table R(int, int);\ntable S(int, int);\ntable T(int, int);\n";

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent sub-seed for item `index` of the named stream.
pub fn derive(seed: u64, stream: &str, index: u64) -> u64 {
    let tag = stream.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    mix(mix(seed ^ tag) ^ index)
}

/// A small deterministic generator for picks and shuffles.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator from a seed.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One goal with its known answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Goal {
    /// Left query.
    pub lhs: Query,
    /// Right query.
    pub rhs: Query,
    /// Whether the two sides are equivalent.
    pub equivalent: bool,
    /// For an inequivalent goal, the seed of a [`database`] on which
    /// the sides evaluate differently.
    pub separating_db: Option<u64>,
}

impl Goal {
    /// The goal as a `.dop` statement.
    pub fn statement(&self) -> String {
        let verb = if self.equivalent { "verify" } else { "refute" };
        format!("{verb} {} == {};\n", self.lhs, self.rhs)
    }
}

/// A database over [`env`], small enough that a seven-way join
/// evaluates in well under a millisecond.
pub fn database(seed: u64) -> Instance {
    let mut gen = Generator::with_config(
        seed,
        GenConfig {
            max_support: 3,
            max_multiplicity: 2,
            int_range: (0, 2),
            max_schema_width: 2,
        },
    );
    let binary = Schema::flat([BaseType::Int, BaseType::Int]);
    TABLES.iter().fold(Instance::new(), |db, t| {
        db.with_table(*t, gen.relation(&binary))
    })
}

/// Evaluates a closed query on a database (`None` on an evaluation
/// error).
pub fn eval(q: &Query, env: &QueryEnv, db: &Instance) -> Option<Relation> {
    hottsql::eval::eval_query(q, env, db, &Schema::Empty, &Tuple::Unit).ok()
}

/// The seed of the first of 64 databases on which `lhs` and `rhs`
/// evaluate to different bags.
pub fn separating_db(lhs: &Query, rhs: &Query, env: &QueryEnv, seed: u64) -> Option<u64> {
    (0..64).map(|k| derive(seed, "db", k)).find(|&s| {
        let db = database(s);
        match (eval(lhs, env, &db), eval(rhs, env, &db)) {
            (Some(l), Some(r)) => !l.bag_eq(&r),
            _ => false,
        }
    })
}

/// The bag-semantics version of a rendered CQ (its `DISTINCT` dropped).
fn bag_of(q: Query) -> Query {
    match q {
        Query::Distinct(inner) => *inner,
        other => other,
    }
}

fn render(a: &Cq, b: &Cq, env: &QueryEnv, bag: bool) -> Option<(Query, Query)> {
    let l = cq::translate::to_query(a, env)?;
    let r = cq::translate::to_query(b, env)?;
    Some(if bag { (bag_of(l), bag_of(r)) } else { (l, r) })
}

/// `n` equivalent goals: generated CQ pairs (a query and an α-renamed,
/// atom-shuffled copy), as `DISTINCT` queries or, with `bag`, as bag
/// queries. Each pair is cross-checked with set (or bag) equivalence.
///
/// # Panics
///
/// Panics when a generated pair fails the cross-check: the known
/// answer would then be unknown.
pub fn equivalent_goals(seed: u64, n: usize, bag: bool) -> Vec<Goal> {
    let env = env();
    let mut out = Vec::with_capacity(n);
    for round in 0.. {
        for (a, b) in cq::generate::equivalent_pairs(derive(seed, "eq", round), n) {
            if out.len() == n {
                return out;
            }
            let known = if bag {
                cq::bag::bag_equivalent(&a, &b)
            } else {
                cq::containment::equivalent_set(&a, &b)
            };
            assert!(known, "generated pair is not equivalent: {a} vs {b}");
            if let Some((lhs, rhs)) = render(&a, &b, &env, bag) {
                out.push(Goal {
                    lhs,
                    rhs,
                    equivalent: true,
                    separating_db: None,
                });
            }
        }
        if out.len() == n {
            break;
        }
    }
    out
}

/// `n` inequivalent goals: a random CQ against itself with its last
/// atom dropped, kept only when a [`database`] separates the two.
/// `DISTINCT` goals must also be inequivalent by the CQ decision
/// procedure.
pub fn inequivalent_goals(seed: u64, n: usize, bag: bool) -> Vec<Goal> {
    let env = env();
    let mut out = Vec::with_capacity(n);
    let mut k = 0u64;
    while out.len() < n {
        assert!(k < 10_000, "no separable inequivalent pair found");
        let s = derive(seed, "neq", k);
        k += 1;
        let atoms = 3 + (s % 3) as u32;
        let vars = 2 + ((s >> 8) % 2) as u32;
        let q = cq::generate::random_cq(s, atoms, vars, &TABLES);
        let mut dropped = q.clone();
        dropped.atoms.pop();
        if !bag && cq::containment::equivalent_set(&q, &dropped) {
            continue;
        }
        let Some((l, r)) = render(&q, &dropped, &env, bag) else {
            continue;
        };
        let Some(db) = separating_db(&l, &r, &env, s) else {
            continue;
        };
        let (lhs, rhs) = if s & 1 == 0 { (l, r) } else { (r, l) };
        out.push(Goal {
            lhs,
            rhs,
            equivalent: false,
            separating_db: Some(db),
        });
    }
    out
}

/// One `prove-repeat` op: a batch of goals drawn with repetition from
/// its own pool.
#[derive(Clone, Debug, PartialEq)]
pub struct ProveOp {
    /// The distinct goals.
    pub pool: Vec<Goal>,
    /// The batch, as indices into `pool`; every pool goal appears.
    pub picks: Vec<usize>,
}

impl ProveOp {
    /// The batch as the engine receives it.
    pub fn pairs(&self) -> Vec<(Query, Query)> {
        self.picks
            .iter()
            .map(|&i| (self.pool[i].lhs.clone(), self.pool[i].rhs.clone()))
            .collect()
    }
}

/// The `prove-repeat` op list: op 0 (the set-up batch) is always
/// corpus pool 0; ops `1..count` are pools `1..count` in a seeded
/// order. Each batch visits every goal of its pool once and then draws
/// the rest of its goals from the pool with repetition.
pub fn prove_ops(seed: u64, count: usize) -> Vec<ProveOp> {
    let mut order: Vec<u64> = (1..count as u64).collect();
    Rng::new(derive(seed, "prove-order", 0)).shuffle(&mut order);
    std::iter::once(0)
        .chain(order)
        .enumerate()
        .map(|(i, k)| {
            let c = derive(CORPUS_SEED, "prove-pool", k);
            let mut pool = equivalent_goals(c, PROVE_POOL - PROVE_INEQUIVALENT, false);
            pool.extend(inequivalent_goals(c, PROVE_INEQUIVALENT, false));
            Rng::new(c).shuffle(&mut pool);
            let mut rng = Rng::new(derive(seed, "prove-picks", i as u64));
            let mut picks: Vec<usize> = (0..PROVE_POOL).collect();
            picks.extend((PROVE_POOL..PROVE_GOALS).map(|_| rng.below(PROVE_POOL)));
            rng.shuffle(&mut picks);
            ProveOp { pool, picks }
        })
        .collect()
}

/// The first `n` distinct queries of the optimize corpus.
fn optimize_corpus(n: usize) -> Vec<Query> {
    let env = env();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    for round in 0.. {
        let s = derive(CORPUS_SEED, "optimize", round);
        for (a, _) in cq::generate::equivalent_pairs(s, OPTIMIZE_QUERIES) {
            if out.len() == n {
                return out;
            }
            if let Some(q) = cq::translate::to_query(&a, &env) {
                if seen.insert(q.to_string()) {
                    out.push(q);
                }
            }
        }
    }
    out
}

/// The `optimize-distinct` op list: batches of `DISTINCT` queries, no
/// query repeated within or across batches. Batch 0 (the set-up batch)
/// is always the corpus's first queries; the rest of the corpus is
/// dealt into batches in a seeded order.
pub fn optimize_ops(seed: u64, count: usize) -> Vec<Vec<Query>> {
    let mut corpus = optimize_corpus(count * OPTIMIZE_QUERIES);
    let mut rest = corpus.split_off(OPTIMIZE_QUERIES.min(corpus.len()));
    Rng::new(derive(seed, "optimize-order", 0)).shuffle(&mut rest);
    std::iter::once(corpus)
        .chain(rest.chunks(OPTIMIZE_QUERIES).map(<[Query]>::to_vec))
        .collect()
}

/// The kind of a `serve-mixed` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A prove script that recurs, answered from the resident memos.
    Hot,
    /// A prove script with fresh goals, some inequivalent.
    Cold,
    /// An optimize script; each is sent twice.
    Optimize,
}

/// One `serve-mixed` request.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOp {
    /// The request kind.
    pub kind: Kind,
    /// The `.dop` script.
    pub script: String,
    /// The script's goals with their known answers.
    pub goals: Vec<Goal>,
}

impl ServeOp {
    fn new(kind: Kind, mut goals: Vec<Goal>, seed: u64) -> ServeOp {
        Rng::new(derive(seed, "goal-order", 0)).shuffle(&mut goals);
        let mut script = String::from(SCRIPT_HEADER);
        for g in &goals {
            script.push_str(&g.statement());
        }
        ServeOp {
            kind,
            script,
            goals,
        }
    }

    /// The typed request.
    pub fn request(&self) -> dopcert::Request {
        let opts = dopcert::RequestOptions::default();
        let script = self.script.clone();
        match self.kind {
            Kind::Optimize => dopcert::Request::Optimize { script, opts },
            Kind::Hot | Kind::Cold => dopcert::Request::Prove { script, opts },
        }
    }
}

/// A cold prove script: eight fresh goals — five bag and two
/// `DISTINCT` equivalences and one `DISTINCT` inequivalent pair, which
/// the CQ decision procedure refutes and a counterexample search
/// witnesses. (A bag inequivalence would instead run saturation to its
/// budget before the search, hundreds of milliseconds that would make
/// the tail measure that one goal.)
fn cold_script(seed: u64) -> ServeOp {
    let mut goals = equivalent_goals(derive(seed, "bag", 0), 5, true);
    goals.extend(equivalent_goals(derive(seed, "set", 0), 2, false));
    goals.extend(inequivalent_goals(derive(seed, "set", 1), 1, false));
    ServeOp::new(Kind::Cold, goals, seed)
}

/// The `serve-mixed` set-up requests: one cold script per client
/// connection, each connection's first request.
pub fn serve_setup_ops(connections: usize) -> Vec<ServeOp> {
    (0..connections as u64)
        .map(|i| cold_script(derive(CORPUS_SEED, "serve-setup", i)))
        .collect()
}

/// The measured `serve-mixed` requests: exact per-kind counts, in a
/// seeded order.
pub fn serve_ops(seed: u64) -> Vec<ServeOp> {
    let mut ops = Vec::new();
    for i in 0..SERVE_HOT_SCRIPTS as u64 {
        let s = derive(CORPUS_SEED, "serve-hot", i);
        let mut goals = equivalent_goals(derive(s, "bag", 0), 6, true);
        goals.extend(equivalent_goals(derive(s, "set", 0), 2, false));
        let op = ServeOp::new(Kind::Hot, goals, s);
        ops.extend(std::iter::repeat_n(op, SERVE_HOT_VISITS));
    }
    for i in 0..SERVE_COLD as u64 {
        ops.push(cold_script(derive(CORPUS_SEED, "serve-cold", i)));
    }
    for i in 0..SERVE_OPTIMIZE_SCRIPTS as u64 {
        let s = derive(CORPUS_SEED, "serve-optimize", i);
        let op = ServeOp::new(
            Kind::Optimize,
            equivalent_goals(s, SERVE_OPTIMIZE_GOALS, false),
            s,
        );
        ops.extend(std::iter::repeat_n(op, 2));
    }
    Rng::new(derive(seed, "serve-order", 0)).shuffle(&mut ops);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_a_byte_identical_op_list() {
        let a = format!("{:?}", prove_ops(11, 2));
        assert_eq!(a, format!("{:?}", prove_ops(11, 2)));
        assert_ne!(a, format!("{:?}", prove_ops(12, 2)));
        let a = format!("{:?}", optimize_ops(11, 2));
        assert_eq!(a, format!("{:?}", optimize_ops(11, 2)));
        assert_ne!(a, format!("{:?}", optimize_ops(12, 2)));
        let a = format!("{:?}", serve_ops(11));
        assert_eq!(a, format!("{:?}", serve_ops(11)));
        assert_ne!(a, format!("{:?}", serve_ops(12)));
    }

    #[test]
    fn prove_batches_repeat_goals_from_a_pool_with_one_in_eight_inequivalent() {
        for op in prove_ops(3, 2) {
            assert_eq!(op.picks.len(), PROVE_GOALS);
            assert_eq!(op.pool.len(), PROVE_POOL);
            let inequivalent = op.pool.iter().filter(|g| !g.equivalent).count();
            assert_eq!(inequivalent * 8, PROVE_POOL);
            let used: HashSet<usize> = op.picks.iter().copied().collect();
            assert_eq!(used.len(), PROVE_POOL, "every pool goal is visited");
        }
    }

    #[test]
    fn inequivalent_goals_are_separated_by_their_database() {
        let env = env();
        for bag in [false, true] {
            for g in inequivalent_goals(5, 3, bag) {
                let db = database(g.separating_db.expect("carries a database"));
                let l = eval(&g.lhs, &env, &db).expect("lhs evaluates");
                let r = eval(&g.rhs, &env, &db).expect("rhs evaluates");
                assert!(!l.bag_eq(&r));
            }
        }
    }

    #[test]
    fn seeds_rearrange_one_corpus() {
        let key = |q: &Query| q.to_string();
        let mut a: Vec<String> = optimize_ops(1, 3).iter().flatten().map(key).collect();
        let mut b: Vec<String> = optimize_ops(2, 3).iter().flatten().map(key).collect();
        assert_ne!(a, b);
        a.sort();
        b.sort();
        assert_eq!(a, b, "the same queries, dealt differently");
        let pools = |seed| {
            let mut p: Vec<String> = prove_ops(seed, 3)
                .iter()
                .map(|op| format!("{:?}", op.pool))
                .collect();
            p.sort();
            p
        };
        assert_eq!(pools(1), pools(2));
    }

    #[test]
    fn optimize_queries_never_repeat() {
        let ops = optimize_ops(9, 4);
        let all: Vec<String> = ops.iter().flatten().map(ToString::to_string).collect();
        let distinct: HashSet<&String> = all.iter().collect();
        assert_eq!(all.len(), 4 * OPTIMIZE_QUERIES);
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn serve_mix_has_exact_kind_counts_and_parsable_scripts() {
        let (warm, ops) = (serve_setup_ops(2), serve_ops(4));
        assert_eq!(warm.len(), 2);
        let count = |k: Kind| ops.iter().filter(|o| o.kind == k).count();
        assert_eq!(count(Kind::Hot), SERVE_HOT_SCRIPTS * SERVE_HOT_VISITS);
        assert_eq!(count(Kind::Cold), SERVE_COLD);
        assert_eq!(count(Kind::Optimize), 2 * SERVE_OPTIMIZE_SCRIPTS);
        for op in warm.iter().chain(&ops) {
            let script = dopcert::script::parse_script(&op.script).expect("script parses");
            assert_eq!(script.goals.len(), op.goals.len());
        }
    }
}
