//! The traced run's layer ledger: time spent inside calls to each
//! layer's public functions, timed from the benchmark's own code.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulated time per layer span name.
#[derive(Debug, Default)]
pub struct Ledger {
    spans: BTreeMap<&'static str, Duration>,
}

impl Ledger {
    /// Runs `f` inside a span named `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        *self.spans.entry(layer).or_default() += start.elapsed();
        value
    }

    /// Adds another ledger's spans into this one.
    pub fn merge(&mut self, other: Ledger) {
        for (layer, d) in other.spans {
            *self.spans.entry(layer).or_default() += d;
        }
    }

    /// Total time of a layer, in milliseconds (`None` when it never ran).
    pub fn total_ms(&self, layer: &str) -> Option<f64> {
        self.spans.get(layer).map(|d| d.as_secs_f64() * 1e3)
    }

    /// Mean time of a layer per op, in milliseconds.
    pub fn per_op_ms(&self, layer: &str, ops: usize) -> Option<f64> {
        self.total_ms(layer).map(|ms| ms / ops as f64)
    }
}

/// Counters the program already keeps in `telemetry`, read after a
/// traced pass.
#[derive(Debug)]
pub struct Counters {
    metrics: telemetry::Metrics,
    profile: telemetry::Profile,
}

impl Counters {
    /// Clears and enables telemetry counters and per-rule profiling.
    pub fn start() {
        telemetry::reset();
        telemetry::enable();
        telemetry::enable_profiling();
    }

    /// Snapshots the counters and turns telemetry off.
    pub fn stop() -> Counters {
        let counters = Counters {
            metrics: telemetry::snapshot(),
            profile: telemetry::profile_snapshot(),
        };
        telemetry::disable();
        counters
    }

    /// A flat counter.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.counter(name) as f64
    }

    /// `hits / (hits + misses)` of a memo, `None` when it was never
    /// consulted.
    pub fn hit_ratio(&self, memo: &str) -> Option<f64> {
        let hits = self.get(&format!("memo.{memo}.hit"));
        let misses = self.get(&format!("memo.{memo}.miss"));
        crate::stats::ratio(hits, hits + misses)
    }

    /// Saturation counters per op, and the ratios built from them.
    pub fn egraph_metrics(&self, out: &mut crate::Outcome, ops: usize, mined_layer: bool) {
        let per_op = |v: f64| v / ops as f64;
        out.set("egraph.iters", per_op(self.get("egraph.iters")), ops);
        out.set(
            "egraph.nodes_added",
            per_op(self.get("egraph.nodes_added")),
            ops,
        );
        out.set("egraph.unions", per_op(self.get("egraph.unions")), ops);
        out.set(
            "egraph.oracle_calls",
            per_op(self.get("egraph.oracle_calls")),
            ops,
        );
        let memo_hits = self.get("egraph.oracle_memo_hits");
        let calls = self.get("egraph.oracle_calls");
        out.set_opt(
            "egraph.oracle_memo_hit_ratio",
            crate::stats::ratio(memo_hits, memo_hits + calls),
            ops,
        );
        // Matches and unions summed over the rule rows of the attribution
        // profile (congruence closure and the session are not rules).
        let (mut matches, mut unions, mut mined) = (0.0, 0.0, 0.0);
        for (label, row) in self.profile.rows() {
            if label == "congruence" || label == "session" {
                continue;
            }
            matches += row.counter("matches") as f64;
            unions += row.counter("unions") as f64;
            if label.starts_with(egraph::MINED_LABEL_PREFIX) {
                mined += row.counter("unions") as f64;
            }
        }
        out.set_opt(
            "egraph.union_ratio",
            crate::stats::ratio(unions, matches),
            ops,
        );
        if mined_layer {
            out.set("egraph.mined_unions", per_op(mined), ops);
        }
    }

    /// Normalization memo ratios.
    pub fn norm_metrics(&self, out: &mut crate::Outcome, ops: usize) {
        let hit = self.get("memo.norm.hit");
        let shared = self.get("memo.norm.shared_hit");
        let lookups = hit + shared + self.get("memo.norm.miss");
        out.set_opt(
            "uninomial.normalize_hit_ratio",
            crate::stats::ratio(hit, lookups),
            ops,
        );
        out.set_opt(
            "uninomial.shared_hit_ratio",
            crate::stats::ratio(shared, lookups),
            ops,
        );
    }
}
