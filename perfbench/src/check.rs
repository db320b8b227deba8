//! Known-answer checks. They run outside the timed region; any
//! mismatch makes the run incorrect.

use crate::gen::{self, Goal};
use egraph::Budget;
use hottsql::env::QueryEnv;
use hottsql::eval::Instance;
use optimizer::OptimizeReport;

/// An engine verdict against the goal's known answer: an inequivalent
/// pair must never be proved. An equivalent pair left unproved is not
/// wrong; it lowers `proved_ratio` instead.
pub fn verdict(goal: &Goal, proved: bool) -> Result<(), String> {
    if proved && !goal.equivalent {
        return Err(format!(
            "proved an inequivalent pair (database {:?} separates them): {} == {}",
            goal.separating_db, goal.lhs, goal.rhs
        ));
    }
    Ok(())
}

/// A plan must be no costlier than its input, replay its certificate,
/// and evaluate equal to its input on every database given.
pub fn plan(report: &OptimizeReport, env: &QueryEnv, dbs: &[Instance]) -> Result<(), String> {
    if report.cost_after > report.cost_before {
        return Err(format!(
            "costlier plan ({} > {}): {}",
            report.cost_after, report.cost_before, report.input
        ));
    }
    if !report
        .certificate
        .replay(&report.input, &report.output, env, Budget::default())
    {
        return Err(format!("certificate does not replay: {}", report.input));
    }
    for db in dbs {
        let before = gen::eval(&report.input, env, db);
        let after = gen::eval(&report.output, env, db);
        match (before, after) {
            (Some(b), Some(a)) if b.bag_eq(&a) => {}
            _ => {
                return Err(format!(
                    "plan evaluates differently from its input: {} vs {}",
                    report.input, report.output
                ))
            }
        }
    }
    Ok(())
}

/// A served reply must equal the fresh answer byte for byte.
pub fn reply(served: &str, fresh: &str) -> Result<(), String> {
    if served == fresh {
        Ok(())
    } else {
        Err(format!(
            "served reply differs from fresh execute:\n  served: {served}\n  fresh:  {fresh}"
        ))
    }
}

/// Whether each goal of a prove reply was proved, checked against the
/// known answers.
/// A reply line reads `[ok] verify: <lhs>`, then the outcome on an
/// indented line; the outcome of a proved goal starts with `proved by`.
pub fn served_goals(goals: &[Goal], lines: &[String]) -> Result<Vec<bool>, String> {
    if goals.len() != lines.len() {
        return Err(format!(
            "{} goal lines for {} goals",
            lines.len(),
            goals.len()
        ));
    }
    goals
        .iter()
        .zip(lines)
        .map(|(goal, line)| {
            let proved = line.contains("\n    proved by ");
            verdict(goal, proved).map(|()| proved)
        })
        .collect()
}

/// `cost_after / cost_before` of every plan in an optimize reply, as
/// rendered (`[ok] cost <before> -> <after> via …`). A costlier or
/// failed plan is wrong.
pub fn served_plan_ratios(lines: &[String]) -> Result<Vec<f64>, String> {
    lines
        .iter()
        .map(|line| {
            let costs = line
                .strip_prefix("[ok] cost ")
                .and_then(|rest| rest.split(" via ").next())
                .and_then(|c| c.split_once(" -> "))
                .ok_or_else(|| format!("not a sound plan line: {line}"))?;
            let parse = |s: &str| s.parse::<f64>().map_err(|e| format!("{e}: {line}"));
            let (before, after) = (parse(costs.0)?, parse(costs.1)?);
            if after > before {
                return Err(format!("costlier plan: {line}"));
            }
            Ok(if before > 0.0 { after / before } else { 1.0 })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hottsql::parse::parse_query;
    use optimizer::{optimize, OptimizeOptions, PlanCtx};
    use relalg::stats::Statistics;

    fn dbs() -> Vec<Instance> {
        (0..4).map(gen::database).collect()
    }

    fn self_join_report() -> (QueryEnv, OptimizeReport) {
        let env = gen::env();
        let q = parse_query(
            "DISTINCT SELECT Right.Left.Left FROM R, R \
             WHERE Right.Left.Left = Right.Right.Left",
        )
        .expect("parses");
        let report = optimize(
            &q,
            &env,
            &Statistics::new(),
            OptimizeOptions::default(),
            PlanCtx::default(),
        )
        .expect("optimizes");
        assert!(report.improved, "the self-join is redundant");
        (env, report)
    }

    #[test]
    fn a_proved_inequivalent_pair_is_rejected() {
        let goal = gen::inequivalent_goals(1, 1, false).remove(0);
        assert!(verdict(&goal, true).is_err());
        assert!(verdict(&goal, false).is_ok());
        let equivalent = gen::equivalent_goals(1, 1, false).remove(0);
        assert!(verdict(&equivalent, true).is_ok());
    }

    #[test]
    fn a_sound_plan_passes() {
        let (env, report) = self_join_report();
        assert_eq!(plan(&report, &env, &dbs()), Ok(()));
    }

    #[test]
    fn a_costlier_plan_is_rejected() {
        let (env, mut report) = self_join_report();
        report.cost_after = report.cost_before * 2.0;
        assert!(plan(&report, &env, &dbs())
            .unwrap_err()
            .contains("costlier"));
    }

    #[test]
    fn a_non_replaying_certificate_is_rejected() {
        let (env, mut report) = self_join_report();
        report.certificate.trace = uninomial::ProofTrace::default();
        let err = plan(&report, &env, &dbs()).unwrap_err();
        assert!(err.contains("does not replay"), "{err}");
    }

    #[test]
    fn a_plan_that_changes_the_answer_is_rejected() {
        let (env, mut report) = self_join_report();
        // Keep the certificate of the honest plan but ship another query.
        report.output = parse_query("DISTINCT SELECT Right.Left FROM S").expect("parses");
        assert!(plan(&report, &env, &dbs()).is_err());
    }

    #[test]
    fn a_mismatched_serve_reply_is_rejected() {
        let fresh = r#"{"id":1,"kind":"goals","lines":["[ok] verify R: proved"],"ok":true}"#;
        assert_eq!(reply(fresh, fresh), Ok(()));
        let served = fresh.replace("[ok]", "[FAIL]");
        assert!(reply(&served, fresh).is_err());
    }

    #[test]
    fn served_goal_lines_are_checked_against_known_answers() {
        let goal = gen::inequivalent_goals(2, 1, true).remove(0);
        let proved =
            vec!["[FAIL] refute: R\n    proved by decision procedure in 1 steps".to_owned()];
        assert!(served_goals(std::slice::from_ref(&goal), &proved).is_err());
        let refuted = vec!["[ok] refute: R\n    refuted: on R = …".to_owned()];
        assert_eq!(served_goals(&[goal], &refuted), Ok(vec![false]));
    }

    #[test]
    fn served_plan_lines_must_not_cost_more() {
        let ok = vec![
            "[ok] cost 100 -> 25 via egraph (x in 3 steps)\n    in:  a\n    out: b".to_owned(),
        ];
        assert_eq!(served_plan_ratios(&ok), Ok(vec![0.25]));
        let worse = vec!["[ok] cost 100 -> 125 via egraph (x in 3 steps)".to_owned()];
        assert!(served_plan_ratios(&worse).is_err());
        let failed = vec!["[FAIL] cost 100 -> 25 via egraph".to_owned()];
        assert!(served_plan_ratios(&failed).is_err());
    }
}
