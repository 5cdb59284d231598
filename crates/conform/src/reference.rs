//! Brute-force reference executor and the schedule-semantics invariants.
//!
//! The reference verdict for a motion is `cdqs.iter().any(|c| c.colliding)`
//! — no ordering, no prediction, no early exit. Every scheduling policy
//! must agree with it: prediction may only *reorder* work, never change a
//! verdict (the property that separates COORD from approximate proxy
//! checkers). The checks here run each generated case through every
//! schedule plus [`run_predicted_schedule`] under cold, adversarial, and
//! perfect predictors, asserting:
//!
//! * the colliding verdict equals the brute-force reference;
//! * `cdqs_executed <= cdqs_total` and a colliding check executes >= 1;
//! * a collision-free check executes every CDQ exactly once;
//! * no CDQ is ever executed twice (observed via a recording predictor);
//! * a cold (never-predicting) predictor is bit-identical to plain CSP;
//! * Speculative redundancy is bounded by one batch over naive.
//!
//! [`run_cpu_diff`] holds the multi-threaded swexec CPU path to the same
//! reference: thread count and prediction may change CDQ counts, never a
//! verdict.

use crate::generate::ScheduleCase;
use copred_collision::{
    run_predicted_schedule, run_schedule, CdqInfo, CdqPredictor, MotionCheckOutcome, Schedule,
};
use copred_core::ChtParams;
use copred_envgen::{random_scene, Density};
use copred_kinematics::{presets, Motion, Robot};
use copred_swexec::{run_cpu, CpuExecConfig};
use std::collections::HashSet;

/// The reference executor: order-free ground truth.
pub fn brute_force_verdict(cdqs: &[CdqInfo]) -> bool {
    cdqs.iter().any(|c| c.colliding)
}

/// A predictor that records every executed CDQ, asserting none repeats, and
/// answers lookups from a fixed closure. Used to check `run_predicted_schedule`
/// under arbitrary (even adversarial) prediction behavior.
pub struct RecordingPredictor<F: FnMut(&CdqInfo) -> bool> {
    decide: F,
    /// `(pose_idx, link_idx)` of every observed (executed) CDQ, in order.
    pub observed: Vec<(usize, usize)>,
    /// Set to a message when a CDQ was observed twice.
    pub duplicate: Option<String>,
}

impl<F: FnMut(&CdqInfo) -> bool> std::fmt::Debug for RecordingPredictor<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingPredictor")
            .field("observed", &self.observed)
            .field("duplicate", &self.duplicate)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(&CdqInfo) -> bool> RecordingPredictor<F> {
    /// Wraps a decision closure.
    pub fn new(decide: F) -> Self {
        RecordingPredictor {
            decide,
            observed: Vec::new(),
            duplicate: None,
        }
    }
}

impl<F: FnMut(&CdqInfo) -> bool> CdqPredictor for RecordingPredictor<F> {
    fn predict(&mut self, _idx: usize, cdq: &CdqInfo) -> bool {
        (self.decide)(cdq)
    }

    fn observe(&mut self, _idx: usize, cdq: &CdqInfo, _colliding: bool) {
        let key = (cdq.pose_idx, cdq.link_idx);
        if self.observed.contains(&key) && self.duplicate.is_none() {
            self.duplicate = Some(format!("CDQ {key:?} executed twice"));
        }
        self.observed.push(key);
    }
}

/// Pseudo-random but deterministic prediction keyed on the CDQ identity —
/// an adversarial stand-in for a badly trained CHT.
fn chaotic_prediction(seed: u64, cdq: &CdqInfo) -> bool {
    let mut z = seed
        .wrapping_add((cdq.pose_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((cdq.link_idx as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 1 == 1
}

/// Runs every schedule-semantics invariant on one case. Returns a list of
/// violation descriptions (empty = conformant).
pub fn check_schedule_case(case: &ScheduleCase, seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let cdqs = &case.cdqs;
    let n_poses = case.n_poses;
    let total = cdqs.len();
    let truth = brute_force_verdict(cdqs);
    let mut fail = |msg: String| failures.push(format!("{}: {msg}", case.label));

    // Uniqueness of (pose, link) pairs is a precondition for the
    // double-execution check below; the generator guarantees it.
    let keys: HashSet<(usize, usize)> = cdqs.iter().map(|c| (c.pose_idx, c.link_idx)).collect();
    assert_eq!(keys.len(), total, "generator produced duplicate CDQ keys");

    let naive = run_schedule(cdqs, n_poses, Schedule::Naive);
    let schedules = [
        ("naive", Schedule::Naive),
        ("csp-0", Schedule::Csp { step: 0 }),
        ("csp-1", Schedule::Csp { step: 1 }),
        ("csp-2", Schedule::Csp { step: 2 }),
        ("csp-5", Schedule::Csp { step: 5 }),
        ("csp-huge", Schedule::Csp { step: total + 7 }),
        ("oracle", Schedule::Oracle),
        ("spec-1", Schedule::Speculative { depth: 1 }),
        ("spec-2", Schedule::Speculative { depth: 2 }),
        ("spec-4", Schedule::Speculative { depth: 4 }),
    ];
    for (name, sched) in schedules {
        let out = run_schedule(cdqs, n_poses, sched);
        check_outcome_common(name, &out, truth, total, &mut fail);
        if let Schedule::Speculative { depth } = sched {
            let depth = depth.max(1);
            if out.cdqs_executed < naive.cdqs_executed {
                fail(format!(
                    "{name}: speculation executed {} < naive {}",
                    out.cdqs_executed, naive.cdqs_executed
                ));
            }
            if out.cdqs_executed >= naive.cdqs_executed + depth {
                fail(format!(
                    "{name}: redundancy {} not bounded by one batch over naive {}",
                    out.cdqs_executed, naive.cdqs_executed
                ));
            }
        }
    }

    // Oracle executes exactly one CDQ on a colliding check.
    let oracle = run_schedule(cdqs, n_poses, Schedule::Oracle);
    if truth && oracle.cdqs_executed != 1 {
        fail(format!(
            "oracle executed {} CDQs on a colliding check",
            oracle.cdqs_executed
        ));
    }

    // Cold predictor degrades exactly to CSP, for several strides.
    for step in [0usize, 1, 3, 5] {
        let mut cold = RecordingPredictor::new(|_| false);
        let predicted = run_predicted_schedule(cdqs, n_poses, step, &mut cold);
        let csp = run_schedule(cdqs, n_poses, Schedule::Csp { step });
        if predicted != csp {
            fail(format!(
                "cold predictor (step {step}) diverged from CSP: {predicted:?} vs {csp:?}"
            ));
        }
        finish_predictor_checks(&format!("cold step-{step}"), &cold, &predicted, &mut fail);
        check_outcome_common(
            &format!("predicted-cold step-{step}"),
            &predicted,
            truth,
            total,
            &mut fail,
        );
    }

    // Adversarial predictor: verdict and accounting must survive arbitrary
    // prediction patterns.
    for salt in 0..3u64 {
        let s = seed.wrapping_add(salt);
        let mut chaotic = RecordingPredictor::new(move |c| chaotic_prediction(s, c));
        let out = run_predicted_schedule(cdqs, n_poses, 5, &mut chaotic);
        check_outcome_common(
            &format!("predicted-chaotic-{salt}"),
            &out,
            truth,
            total,
            &mut fail,
        );
        finish_predictor_checks(&format!("chaotic-{salt}"), &chaotic, &out, &mut fail);
    }

    // Perfect predictor: a colliding check costs exactly one CDQ, matching
    // the oracle limit.
    let mut perfect = RecordingPredictor::new(|c: &CdqInfo| c.colliding);
    let out = run_predicted_schedule(cdqs, n_poses, 5, &mut perfect);
    check_outcome_common("predicted-perfect", &out, truth, total, &mut fail);
    finish_predictor_checks("perfect", &perfect, &out, &mut fail);
    if truth && out.cdqs_executed != 1 {
        fail(format!(
            "perfect predictor executed {} CDQs on a colliding check",
            out.cdqs_executed
        ));
    }

    failures
}

fn check_outcome_common(
    name: &str,
    out: &MotionCheckOutcome,
    truth: bool,
    total: usize,
    fail: &mut impl FnMut(String),
) {
    if out.colliding != truth {
        fail(format!(
            "{name}: verdict {} != brute-force {truth}",
            out.colliding
        ));
    }
    if out.cdqs_total != total {
        fail(format!("{name}: cdqs_total {} != {total}", out.cdqs_total));
    }
    if out.cdqs_executed > total {
        fail(format!(
            "{name}: executed {} > total {total}",
            out.cdqs_executed
        ));
    }
    if truth && out.cdqs_executed == 0 {
        fail(format!("{name}: colliding check executed no CDQs"));
    }
    if !truth && out.cdqs_executed != total {
        fail(format!(
            "{name}: free check executed {} of {total} CDQs",
            out.cdqs_executed
        ));
    }
}

fn finish_predictor_checks<F: FnMut(&CdqInfo) -> bool>(
    name: &str,
    pred: &RecordingPredictor<F>,
    out: &MotionCheckOutcome,
    fail: &mut impl FnMut(String),
) {
    if let Some(d) = &pred.duplicate {
        fail(format!("{name}: {d}"));
    }
    if pred.observed.len() != out.cdqs_executed {
        fail(format!(
            "{name}: observed {} executions but outcome reports {}",
            pred.observed.len(),
            out.cdqs_executed
        ));
    }
}

/// Cross-checks the multi-threaded swexec CPU path against brute force:
/// prediction and thread count may change CDQ counts, never verdicts.
pub fn run_cpu_diff(seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let robot: Robot = presets::planar_2d().into();
    let scene = random_scene(&robot, Density::Medium, 24, seed);
    let motions: Vec<Vec<_>> = scene
        .poses
        .chunks(2)
        .filter(|p| p.len() == 2)
        .map(|p| Motion::new(p[0].clone(), p[1].clone()).discretize(6))
        .collect();
    let truth: u64 = motions
        .iter()
        .map(|poses| {
            u64::from(
                copred_collision::enumerate_motion_cdqs(&robot, &scene.env, poses)
                    .iter()
                    .any(|c| c.colliding),
            )
        })
        .sum();
    let total_cdqs: u64 = motions
        .iter()
        .map(|poses| {
            copred_collision::enumerate_motion_cdqs(&robot, &scene.env, poses).len() as u64
        })
        .sum();
    for (threads, predict) in [(1usize, false), (1, true), (4, true)] {
        let cfg = CpuExecConfig {
            n_threads: threads,
            with_prediction: predict,
            cht_params: ChtParams::paper_2d(),
            seed,
        };
        let out = run_cpu(&robot, &scene.env, &motions, &cfg);
        if out.colliding_motions != truth {
            failures.push(format!(
                "run_cpu(threads={threads}, predict={predict}): {} colliding motions != brute-force {truth}",
                out.colliding_motions
            ));
        }
        if out.cdqs_executed > total_cdqs {
            failures.push(format!(
                "run_cpu(threads={threads}, predict={predict}): executed {} > total {total_cdqs}",
                out.cdqs_executed
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::ScenarioGen;

    #[test]
    fn generated_cases_are_conformant() {
        let g = ScenarioGen::new(42);
        for i in 0..40 {
            let case = g.schedule_case(i);
            let failures = check_schedule_case(&case, 42 + i);
            assert!(failures.is_empty(), "{failures:?}");
        }
    }

    #[test]
    fn recording_predictor_flags_double_execution() {
        let g = ScenarioGen::new(1);
        let case = g.schedule_case(0);
        let mut p = RecordingPredictor::new(|_| false);
        p.observe(0, &case.cdqs[0], false);
        p.observe(0, &case.cdqs[0], false);
        assert!(p.duplicate.is_some());
    }

    #[test]
    fn cpu_diff_is_clean() {
        let failures = run_cpu_diff(17);
        assert!(failures.is_empty(), "{failures:?}");
    }
}
