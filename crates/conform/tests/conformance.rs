//! Integration tests for the conformance harness, including regression
//! tests for the divergences the harness flushed out (fixed in the same
//! change that introduced it):
//!
//! * the confusion ledger `tp + fp + tn + fn == cdqs_issued` used to break
//!   under early exit (predictions were classified at predict time, and a
//!   schedule predicts more CDQs than it executes);
//! * 1-bit `ConcurrentCht` tables used to record NONCOLL outcomes that the
//!   reference `Cht` never stores, flipping predictions.

use copred_conform::{run_all, ConformConfig, ScenarioGen};
use copred_core::{Cht, ChtParams, Strategy};
use copred_service::{SchedMode, SessionRegistry};
use copred_swexec::ConcurrentCht;
use std::sync::atomic::Ordering;

#[test]
fn default_scale_run_counts_enough_iterations() {
    // The CI gate demands >= 200 differential iterations; verify the
    // default configuration clears the floor (with a reduced fault stage
    // to keep test wall-time sane — the bin defaults are larger).
    let cfg = ConformConfig::default();
    assert!(
        cfg.cases[0] + cfg.cases[1] + cfg.cases[2] >= 200,
        "default config must clear the 200-iteration CI floor"
    );
}

#[test]
fn confusion_ledger_balances_under_early_exit() {
    // Regression: run a coord session over workloads with plenty of
    // colliding motions (early exit leaves predicted-but-never-executed
    // CDQs) and check every executed CDQ is classified exactly once.
    let registry = SessionRegistry::new(ChtParams::paper_2d(), 4);
    let (session, _) = registry.open("planar-2d", SchedMode::Coord, 321).unwrap();
    let gen = ScenarioGen::new(77);
    for i in 0..12 {
        let trace = gen.query_trace(i);
        copred_service::execute_batch(&session, &trace.motions, 5);
    }
    let m = &session.metrics;
    let confusion = m.true_pos.load(Ordering::Relaxed)
        + m.false_pos.load(Ordering::Relaxed)
        + m.true_neg.load(Ordering::Relaxed)
        + m.false_neg.load(Ordering::Relaxed);
    let issued = m.cdqs_issued.load(Ordering::Relaxed);
    assert!(issued > 0, "workload executed no CDQs");
    assert_eq!(
        confusion, issued,
        "every executed CDQ must be classified exactly once \
         (tp+fp+tn+fn = {confusion}, cdqs_issued = {issued})"
    );
    // With early exit the schedule must have *predicted* more CDQs than it
    // executed at least once across this workload; the old predict-time
    // counting would then have overshot. Check the workload actually
    // exercised early exit, so this regression test has teeth.
    let total = m.cdqs_total.load(Ordering::Relaxed);
    assert!(
        issued < total,
        "workload never early-exited ({issued} of {total})"
    );
}

#[test]
fn concurrent_cht_matches_reference_cht_across_counter_widths() {
    // Differential parity: the same (code, outcome) stream through the
    // single-threaded reference Cht and the shared ConcurrentCht must
    // leave identical predictions for every touched code. U = 1.0 removes
    // the RNG so the comparison is exact. counter_bits = 1 is the
    // regression case: the shared table used to store NONCOLL where the
    // reference never does.
    for counter_bits in [1u32, 2, 4] {
        let params = ChtParams {
            bits: 8,
            counter_bits,
            strategy: Strategy::new(1.0),
            update_fraction: 1.0,
        };
        let mut reference = Cht::new(params, 9);
        let shared = ConcurrentCht::new(params);
        // A deterministic mixed stream over a handful of codes.
        let mut z = 0x1234_5678u64;
        for _ in 0..400 {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            let code = z % 16;
            let colliding = z & 2 == 0;
            reference.observe(code, colliding);
            shared.observe(code, colliding, 0.0);
        }
        for code in 0..16u64 {
            assert_eq!(
                reference.predict(code),
                shared.predict(code),
                "counter_bits={counter_bits} code={code}: shared CHT diverged from reference"
            );
        }
    }
}

#[test]
fn full_harness_finds_nothing_at_moderate_scale() {
    let report = run_all(&ConformConfig {
        seed: 0xBEEF,
        cases: [40, 8, 24, 2, 2, 1, 1, 1],
    });
    assert!(
        report.is_clean(),
        "{:?}",
        report.failures().collect::<Vec<_>>()
    );
    let stage = |n: usize| report.stage(n).expect("stage ran");
    assert!(stage(2).ops > 0, "service checks must be diffed");
    assert!(stage(3).cases > 24, "live scenarios must run too");
    assert!(
        stage(4).cases == 2 && stage(4).ops > 0,
        "persistence scenarios must run too"
    );
    for (n, what) in [
        (5, "record→replay"),
        (6, "tracing"),
        (7, "profiling"),
        (8, "fleet"),
    ] {
        assert!(stage(n).ops > 0, "{what} scenarios must run too");
    }
    assert_eq!(stage(5).cases, 2);
}
