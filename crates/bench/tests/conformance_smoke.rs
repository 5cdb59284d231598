//! Smoke test: the conformance harness stays green on the bench crate's
//! side of the workspace. Keeps `copred-conform` linked into the bench
//! build so regenerating figures and running the gate share one compiled
//! graph, and gives `cargo test -p copred-bench` a fast end-to-end signal
//! before the heavier CI gate runs.

use copred_conform::{run_all, ConformConfig};

#[test]
fn conformance_smoke() {
    let report = run_all(&ConformConfig {
        seed: 0x5EED,
        cases: [25, 4, 16, 1, 1, 1, 1, 1],
    });
    assert!(
        report.is_clean(),
        "{:?}",
        report.failures().collect::<Vec<_>>()
    );
    assert!(report.total_iterations() >= 47);
}
