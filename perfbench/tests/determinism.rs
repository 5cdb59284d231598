//! The benchmark's deterministic counts are a pure function of the seed:
//! two same-seed runs give identical CDQ, byte, and obstacle-test counts,
//! and another seed gives other inputs.

use copred_core::ChtParams;
use copred_perfbench::inputs::{arm_queries, planar_queries, Query};
use copred_perfbench::shadow::Shadow;
use copred_perfbench::wire::{push_query, request, Step};
use copred_service::protocol::Response;
use copred_swexec::{run_cpu, CpuExecConfig};
use std::path::PathBuf;

#[derive(Debug, PartialEq, Eq)]
struct Counts {
    checks: u64,
    cdqs_executed: u64,
    obstacle_tests: u64,
    req_bytes: u64,
    resp_bytes: u64,
    warm_opens: u64,
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("determinism-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every query twice through the in-process service (with a store for
/// fingerprinted queries, so the second round warm-starts).
fn service_counts(queries: &[Query], batch: usize, tag: &str) -> Counts {
    let mut steps: Vec<Step> = Vec::new();
    for q in 0..queries.len() {
        push_query(queries, q, batch, &mut steps);
    }
    let dir = store_dir(tag);
    let with_store = queries.iter().any(|q| q.fp.is_some());
    let mut shadow = Shadow::new(with_store.then_some(dir.as_path()), false).unwrap();
    let expected = shadow
        .replay(queries, batch, steps.iter().chain(&steps), false)
        .unwrap();
    let mut c = Counts {
        checks: 0,
        cdqs_executed: 0,
        obstacle_tests: 0,
        req_bytes: 0,
        resp_bytes: 0,
        warm_opens: 0,
    };
    for (step, x) in steps.iter().chain(&steps).zip(&expected) {
        c.req_bytes += request(queries, batch, *step, 1).to_text().len() as u64;
        c.resp_bytes += x.resp.to_text().len() as u64;
        match &x.resp {
            Response::Results { results, .. } => {
                c.checks += results.len() as u64;
                c.cdqs_executed += results.iter().map(|r| r.cdqs_executed).sum::<u64>();
                c.obstacle_tests += results.iter().map(|r| r.obstacle_tests).sum::<u64>();
            }
            Response::Session { warm, .. } => c.warm_opens += u64::from(*warm),
            _ => {}
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    c
}

/// Single-threaded `run_cpu` CDQ counts with and without prediction.
fn cpu_counts(queries: &[Query]) -> (u64, u64) {
    let mut out = (0, 0);
    for q in queries {
        let robot = q.kind.robot();
        let motions: Vec<_> = q.trace.motions.iter().map(|m| m.poses.clone()).collect();
        for (prediction, total) in [(true, &mut out.0), (false, &mut out.1)] {
            let cfg = CpuExecConfig {
                n_threads: 1,
                with_prediction: prediction,
                cht_params: ChtParams::paper_arm(),
                seed: q.seed,
            };
            *total += run_cpu(&robot, &q.env, &motions, &cfg).cdqs_executed;
        }
    }
    out
}

#[test]
fn same_seed_same_counts() {
    let arm = arm_queries(7, 2);
    assert_eq!(
        service_counts(&arm, 8, "arm-a"),
        service_counts(&arm_queries(7, 2), 8, "arm-b")
    );
    assert_eq!(cpu_counts(&arm), cpu_counts(&arm_queries(7, 2)));
    let planar = planar_queries(7, 2, 40);
    let a = service_counts(&planar, 1, "planar-a");
    assert_eq!(a, service_counts(&planar_queries(7, 2, 40), 1, "planar-b"));
    assert!(a.warm_opens > 0, "second round must warm-start: {a:?}");
}

#[test]
fn other_seed_other_inputs() {
    let text = |qs: Vec<Query>| qs.iter().map(|q| q.trace.to_text()).collect::<String>();
    assert_ne!(text(arm_queries(7, 2)), text(arm_queries(8, 2)));
    assert_ne!(
        text(planar_queries(7, 2, 40)),
        text(planar_queries(8, 2, 40))
    );
}
