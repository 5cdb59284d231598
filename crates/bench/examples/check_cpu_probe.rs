//! In-process CPU cost of one check on the server's `check_motion` path:
//! client request encode, server request decode (`Request::from_text`),
//! and `execute_batch`, per check.
//!
//! The queries are the `arm_bulk` benchmark workload's: GNNMP-KUKA and
//! MPNet-Baxter at quick scale, 100 queries per combo from seed 7,
//! interleaved, each in its own coord session seeded as the benchmark
//! seeds it, 8 motions per request. No network, observability off.
//!
//! ```text
//! cargo run --release --offline -p copred-bench --example check_cpu_probe [rounds]
//! ```
//!
//! Prints one line per round (default 3): µs per check of each step, then
//! the checks, colliding checks, CDQs issued and obstacle tests, which
//! depend only on the workload and must not change with the code.

use copred_bench::workloads::planner_traces_with_scenes;
use copred_bench::{Algo, Combo, RobotKind, Scale};
use copred_core::ChtParams;
use copred_service::protocol::{Request, SchedMode};
use copred_service::{execute_batch, SessionRegistry};
use copred_trace::QueryTrace;
use std::time::Instant;

const SEED: u64 = 7;
const PER_COMBO: usize = 100;
const BATCH: usize = 8;
const CSP_STEP: usize = 5;

/// The workload's queries in benchmark order, with their session seeds.
fn queries() -> Vec<(QueryTrace, u64)> {
    let scale = Scale {
        queries: PER_COMBO,
        ..Scale::quick()
    };
    let combos = [
        (Algo::Gnnmp, RobotKind::Kuka),
        (Algo::Mpnet, RobotKind::Baxter),
    ];
    let mut sets: Vec<_> = combos
        .iter()
        .enumerate()
        .map(|(i, &(algo, robot))| {
            planner_traces_with_scenes(
                &Combo { algo, robot },
                &scale,
                SEED ^ ((i as u64 + 1) << 40),
            )
            .into_iter()
        })
        .collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for set in &mut sets {
            if let Some((trace, _env)) = set.next() {
                let n = out.len() as u64;
                out.push((trace, SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (n + 1)));
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map_or(3, |r| r.parse().expect("rounds must be a number"));
    let queries = queries();
    for round in 0..rounds {
        let registry = SessionRegistry::new(ChtParams::paper_arm(), 64);
        let (mut encode_ns, mut decode_ns, mut execute_ns) = (0u128, 0u128, 0u128);
        let (mut checks, mut colliding, mut cdqs, mut tests) = (0u64, 0u64, 0u64, 0u64);
        for (trace, seed) in &queries {
            let (session, _) = registry
                .open(&trace.robot_name, SchedMode::Coord, *seed)
                .expect("open");
            for batch in trace.motions.chunks(BATCH) {
                let req = Request::CheckMotion {
                    session: session.id,
                    motions: batch.to_vec(),
                    trace: None,
                };
                let t0 = Instant::now();
                let text = req.to_text();
                let t1 = Instant::now();
                let Ok(Request::CheckMotion { motions, .. }) = Request::from_text(&text) else {
                    panic!("request does not decode");
                };
                let t2 = Instant::now();
                let results = execute_batch(&session, &motions, CSP_STEP);
                let t3 = Instant::now();
                encode_ns += (t1 - t0).as_nanos();
                decode_ns += (t2 - t1).as_nanos();
                execute_ns += (t3 - t2).as_nanos();
                for r in &results {
                    checks += 1;
                    colliding += u64::from(r.colliding);
                    cdqs += r.cdqs_executed;
                    tests += r.obstacle_tests;
                }
            }
            registry.close(session.id).expect("close");
        }
        let per = |ns: u128| ns as f64 / 1e3 / checks as f64;
        println!(
            "round {round}: encode_us {:.2} decode_us {:.2} execute_us {:.2} per check; checks {checks} colliding {colliding} cdqs_issued {cdqs} obstacle_tests {tests}",
            per(encode_ns),
            per(decode_ns),
            per(execute_ns),
        );
    }
}
