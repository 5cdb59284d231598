//! Heap allocations of the server's per-check path, counted
//! deterministically: `Request::from_text` per decoded check and
//! `execute_batch` per executed check, on a fixed coord workload.
//!
//! Allocation counts stand in for the CPU cost of decode and of Algorithm
//! 1's bookkeeping, which wall clocks on a shared host measure too noisily
//! to gate on. The same binary checks that hostile CDQ indices from the
//! wire cost no allocation proportional to their value.
//!
//! This is its own integration binary with a single test because the
//! counting global allocator sees every thread of the process; concurrent
//! tests would pollute each other's counts.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use copred_core::ChtParams;
use copred_service::protocol::{CheckResult, Request, SchedMode};
use copred_service::{execute_batch, SessionRegistry, SessionState};
use copred_trace::MotionTrace;

/// System allocator that counts allocations, reallocations and the bytes
/// they request.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static GLOBAL: Counting = Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations and bytes requested while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (n, b) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    (
        ALLOCATIONS.load(Ordering::Relaxed) - n,
        BYTES.load(Ordering::Relaxed) - b,
        out,
    )
}

/// Decodes one `check_motion` frame of `motions` for `session`.
fn decode(session: u64, motions: &[MotionTrace]) -> (u64, Vec<MotionTrace>) {
    let text = Request::CheckMotion {
        session,
        motions: motions.to_vec(),
        trace: None,
    }
    .to_text();
    let (n, _, req) = allocations(|| Request::from_text(&text).expect("decodes"));
    let Request::CheckMotion { motions, .. } = req else {
        panic!("decoded as {req:?}");
    };
    (n, motions)
}

/// The brute-force verdict of one motion: every CDQ executed.
fn brute_force(m: &MotionTrace) -> (bool, u64) {
    (m.colliding(), m.cdqs.len() as u64)
}

/// Runs `text` through decode and `execute_batch` twice (cold, then with
/// the CHT trained by the first pass), checks each answer against brute
/// force, and returns the most bytes one execute requested.
fn hostile(session: &SessionState, text: &str) -> u64 {
    let Ok(Request::CheckMotion { motions, .. }) = Request::from_text(text) else {
        panic!("hostile frame does not decode: {text:?}");
    };
    let mut most = 0;
    for _ in 0..2 {
        let (_, bytes, results) = allocations(|| execute_batch(session, &motions, 5));
        for (m, r) in motions.iter().zip(&results) {
            let &CheckResult {
                colliding,
                cdqs_executed,
                cdqs_total,
                ..
            } = r;
            assert_eq!((colliding, cdqs_total), brute_force(m), "{text:?}");
            assert!(cdqs_executed >= 1 && cdqs_executed <= cdqs_total);
        }
        most = most.max(bytes);
    }
    most
}

#[test]
fn check_path_allocates_a_fixed_count_per_check() {
    let traces = common::synthetic_traces(4, 16, 11);
    let registry = SessionRegistry::new(ChtParams::paper_2d(), 4);
    let (mut decode_n, mut execute_n, mut checks) = (0, 0, 0);
    let mut verdicts = (0, 0);
    for (q, trace) in traces.iter().enumerate() {
        let (session, _) = registry
            .open("planar-2d", SchedMode::Coord, q as u64 + 1)
            .unwrap();
        for batch in trace.motions.chunks(8) {
            let (n, motions) = decode(session.id, batch);
            decode_n += n;
            let (n, _, results) = allocations(|| execute_batch(&session, &motions, 5));
            execute_n += n;
            checks += results.len() as u64;
            for r in &results {
                verdicts.0 += u64::from(r.colliding);
                verdicts.1 += r.cdqs_executed;
            }
        }
        registry.close(session.id).unwrap();
    }
    println!(
        "{checks} checks: from_text {decode_n} allocations ({:.2} per check), execute_batch {execute_n} ({:.2} per check); colliding {}, cdqs_issued {}",
        decode_n as f64 / checks as f64,
        execute_n as f64 / checks as f64,
        verdicts.0,
        verdicts.1,
    );
    assert_eq!(checks, 64);
    assert_eq!(verdicts, (29, 378), "the workload's answers moved");
    assert_eq!(decode_n, 648, "request decode allocations");
    assert_eq!(execute_n, 354, "execute_batch allocations");

    // Hostile wire input in a coord session: a `link_idx` near u32::MAX,
    // and CDQs sharing one `(pose_idx, link_idx)` pair. Both are answered
    // with the brute-force verdict, with no allocation sized by the index.
    let (session, _) = registry.open("planar-2d", SchedMode::Coord, 9).unwrap();
    let huge = "check_motion 1 1\nmotion S1 2 2\npose 0.0 0.0\npose 0.5 0.5\n\
                cdq 0 4000000000 0.1 0.2 0.0 0 3\ncdq 1 4000000000 0.5 0.5 0.0 1 2\n";
    let dup = "check_motion 1 2\nmotion S1 2 4\npose 0.0 0.0\npose 0.5 0.5\n\
               cdq 0 0 0.1 0.2 0.0 0 3\ncdq 0 0 0.7 0.7 0.0 1 1\n\
               cdq 1 0 0.5 0.5 0.0 0 2\ncdq 1 0 0.5 0.5 0.0 0 2\n\
               motion S2 1 3\npose 0.2 0.2\n\
               cdq 0 1 0.2 0.2 0.0 0 1\ncdq 0 1 0.3 0.3 0.0 0 1\ncdq 0 1 0.3 0.3 0.0 0 1\n";
    for text in [huge, dup] {
        let bytes = hostile(&session, text);
        assert!(bytes < 4096, "{bytes} bytes for one small motion: {text:?}");
    }
}
