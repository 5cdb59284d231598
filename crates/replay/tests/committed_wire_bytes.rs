//! Byte identity of the wire codec on the committed workloads: every
//! check request (and its response) in `workloads/*.cprlog` decodes and
//! re-encodes to exactly the bytes that were recorded. The logs were
//! written by earlier encoders, so any drift in the float or integer
//! formatting of a `motion` block fails here first.

use copred_replay::format::read_log_file;
use copred_service::protocol::{Request, Response};
use std::path::PathBuf;

fn committed_logs() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../workloads");
    let mut logs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("workloads dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "cprlog"))
        .collect();
    logs.sort();
    assert!(
        !logs.is_empty(),
        "no committed logs under {}",
        dir.display()
    );
    logs
}

#[test]
fn committed_check_requests_reencode_byte_identically() {
    for path in committed_logs() {
        let log = read_log_file(&path).expect("committed log parses");
        let mut checks = 0;
        for rec in &log.records {
            if rec.verb != "check_motion" && rec.verb != "check_pose" {
                continue;
            }
            checks += 1;
            let req = Request::from_text(&rec.request)
                .unwrap_or_else(|e| panic!("{} op {}: {e}", path.display(), rec.idx));
            assert!(
                req.to_text() == rec.request,
                "{} op {}: request re-encodes differently",
                path.display(),
                rec.idx
            );
            let resp = Response::from_text(&rec.response)
                .unwrap_or_else(|e| panic!("{} op {}: {e}", path.display(), rec.idx));
            assert_eq!(
                resp.to_text(),
                rec.response,
                "{} op {}: response re-encodes differently",
                path.display(),
                rec.idx
            );
        }
        assert!(checks > 0, "{} holds no check records", path.display());
    }
}
