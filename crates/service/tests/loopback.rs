//! End-to-end loopback test on a synthetic workload: full verb coverage
//! over one client connection. Multi-connection determinism, the
//! coord-vs-naive CDQ saving, and server STATS against client-side sums
//! are checked by `copred-bench`'s `service_loopback` test, which drives
//! a planner workload with the replay engine.

mod common;

use common::synthetic_traces;
use copred_service::client::stat_u64;
use copred_service::protocol::SchedMode;
use copred_service::{Server, ServerConfig, ServiceClient};

#[test]
fn verbs_roundtrip_over_loopback() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let mut c = ServiceClient::connect(server.local_addr()).expect("connect");
    let traces = synthetic_traces(1, 3, 5);
    let motions = &traces[0].motions;

    let session = c.open("planar-2d", 1, SchedMode::Coord, 3).expect("open");
    let (results, _) = c.check_motions(session, motions, 8).expect("check batch");
    assert_eq!(results.len(), motions.len());
    for (r, m) in results.iter().zip(motions) {
        assert_eq!(r.colliding, m.cdqs.iter().any(|q| q.colliding));
        assert_eq!(r.cdqs_total as usize, m.cdqs.len());
        assert!(r.cdqs_executed <= r.cdqs_total);
    }

    let kv = c.stats(Some(session)).expect("session stats");
    assert_eq!(stat_u64(&kv, "checks"), Some(motions.len() as u64));
    assert!(kv.iter().any(|(k, v)| k == "mode" && v == "coord"));

    c.reset(session).expect("reset");
    let kv = c.stats(Some(session)).expect("stats after reset");
    assert_eq!(
        stat_u64(&kv, "cht_occupancy"),
        Some(0),
        "reset clears the table"
    );

    c.close(session).expect("close");
    assert!(c.stats(Some(session)).is_err(), "closed session is gone");

    let kv = c.stats(None).expect("global stats");
    assert_eq!(stat_u64(&kv, "sessions_open"), Some(0));
    assert_eq!(stat_u64(&kv, "sessions_closed"), Some(1));
}
