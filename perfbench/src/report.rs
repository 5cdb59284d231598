//! The metric sets every workload reports: end-to-end (untraced pass) and
//! per-layer (traced pass). A layer absent from a workload's path reports
//! 0 for its metrics.

use crate::stats::{median, percentile, Metrics};

/// The measured window is cut into this many equal sub-windows by
/// completion time; each timing is computed per sub-window and the median
/// reported, so a burst of load from outside the benchmark that covers
/// less than half the window does not move it.
pub const SUB_WINDOWS: usize = 7;

/// End-to-end figures of an untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Median over the set-up repetitions.
    pub setup_s: f64,
    /// From the window start to the last completion.
    pub elapsed_s: f64,
    /// Answered check requests (or offline batches): completion time in
    /// seconds from the window start, latency in µs per request (per
    /// motion, offline), motions checked.
    pub checks: Vec<(f64, f64, u64)>,
    /// Queries (open, every check, close): completion time, ms.
    pub queries: Vec<(f64, f64)>,
    /// Requests finished within the workload's latency limit.
    pub slo_met: u64,
    /// Requests the limit applies to (failed ones count as misses).
    pub slo_requests: u64,
    pub attempted: u64,
    pub failed: u64,
    pub cdqs_per_check: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    fn bin(&self, t: f64) -> usize {
        ((t / self.elapsed_s * SUB_WINDOWS as f64) as usize).min(SUB_WINDOWS - 1)
    }

    /// Median over the sub-windows of `f` applied to each one's values.
    fn per_window(
        &self,
        items: impl Iterator<Item = (f64, f64)>,
        f: impl Fn(&[f64]) -> f64,
    ) -> f64 {
        let mut bins = vec![Vec::new(); SUB_WINDOWS];
        for (t, v) in items {
            bins[self.bin(t)].push(v);
        }
        median(&bins.iter().map(|b| f(b)).collect::<Vec<_>>())
    }

    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let n = self.checks.len();
        let motions: u64 = self.checks.iter().map(|c| c.2).sum();
        let window_s = self.elapsed_s / SUB_WINDOWS as f64;
        let lat = || self.checks.iter().map(|&(t, us, _)| (t, us));
        m.push("setup_s", self.setup_s, "s", crate::SETUP_REPS);
        m.push(
            "checks_per_s",
            self.per_window(self.checks.iter().map(|&(t, _, k)| (t, k as f64)), |b| {
                b.iter().sum::<f64>() / window_s
            }),
            "1/s",
            motions as usize,
        );
        m.push("check_p50_us", self.per_window(lat(), median), "us", n);
        m.push(
            "check_p90_us",
            self.per_window(lat(), |b| percentile(b, 90.0)),
            "us",
            n,
        );
        m.push(
            "query_p50_ms",
            self.per_window(self.queries.iter().copied(), median),
            "ms",
            self.queries.len(),
        );
        m.push(
            "slo_met_frac",
            self.slo_met as f64 / self.slo_requests.max(1) as f64,
            "frac",
            self.slo_requests as usize,
        );
        m.push(
            "ok_frac",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
            "frac",
            self.attempted as usize,
        );
        m.push(
            "cdqs_per_check",
            self.cdqs_per_check,
            "count",
            motions as usize,
        );
        m.push("peak_rss_mb", self.peak_rss_mb, "MiB", 1);
        m
    }
}

/// Per-layer figures of a traced run. Times are means per request (or
/// per the unit their name gives), so the service layers add up.
#[derive(Debug, Default)]
pub struct Layers {
    pub req_encode_us: f64,
    pub req_decode_us: f64,
    pub resp_encode_us: f64,
    pub resp_decode_us: f64,
    pub req_bytes_per_check: f64,
    pub resp_bytes_per_check: f64,
    pub server_hop_us: f64,
    pub retry_after_frac: f64,
    pub open_us: f64,
    pub close_us: f64,
    pub execute_us_per_check: f64,
    pub to_cdq_infos_us_per_check: f64,
    pub prime_us_per_check: f64,
    pub schedule_us_per_check: f64,
    pub schedule_obstacle_tests_per_check: f64,
    pub precision: f64,
    pub recall: f64,
    pub wal_bytes_per_check: f64,
    pub snapshot_bytes_per_close: f64,
    pub warm_open_frac: f64,
    pub router_hop_us: f64,
    pub replica_pull_us: f64,
    pub replica_bytes_per_check: f64,
    pub close_gossip_us: f64,
    pub fk_ns_per_pose: f64,
    pub fk_calls_per_check: f64,
    pub env_ns_per_cdq: f64,
    pub env_obstacle_tests_per_cdq: f64,
    pub hash_code_ns: f64,
    pub cht_predict_ns: f64,
    pub cht_observe_ns: f64,
    pub cdq_saved_frac: f64,
    pub lag_p99_us: f64,
    /// (traced − untraced) / untraced end-to-end time per check.
    pub tracing_overhead_frac: f64,
    /// |sum of layer times − untraced time| / untraced time.
    pub conservation_err_frac: f64,
    /// Samples behind the traced means.
    pub samples: usize,
}

impl Layers {
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let n = self.samples;
        let rows: [(&'static str, f64, &'static str); 35] = [
            ("service.protocol.req_encode_us", self.req_encode_us, "us"),
            ("service.protocol.req_decode_us", self.req_decode_us, "us"),
            ("service.protocol.resp_encode_us", self.resp_encode_us, "us"),
            ("service.protocol.resp_decode_us", self.resp_decode_us, "us"),
            (
                "service.protocol.req_bytes_per_check",
                self.req_bytes_per_check,
                "bytes",
            ),
            (
                "service.protocol.resp_bytes_per_check",
                self.resp_bytes_per_check,
                "bytes",
            ),
            ("service.server.hop_us", self.server_hop_us, "us"),
            (
                "service.server.retry_after_frac",
                self.retry_after_frac,
                "frac",
            ),
            ("service.session.open_us", self.open_us, "us"),
            ("service.session.close_us", self.close_us, "us"),
            (
                "service.session.execute_us_per_check",
                self.execute_us_per_check,
                "us",
            ),
            (
                "trace.to_cdq_infos_us_per_check",
                self.to_cdq_infos_us_per_check,
                "us",
            ),
            (
                "core.hash.prime_us_per_check",
                self.prime_us_per_check,
                "us",
            ),
            (
                "collision.schedule.us_per_check",
                self.schedule_us_per_check,
                "us",
            ),
            (
                "collision.schedule.obstacle_tests_per_check",
                self.schedule_obstacle_tests_per_check,
                "count",
            ),
            ("core.predictor.precision", self.precision, "frac"),
            ("core.predictor.recall", self.recall, "frac"),
            (
                "store.wal_bytes_per_check",
                self.wal_bytes_per_check,
                "bytes",
            ),
            (
                "store.snapshot_bytes_per_close",
                self.snapshot_bytes_per_close,
                "bytes",
            ),
            ("store.warm_open_frac", self.warm_open_frac, "frac"),
            ("fleet.router.hop_us", self.router_hop_us, "us"),
            ("fleet.router.replica_pull_us", self.replica_pull_us, "us"),
            (
                "fleet.router.replica_bytes_per_check",
                self.replica_bytes_per_check,
                "bytes",
            ),
            ("fleet.router.close_gossip_us", self.close_gossip_us, "us"),
            ("kinematics.fk_ns_per_pose", self.fk_ns_per_pose, "ns"),
            (
                "kinematics.fk_calls_per_check",
                self.fk_calls_per_check,
                "count",
            ),
            (
                "collision.environment.ns_per_cdq",
                self.env_ns_per_cdq,
                "ns",
            ),
            (
                "collision.environment.obstacle_tests_per_cdq",
                self.env_obstacle_tests_per_cdq,
                "count",
            ),
            ("core.hash.code_ns", self.hash_code_ns, "ns"),
            ("swexec.cht.predict_ns", self.cht_predict_ns, "ns"),
            ("swexec.cht.observe_ns", self.cht_observe_ns, "ns"),
            ("swexec.cpu.cdq_saved_frac", self.cdq_saved_frac, "frac"),
            ("loadgen.lag_p99_us", self.lag_p99_us, "us"),
            (
                "bench.tracing_overhead_frac",
                self.tracing_overhead_frac,
                "frac",
            ),
            (
                "bench.conservation_err_frac",
                self.conservation_err_frac,
                "frac",
            ),
        ];
        for (name, value, unit) in rows {
            m.push(name, value, unit, n);
        }
        m
    }
}
