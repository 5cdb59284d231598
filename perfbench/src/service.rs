//! The two wire workloads.
//!
//! - `arm_bulk`: two planners in a closed loop against one default
//!   `copred_server`, 8 arm motions per `check_motion`, no store.
//! - `planar_fleet_churn`: two planners in an open loop at a fixed
//!   offered rate into `copred_fleet up backends=2`, one planar motion
//!   per request, every `open` carrying its scene's fingerprint; scenes
//!   repeat round after round, so later opens warm-start.
//!
//! The traced pass splits the measured window into an untraced half (the
//! reference for tracing overhead and conservation) and a traced half;
//! the fleet workload then replays the traced half's ops against one
//! direct store-enabled `copred_server` to isolate the router hop.

use crate::child::Service;
use crate::inputs::{arm_queries, planar_queries, Query};
use crate::report::{EndToEnd, Layers};
use crate::shadow::{verify, Expected, Shadow};
use crate::stats::{mean, percentile, ratio};
use crate::wire::{push_query, Driver, Op, Sample, Step};
use crate::{Ctx, Outcome, SETUP_REPS};
use copred_service::protocol::{Response, ServiceError};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// `arm_bulk`: planners, queries per combo, motions per request, latency
/// limit. One planner: with two, both planners and the server share the
/// host's two cores, and the median check time sat on the edge between an
/// uncontended and a contended mode, moving by 40% from run to run.
const ARM_PLANNERS: usize = 1;
const ARM_PER_COMBO: usize = 100;
const ARM_BATCH: usize = 8;
const ARM_SLO_US: f64 = 20_000.0;

/// `planar_fleet_churn`: planners, scenes per combo, offered rate (all
/// planners together), latency limit.
const FLEET_PLANNERS: usize = 2;
const PLANAR_PER_COMBO: usize = 48;
/// Motions per planar query: short queries make the session churn (open,
/// close, snapshot, gossip) a steady share of the traffic.
const PLANAR_MOTIONS: usize = 40;
const PLANAR_BATCH: usize = 1;
const FLEET_RATE_PER_S: f64 = 300.0;
const FLEET_SLO_US: f64 = 10_000.0;

/// Largest |sum of layers − untraced end-to-end| / untraced the traced
/// pass accepts. The server layers sum to the traced round trip by
/// construction (the hop is the remainder), so this bounds tracing
/// overhead plus the drift between the two halves of the run.
const SERVICE_CONSERVATION_TOL: f64 = 0.25;

struct Plan {
    queries: Vec<Query>,
    /// Each planner's op stream: query `q` belongs to planner `q % planners`,
    /// so no two planners ever hold sessions on one scene at once.
    steps: Vec<Vec<Step>>,
    batch: usize,
}

impl Plan {
    fn new(queries: Vec<Query>, batch: usize, planners: usize) -> Plan {
        let mut steps = vec![Vec::new(); planners];
        for q in 0..queries.len() {
            push_query(&queries, q, batch, &mut steps[q % planners]);
        }
        Plan {
            queries,
            steps,
            batch,
        }
    }

    fn drivers(&self, addr: SocketAddr) -> Result<Vec<Driver<'_>>, String> {
        self.steps
            .iter()
            .map(|s| {
                Driver::new(addr, &self.queries, s, self.batch)
                    .map_err(|e| format!("connect {addr}: {e}"))
            })
            .collect()
    }
}

/// Runs `f` on every driver in its own thread; returns each driver's
/// samples.
fn phase<'a>(
    drivers: &mut [Driver<'a>],
    f: impl Fn(&mut Driver<'a>) -> Vec<Sample> + Sync,
) -> Vec<Vec<Sample>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = drivers.iter_mut().map(|d| s.spawn(|| f(d))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("planner thread"))
            .collect()
    })
}

/// Set-up, repeated `SETUP_REPS` times: make the inputs, start the
/// service, warm it with one throw-away query per planner. Returns the
/// median set-up time and the last repetition's plan and service.
fn setup(
    make: impl Fn() -> (Vec<Query>, Vec<Query>),
    batch: usize,
    planners: usize,
    spawn: impl Fn() -> std::io::Result<Service>,
    errors: &mut Vec<String>,
) -> Result<(f64, Plan, Service), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let (queries, warm) = make();
        let plan = Plan::new(queries, batch, planners);
        let svc = spawn().map_err(|e| e.to_string())?;
        let warm = Plan::new(warm, batch, planners);
        for mut d in warm.drivers(svc.addr)? {
            let samples = d.query();
            if verify(&warm.queries, batch, &samples, None, 0, errors) > 0 {
                errors.push("warm-up query failed".into());
            }
        }
        times.push(t.elapsed().as_secs_f64());
        last = Some((plan, svc));
    }
    let (plan, svc) = last.expect("at least one set-up");
    Ok((crate::stats::median(&times), plan, svc))
}

/// End-to-end figures from the samples of one untraced window that
/// started at `t0`.
fn end_to_end(samples: &[Vec<Sample>], t0: Instant, slo_us: f64) -> EndToEnd {
    let mut e = EndToEnd::default();
    let secs = |s: &Sample| s.done.saturating_duration_since(t0).as_secs_f64();
    let mut cdqs = 0u64;
    for conn in samples {
        let mut query_ns = Some(0u64);
        for s in conn {
            e.attempted += 1;
            e.elapsed_s = e.elapsed_s.max(secs(s));
            let ok = matches!(s.resp, Ok(ref r) if !matches!(r, Response::Error(_)));
            e.failed += u64::from(!ok);
            query_ns = query_ns.filter(|_| s.timed && ok).map(|q| q + s.latency_ns);
            match s.step.op {
                Op::Check(_) if s.timed => {
                    e.slo_requests += 1;
                    if let Ok(Response::Results { results, .. }) = &s.resp {
                        let us = s.latency_ns as f64 / 1e3;
                        e.checks.push((secs(s), us, results.len() as u64));
                        e.slo_met += u64::from(us <= slo_us);
                        cdqs += results.iter().map(|r| r.cdqs_executed).sum::<u64>();
                    }
                }
                Op::Close => {
                    if let Some(q) = query_ns {
                        e.queries.push((secs(s), q as f64 / 1e6));
                    }
                    query_ns = Some(0);
                }
                _ => {}
            }
        }
    }
    e.cdqs_per_check = ratio(
        cdqs as f64,
        e.checks.iter().map(|c| c.2).sum::<u64>() as f64,
    );
    e
}

/// Per-layer means over the traced check requests, each paired with its
/// in-process answer, and the mean per-request sum of those layers
/// (generator lag, request encode and decode, execute, response encode
/// and decode, and the hop: wire time the in-process work leaves over).
fn service_layers(plan: &Plan, traced: &[(&Sample, &Expected)]) -> (Layers, f64) {
    let mut l = Layers::default();
    let (mut n, mut motions, mut sum_ns) = (0.0, 0.0, 0.0);
    let (mut opens, mut closes, mut lags) = (Vec::new(), Vec::new(), Vec::new());
    let (mut retry, mut check_reqs) = (0.0, 0.0);
    for &(s, e) in traced {
        let Some(sp) = s.split.filter(|_| s.timed) else {
            continue;
        };
        lags.push(s.lag_ns as f64 / 1e3);
        match s.step.op {
            Op::Open => opens.push(sp.wire_ns as f64 / 1e3),
            Op::Close => closes.push(sp.wire_ns as f64 / 1e3),
            Op::Check(b) => {
                check_reqs += 1.0;
                if matches!(s.resp, Ok(Response::Error(ServiceError::RetryAfter { .. }))) {
                    retry += 1.0;
                }
                if !matches!(s.resp, Ok(Response::Results { .. })) {
                    continue;
                }
                let server_ns = (e.decode_ns + e.execute_ns + e.encode_ns) as f64;
                n += 1.0;
                motions += plan.queries[s.step.query].batch(b, plan.batch).len() as f64;
                l.req_encode_us += sp.encode_ns as f64;
                l.resp_decode_us += sp.decode_ns as f64;
                l.req_decode_us += e.decode_ns as f64;
                l.execute_us_per_check += e.execute_ns as f64;
                l.resp_encode_us += e.encode_ns as f64;
                l.server_hop_us += sp.wire_ns as f64 - server_ns;
                l.req_bytes_per_check += sp.req_bytes as f64;
                l.resp_bytes_per_check += sp.resp_bytes as f64;
                sum_ns += (s.lag_ns + sp.encode_ns + sp.wire_ns + sp.decode_ns) as f64;
            }
        }
    }
    let per_req_us = |v: f64| ratio(v, n) / 1e3;
    l.req_encode_us = per_req_us(l.req_encode_us);
    l.resp_decode_us = per_req_us(l.resp_decode_us);
    l.req_decode_us = per_req_us(l.req_decode_us);
    l.resp_encode_us = per_req_us(l.resp_encode_us);
    l.server_hop_us = per_req_us(l.server_hop_us);
    l.execute_us_per_check = ratio(l.execute_us_per_check, motions) / 1e3;
    l.req_bytes_per_check = ratio(l.req_bytes_per_check, motions);
    l.resp_bytes_per_check = ratio(l.resp_bytes_per_check, motions);
    l.retry_after_frac = ratio(retry, check_reqs);
    l.open_us = mean(&opens);
    l.close_us = mean(&closes);
    l.lag_p99_us = percentile(&lags, 99.0);
    l.samples = n as usize;
    (l, per_req_us(sum_ns))
}

/// The execute split and prediction quality from the session copies.
fn split_layers(l: &mut Layers, shadow: &Shadow) {
    let sp = &shadow.split;
    let m = sp.motions as f64;
    l.to_cdq_infos_us_per_check = ratio(sp.to_infos_ns as f64 / 1e3, m);
    l.prime_us_per_check = ratio(sp.prime_ns as f64 / 1e3, m);
    l.schedule_us_per_check = ratio(sp.schedule_ns as f64 / 1e3, m);
    l.schedule_obstacle_tests_per_check = ratio(sp.obstacle_tests as f64, m);
    l.precision = ratio(sp.true_pos as f64, (sp.true_pos + sp.false_pos) as f64);
    l.recall = ratio(sp.true_pos as f64, (sp.true_pos + sp.false_neg) as f64);
}

fn mean_check_latency_us(samples: &[Vec<Sample>]) -> f64 {
    let v: Vec<f64> = samples
        .iter()
        .flatten()
        .filter(|s| s.timed && matches!(s.resp, Ok(Response::Results { .. })))
        .map(|s| s.latency_ns as f64 / 1e3)
        .collect();
    mean(&v)
}

/// The traced pass's conservation check: the layers must sum to the
/// untraced end-to-end check time within `SERVICE_CONSERVATION_TOL`, and
/// the in-process work must fit inside the measured wire time.
fn conserve(
    l: &mut Layers,
    untraced: &[Vec<Sample>],
    traced: &[Vec<Sample>],
    sum_us: f64,
    errors: &mut Vec<String>,
) {
    let untraced_us = mean_check_latency_us(untraced);
    l.tracing_overhead_frac = (mean_check_latency_us(traced) - untraced_us) / untraced_us;
    l.conservation_err_frac = (sum_us - untraced_us).abs() / untraced_us;
    eprintln!(
        "conservation: layers sum to {sum_us:.2} us per check request, untraced end-to-end {untraced_us:.2} us, error {:.4} (tolerance {SERVICE_CONSERVATION_TOL})",
        l.conservation_err_frac
    );
    if l.conservation_err_frac > SERVICE_CONSERVATION_TOL {
        errors.push(format!(
            "conservation: layers sum to {sum_us:.2} us, untraced end-to-end is {untraced_us:.2} us"
        ));
    }
    if l.server_hop_us < 0.0 {
        errors.push(format!(
            "conservation: in-process work exceeds the wire time by {:.2} us",
            -l.server_hop_us
        ));
    }
}

pub fn arm_bulk(ctx: &Ctx) -> Result<Outcome, String> {
    let mut errors = Vec::new();
    let server_bin = ctx.bin_dir.join("copred_server");
    let (setup_s, plan, server) = setup(
        || {
            (
                arm_queries(ctx.seed, ARM_PER_COMBO),
                arm_queries(!ctx.seed, 1),
            )
        },
        ARM_BATCH,
        ARM_PLANNERS,
        || Service::spawn(&server_bin, &["addr=127.0.0.1:0"], &ctx.work.join("tmp")),
        &mut errors,
    )?;
    let mut drivers = plan.drivers(server.addr)?;
    // One epoch is each planner's stream once. Sessions start cold, so
    // every later epoch must answer exactly like the in-process replay.
    let mut shadow = Shadow::new(None, ctx.traced).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    if !ctx.traced {
        let t0 = Instant::now();
        let samples = phase(&mut drivers, |d| d.closed(t0 + ctx.window));
        let mut e = end_to_end(&samples, t0, ARM_SLO_US);
        e.setup_s = setup_s;
        e.peak_rss_mb = server.peak_rss_mb();
        let (mut cdqs, mut checks) = (0u64, 0u64);
        for (conn, steps) in samples.iter().zip(&plan.steps) {
            let expected = shadow.replay(&plan.queries, ARM_BATCH, steps, false)?;
            verify(
                &plan.queries,
                ARM_BATCH,
                conn,
                Some(&expected),
                0,
                &mut errors,
            );
            for r in expected.iter().filter_map(|x| match &x.resp {
                Response::Results { results, .. } => Some(results),
                _ => None,
            }) {
                checks += r.len() as u64;
                cdqs += r.iter().map(|r| r.cdqs_executed).sum::<u64>();
            }
        }
        // The epoch's count, so it does not depend on where the window ends.
        e.cdqs_per_check = ratio(cdqs as f64, checks as f64);
        out.attempted = e.attempted;
        out.failed = e.failed;
        out.metrics = e.metrics();
    } else {
        let t0 = Instant::now();
        let untraced = phase(&mut drivers, |d| d.closed(t0 + ctx.window / 2));
        for d in &mut drivers {
            d.traced = true;
        }
        let t1 = Instant::now();
        let traced = phase(&mut drivers, |d| d.closed(t1 + ctx.window / 2));
        let expected = plan
            .steps
            .iter()
            .map(|steps| shadow.replay(&plan.queries, ARM_BATCH, steps, true))
            .collect::<Result<Vec<_>, _>>()?;
        let mut pairs = Vec::new();
        for ((u, t), x) in untraced.iter().zip(&traced).zip(&expected) {
            out.attempted += (u.len() + t.len()) as u64;
            out.failed += verify(&plan.queries, ARM_BATCH, u, Some(x), 0, &mut errors);
            out.failed += verify(&plan.queries, ARM_BATCH, t, Some(x), u.len(), &mut errors);
            pairs.extend(
                t.iter()
                    .enumerate()
                    .map(|(i, s)| (s, &x[(i + u.len()) % x.len()])),
            );
        }
        let (mut l, sum_us) = service_layers(&plan, &pairs);
        split_layers(&mut l, &shadow);
        conserve(&mut l, &untraced, &traced, sum_us, &mut errors);
        out.metrics = l.metrics();
    }
    out.errors = errors;
    Ok(out)
}

/// The warm-up queries of the fleet workload carry no fingerprint, so they
/// leave no state behind for the measured scenes.
fn without_fp(mut queries: Vec<Query>) -> Vec<Query> {
    for q in &mut queries {
        q.fp = None;
    }
    queries
}

/// Opens that warm-started, over all opens answered.
fn warm_open_frac<'s>(samples: impl Iterator<Item = &'s Sample>) -> f64 {
    let (mut warm, mut opens) = (0.0, 0.0);
    for s in samples {
        if let Ok(Response::Session { warm: w, .. }) = s.resp {
            opens += 1.0;
            warm += f64::from(u8::from(w));
        }
    }
    ratio(warm, opens)
}

/// Mean wire time of the answered ops that `kind` selects.
fn mean_wire_us(samples: &[Vec<Sample>], kind: impl Fn(Op) -> bool) -> f64 {
    let v: Vec<f64> = samples
        .iter()
        .flatten()
        .filter(|s| s.timed && kind(s.step.op))
        .filter(|s| matches!(s.resp, Ok(ref r) if !matches!(r, Response::Error(_))))
        .filter_map(|s| s.split.map(|sp| sp.wire_ns as f64 / 1e3))
        .collect();
    mean(&v)
}

pub fn planar_fleet_churn(ctx: &Ctx) -> Result<Outcome, String> {
    let mut errors = Vec::new();
    let fleet_bin = ctx.bin_dir.join("copred_fleet");
    let (setup_s, plan, fleet) = setup(
        || {
            (
                planar_queries(ctx.seed, PLANAR_PER_COMBO, PLANAR_MOTIONS),
                without_fp(planar_queries(!ctx.seed, 1, PLANAR_MOTIONS)),
            )
        },
        PLANAR_BATCH,
        FLEET_PLANNERS,
        || Service::spawn(&fleet_bin, &["up", "backends=2"], &ctx.work.join("fleet")),
        &mut errors,
    )?;
    let interval = Duration::from_secs_f64(FLEET_PLANNERS as f64 / FLEET_RATE_PER_S);
    let mut drivers = plan.drivers(fleet.addr)?;
    let mut shadow =
        Shadow::new(Some(&ctx.work.join("shadow")), ctx.traced).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    // Replays what each planner really sent, in order, through the
    // store-backed shadow, and checks every live answer against it.
    let mut check_against_shadow =
        |phases: &[&Vec<Vec<Sample>>], timed: bool, errors: &mut Vec<String>| {
            let mut expected = Vec::new();
            let mut failed = 0;
            for c in 0..FLEET_PLANNERS {
                let live: Vec<&Sample> = phases.iter().flat_map(|p| &p[c]).collect();
                let x = shadow.replay(
                    &plan.queries,
                    PLANAR_BATCH,
                    live.iter().map(|s| &s.step),
                    timed,
                )?;
                let mut offset = 0;
                for p in phases {
                    failed += verify(&plan.queries, PLANAR_BATCH, &p[c], Some(&x), offset, errors);
                    offset += p[c].len();
                }
                expected.push(x);
            }
            Ok::<_, String>((expected, failed))
        };
    if !ctx.traced {
        let t0 = Instant::now();
        let samples = phase(&mut drivers, |d| d.open(t0, interval, t0 + ctx.window));
        let mut e = end_to_end(&samples, t0, FLEET_SLO_US);
        e.setup_s = setup_s;
        e.peak_rss_mb = fleet.peak_rss_mb();
        check_against_shadow(&[&samples], false, &mut errors)?;
        out.attempted = e.attempted;
        out.failed = e.failed;
        out.metrics = e.metrics();
    } else {
        let third = ctx.window / 3;
        let t0 = Instant::now();
        let untraced = phase(&mut drivers, |d| d.open(t0, interval, t0 + third));
        let traced_from: Vec<usize> = drivers.iter().map(|d| d.pos).collect();
        for d in &mut drivers {
            d.traced = true;
        }
        let t1 = Instant::now();
        let traced = phase(&mut drivers, |d| d.open(t1, interval, t1 + third));
        let (expected, failed) = check_against_shadow(&[&untraced, &traced], true, &mut errors)?;
        out.failed += failed;
        let mut pairs = Vec::new();
        for ((u, t), x) in untraced.iter().zip(&traced).zip(&expected) {
            out.attempted += (u.len() + t.len()) as u64;
            pairs.extend(t.iter().zip(&x[u.len()..]));
        }
        let (mut l, sum_us) = service_layers(&plan, &pairs);
        split_layers(&mut l, &shadow);
        conserve(&mut l, &untraced, &traced, sum_us, &mut errors);
        l.wal_bytes_per_check = ratio(shadow.wal_bytes() as f64, shadow.split.motions as f64);
        l.snapshot_bytes_per_close =
            ratio(shadow.snapshot_bytes as f64, shadow.store_closes as f64);
        l.warm_open_frac = warm_open_frac(untraced.iter().chain(&traced).flatten());

        // The same ops again, straight into one store-enabled server that
        // also serves the replica pull the router makes after each check.
        drop(drivers);
        let server_bin = ctx.bin_dir.join("copred_server");
        let store = ctx.work.join("direct-store");
        let store_arg = format!("store_dir={}", store.display());
        let direct = Service::spawn(
            &server_bin,
            &["addr=127.0.0.1:0", &store_arg],
            &ctx.work.join("tmp"),
        )
        .map_err(|e| e.to_string())?;
        let mut direct_drivers = plan.drivers(direct.addr)?;
        for (d, &pos) in direct_drivers.iter_mut().zip(&traced_from) {
            d.pos = pos;
            d.traced = true;
            d.pull = true;
        }
        let t2 = Instant::now();
        let direct_samples = phase(&mut direct_drivers, |d| d.open(t2, interval, t2 + third));
        for conn in &direct_samples {
            out.attempted += conn.len() as u64;
            out.failed += verify(&plan.queries, PLANAR_BATCH, conn, None, 0, &mut errors);
        }
        let pulls: Vec<_> = direct_samples
            .iter()
            .flatten()
            .filter_map(|s| s.pull)
            .collect();
        let pulled_motions = direct_samples
            .iter()
            .flatten()
            .filter(|s| s.pull.is_some())
            .map(|s| motions(&plan, s))
            .sum::<usize>();
        let check = |op| matches!(op, Op::Check(_));
        let close = |op| op == Op::Close;
        l.router_hop_us = mean_wire_us(&traced, check) - mean_wire_us(&direct_samples, check);
        l.close_gossip_us = mean_wire_us(&traced, close) - mean_wire_us(&direct_samples, close);
        l.replica_pull_us = mean(
            &pulls
                .iter()
                .map(|p| p.wire_ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        );
        l.replica_bytes_per_check = ratio(
            pulls.iter().map(|p| p.resp_bytes as f64).sum::<f64>(),
            pulled_motions as f64,
        );
        out.metrics = l.metrics();
    }
    out.errors = errors;
    Ok(out)
}

fn motions(plan: &Plan, s: &Sample) -> usize {
    match s.step.op {
        Op::Check(b) => plan.queries[s.step.query].batch(b, plan.batch).len(),
        _ => 0,
    }
}
