//! # copred-conform
//!
//! Differential conformance and fault-injection harness for the COORD
//! reproduction. The paper's headline claim — prediction reduces CDQs
//! executed per colliding check — is only meaningful if every execution
//! path computes the *same* collision verdicts with consistent CDQ
//! accounting. Learned proxy checkers accept approximate answers; COORD
//! does not: prediction may only reorder work, never change a verdict.
//! This crate enforces that mechanically, in eight stages:
//!
//! 1. **Schedule semantics** ([`reference`]) — every schedule and
//!    `run_predicted_schedule` under cold, adversarial, and perfect
//!    predictors, diffed against a brute-force reference.
//! 2. **Service differential** ([`service_check`]) — in-process vs a
//!    loopback `copred-service` session vs a re-run, every answer
//!    compared, every verdict held against brute force, and the metrics
//!    ledger audited over wire `stats` and a `/metrics` scrape; plus a
//!    swexec CPU-path verdict cross-check ([`run_cpu_diff`]).
//! 3. **Fault injection** ([`fault`]) — adversarial bytes against the
//!    frame codec and torn-input scenarios against a live server.
//! 4. **Persistence** ([`store_check`]) — warm-start equivalence, crash
//!    recovery from the WAL alone, and torn-tail robustness.
//! 5. **Record → replay** ([`differential`]) — a recorded run replays
//!    bit-identically in-process and over loopback, deterministically,
//!    with the recorded per-session ledgers.
//! 6. **Tracing invisibility** ([`differential`]) — wire trace ids on or
//!    off, recorded or injected, change nothing but the token.
//! 7. **Profiling invisibility** ([`differential`]) — the stage sampler
//!    changes no wire byte and yields well-formed profiles.
//! 8. **Fleet** ([`fleet_check`]) — fleet vs single node, mid-stream
//!    migration identity, and hostile snapshot pushes.
//!
//! Stages 2 and 4–8 share one differential engine,
//! [`copred_replay::run_ab`]: each case builds a log (a planner op
//! stream from [`copred_replay::trace_log`] recorded with
//! [`copred_replay::record`], or assembled with
//! [`copred_replay::unrecorded_log`]), names its arms, and adds only its
//! stage-specific checks on the outcome. Every case's
//! workload comes from one table of per-stage trace blocks and seeds, so
//! no two stages replay the same traces.
//!
//! The `copred_conform` binary wires all eight into CI; every run is a
//! pure function of `--seed`, so a red build is reproducible locally with
//! the same flags.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod differential;
pub mod fault;
pub mod fleet_check;
pub mod generate;
pub mod reference;
pub mod service_check;
pub mod store_check;

pub use generate::{ScenarioGen, ScheduleCase};
pub use reference::{brute_force_verdict, check_schedule_case, run_cpu_diff, RecordingPredictor};

use copred_replay::{run_ab, AbOutcome, Differential};
use copred_service::{SchedMode, Server, ServerConfig};
use copred_trace::QueryTrace;
use std::ops::Range;

/// Every stage, in order: name and default case count. Stage `n` is
/// `STAGES[n - 1]`.
pub const STAGES: [(&str, u64); 8] = [
    ("schedule", 150),
    ("service", 24),
    ("fault", 80),
    ("store", 4),
    ("replay", 3),
    ("trace", 3),
    ("profile", 3),
    ("fleet", 2),
];

/// Where one query-trace stage's cases draw their traces and seeds.
#[derive(Debug)]
struct Workload {
    stage: usize,
    /// First query-trace index of the stage's block; no other stage
    /// reaches into it at CI case counts.
    first_trace: u64,
    /// Query traces each case may draw.
    traces_per_case: u64,
    /// A case's seed is `base_seed * seed_mul + case * seed_step`.
    seed_mul: u64,
    seed_step: u64,
}

/// The stages that replay query traces. Stage 1 draws schedule cases and
/// stage 3 fuzz bytes; both derive their seeds inline.
const WORKLOADS: [Workload; 6] = [
    Workload {
        stage: 2,
        first_trace: 0,
        traces_per_case: 1,
        seed_mul: 1,
        seed_step: 0,
    },
    Workload {
        stage: 4,
        first_trace: 1_000,
        traces_per_case: 1,
        seed_mul: 1,
        seed_step: 0x9E37_79B9,
    },
    Workload {
        stage: 5,
        first_trace: 10_000,
        traces_per_case: 10,
        seed_mul: 31,
        seed_step: 1,
    },
    Workload {
        stage: 6,
        first_trace: 20_000,
        traces_per_case: 10,
        seed_mul: 37,
        seed_step: 1,
    },
    Workload {
        stage: 7,
        first_trace: 30_000,
        traces_per_case: 10,
        seed_mul: 53,
        seed_step: 1,
    },
    Workload {
        stage: 8,
        first_trace: 40_000,
        traces_per_case: 10,
        seed_mul: 41,
        seed_step: 1,
    },
];

/// The seeded workload of case `case` of `stage`: the query-trace
/// indices it may draw and its seed. The single place stage workloads
/// are derived, so no two stages replay the same traces.
///
/// # Panics
///
/// Panics when `stage` draws no query traces (not in [`WORKLOADS`]).
pub(crate) fn case_workload(stage: usize, base_seed: u64, case: u64) -> (Range<u64>, u64) {
    let w = WORKLOADS
        .iter()
        .find(|w| w.stage == stage)
        .unwrap_or_else(|| panic!("stage {stage} draws no query traces"));
    let first = w.first_trace + case * w.traces_per_case;
    (
        first..first + w.traces_per_case,
        base_seed
            .wrapping_mul(w.seed_mul)
            .wrapping_add(case.wrapping_mul(w.seed_step)),
    )
}

/// The scheduling mode case `i` runs under: the three modes in turn.
pub(crate) fn mode_for(i: u64) -> SchedMode {
    [SchedMode::Coord, SchedMode::Naive, SchedMode::Csp][(i % 3) as usize]
}

/// One case of one replay stage (4–8): where its workload comes from and
/// what it found.
#[derive(Debug)]
pub(crate) struct Case<'a> {
    /// Generator seeded by the run's root seed.
    pub gen: &'a ScenarioGen,
    /// Stage number (4–8).
    pub stage: usize,
    /// Case index within the stage.
    pub index: u64,
    /// This case's seed (from [`case_workload`]).
    pub seed: u64,
    traces: Range<u64>,
    /// Ops replayed or compared.
    pub ops: u64,
    /// Divergences found, each prefixed with the stage and case.
    pub failures: Vec<String>,
}

impl<'a> Case<'a> {
    /// Case `index` of `stage` under root seed `base_seed`.
    pub(crate) fn new(gen: &'a ScenarioGen, stage: usize, base_seed: u64, index: u64) -> Self {
        let (traces, seed) = case_workload(stage, base_seed, index);
        Case {
            gen,
            stage,
            index,
            seed,
            traces,
            ops: 0,
            failures: Vec::new(),
        }
    }

    /// The first `n` query traces of this case's block.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds the stage's traces per case.
    pub(crate) fn traces(&self, n: u64) -> Vec<QueryTrace> {
        assert!(
            n <= self.traces.end - self.traces.start,
            "stage {} draws at most {} traces per case",
            self.stage,
            self.traces.end - self.traces.start
        );
        (self.traces.start..self.traces.start + n)
            .map(|i| self.gen.query_trace(i))
            .collect()
    }

    /// The scheduling mode this case runs under.
    pub(crate) fn mode(&self) -> SchedMode {
        mode_for(self.index)
    }

    /// Records one divergence.
    pub(crate) fn fail(&mut self, msg: impl std::fmt::Display) {
        let name = STAGES[self.stage - 1].0;
        self.failures
            .push(format!("{name} case {}: {msg}", self.index));
    }

    /// Runs one differential and takes in its ops and every divergence
    /// it found, prefixed with `what`. `None` when the replay itself
    /// failed (also recorded as a divergence).
    pub(crate) fn run(&mut self, what: &str, diff: Differential<'_>) -> Option<AbOutcome> {
        match run_ab(diff) {
            Ok(ab) => {
                self.ops += ab.ops();
                for f in ab.failures() {
                    self.fail(format_args!("{what}: {f}"));
                }
                Some(ab)
            }
            Err(e) => {
                self.fail(format_args!("{what}: {e}"));
                None
            }
        }
    }
}

/// Harness configuration: the root seed and how many cases each stage
/// runs (`cases[n - 1]` for stage `n`; 0 skips the stage).
#[derive(Debug, Clone)]
pub struct ConformConfig {
    /// Root seed; every case derives deterministically from it.
    pub seed: u64,
    /// Cases per stage.
    pub cases: [u64; 8],
}

impl Default for ConformConfig {
    fn default() -> Self {
        ConformConfig {
            seed: 0xC0_11_1D,
            cases: STAGES.map(|(_, n)| n),
        }
    }
}

/// What one stage did.
#[derive(Debug, Default, Clone)]
pub struct StageReport {
    /// Stage number (1–8).
    pub stage: usize,
    /// Differential iterations run.
    pub cases: u64,
    /// Ops replayed, compared, or diffed.
    pub ops: u64,
    /// Every divergence, mismatch, or panic found.
    pub failures: Vec<String>,
}

/// Aggregated result of a harness run: one row per stage that ran.
#[derive(Debug, Default)]
pub struct ConformReport {
    /// Per-stage rows, in stage order.
    pub stages: Vec<StageReport>,
}

impl ConformReport {
    /// Every failure, in stage order.
    pub fn failures(&self) -> impl Iterator<Item = &String> {
        self.stages.iter().flat_map(|s| &s.failures)
    }

    /// Whether the run found no divergence of any kind.
    pub fn is_clean(&self) -> bool {
        self.failures().next().is_none()
    }

    /// The row for stage `n`, when it ran.
    pub fn stage(&self, n: usize) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.stage == n)
    }

    /// Total differential iterations across all stages (the CI gate
    /// requires this to clear a floor).
    pub fn total_iterations(&self) -> u64 {
        self.stages.iter().map(|s| s.cases).sum()
    }

    /// One-line-per-stage human summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for s in &self.stages {
            out.push_str(&format!(
                "stage {} {}: {} cases, {} ops\n",
                s.stage,
                STAGES[s.stage - 1].0,
                s.cases,
                s.ops
            ));
        }
        out.push_str(&format!(
            "total iterations: {}\nfailures: {}",
            self.total_iterations(),
            self.failures().count()
        ));
        out
    }
}

/// Stage 1: schedule semantics vs brute force.
fn schedule_stage(gen: &ScenarioGen, base_seed: u64, cases: u64) -> StageReport {
    StageReport {
        cases,
        failures: (0..cases)
            .flat_map(|i| check_schedule_case(&gen.schedule_case(i), base_seed.wrapping_add(i)))
            .collect(),
        ..StageReport::default()
    }
}

/// Stage 2: the service differential and its ledger audits, then the
/// swexec CPU path (verdicts must survive threading and prediction).
fn service_stage(gen: &ScenarioGen, base_seed: u64, cases: u64) -> StageReport {
    let traces: Vec<_> = (0..cases)
        .map(|c| gen.query_trace(case_workload(2, base_seed, c).0.start))
        .collect();
    let (ops, failures) =
        service_check::run_service_stage(&traces, case_workload(2, base_seed, 0).1);
    let mut report = StageReport {
        cases,
        ops,
        failures,
        ..StageReport::default()
    };
    for i in 0..3 {
        report
            .failures
            .extend(run_cpu_diff(base_seed.wrapping_add(i)));
        report.cases += 1;
    }
    report
}

/// Stage 3: codec fuzz + live fault scenarios.
fn fault_stage(gen: &ScenarioGen, cases: u64) -> StageReport {
    let (n, failures) = fault::run_codec_fuzz(gen, cases);
    let mut report = StageReport {
        cases: n,
        failures,
        ..StageReport::default()
    };
    match Server::start(ServerConfig::default()) {
        Ok(server) => {
            let (scenarios, failures) = fault::run_fault_scenarios(server.local_addr());
            report.cases += scenarios;
            report.failures.extend(failures);
        }
        Err(e) => report
            .failures
            .push(format!("fault stage: server failed to start: {e}")),
    }
    report
}

/// Runs `cases` cases of stage `stage` (1–8).
///
/// # Panics
///
/// Panics when `stage` is not 1–8.
fn run_stage(stage: usize, gen: &ScenarioGen, base_seed: u64, cases: u64) -> StageReport {
    let per_case: fn(&mut Case<'_>) = match stage {
        1 => {
            return StageReport {
                stage,
                ..schedule_stage(gen, base_seed, cases)
            }
        }
        2 => {
            return StageReport {
                stage,
                ..service_stage(gen, base_seed, cases)
            }
        }
        3 => {
            return StageReport {
                stage,
                ..fault_stage(gen, cases)
            }
        }
        4 => store_check::check_case,
        5 => differential::replay_case,
        6 => differential::trace_case,
        7 => differential::profile_case,
        8 => fleet_check::check_case,
        other => panic!("no stage {other} (stages are 1-8)"),
    };
    let mut report = StageReport {
        stage,
        ..StageReport::default()
    };
    for index in 0..cases {
        let mut case = Case::new(gen, stage, base_seed, index);
        per_case(&mut case);
        report.cases += 1;
        report.ops += case.ops;
        report.failures.extend(case.failures);
    }
    report
}

/// Runs every stage with a nonzero case count and aggregates the report.
pub fn run_all(cfg: &ConformConfig) -> ConformReport {
    let gen = ScenarioGen::new(cfg.seed);
    ConformReport {
        stages: (1..=STAGES.len())
            .filter(|&n| cfg.cases[n - 1] > 0)
            .map(|n| run_stage(n, &gen, cfg.seed, cfg.cases[n - 1]))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn tiny_run_is_clean_and_counts_iterations() {
        let cfg = ConformConfig {
            seed: 5,
            cases: [10, 3, 8, 1, 1, 1, 1, 1],
        };
        let report = run_all(&cfg);
        assert!(
            report.is_clean(),
            "{:?}",
            report.failures().collect::<Vec<_>>()
        );
        // 10 schedule + 3 service (+3 cpu) + 8 fault (+ scenarios) + one
        // case each of stages 4-8.
        assert!(report.total_iterations() >= 29);
        for stage in [2, 5, 6, 7, 8] {
            assert!(
                report.stage(stage).is_some_and(|s| s.ops > 0),
                "stage {stage} must replay or compare ops"
            );
        }
        assert!(report.summary().contains("failures: 0"));
    }

    #[test]
    fn skipped_stages_do_not_run() {
        let report = run_all(&ConformConfig {
            seed: 5,
            cases: [2, 0, 0, 0, 0, 0, 0, 0],
        });
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stage(1).map(|s| s.cases), Some(2));
    }

    #[test]
    fn every_stage_draws_a_disjoint_workload() {
        // At the CI seed and the largest case counts CI runs, no two
        // stages replay the same query trace, and no two replay stages
        // (4-8) share a case seed.
        let seed = 20_240_614;
        let cases = |stage: usize| STAGES[stage - 1].1.max(6);
        let traces = |stage: usize| -> BTreeSet<u64> {
            (0..cases(stage))
                .flat_map(|c| case_workload(stage, seed, c).0)
                .collect()
        };
        let seeds = |stage: usize| -> BTreeSet<u64> {
            (0..cases(stage))
                .map(|c| case_workload(stage, seed, c).1)
                .collect()
        };
        let trace_stages: Vec<usize> = WORKLOADS.iter().map(|w| w.stage).collect();
        for (i, &a) in trace_stages.iter().enumerate() {
            assert!(!traces(a).is_empty(), "stage {a} draws no traces");
            for &b in &trace_stages[i + 1..] {
                assert!(
                    traces(a).is_disjoint(&traces(b)),
                    "stages {a} and {b} share query traces"
                );
                if a >= 4 {
                    assert!(
                        seeds(a).is_disjoint(&seeds(b)),
                        "stages {a} and {b} share case seeds"
                    );
                }
            }
        }
    }
}
