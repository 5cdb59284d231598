//! Workload inputs: planner traces with their scenes, made from the
//! benchmark seed by `copred_bench::workloads::planner_traces_with_scenes`.

use copred_bench::workloads::planner_traces_with_scenes;
use copred_bench::{Algo, Combo, RobotKind, Scale};
use copred_collision::Environment;
use copred_trace::{MotionTrace, QueryTrace};

/// One planning query: the motions a planner checks against one scene.
pub struct Query {
    pub kind: RobotKind,
    pub env: Environment,
    pub trace: QueryTrace,
    /// Seed of the session's `U`-policy stream.
    pub seed: u64,
    /// Environment fingerprint carried by `open` (store workloads only).
    pub fp: Option<u64>,
}

impl Query {
    /// The motions of check request `b` when requests carry `batch` motions.
    pub fn batch(&self, b: usize, batch: usize) -> &[MotionTrace] {
        let lo = b * batch;
        &self.trace.motions[lo..(lo + batch).min(self.trace.motions.len())]
    }

    /// Check requests this query needs at `batch` motions per request.
    pub fn batches(&self, batch: usize) -> usize {
        self.trace.motions.len().div_ceil(batch)
    }
}

fn queries(
    seed: u64,
    per_combo: usize,
    combos: [(Algo, RobotKind); 2],
    with_fp: bool,
) -> Vec<Query> {
    let scale = Scale {
        queries: per_combo,
        ..Scale::quick()
    };
    let sets: Vec<Vec<(QueryTrace, Environment)>> = combos
        .iter()
        .enumerate()
        .map(|(i, &(algo, robot))| {
            planner_traces_with_scenes(
                &Combo { algo, robot },
                &scale,
                seed ^ ((i as u64 + 1) << 40),
            )
        })
        .collect();
    // Interleave the two combos so every connection sees both.
    let mut out = Vec::new();
    let longest = sets.iter().map(Vec::len).max().unwrap_or(0);
    let mut iters: Vec<_> = sets.into_iter().map(Vec::into_iter).collect();
    for _ in 0..longest {
        for (i, it) in iters.iter_mut().enumerate() {
            if let Some((trace, env)) = it.next() {
                let kind = combos[i].1;
                let fp =
                    with_fp.then(|| copred_store::environment_fingerprint(&kind.robot(), &env));
                let n = out.len() as u64;
                out.push(Query {
                    kind,
                    env,
                    trace,
                    seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (n + 1),
                    fp,
                });
            }
        }
    }
    out
}

/// GNNMP-KUKA and MPNet-Baxter queries, interleaved, no fingerprints.
pub fn arm_queries(seed: u64, per_combo: usize) -> Vec<Query> {
    queries(
        seed,
        per_combo,
        [
            (Algo::Gnnmp, RobotKind::Kuka),
            (Algo::Mpnet, RobotKind::Baxter),
        ],
        false,
    )
}

/// GNNMP-2D and MPNet-2D queries, interleaved, each carrying its scene's
/// environment fingerprint and keeping its first `max_motions` motions.
pub fn planar_queries(seed: u64, per_combo: usize, max_motions: usize) -> Vec<Query> {
    let mut qs = queries(
        seed,
        per_combo,
        [
            (Algo::Gnnmp, RobotKind::Planar2d),
            (Algo::Mpnet, RobotKind::Planar2d),
        ],
        true,
    );
    for q in &mut qs {
        q.trace.motions.truncate(max_motions);
    }
    qs
}
