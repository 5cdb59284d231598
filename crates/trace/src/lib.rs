//! # copred-trace
//!
//! Trace capture and replay: converts recorded planner workloads
//! ([`copred_planners::PlanLog`]) into self-contained CDQ traces with
//! precomputed ground truth — the equivalent of the paper artifact's "trace
//! files" that drive the predictor studies and the COPU+CDU
//! microarchitectural simulator without re-running forward kinematics or
//! narrow-phase collision detection.
//!
//! Traces serialize to a line-oriented text format (dependency-free) so
//! suites can be generated once and replayed by many harnesses. Every
//! pose value and CDQ center coordinate is written as `{:.17e}` (18
//! significant digits, so it parses back bit-exact) by `sci::push_e17`,
//! which writes std's bytes at a fraction of `core::fmt`'s cost; the
//! service wire carries the same `motion` blocks.
//!
//! ## Example
//!
//! ```
//! use copred_trace::QueryTrace;
//! use copred_collision::Environment;
//! use copred_geometry::{Aabb, Vec3};
//! use copred_kinematics::{presets, Config, Robot};
//! use copred_planners::{PlanContext, Planner, Rrt};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let robot: Robot = presets::planar_2d().into();
//! let env = Environment::new(
//!     robot.workspace(),
//!     vec![Aabb::new(Vec3::new(-0.05, -1.0, -0.1), Vec3::new(0.05, 0.5, 0.1))],
//! );
//! let mut ctx = PlanContext::new(&robot, &env, 0.05);
//! let mut rng = StdRng::seed_from_u64(3);
//! Rrt::default().plan(&mut ctx, &Config::new(vec![-0.6, 0.0]), &Config::new(vec![0.6, 0.0]), &mut rng);
//! let log = ctx.into_log();
//! let trace = QueryTrace::from_log(&robot, &env, &log);
//! let text = trace.to_text();
//! let back = QueryTrace::from_text(&text).unwrap();
//! assert_eq!(trace.motions.len(), back.motions.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use copred_collision::{enumerate_motion_cdqs, CdqInfo, Environment};
use copred_geometry::Vec3;
use copred_kinematics::{Config, Robot};
use copred_planners::PlanLog;
use std::fmt::Write as _;

pub use copred_planners::Stage;

pub mod frame;
mod sci;

/// Hard cap applied to *declared* counts (`motion <stage> <poses> <cdqs>`)
/// before any allocation, so a malformed or hostile header cannot request
/// an absurd reservation. Actual content is still parsed line by line and
/// may legitimately exceed typical sizes up to this bound.
pub const MAX_DECLARED: usize = 1 << 20;

/// One CDQ in a trace: which sample pose and link it belongs to, the hash
/// input (link center), the ground-truth outcome, and its CDU cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCdq {
    /// Sample-pose index within the motion.
    pub pose_idx: u32,
    /// Link index within the pose.
    pub link_idx: u32,
    /// Link center in world coordinates (COORD hash input).
    pub center: Vec3,
    /// Ground truth: does the CDQ collide?
    pub colliding: bool,
    /// Obstacle-pair tests an early-exit CDU evaluates for this CDQ.
    pub obstacle_tests: u32,
}

/// One recorded motion check: the sample poses, its stage, and every CDQ
/// with ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionTrace {
    /// The issuing stage (S1 exploration / S2 validation).
    pub stage: Stage,
    /// Discretized sample poses.
    pub poses: Vec<Config>,
    /// All CDQs in pose-major order.
    pub cdqs: Vec<TraceCdq>,
}

impl MotionTrace {
    /// A deterministic synthetic planar-2d motion (3 poses × 2 links) for
    /// harnesses that need no planner: `salt` varies the poses, CDQ
    /// centers, and ground truth, so distinct salts exercise distinct CHT
    /// entries while repeated salts re-hit learned ones.
    pub fn synthetic(salt: u64) -> MotionTrace {
        let f = |k: u64| ((salt.wrapping_mul(31).wrapping_add(k) % 200) as f64 - 100.0) / 100.0;
        let poses: Vec<Config> = (0..3)
            .map(|p| Config::new(vec![f(p * 2), f(p * 2 + 1)]))
            .collect();
        let mut cdqs = Vec::new();
        for pose_idx in 0..poses.len() as u32 {
            for link_idx in 0..2u32 {
                let k = u64::from(pose_idx * 2 + link_idx);
                cdqs.push(TraceCdq {
                    pose_idx,
                    link_idx,
                    center: Vec3::new(f(k + 10), f(k + 20), 0.0),
                    colliding: (salt + k).is_multiple_of(3),
                    obstacle_tests: 1 + (k % 4) as u32,
                });
            }
        }
        MotionTrace {
            stage: if salt.is_multiple_of(2) {
                Stage::Explore
            } else {
                Stage::Validate
            },
            poses,
            cdqs,
        }
    }

    /// Whether any CDQ collides.
    pub fn colliding(&self) -> bool {
        self.cdqs.iter().any(|c| c.colliding)
    }

    /// Total CDQ count.
    pub fn cdq_count(&self) -> usize {
        self.cdqs.len()
    }

    /// Serializes this motion as a standalone `motion` block — the payload
    /// unit of the `copred-service` wire protocol (CHECK_MOTION /
    /// CHECK_POSE frames carry one block each).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    /// Appends this motion's `motion` block to `out`: the header line,
    /// one `pose` line per sample pose and one `cdq` line per CDQ, with
    /// each float written by `sci::push_e17`.
    pub fn write_text(&self, out: &mut String) {
        writeln!(
            out,
            "motion {} {} {}",
            self.stage.label(),
            self.poses.len(),
            self.cdqs.len()
        )
        .expect("string write");
        for p in &self.poses {
            out.push_str("pose");
            for &v in p.values() {
                out.push(' ');
                sci::push_e17(out, v);
            }
            out.push('\n');
        }
        for c in &self.cdqs {
            write!(out, "cdq {} {}", c.pose_idx, c.link_idx).expect("string write");
            for v in [c.center.x, c.center.y, c.center.z] {
                out.push(' ');
                sci::push_e17(out, v);
            }
            writeln!(out, " {} {}", u8::from(c.colliding), c.obstacle_tests).expect("string write");
        }
    }

    /// Parses one standalone `motion` block produced by [`Self::to_text`].
    /// Rejects trailing content after the block.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] describing the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, TraceParseError> {
        let mut lines = text.lines().enumerate();
        let (ln, header) = lines
            .next()
            .ok_or_else(|| TraceParseError::at(0, "empty motion block"))?;
        let motion = parse_motion_block(ln, header, &mut lines)?;
        if let Some((ln, _)) = lines.next() {
            return Err(TraceParseError::at(
                ln,
                "trailing content after motion block",
            ));
        }
        Ok(motion)
    }

    /// Converts to the collision crate's [`CdqInfo`] list so the reference
    /// schedulers can replay the motion. The OBB is reconstructed as a
    /// degenerate point box at the center (schedulers never re-execute
    /// geometry; only `colliding` / `obstacle_tests` matter).
    pub fn to_cdq_infos(&self) -> Vec<CdqInfo> {
        self.cdqs
            .iter()
            .map(|c| CdqInfo {
                pose_idx: c.pose_idx as usize,
                link_idx: c.link_idx as usize,
                center: c.center,
                obb: copred_geometry::Obb::axis_aligned(c.center, Vec3::ZERO),
                colliding: c.colliding,
                obstacle_tests: c.obstacle_tests as usize,
            })
            .collect()
    }
}

/// A full planning query's trace: every motion check in issue order.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Robot identifier.
    pub robot_name: String,
    /// Links per pose (CDQs per pose check).
    pub link_count: u32,
    /// Motion checks in the order the planner issued them.
    pub motions: Vec<MotionTrace>,
}

impl QueryTrace {
    /// Builds a trace from a recorded plan log by enumerating all CDQs with
    /// ground truth against `env`.
    pub fn from_log(robot: &Robot, env: &Environment, log: &PlanLog) -> Self {
        let motions = log
            .records
            .iter()
            .map(|rec| {
                let cdqs = enumerate_motion_cdqs(robot, env, &rec.poses)
                    .into_iter()
                    .map(|c| TraceCdq {
                        pose_idx: c.pose_idx as u32,
                        link_idx: c.link_idx as u32,
                        center: c.center,
                        colliding: c.colliding,
                        obstacle_tests: c.obstacle_tests as u32,
                    })
                    .collect();
                MotionTrace {
                    stage: rec.stage,
                    poses: rec.poses.clone(),
                    cdqs,
                }
            })
            .collect();
        QueryTrace {
            robot_name: robot.name().to_string(),
            link_count: robot.link_count() as u32,
            motions,
        }
    }

    /// Total CDQs across all motions — the paper's difficulty proxy for a
    /// query.
    pub fn total_cdqs(&self) -> usize {
        self.motions.iter().map(MotionTrace::cdq_count).sum()
    }

    /// Fraction of motions that collide.
    pub fn colliding_fraction(&self) -> f64 {
        if self.motions.is_empty() {
            return 0.0;
        }
        self.motions.iter().filter(|m| m.colliding()).count() as f64 / self.motions.len() as f64
    }

    /// Motions issued by one stage.
    pub fn stage_motions(&self, stage: Stage) -> impl Iterator<Item = &MotionTrace> {
        self.motions.iter().filter(move |m| m.stage == stage)
    }

    /// Serializes to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        writeln!(out, "query {} {}", self.robot_name, self.link_count).expect("string write");
        for m in &self.motions {
            m.write_text(&mut out);
        }
        out
    }

    /// Writes the trace to a file in the text format.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Loads a trace from a file written by [`Self::save`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files, or a parse error (wrapped
    /// as [`std::io::ErrorKind::InvalidData`]) for malformed contents.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_text(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Parses the text format produced by [`Self::to_text`].
    ///
    /// Every malformed input — truncated blocks, bad numbers, counts that
    /// overflow their integer type, out-of-range CDQ pose indices, or
    /// absurd declared sizes (see [`MAX_DECLARED`]) — returns `Err`; no
    /// input panics or over-allocates.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] describing the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, TraceParseError> {
        let mut lines = text.lines().enumerate();
        let (ln, header) = lines
            .next()
            .ok_or_else(|| TraceParseError::at(0, "empty trace"))?;
        let mut h = fields(header);
        if h.next() != Some("query") {
            return Err(TraceParseError::at(ln, "expected 'query' header"));
        }
        let robot_name = h
            .next()
            .ok_or_else(|| TraceParseError::at(ln, "missing robot name"))?
            .to_string();
        let link_count: u32 = parse_field(h.next(), ln, "link count")?;
        if h.next().is_some() {
            return Err(TraceParseError::at(ln, "trailing fields on 'query' header"));
        }
        let mut motions = Vec::new();
        while let Some((ln, line)) = lines.next() {
            motions.push(parse_motion_block(ln, line, &mut lines)?);
        }
        Ok(QueryTrace {
            robot_name,
            link_count,
            motions,
        })
    }
}

/// Parses one `motion` block whose header line is already in hand;
/// consumes exactly the declared pose and cdq lines from `lines`.
///
/// Public so protocol layers that embed motion blocks inside larger
/// line-oriented payloads (e.g. `copred-service` batches) can reuse the
/// hardened parser instead of re-implementing it. `lines` must yield
/// `(line_number, line)` pairs, typically from `text.lines().enumerate()`.
///
/// # Errors
///
/// Returns a located [`TraceParseError`] for any malformed block.
pub fn parse_motion_block<'a>(
    header_ln: usize,
    header: &str,
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
) -> Result<MotionTrace, TraceParseError> {
    let ln = header_ln;
    let mut f = fields(header);
    if f.next() != Some("motion") {
        return Err(TraceParseError::at(ln, "expected 'motion' line"));
    }
    let stage = match f.next() {
        Some("S1") => Stage::Explore,
        Some("S2") => Stage::Validate,
        _ => return Err(TraceParseError::at(ln, "bad stage label")),
    };
    let n_poses: usize = parse_field(f.next(), ln, "pose count")?;
    let n_cdqs: usize = parse_field(f.next(), ln, "cdq count")?;
    if f.next().is_some() {
        return Err(TraceParseError::at(ln, "trailing fields on 'motion' line"));
    }
    if n_poses > MAX_DECLARED || n_cdqs > MAX_DECLARED {
        return Err(TraceParseError::at(
            ln,
            "declared count exceeds MAX_DECLARED",
        ));
    }
    let mut poses = Vec::with_capacity(n_poses);
    for _ in 0..n_poses {
        let (ln, line) = lines
            .next()
            .ok_or_else(|| TraceParseError::at(ln, "truncated pose block"))?;
        let mut f = fields(line);
        if f.next() != Some("pose") {
            return Err(TraceParseError::at(ln, "expected 'pose' line"));
        }
        // Poses of one motion share a DOF count: size for the last one.
        let mut vals = Vec::with_capacity(poses.last().map_or(0, Config::dofs));
        let bad = |_| TraceParseError::at(ln, "bad pose value");
        for v in f {
            vals.push(v.parse().map_err(bad)?);
        }
        poses.push(Config::new(vals));
    }
    let mut cdqs = Vec::with_capacity(n_cdqs);
    for _ in 0..n_cdqs {
        let (ln, line) = lines
            .next()
            .ok_or_else(|| TraceParseError::at(ln, "truncated cdq block"))?;
        let mut f = fields(line);
        if f.next() != Some("cdq") {
            return Err(TraceParseError::at(ln, "expected 'cdq' line"));
        }
        let pose_idx: u32 = parse_field(f.next(), ln, "pose idx")?;
        let link_idx: u32 = parse_field(f.next(), ln, "link idx")?;
        let x: f64 = parse_field(f.next(), ln, "center x")?;
        let y: f64 = parse_field(f.next(), ln, "center y")?;
        let z: f64 = parse_field(f.next(), ln, "center z")?;
        let colliding: u8 = parse_field(f.next(), ln, "colliding flag")?;
        let obstacle_tests: u32 = parse_field(f.next(), ln, "obstacle tests")?;
        if f.next().is_some() {
            return Err(TraceParseError::at(ln, "trailing fields on 'cdq' line"));
        }
        if pose_idx as usize >= n_poses {
            // Out-of-range indices would panic downstream in the
            // schedulers' pose-block bucketing; reject them at the parse
            // boundary instead.
            return Err(TraceParseError::at(ln, "cdq pose idx out of range"));
        }
        cdqs.push(TraceCdq {
            pose_idx,
            link_idx,
            center: Vec3::new(x, y, z),
            colliding: colliding != 0,
            obstacle_tests,
        });
    }
    Ok(MotionTrace { stage, poses, cdqs })
}

/// The whitespace-separated fields of one line, exactly as
/// [`str::split_whitespace`] yields them.
///
/// Every line this crate and the service wire write is ASCII, so such a
/// line splits over `as_bytes()` and never decodes a `char`. Any other
/// line, or one holding U+000B (whitespace to Unicode, not to
/// `split_ascii_whitespace`), takes the Unicode path, so U+00A0 or U+2003
/// still separate fields. Motion blocks, trace headers and service frames
/// all tokenize through this one function.
pub fn fields(line: &str) -> impl Iterator<Item = &str> + '_ {
    let ascii = line.is_ascii() && !line.contains('\u{b}');
    // One of the two halves is empty, so the chain is one tokenizer.
    let (bytes, unicode) = if ascii { (line, "") } else { ("", line) };
    bytes
        .split_ascii_whitespace()
        .chain(unicode.split_whitespace())
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, TraceParseError> {
    field
        .ok_or_else(|| TraceParseError::at(line, format!("missing {what}")))?
        .parse()
        .map_err(|_| TraceParseError::at(line, format!("bad {what}")))
}

/// Error describing a malformed trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// Zero-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl TraceParseError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        TraceParseError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line + 1,
            self.message
        )
    }
}

impl std::error::Error for TraceParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_geometry::Aabb;
    use copred_kinematics::{presets, Motion};
    use copred_planners::{PlanContext, Planner, Rrt};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_trace() -> (Robot, Environment, QueryTrace) {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::new(
                Vec3::new(-0.05, -1.0, -0.1),
                Vec3::new(0.05, 0.5, 0.1),
            )],
        );
        let mut ctx = PlanContext::new(&robot, &env, 0.05);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Rrt::default().plan(
            &mut ctx,
            &Config::new(vec![-0.6, 0.0]),
            &Config::new(vec![0.6, 0.0]),
            &mut rng,
        );
        let log = ctx.into_log();
        let trace = QueryTrace::from_log(&robot, &env, &log);
        (robot, env, trace)
    }

    #[test]
    fn trace_matches_log_shape() {
        let (robot, _, trace) = sample_trace();
        assert_eq!(trace.robot_name, robot.name());
        assert_eq!(trace.link_count, 1);
        assert!(!trace.motions.is_empty());
        for m in &trace.motions {
            assert_eq!(m.cdqs.len(), m.poses.len() * trace.link_count as usize);
        }
    }

    #[test]
    fn ground_truth_is_consistent() {
        let (robot, env, trace) = sample_trace();
        // Re-derive ground truth for a few motions and compare.
        for m in trace.motions.iter().take(10) {
            let colliding = copred_collision::motion_collides(&robot, &env, &m.poses);
            assert_eq!(m.colliding(), colliding);
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let (_, _, trace) = sample_trace();
        let text = trace.to_text();
        let back = QueryTrace::from_text(&text).expect("parse");
        assert_eq!(trace, back);
    }

    #[test]
    fn replay_through_schedulers() {
        let (_, _, trace) = sample_trace();
        use copred_collision::{run_schedule, Schedule};
        for m in &trace.motions {
            let infos = m.to_cdq_infos();
            let naive = run_schedule(&infos, m.poses.len(), Schedule::Naive);
            let oracle = run_schedule(&infos, m.poses.len(), Schedule::Oracle);
            assert_eq!(naive.colliding, m.colliding());
            if m.colliding() {
                assert_eq!(oracle.cdqs_executed, 1);
                assert!(naive.cdqs_executed >= 1);
            } else {
                assert_eq!(naive.cdqs_executed, m.cdq_count());
            }
        }
    }

    #[test]
    fn fields_match_split_whitespace() {
        // Every char up to U+30FF (all of Unicode's White_Space lies below
        // U+3001) as the middle of a short line.
        for c in (0..0x3100).filter_map(char::from_u32) {
            for s in [
                format!("a{c}b"),
                format!("{c}{c}1.5 {c}"),
                format!("x\t{c}"),
            ] {
                let want: Vec<&str> = s.split_whitespace().collect();
                assert_eq!(fields(&s).collect::<Vec<_>>(), want, "{s:?}");
            }
        }
        let alphabet = [
            'a', '0', '.', '-', '!', '\u{0}', '\u{8}', '\u{e}', '\u{1f}', '\u{7f}', ' ', '\t',
            '\n', '\u{b}', '\u{c}', '\r', '\u{85}', 'é', '\u{a0}', '\u{2003}', '\u{3000}',
            '\u{feff}',
        ];
        let mut rng = StdRng::seed_from_u64(0xF1E1D5);
        for _ in 0..40_000 {
            // ASCII-only alphabet half the time, so long ASCII lines occur.
            let k = if rng.gen() { 16 } else { alphabet.len() };
            let len = rng.gen_range(0..40);
            let s: String = (0..len).map(|_| alphabet[rng.gen_range(0..k)]).collect();
            let want: Vec<&str> = s.split_whitespace().collect();
            assert_eq!(fields(&s).collect::<Vec<_>>(), want, "{s:?}");
        }
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(QueryTrace::from_text("").is_err());
        assert!(QueryTrace::from_text("nonsense").is_err());
        let err = QueryTrace::from_text("query r 1\nmotion S3 1 1").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("stage"));
        // Truncated cdq block.
        let err =
            QueryTrace::from_text("query r 1\nmotion S1 1 2\npose 0.0 0.0\ncdq 0 0 0 0 0 1 1")
                .unwrap_err();
        assert!(err.message.contains("truncated"));
    }

    #[test]
    fn parser_rejects_hostile_headers() {
        // A CDQ pointing at a pose that does not exist would panic in the
        // schedulers' pose bucketing; the parser must reject it.
        let err = QueryTrace::from_text("query r 1\nmotion S1 0 1\ncdq 0 0 0 0 0 1 1").unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        let err = QueryTrace::from_text(
            "query r 1\nmotion S1 2 1\npose 0.0\npose 0.0\ncdq 5 0 0 0 0 1 1",
        )
        .unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        // Declared counts that overflow or exceed the allocation cap.
        assert!(QueryTrace::from_text("query r 1\nmotion S1 99999999999999999999 0").is_err());
        let huge = format!("query r 1\nmotion S1 {} 0", usize::MAX);
        assert!(QueryTrace::from_text(&huge).is_err());
        let big = format!("query r 1\nmotion S1 {} 0", crate::MAX_DECLARED + 1);
        let err = QueryTrace::from_text(&big).unwrap_err();
        assert!(err.message.contains("MAX_DECLARED"), "{err}");
    }

    #[test]
    fn motion_block_roundtrip_standalone() {
        let (_, _, trace) = sample_trace();
        let m = &trace.motions[0];
        let text = m.to_text();
        let back = MotionTrace::from_text(&text).expect("parse motion block");
        assert_eq!(&back, m);
        // Trailing garbage after a standalone block is rejected.
        let mut with_junk = text.clone();
        with_junk.push_str("junk line\n");
        assert!(MotionTrace::from_text(&with_junk).is_err());
        assert!(MotionTrace::from_text("").is_err());
    }

    #[test]
    fn difficulty_proxy_counts_all_cdqs() {
        let (_, _, trace) = sample_trace();
        let total: usize = trace.motions.iter().map(|m| m.cdqs.len()).sum();
        assert_eq!(trace.total_cdqs(), total);
        assert!(trace.colliding_fraction() > 0.0);
    }

    #[test]
    fn stage_filter() {
        let (_, _, trace) = sample_trace();
        let s1 = trace.stage_motions(Stage::Explore).count();
        let s2 = trace.stage_motions(Stage::Validate).count();
        assert_eq!(s1 + s2, trace.motions.len());
        assert!(s2 > 0, "validated path missing from trace");
    }

    #[test]
    fn empty_trace_roundtrip() {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::empty(robot.workspace());
        let trace = QueryTrace::from_log(&robot, &env, &PlanLog::default());
        let back = QueryTrace::from_text(&trace.to_text()).unwrap();
        assert_eq!(trace, back);
        assert_eq!(back.total_cdqs(), 0);
        assert_eq!(back.colliding_fraction(), 0.0);
    }

    #[test]
    fn save_load_roundtrip() {
        let (_, _, trace) = sample_trace();
        let path = std::env::temp_dir().join("copred_trace_roundtrip.trace");
        trace.save(&path).expect("save");
        let back = QueryTrace::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, trace);
    }

    #[test]
    fn load_rejects_garbage_file() {
        let path = std::env::temp_dir().join("copred_trace_garbage.trace");
        std::fs::write(&path, "not a trace").unwrap();
        let err = QueryTrace::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn trace_from_manual_motion() {
        // Traces can also be built directly from a hand-rolled log.
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::new(
                Vec3::new(-0.05, -1.0, -0.1),
                Vec3::new(0.05, 1.0, 0.1),
            )],
        );
        let poses =
            Motion::new(Config::new(vec![-0.5, 0.0]), Config::new(vec![0.5, 0.0])).discretize(11);
        let log = PlanLog {
            records: vec![copred_planners::MotionRecord {
                poses: poses.clone(),
                stage: Stage::Explore,
                colliding: true,
            }],
        };
        let trace = QueryTrace::from_log(&robot, &env, &log);
        assert_eq!(trace.motions.len(), 1);
        assert!(trace.motions[0].colliding());
        assert_eq!(trace.motions[0].cdqs.len(), 11);
    }
}
