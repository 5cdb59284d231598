//! Environments: collections of cuboid obstacles.
//!
//! The paper's benchmarks place "5 - 9 cuboid-shaped obstacles" (random
//! scenes) or "a work table with several objects" (planner scenes) inside
//! the robot's reach. An [`Environment`] stores those cuboids as world-space
//! AABBs and answers the elementary intersection queries a Collision
//! Detection Unit performs, with early-exit obstacle iteration so the cost
//! of each CDQ (in obstacle-pair tests) can be modeled.

use copred_geometry::{Aabb, Obb, Sphere, Vec3, VoxelGrid};

/// A static scene: cuboid obstacles inside a workspace box.
///
/// # Examples
///
/// ```
/// use copred_collision::Environment;
/// use copred_geometry::{Aabb, Obb, Vec3};
///
/// let ws = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
/// let env = Environment::new(ws, vec![Aabb::new(Vec3::ZERO, Vec3::splat(0.5))]);
/// let link = Obb::axis_aligned(Vec3::splat(0.25), Vec3::splat(0.1));
/// assert!(env.obb_collides(&link));
/// ```
#[derive(Debug, Clone)]
pub struct Environment {
    workspace: Aabb,
    obstacles: Vec<Aabb>,
}

impl Environment {
    /// Creates an environment. Obstacles are kept as given (they may poke
    /// out of the workspace; only their overlap matters).
    pub fn new(workspace: Aabb, obstacles: Vec<Aabb>) -> Self {
        Environment {
            workspace,
            obstacles,
        }
    }

    /// An obstacle-free environment.
    pub fn empty(workspace: Aabb) -> Self {
        Environment::new(workspace, Vec::new())
    }

    /// The workspace box.
    pub fn workspace(&self) -> &Aabb {
        &self.workspace
    }

    /// The obstacle cuboids.
    pub fn obstacles(&self) -> &[Aabb] {
        &self.obstacles
    }

    /// Number of obstacles.
    pub fn obstacle_count(&self) -> usize {
        self.obstacles.len()
    }

    /// Adds an obstacle.
    pub fn add_obstacle(&mut self, o: Aabb) {
        self.obstacles.push(o);
    }

    /// One OBB-environment CDQ: does the box hit any obstacle?
    ///
    /// Iterates obstacles with early exit, exactly like the cascaded
    /// early-exit CDU of the baseline accelerator.
    pub fn obb_collides(&self, obb: &Obb) -> bool {
        self.obb_collides_with_cost(obb).0
    }

    /// Like [`Self::obb_collides`] but also returns how many obstacle-pair
    /// tests were evaluated before the query resolved (for cycle modeling).
    pub fn obb_collides_with_cost(&self, obb: &Obb) -> (bool, usize) {
        // Broad phase: the OBB's AABB, then the exact SAT test.
        let bb = obb.aabb();
        for (i, obs) in self.obstacles.iter().enumerate() {
            if bb.intersects(obs) && obb.intersects_aabb(obs) {
                return (true, i + 1);
            }
        }
        (false, self.obstacles.len())
    }

    /// One sphere-environment CDQ (the §VII-1 sphere-set representation).
    pub fn sphere_collides(&self, s: &Sphere) -> bool {
        self.sphere_collides_with_cost(s).0
    }

    /// Sphere CDQ with obstacle-pair test count.
    pub fn sphere_collides_with_cost(&self, s: &Sphere) -> (bool, usize) {
        for (i, obs) in self.obstacles.iter().enumerate() {
            if s.intersects_aabb(obs) {
                return (true, i + 1);
            }
        }
        (false, self.obstacles.len())
    }

    /// Point-in-obstacle query (used by clearance fields and samplers).
    pub fn point_collides(&self, p: Vec3) -> bool {
        self.obstacles.iter().any(|o| o.contains(p))
    }

    /// Conservative distance from `p` to the nearest obstacle surface
    /// (0 when inside an obstacle). Infinity for an empty environment.
    pub fn clearance(&self, p: Vec3) -> f64 {
        self.obstacles
            .iter()
            .map(|o| o.distance_squared(p))
            .fold(f64::INFINITY, f64::min)
            .sqrt()
    }

    /// Voxelizes the obstacles over the workspace at `resolution` voxels per
    /// axis — the environment representation of the Dadu-P substrate
    /// (§VII-2) and the clutter heuristic the paper mentions.
    pub fn voxelize(&self, resolution: u32) -> VoxelGrid {
        let mut grid = VoxelGrid::new(self.workspace, resolution);
        for o in &self.obstacles {
            grid.fill_aabb(o);
        }
        grid
    }

    /// Fraction of workspace volume covered by obstacles, measured on a
    /// voxel grid (clamped union, so overlapping obstacles are not double
    /// counted).
    pub fn clutter_fraction(&self, resolution: u32) -> f64 {
        self.voxelize(resolution).occupancy_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws() -> Aabb {
        Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0))
    }

    fn env_one() -> Environment {
        Environment::new(ws(), vec![Aabb::new(Vec3::ZERO, Vec3::splat(0.5))])
    }

    #[test]
    fn empty_environment_never_collides() {
        let e = Environment::empty(ws());
        let probe = Obb::axis_aligned(Vec3::ZERO, Vec3::splat(0.5));
        assert!(!e.obb_collides(&probe));
        assert!(!e.sphere_collides(&Sphere::new(Vec3::ZERO, 0.5)));
        assert!(!e.point_collides(Vec3::ZERO));
        assert_eq!(e.obb_collides_with_cost(&probe).1, 0);
        assert_eq!(e.clearance(Vec3::ZERO), f64::INFINITY);
    }

    #[test]
    fn obb_query_hits_and_misses() {
        let e = env_one();
        assert!(e.obb_collides(&Obb::axis_aligned(Vec3::splat(0.4), Vec3::splat(0.2))));
        assert!(!e.obb_collides(&Obb::axis_aligned(Vec3::splat(-0.8), Vec3::splat(0.1))));
    }

    #[test]
    fn early_exit_cost_counts_tests() {
        let mut e = Environment::empty(ws());
        // Three obstacles; the probe hits the second one.
        e.add_obstacle(Aabb::new(
            Vec3::new(-1.0, -1.0, -1.0),
            Vec3::new(-0.9, -0.9, -0.9),
        ));
        e.add_obstacle(Aabb::new(Vec3::ZERO, Vec3::splat(0.3)));
        e.add_obstacle(Aabb::new(Vec3::splat(0.8), Vec3::splat(0.9)));
        let probe = Obb::axis_aligned(Vec3::splat(0.1), Vec3::splat(0.05));
        let (hit, cost) = e.obb_collides_with_cost(&probe);
        assert!(hit);
        assert_eq!(cost, 2);
        // A missing probe tests all three.
        let miss = Obb::axis_aligned(Vec3::new(0.6, -0.6, 0.0), Vec3::splat(0.05));
        let (hit, cost) = e.obb_collides_with_cost(&miss);
        assert!(!hit);
        assert_eq!(cost, 3);
    }

    #[test]
    fn sphere_query() {
        let e = env_one();
        assert!(e.sphere_collides(&Sphere::new(Vec3::splat(0.6), 0.2)));
        assert!(!e.sphere_collides(&Sphere::new(Vec3::splat(-0.6), 0.05)));
    }

    #[test]
    fn clearance_measures_distance() {
        let e = env_one();
        // Point at (-0.5, 0.25, 0.25): distance to box [0,0.5]^3 is 0.5 in x.
        let c = e.clearance(Vec3::new(-0.5, 0.25, 0.25));
        assert!((c - 0.5).abs() < 1e-12);
        assert_eq!(e.clearance(Vec3::splat(0.25)), 0.0);
    }

    #[test]
    fn voxelization_matches_obstacles() {
        let e = env_one();
        let g = e.voxelize(8);
        assert!(g.occupied_at(Vec3::splat(0.25)));
        assert!(!g.occupied_at(Vec3::splat(-0.75)));
        // Obstacle covers 1/8 of each axis's positive half => 1/64 of volume;
        // conservative fill can only round up.
        let frac = e.clutter_fraction(8);
        assert!(frac >= 0.5f64.powi(3) / 8.0);
        assert!(frac < 0.1);
    }

    #[test]
    fn point_queries() {
        let e = env_one();
        assert!(e.point_collides(Vec3::splat(0.1)));
        assert!(!e.point_collides(Vec3::splat(-0.1)));
    }
}
