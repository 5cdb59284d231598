//! World-space bounding geometry of a robot pose.

use copred_geometry::{Obb, Vec3};

/// Bounding geometry of one rigid link at a given pose.
///
/// A link carries the OBB (Shah et al. / RACOD style) that every collision
/// path tests. The curobo-style sphere sets of §VII-1 are opt-in: only the
/// sphere study reads them, through [`crate::Robot::link_spheres`]. The
/// `center` is the quantity the COORD hash consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPose {
    /// Cartesian center of the link (the OBB center; paper Fig. 10 input).
    pub center: Vec3,
    /// OBB bounding the link.
    pub obb: Obb,
}

/// The full bounding geometry of a robot at one configuration: one
/// [`LinkPose`] per rigid link.
///
/// A pose can be reused across configurations with
/// [`crate::Robot::fk_into`], which refills it without allocating.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RobotPose {
    /// Per-link geometry, ordered from the base outward.
    pub links: Vec<LinkPose>,
}

impl RobotPose {
    /// Number of links (= number of OBB CDQs needed for a pose check).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_geometry::Mat3;

    #[test]
    fn counts() {
        let link = LinkPose {
            center: Vec3::ZERO,
            obb: Obb::new(Vec3::ZERO, Mat3::IDENTITY, Vec3::splat(0.1)),
        };
        let pose = RobotPose {
            links: vec![link, link],
        };
        assert_eq!(pose.link_count(), 2);
    }
}
