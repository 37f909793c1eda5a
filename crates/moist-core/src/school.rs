//! Object schools (§3.3): estimated locations and membership.
//!
//! An object school (OS) is a leader `L` plus the followers `F` whose real
//! locations stay within ε of their *estimated* locations:
//!
//! `OS = { F | Distance(Loc, ELoc) < ε }`
//!
//! where `ELoc = Loc'_L + (L → F)`: the leader's position extrapolated
//! linearly to the query time plus the stored displacement.

use crate::codec::LocationRecord;
use moist_bigtable::Timestamp;
use moist_spatial::{Displacement, Point};

/// Computes a follower's estimated location at `at` (§3.3.1, steps i–iv):
/// advance the leader's last record linearly to `at`, then apply the stored
/// displacement `leader → follower`.
pub fn estimated_location(
    leader_record: &LocationRecord,
    leader_ts: Timestamp,
    displacement: Displacement,
    at: Timestamp,
) -> Point {
    let dt = at.secs_since(leader_ts);
    leader_record
        .loc
        .advance(leader_record.vel, dt)
        .translate(displacement)
}

/// Whether a follower reporting `reported` at `at` remains in its school.
///
/// Two ways to stay (§3.3.1 + §3.3.3):
/// * the report is within ε of the *estimated* location, or
/// * the report is within ε of the **leader's own** extrapolated position —
///   "if a follower is near the leader, it is still within the OS even if it
///   changes the moving pattern radically (e.g. most passengers just leaving
///   a metro will still be in geographical proximity for a while)".
pub(crate) fn within_school(
    leader_record: &LocationRecord,
    leader_ts: Timestamp,
    displacement: Displacement,
    reported: &Point,
    at: Timestamp,
    epsilon: f64,
) -> bool {
    let leader_now = leader_record
        .loc
        .advance(leader_record.vel, at.secs_since(leader_ts));
    let eloc = leader_now.translate(displacement);
    eloc.distance(reported) <= epsilon || leader_now.distance(reported) <= epsilon
}

#[cfg(test)]
mod tests {
    use super::*;
    use moist_spatial::Velocity;

    fn leader_rec() -> LocationRecord {
        LocationRecord {
            loc: Point::new(100.0, 100.0),
            vel: Velocity::new(2.0, 0.0),
            leaf_index: 0,
        }
    }

    #[test]
    fn estimation_extrapolates_leader_motion() {
        // Leader at (100,100) moving +2/s in x, recorded at t=10 s.
        // Follower displaced (0, 5). At t=15 s: leader (110,100), est (110,105).
        let eloc = estimated_location(
            &leader_rec(),
            Timestamp::from_secs(10),
            Displacement::new(0.0, 5.0),
            Timestamp::from_secs(15),
        );
        assert!((eloc.x - 110.0).abs() < 1e-12);
        assert!((eloc.y - 105.0).abs() < 1e-12);
    }

    #[test]
    fn membership_respects_epsilon() {
        let ts = Timestamp::from_secs(10);
        let at = Timestamp::from_secs(15);
        let disp = Displacement::new(0.0, 5.0);
        // Dead on the estimate.
        assert!(within_school(
            &leader_rec(),
            ts,
            disp,
            &Point::new(110.0, 105.0),
            at,
            1.0
        ));
        // 3 units off with ε = 5: stays.
        assert!(within_school(
            &leader_rec(),
            ts,
            disp,
            &Point::new(113.0, 105.0),
            at,
            5.0
        ));
        // 3 units off with ε = 2: departs.
        assert!(!within_school(
            &leader_rec(),
            ts,
            disp,
            &Point::new(113.0, 105.0),
            at,
            2.0
        ));
        // ε = 0 keeps only exact matches (the paper's no-schooling mode
        // treats every deviation as a departure).
        assert!(within_school(
            &leader_rec(),
            ts,
            disp,
            &Point::new(110.0, 105.0),
            at,
            0.0
        ));
    }

    #[test]
    fn estimation_with_stale_clock_is_identity() {
        // Query at the record's own timestamp: no extrapolation.
        let ts = Timestamp::from_secs(10);
        let eloc = estimated_location(&leader_rec(), ts, Displacement::ZERO, ts);
        assert_eq!(eloc, Point::new(100.0, 100.0));
        // Query *before* the record (clock skew): secs_since saturates to 0.
        let eloc = estimated_location(
            &leader_rec(),
            ts,
            Displacement::ZERO,
            Timestamp::from_secs(5),
        );
        assert_eq!(eloc, Point::new(100.0, 100.0));
    }
}
