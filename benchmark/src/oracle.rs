//! A brute-force reference for the answer checks, built only from what the
//! harness itself sent: the last accepted report of every object.

use moist::bigtable::Timestamp;
use moist::core::Neighbor;
use moist::spatial::{Point, Rect, Velocity};

/// The last report the system accepted for one object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Report {
    pub loc: Point,
    pub vel: Velocity,
    pub ts: Timestamp,
}

impl Report {
    /// Where the object is at `at` if it kept its reported velocity.
    pub fn position_at(&self, at: Timestamp) -> Point {
        self.loc.advance(self.vel, at.secs_since(self.ts))
    }
}

/// Last reports indexed by object id; `None` for ids never reported.
pub type Reports = [Option<Report>];

/// Distances from `center` to every known object at `at`, ascending.
fn sorted_distances(reports: &Reports, center: &Point, at: Timestamp) -> Vec<f64> {
    let mut d: Vec<f64> = reports
        .iter()
        .flatten()
        .map(|r| r.position_at(at).distance(center))
        .collect();
    d.sort_by(f64::total_cmp);
    d
}

/// Checks a k-nearest-neighbour answer. The system may place an object up
/// to `tol` from where its last report puts it (the school bound ε plus
/// staleness), so: every returned object lies within `tol` of its reference
/// position, and the i-th returned distance is within `tol` of the i-th
/// reference distance (order statistics move at most as far as the points).
pub fn check_nn(
    reports: &Reports,
    center: &Point,
    at: Timestamp,
    k: usize,
    answer: &[Neighbor],
    tol: f64,
) -> Result<(), String> {
    let want = sorted_distances(reports, center, at);
    let expect_len = k.min(want.len());
    if answer.len() != expect_len {
        return Err(format!(
            "nn at {center:?}: {} neighbours returned, {expect_len} expected",
            answer.len()
        ));
    }
    for (i, n) in answer.iter().enumerate() {
        let Some(Some(r)) = reports.get(n.oid.0 as usize) else {
            return Err(format!("nn returned unknown object {}", n.oid));
        };
        let off = r.position_at(at).distance(&n.loc);
        if off > tol {
            return Err(format!(
                "nn placed {} {off:.2} from its last report (tolerance {tol:.2})",
                n.oid
            ));
        }
        if (n.distance - want[i]).abs() > tol {
            return Err(format!(
                "nn rank {i} at {center:?}: distance {:.2}, reference {:.2} (tolerance {tol:.2})",
                n.distance, want[i]
            ));
        }
    }
    Ok(())
}

/// Checks a region answer: nothing returned lies further than `tol` outside
/// `rect`, and nothing deeper than `tol` inside it is missing.
pub fn check_region(
    reports: &Reports,
    rect: &Rect,
    at: Timestamp,
    answer: &[Neighbor],
    tol: f64,
) -> Result<(), String> {
    let mut returned = vec![false; reports.len()];
    for n in answer {
        let Some(Some(r)) = reports.get(n.oid.0 as usize) else {
            return Err(format!("region returned unknown object {}", n.oid));
        };
        returned[n.oid.0 as usize] = true;
        let outside = rect.distance_to_point(&r.position_at(at));
        if outside > tol {
            return Err(format!(
                "region returned {} whose last report is {outside:.2} outside (tolerance {tol:.2})",
                n.oid
            ));
        }
    }
    if rect.width() <= 2.0 * tol || rect.height() <= 2.0 * tol {
        return Ok(());
    }
    let core = Rect::new(
        rect.min_x + tol,
        rect.min_y + tol,
        rect.max_x - tol,
        rect.max_y - tol,
    );
    for (oid, r) in reports.iter().enumerate() {
        if let Some(r) = r {
            if core.contains(&r.position_at(at)) && !returned[oid] {
                return Err(format!(
                    "region missed object {oid}, {tol:.2} or more inside {rect:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Checks one audited object: the system's `position` lies within `tol` of
/// the object's last accepted report.
pub fn check_position(
    oid: u64,
    report: &Report,
    got: Option<Point>,
    tol: f64,
) -> Result<(), String> {
    match got {
        None => Err(format!("object {oid} was accepted but is not findable")),
        Some(p) => {
            let off = p.distance(&report.loc);
            if off > tol {
                Err(format!(
                    "object {oid} is {off:.3} from its last accepted report (tolerance {tol:.3})"
                ))
            } else {
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moist::core::ObjectId;

    fn report(x: f64, y: f64) -> Option<Report> {
        Some(Report {
            loc: Point::new(x, y),
            vel: Velocity::new(1.0, 0.0),
            ts: Timestamp::from_secs(10),
        })
    }

    fn neighbor(oid: u64, x: f64, y: f64, center: &Point) -> Neighbor {
        let loc = Point::new(x, y);
        Neighbor {
            oid: ObjectId(oid),
            loc,
            distance: loc.distance(center),
            leader: ObjectId(oid),
        }
    }

    #[test]
    fn reference_positions_extrapolate_with_the_reported_velocity() {
        let r = report(5.0, 5.0).unwrap();
        assert_eq!(
            r.position_at(Timestamp::from_secs(12)),
            Point::new(7.0, 5.0)
        );
        // Never backwards.
        assert_eq!(r.position_at(Timestamp::from_secs(3)), Point::new(5.0, 5.0));
    }

    #[test]
    fn nn_check_accepts_the_exact_answer_and_rejects_a_wrong_one() {
        let reports = [report(0.0, 0.0), report(10.0, 0.0), None, report(50.0, 0.0)];
        let at = Timestamp::from_secs(10);
        let c = Point::new(1.0, 0.0);
        let good = [neighbor(0, 0.0, 0.0, &c), neighbor(1, 10.0, 0.0, &c)];
        assert!(check_nn(&reports, &c, at, 2, &good, 0.5).is_ok());
        // Estimated a little off, inside the tolerance.
        let near = [neighbor(0, 0.3, 0.0, &c), neighbor(1, 10.2, 0.1, &c)];
        assert!(check_nn(&reports, &c, at, 2, &near, 0.5).is_ok());
        // Skipping the true second neighbour is caught by the rank check.
        let wrong = [neighbor(0, 0.0, 0.0, &c), neighbor(3, 50.0, 0.0, &c)];
        assert!(check_nn(&reports, &c, at, 2, &wrong, 0.5).is_err());
        // Too few, and an object nobody reported.
        assert!(check_nn(&reports, &c, at, 2, &good[..1], 0.5).is_err());
        let ghost = [neighbor(0, 0.0, 0.0, &c), neighbor(2, 10.0, 0.0, &c)];
        assert!(check_nn(&reports, &c, at, 2, &ghost, 0.5).is_err());
        // k larger than the population returns everyone.
        let all = [good[0], good[1], neighbor(3, 50.0, 0.0, &c)];
        assert!(check_nn(&reports, &c, at, 10, &all, 0.5).is_ok());
    }

    #[test]
    fn region_check_is_sound_and_complete_up_to_the_tolerance() {
        let reports = [report(50.0, 50.0), report(99.0, 50.0), report(130.0, 50.0)];
        let at = Timestamp::from_secs(10);
        let rect = Rect::new(0.0, 0.0, 100.0, 100.0);
        let c = rect.center();
        let inside = neighbor(0, 50.0, 50.0, &c);
        let edge = neighbor(1, 99.0, 50.0, &c);
        let far = neighbor(2, 130.0, 50.0, &c);
        // The edge object may be in or out; the deep one must be in.
        assert!(check_region(&reports, &rect, at, &[inside, edge], 5.0).is_ok());
        assert!(check_region(&reports, &rect, at, &[inside], 5.0).is_ok());
        assert!(check_region(&reports, &rect, at, &[edge], 5.0).is_err());
        assert!(check_region(&reports, &rect, at, &[inside, far], 5.0).is_err());
    }

    #[test]
    fn position_check_is_exact_at_zero_tolerance() {
        let r = report(3.0, 4.0).unwrap();
        assert!(check_position(1, &r, Some(Point::new(3.0, 4.0)), 0.0).is_ok());
        assert!(check_position(1, &r, Some(Point::new(3.0, 4.1)), 0.0).is_err());
        assert!(check_position(1, &r, None, 100.0).is_err());
    }
}
