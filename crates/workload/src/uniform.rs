//! Uniform random workloads (§4.1's BigTable stress setting: "updates and
//! queries applied to a population of 400k to 1m objects with randomly
//! chosen positions and velocities").

use crate::roadnet::SimUpdate;
use moist_spatial::{Point, Rect, Velocity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy)]
struct Obj {
    loc: Point,
    vel: Velocity,
    next_due: f64,
    last_move: f64,
}

/// Min-heap event keyed by due time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    due: f64,
    idx: usize,
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .due
            .total_cmp(&self.due)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// Generator of uniformly distributed objects moving linearly with random
/// velocities, each updating on its own random cadence (events fire in
/// global time order).
pub struct UniformSim {
    world: Rect,
    max_speed: f64,
    max_interval: f64,
    rng: StdRng,
    objects: Vec<Obj>,
    queue: BinaryHeap<Event>,
    now_secs: f64,
    velocity_walk: f64,
}

impl UniformSim {
    /// Creates `n` objects uniformly placed in `world` with speeds in
    /// `[-max_speed, max_speed]` per axis.
    pub fn new(world: Rect, n: u64, max_speed: f64, max_interval: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_interval = max_interval.max(1e-3);
        let mut queue = BinaryHeap::with_capacity(n as usize);
        let objects: Vec<Obj> = (0..n)
            .map(|i| {
                let obj = Obj {
                    loc: Point::new(
                        world.min_x + rng.gen::<f64>() * world.width(),
                        world.min_y + rng.gen::<f64>() * world.height(),
                    ),
                    vel: Velocity::new(
                        (rng.gen::<f64>() * 2.0 - 1.0) * max_speed,
                        (rng.gen::<f64>() * 2.0 - 1.0) * max_speed,
                    ),
                    next_due: rng.gen::<f64>() * max_interval,
                    last_move: 0.0,
                };
                queue.push(Event {
                    due: obj.next_due,
                    idx: i as usize,
                });
                obj
            })
            .collect();
        UniformSim {
            world,
            max_speed,
            max_interval,
            rng,
            objects,
            queue,
            now_secs: 0.0,
            velocity_walk: 0.0,
        }
    }

    /// Enables a per-update velocity random walk: each emitted update
    /// perturbs the object's velocity by N(0, sigma) per axis (clamped to
    /// the configured speed range). Urban objects turn constantly; without
    /// this, perfectly linear movers never change their Bx-tree
    /// label-time position and the comparison flatters the Bx-tree.
    pub fn with_velocity_walk(mut self, sigma: f64) -> Self {
        self.velocity_walk = sigma.max(0.0);
        self
    }

    /// Current simulation time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_secs
    }

    /// Snapshot of all current positions (e.g. to bulk-load an index).
    pub fn positions(&self) -> Vec<(u64, Point, Velocity)> {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, o)| (i as u64, o.loc, o.vel))
            .collect()
    }

    /// Generates the next `count` updates in global time order; every
    /// object moves linearly between its own updates, bouncing off the
    /// world edges.
    pub fn next_updates(&mut self, count: usize) -> Vec<SimUpdate> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let Some(Event { due, idx }) = self.queue.pop() else {
                break;
            };
            if (self.objects[idx].next_due - due).abs() > 1e-12 {
                continue; // stale entry
            }
            let obj = self.objects[idx];
            let dt = (due - obj.last_move).max(0.0);
            let mut p = obj.loc.advance(obj.vel, dt);
            let mut v = obj.vel;
            if p.x < self.world.min_x || p.x > self.world.max_x {
                v.vx = -v.vx;
                p.x = p.x.clamp(self.world.min_x, self.world.max_x);
            }
            if p.y < self.world.min_y || p.y > self.world.max_y {
                v.vy = -v.vy;
                p.y = p.y.clamp(self.world.min_y, self.world.max_y);
            }
            if self.velocity_walk > 0.0 {
                // Box–Muller off two uniforms: objects keep turning, as
                // urban movers do.
                let sigma = self.velocity_walk;
                let (u1, u2): (f64, f64) = (self.rng.gen::<f64>().max(1e-12), self.rng.gen());
                let r = sigma * (-2.0 * u1.ln()).sqrt();
                v = Velocity::new(
                    (v.vx + r * (std::f64::consts::TAU * u2).cos())
                        .clamp(-self.max_speed, self.max_speed),
                    (v.vy + r * (std::f64::consts::TAU * u2).sin())
                        .clamp(-self.max_speed, self.max_speed),
                );
            }
            {
                let o = &mut self.objects[idx];
                o.loc = p;
                o.vel = v;
                o.last_move = due;
            }
            self.now_secs = due;
            out.push(SimUpdate {
                oid: idx as u64,
                loc: p,
                vel: v,
                at_secs: due,
            });
            let next = due + self.rng.gen::<f64>() * self.max_interval;
            self.objects[idx].next_due = next;
            self.queue.push(Event { due: next, idx });
        }
        out
    }

    /// Random query point inside the world.
    pub fn random_point(&mut self) -> Point {
        Point::new(
            self.world.min_x + self.rng.gen::<f64>() * self.world.width(),
            self.world.min_y + self.rng.gen::<f64>() * self.world.height(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_stay_in_the_world() {
        let world = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut sim = UniformSim::new(world, 50, 5.0, 5.0, 1);
        for _ in 0..40 {
            for u in sim.next_updates(50) {
                assert!(world.contains(&u.loc), "escaped: {:?}", u.loc);
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let world = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut a = UniformSim::new(world, 20, 2.0, 5.0, 9);
        let mut b = UniformSim::new(world, 20, 2.0, 5.0, 9);
        assert_eq!(a.next_updates(100), b.next_updates(100));
    }

    #[test]
    fn update_times_are_monotonic_and_objects_actually_move() {
        let world = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let mut sim = UniformSim::new(world, 100, 2.0, 5.0, 3);
        let before = sim.positions();
        let ups = sim.next_updates(500);
        assert!(ups.windows(2).all(|w| w[0].at_secs <= w[1].at_secs));
        // The regression this test pins down: nearly every update must move
        // its object (dt > 0), not report a frozen position.
        let moved = ups
            .iter()
            .filter(|u| {
                let (_, old, _) = before[u.oid as usize];
                old.distance(&u.loc) > 1e-6
            })
            .count();
        assert!(
            moved as f64 > 0.95 * ups.len() as f64,
            "only {moved}/{} updates moved their object",
            ups.len()
        );
    }

    #[test]
    fn each_object_updates_repeatedly() {
        let world = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut sim = UniformSim::new(world, 10, 1.0, 1.0, 3);
        let ups = sim.next_updates(200);
        for oid in 0..10u64 {
            let n = ups.iter().filter(|u| u.oid == oid).count();
            assert!(n >= 5, "object {oid} updated only {n} times");
        }
    }

    #[test]
    fn empty_generator_yields_nothing() {
        let world = Rect::new(0.0, 0.0, 1.0, 1.0);
        let mut sim = UniformSim::new(world, 0, 1.0, 5.0, 3);
        assert!(sim.objects.is_empty());
        assert!(sim.next_updates(5).is_empty());
    }
}
