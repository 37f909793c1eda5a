//! The §4.1 road-network workload.
//!
//! "We used a road-networked map that had rectangular buildings surrounded
//! by roads. Each building was given an entrance. Moving objects were
//! divided into two types: pedestrians and cars. … Velocity was chosen
//! between 0 and 1 units/second for pedestrians and between 1 and 2
//! units/second for cars. The locations and velocities in each update
//! message were randomly perturbed to simulate noise, and the update
//! interval was randomly chosen between zero and five seconds. When an
//! object reached a crossroad, it chose a turn with equal probability.
//! When a pedestrian was near an entrance to a building, they chose to
//! enter it with 5% probability. Once inside a building, a pedestrian
//! exited the building with a 5% probability also. During the time a
//! pedestrian was inside of a building, each update would assign a position
//! to the pedestrian within the building uniformly, at random."

use moist_spatial::{Point, Rect, Velocity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Map geometry: a `blocks × blocks` grid of buildings with roads between.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RoadMapConfig {
    /// Side length of the (square) map in world units.
    pub map_size: f64,
    /// Number of blocks per axis.
    pub blocks: u32,
    /// Margin between a road centreline and the building wall.
    pub road_margin: f64,
}

impl Default for RoadMapConfig {
    fn default() -> Self {
        RoadMapConfig {
            map_size: 1000.0,
            blocks: 10,
            road_margin: 5.0,
        }
    }
}

/// A building: its footprint plus the entrance on its south wall.
#[derive(Debug, Clone, Copy)]
struct Building {
    /// Footprint rectangle.
    pub rect: Rect,
    /// Entrance point (on the road grid, at the wall).
    pub entrance: Point,
}

/// The generated road map.
#[derive(Debug, Clone)]
pub struct RoadMap {
    cfg: RoadMapConfig,
    buildings: Vec<Building>,
}

impl RoadMap {
    /// Builds the map: roads run along `x = i·spacing` and `y = j·spacing`;
    /// each block holds one building with a south-wall entrance.
    pub fn new(cfg: RoadMapConfig) -> Self {
        let spacing = cfg.map_size / cfg.blocks.max(1) as f64;
        let m = cfg.road_margin.min(spacing / 4.0);
        let mut buildings = Vec::with_capacity((cfg.blocks * cfg.blocks) as usize);
        for i in 0..cfg.blocks {
            for j in 0..cfg.blocks {
                let x0 = i as f64 * spacing + m;
                let y0 = j as f64 * spacing + m;
                let rect = Rect::new(x0, y0, x0 + spacing - 2.0 * m, y0 + spacing - 2.0 * m);
                let entrance = Point::new((rect.min_x + rect.max_x) / 2.0, j as f64 * spacing);
                buildings.push(Building { rect, entrance });
            }
        }
        RoadMap { cfg, buildings }
    }

    /// Road spacing (distance between parallel road centrelines).
    fn spacing(&self) -> f64 {
        self.cfg.map_size / self.cfg.blocks.max(1) as f64
    }

    /// Map side length.
    fn size(&self) -> f64 {
        self.cfg.map_size
    }

    /// All buildings.
    fn buildings(&self) -> &[Building] {
        &self.buildings
    }

    /// The building whose entrance is nearest to `p`, with the distance.
    fn nearest_entrance(&self, p: &Point) -> Option<(usize, f64)> {
        self.buildings
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.entrance.distance(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Agent kind with the paper's speed ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AgentKind {
    /// 0–1 units/s; may enter buildings.
    Pedestrian,
    /// 1–2 units/s; stays on roads.
    Car,
}

/// Heading along the road grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heading {
    North,
    South,
    East,
    West,
}

impl Heading {
    fn unit(self) -> (f64, f64) {
        match self {
            Heading::North => (0.0, 1.0),
            Heading::South => (0.0, -1.0),
            Heading::East => (1.0, 0.0),
            Heading::West => (-1.0, 0.0),
        }
    }
}

/// Where an agent currently is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AgentState {
    /// On the road grid, moving toward the next intersection.
    OnRoad { heading: Heading },
    /// Inside a building (pedestrians only).
    InBuilding { building: usize },
}

/// One simulated moving object.
#[derive(Debug, Clone)]
pub struct Agent {
    /// Object id.
    pub oid: u64,
    /// Kind (speed class).
    pub kind: AgentKind,
    /// True position.
    pub loc: Point,
    /// Scalar speed, units/s.
    pub speed: f64,
    state: AgentState,
    /// Next time this agent sends an update, seconds.
    pub next_update_secs: f64,
    /// Last time this agent's true position was advanced (lazy movement).
    last_move_secs: f64,
}

impl Agent {
    /// True (noise-free) velocity vector.
    fn velocity(&self) -> Velocity {
        match self.state {
            AgentState::OnRoad { heading } => {
                let (dx, dy) = heading.unit();
                Velocity::new(dx * self.speed, dy * self.speed)
            }
            AgentState::InBuilding { .. } => Velocity::ZERO,
        }
    }
}

/// Simulation parameters beyond map geometry.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SimConfig {
    /// Number of agents.
    pub agents: u64,
    /// Fraction of agents that are cars (rest are pedestrians).
    pub car_fraction: f64,
    /// Std-dev of location noise added to update messages, world units.
    pub location_noise: f64,
    /// Std-dev of velocity noise added to update messages, units/s.
    pub velocity_noise: f64,
    /// Maximum update interval, seconds (drawn uniformly from `[0, max]`).
    pub max_update_interval_secs: f64,
    /// Probability a pedestrian near an entrance enters the building.
    pub enter_probability: f64,
    /// Probability an indoor pedestrian exits per update.
    pub exit_probability: f64,
    /// "Near an entrance" threshold, world units.
    pub entrance_radius: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            agents: 100,
            car_fraction: 0.5,
            location_noise: 0.5,
            velocity_noise: 0.05,
            max_update_interval_secs: 5.0,
            enter_probability: 0.05,
            exit_probability: 0.05,
            entrance_radius: 3.0,
            seed: 42,
        }
    }
}

/// One emitted update message (the 4-tuple of Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimUpdate {
    /// Object id.
    pub oid: u64,
    /// Reported (noisy) location.
    pub loc: Point,
    /// Reported (noisy) velocity.
    pub vel: Velocity,
    /// Emission time, seconds.
    pub at_secs: f64,
}

/// Min-heap event: the next update deadline of one agent.
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
        // Reverse: BinaryHeap is a max-heap, we want the earliest deadline.
        other
            .due
            .total_cmp(&self.due)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// The road-network simulator: deterministic under a fixed seed.
pub struct RoadNetSim {
    map: RoadMap,
    cfg: SimConfig,
    rng: StdRng,
    agents: Vec<Agent>,
    queue: std::collections::BinaryHeap<Event>,
    now_secs: f64,
}

impl RoadNetSim {
    /// Creates the simulator with agents placed on random road positions,
    /// each "initially mov\[ing\] along a randomly selected road".
    pub fn new(map: RoadMap, cfg: SimConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let spacing = map.spacing();
        let lines = map.size() / spacing;
        let agents: Vec<Agent> = (0..cfg.agents)
            .map(|oid| {
                let kind = if (rng.gen::<f64>()) < cfg.car_fraction {
                    AgentKind::Car
                } else {
                    AgentKind::Pedestrian
                };
                let speed = match kind {
                    AgentKind::Pedestrian => rng.gen::<f64>(),
                    AgentKind::Car => 1.0 + rng.gen::<f64>(),
                };
                // Random road line (vertical or horizontal) and offset.
                let line = (rng.gen::<f64>() * lines).floor() * spacing;
                let offset = rng.gen::<f64>() * map.size();
                let (loc, heading) = if rng.gen::<bool>() {
                    // Vertical road.
                    (
                        Point::new(line, offset),
                        if rng.gen::<bool>() {
                            Heading::North
                        } else {
                            Heading::South
                        },
                    )
                } else {
                    (
                        Point::new(offset, line),
                        if rng.gen::<bool>() {
                            Heading::East
                        } else {
                            Heading::West
                        },
                    )
                };
                Agent {
                    oid,
                    kind,
                    loc,
                    speed: speed.max(0.05),
                    state: AgentState::OnRoad { heading },
                    next_update_secs: rng.gen::<f64>() * cfg.max_update_interval_secs,
                    last_move_secs: 0.0,
                }
            })
            .collect();
        let mut queue = std::collections::BinaryHeap::with_capacity(cfg.agents as usize);
        for a in &agents {
            queue.push(Event {
                due: a.next_update_secs,
                idx: a.oid as usize,
            });
        }
        RoadNetSim {
            map,
            cfg,
            rng,
            agents,
            queue,
            now_secs: 0.0,
        }
    }

    /// Current simulation time, seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_secs
    }

    /// The agents (true state, for assertions and oracles).
    pub fn agents(&self) -> &[Agent] {
        &self.agents
    }

    fn gaussian(rng: &mut StdRng, sigma: f64) -> f64 {
        // Box–Muller; two uniforms per draw keeps it simple.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen::<f64>();
        sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Advances one agent's true position by `dt` seconds.
    fn move_agent(map: &RoadMap, cfg: &SimConfig, rng: &mut StdRng, agent: &mut Agent, dt: f64) {
        match agent.state {
            AgentState::InBuilding { building } => {
                // Indoor pedestrians teleport uniformly within the building
                // per update; exit with 5% probability.
                if rng.gen::<f64>() < cfg.exit_probability {
                    agent.state = AgentState::OnRoad {
                        heading: if rng.gen::<bool>() {
                            Heading::East
                        } else {
                            Heading::West
                        },
                    };
                    agent.loc = map.buildings()[building].entrance;
                } else {
                    let b = &map.buildings()[building].rect;
                    agent.loc = Point::new(
                        b.min_x + rng.gen::<f64>() * b.width(),
                        b.min_y + rng.gen::<f64>() * b.height(),
                    );
                }
            }
            AgentState::OnRoad { mut heading } => {
                let spacing = map.spacing();
                let size = map.size();
                let mut remaining = agent.speed * dt;
                let mut guard = 0;
                while remaining > 1e-9 && guard < 64 {
                    guard += 1;
                    let (dx, dy) = heading.unit();
                    // Distance to the next intersection along the heading.
                    let along = if dx != 0.0 { agent.loc.x } else { agent.loc.y };
                    let dir = if dx + dy > 0.0 { 1.0 } else { -1.0 };
                    let next_line = if dir > 0.0 {
                        ((along / spacing).floor() + 1.0) * spacing
                    } else {
                        ((along / spacing).ceil() - 1.0) * spacing
                    };
                    let dist_to_cross = (next_line - along).abs();
                    let step = remaining.min(dist_to_cross);
                    agent.loc = Point::new(agent.loc.x + dx * step, agent.loc.y + dy * step);
                    remaining -= step;
                    if remaining > 1e-9 {
                        // At a crossroad: equal-probability turn among the
                        // headings that stay on the map.
                        let choices =
                            [Heading::North, Heading::South, Heading::East, Heading::West];
                        let valid: Vec<Heading> = choices
                            .into_iter()
                            .filter(|h| {
                                let (dx, dy) = h.unit();
                                let nx = agent.loc.x + dx * spacing * 0.5;
                                let ny = agent.loc.y + dy * spacing * 0.5;
                                (0.0..=size).contains(&nx) && (0.0..=size).contains(&ny)
                            })
                            .collect();
                        if !valid.is_empty() {
                            heading = valid[rng.gen_range(0..valid.len())];
                        }
                    }
                }
                // Clamp onto the map just in case of boundary rounding.
                agent.loc = Point::new(agent.loc.x.clamp(0.0, size), agent.loc.y.clamp(0.0, size));
                agent.state = AgentState::OnRoad { heading };
                // Pedestrians near an entrance may step inside.
                if agent.kind == AgentKind::Pedestrian {
                    if let Some((b, d)) = map.nearest_entrance(&agent.loc) {
                        if d <= cfg.entrance_radius && rng.gen::<f64>() < cfg.enter_probability {
                            agent.state = AgentState::InBuilding { building: b };
                            let rect = &map.buildings()[b].rect;
                            agent.loc = rect.center();
                        }
                    }
                }
            }
        }
    }

    /// Advances the simulation to `until_secs`, emitting every update due
    /// in `(now, until_secs]` in time order.
    ///
    /// Movement is lazy: an agent's true position only advances when it is
    /// observed (its update fires, or [`RoadNetSim::sync_all`] runs), so the
    /// cost per update is O(log n) regardless of population.
    pub fn advance_until(&mut self, until_secs: f64) -> Vec<SimUpdate> {
        let mut out = Vec::new();
        while let Some(&Event { due, idx }) = self.queue.peek() {
            if due > until_secs {
                break;
            }
            self.queue.pop();
            if (self.agents[idx].next_update_secs - due).abs() > 1e-12 {
                continue; // stale heap entry
            }
            // Lazily move only the due agent.
            let dt = (due - self.agents[idx].last_move_secs).max(0.0);
            let mut agent = self.agents[idx].clone();
            Self::move_agent(&self.map, &self.cfg, &mut self.rng, &mut agent, dt);
            agent.last_move_secs = due;
            // Emit the noisy update.
            let v = agent.velocity();
            out.push(SimUpdate {
                oid: agent.oid,
                loc: Point::new(
                    agent.loc.x + Self::gaussian(&mut self.rng, self.cfg.location_noise),
                    agent.loc.y + Self::gaussian(&mut self.rng, self.cfg.location_noise),
                ),
                vel: Velocity::new(
                    v.vx + Self::gaussian(&mut self.rng, self.cfg.velocity_noise),
                    v.vy + Self::gaussian(&mut self.rng, self.cfg.velocity_noise),
                ),
                at_secs: due,
            });
            let next = due + self.rng.gen::<f64>() * self.cfg.max_update_interval_secs.max(1e-3);
            agent.next_update_secs = next;
            self.agents[idx] = agent;
            self.queue.push(Event { due: next, idx });
            self.now_secs = due;
        }
        self.now_secs = until_secs.max(self.now_secs);
        out
    }

    /// Advances every agent's true position to the current simulation time
    /// (call before inspecting [`RoadNetSim::agents`] as an oracle).
    pub fn sync_all(&mut self) {
        let now = self.now_secs;
        for i in 0..self.agents.len() {
            let dt = (now - self.agents[i].last_move_secs).max(0.0);
            if dt > 0.0 {
                let mut a = self.agents[i].clone();
                Self::move_agent(&self.map, &self.cfg, &mut self.rng, &mut a, dt);
                a.last_move_secs = now;
                self.agents[i] = a;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn indoors(a: &Agent) -> bool {
        matches!(a.state, AgentState::InBuilding { .. })
    }

    fn sim(agents: u64, seed: u64) -> RoadNetSim {
        RoadNetSim::new(
            RoadMap::new(RoadMapConfig::default()),
            SimConfig {
                agents,
                seed,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn map_has_one_building_per_block_with_entrances_on_roads() {
        let map = RoadMap::new(RoadMapConfig::default());
        assert_eq!(map.buildings().len(), 100);
        for b in map.buildings() {
            // Entrance sits on a horizontal road line.
            let y = b.entrance.y;
            assert!((y / map.spacing()).fract().abs() < 1e-9);
            // Building is inside the map.
            assert!(b.rect.min_x >= 0.0 && b.rect.max_x <= map.size());
        }
    }

    #[test]
    fn simulation_is_deterministic_under_a_seed() {
        let mut a = sim(50, 7);
        let mut b = sim(50, 7);
        let ua = a.advance_until(30.0);
        let ub = b.advance_until(30.0);
        assert_eq!(ua.len(), ub.len());
        for (x, y) in ua.iter().zip(&ub) {
            assert_eq!(x, y);
        }
        // Different seeds diverge.
        let mut c = sim(50, 8);
        let uc = c.advance_until(30.0);
        assert_ne!(ua, uc);
    }

    #[test]
    fn updates_arrive_in_time_order_with_bounded_intervals() {
        let mut s = sim(40, 3);
        let updates = s.advance_until(60.0);
        assert!(!updates.is_empty());
        assert!(updates.windows(2).all(|w| w[0].at_secs <= w[1].at_secs));
        // Every agent respects the ≤5 s interval: each sends ≥ ~12 updates
        // in 60 s on average; check a weaker bound.
        for oid in 0..40u64 {
            let n = updates.iter().filter(|u| u.oid == oid).count();
            assert!(n >= 6, "agent {oid} sent only {n} updates in 60 s");
        }
    }

    #[test]
    fn agents_stay_on_the_map_and_speeds_match_their_class() {
        let mut s = sim(60, 11);
        s.advance_until(120.0);
        s.sync_all();
        for a in s.agents() {
            assert!(a.loc.x >= -1e-6 && a.loc.x <= 1000.0 + 1e-6, "{a:?}");
            assert!(a.loc.y >= -1e-6 && a.loc.y <= 1000.0 + 1e-6, "{a:?}");
            match a.kind {
                AgentKind::Pedestrian => assert!(a.speed <= 1.0),
                AgentKind::Car => assert!(a.speed >= 1.0 && a.speed <= 2.0),
            }
        }
    }

    #[test]
    fn on_road_agents_sit_on_road_lines() {
        let mut s = sim(60, 13);
        s.advance_until(45.0);
        s.sync_all();
        let spacing = s.map.spacing();
        for a in s.agents() {
            if !indoors(a) {
                let on_v = (a.loc.x / spacing).fract().abs() < 1e-6
                    || ((a.loc.x / spacing).fract() - 1.0).abs() < 1e-6;
                let on_h = (a.loc.y / spacing).fract().abs() < 1e-6
                    || ((a.loc.y / spacing).fract() - 1.0).abs() < 1e-6;
                assert!(on_v || on_h, "agent off-road at {:?}", a.loc);
            }
        }
    }

    #[test]
    fn pedestrians_do_enter_buildings_eventually() {
        let mut s = RoadNetSim::new(
            RoadMap::new(RoadMapConfig::default()),
            SimConfig {
                agents: 100,
                car_fraction: 0.0,
                enter_probability: 0.5,
                entrance_radius: 10.0,
                seed: 5,
                ..SimConfig::default()
            },
        );
        s.advance_until(200.0);
        s.sync_all();
        let indoor = s.agents().iter().filter(|a| indoors(a)).count();
        assert!(indoor > 0, "no pedestrian ever entered a building");
        // Cars never go indoors (none exist here; assert kind logic holds).
        for a in s.agents() {
            if indoors(a) {
                assert_eq!(a.kind, AgentKind::Pedestrian);
            }
        }
    }
}
