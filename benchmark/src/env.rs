//! The system under test and the clients that feed it: populations built
//! from the seed, the tier built through `ClusterBuilder`, and set-up.

use crate::oracle::Report;
use crate::spec::{
    Population, Workload, FSYNC_EVERY, MAX_INTERVAL_SECS, TICK_SECS, UNIFORM_CHUNK,
    UNIFORM_MAX_SPEED, UNIFORM_VELOCITY_WALK,
};
use moist::archive::{PppArchiver, PppConfig};
use moist::bigtable::{Bigtable, Durability, StoreConfig, Timestamp};
use moist::core::{IngestConfig, MoistCluster, ObjectId, UpdateMessage};
use moist::spatial::Rect;
use moist::workload::{RoadMap, RoadMapConfig, RoadNetSim, SimConfig, SimUpdate, UniformSim};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub type Fail = String;

enum Source {
    Road(RoadNetSim),
    Uniform(UniformSim),
}

/// One load-generating client: its own simulator over its own object ids,
/// plus the last report the system accepted for each of its objects.
pub struct Client {
    source: Source,
    oid_base: u64,
    /// Last accepted report per local object index.
    pub last: Vec<Option<Report>>,
}

impl Client {
    fn new(population: &Population, index: usize, seed: u64) -> Client {
        let per_client = population.per_client();
        // Distinct, seed-derived simulator seeds per client.
        let sim_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64 + 1);
        let source = match population {
            Population::Road { agents, .. } => Source::Road(RoadNetSim::new(
                RoadMap::new(RoadMapConfig::default()),
                SimConfig {
                    agents: *agents,
                    max_update_interval_secs: MAX_INTERVAL_SECS,
                    seed: sim_seed,
                    ..SimConfig::default()
                },
            )),
            Population::Uniform { objects, .. } => Source::Uniform(
                UniformSim::new(
                    Rect::new(0.0, 0.0, 1000.0, 1000.0),
                    *objects,
                    UNIFORM_MAX_SPEED,
                    MAX_INTERVAL_SECS,
                    sim_seed,
                )
                .with_velocity_walk(UNIFORM_VELOCITY_WALK),
            ),
        };
        Client {
            source,
            oid_base: index as u64 * per_client,
            last: vec![None; per_client as usize],
        }
    }

    fn message(&self, u: &SimUpdate) -> UpdateMessage {
        UpdateMessage {
            oid: ObjectId(self.oid_base + u.oid),
            loc: u.loc,
            vel: u.vel,
            ts: Timestamp::from_secs_f64(u.at_secs),
        }
    }

    /// Simulated time the client's stream has reached.
    pub fn now_secs(&self) -> f64 {
        match &self.source {
            Source::Road(sim) => sim.now_secs(),
            Source::Uniform(sim) => sim.now_secs(),
        }
    }

    /// The stream's next chunk, replacing `out`: one tick of the road
    /// network, or a fixed count of uniform updates.
    pub fn next_chunk(&mut self, out: &mut Vec<UpdateMessage>) {
        let updates = match &mut self.source {
            Source::Road(sim) => {
                let until = sim.now_secs() + TICK_SECS;
                sim.advance_until(until)
            }
            Source::Uniform(sim) => sim.next_updates(UNIFORM_CHUNK),
        };
        out.clear();
        out.extend(updates.iter().map(|u| self.message(u)));
    }

    /// The messages that make the population known to the system: every
    /// uniform object once at time 0, or the road network's warm-up ticks.
    fn warm_up(&mut self, population: &Population) -> Vec<Vec<UpdateMessage>> {
        match (population, &mut self.source) {
            (Population::Uniform { .. }, Source::Uniform(sim)) => {
                let first: Vec<UpdateMessage> = sim
                    .positions()
                    .into_iter()
                    .map(|(oid, loc, vel)| UpdateMessage {
                        oid: ObjectId(self.oid_base + oid),
                        loc,
                        vel,
                        ts: Timestamp(0),
                    })
                    .collect();
                vec![first]
            }
            (Population::Road { warm_secs, .. }, Source::Road(_)) => {
                let mut ticks = Vec::new();
                while self.now_secs() < *warm_secs {
                    let mut tick = Vec::new();
                    self.next_chunk(&mut tick);
                    ticks.push(tick);
                }
                ticks
            }
            _ => unreachable!("client source matches its population"),
        }
    }

    /// Remembers `msgs` as accepted (call after they were applied).
    pub fn note_accepted(&mut self, msgs: &[UpdateMessage]) {
        for m in msgs {
            self.last[(m.oid.0 - self.oid_base) as usize] = Some(Report {
                loc: m.loc,
                vel: m.vel,
                ts: m.ts,
            });
        }
    }
}

/// The clients of a run and the warm-up stream set-up replays.
pub struct Load {
    pub clients: Vec<Client>,
    /// Per client, per tick.
    warm: Vec<Vec<Vec<UpdateMessage>>>,
    /// Simulated time at which warm-up ends.
    pub warm_end_secs: f64,
}

impl Load {
    pub fn generate(w: &Workload, seed: u64) -> Load {
        let mut clients: Vec<Client> = (0..w.population.clients())
            .map(|i| Client::new(&w.population, i, seed))
            .collect();
        let warm: Vec<Vec<Vec<UpdateMessage>>> = clients
            .iter_mut()
            .map(|c| {
                let ticks = c.warm_up(&w.population);
                for t in &ticks {
                    c.note_accepted(t);
                }
                ticks
            })
            .collect();
        let warm_end_secs = clients.iter().map(Client::now_secs).fold(0.0, f64::max);
        Load {
            clients,
            warm,
            warm_end_secs,
        }
    }

    /// The warm-up stream: per client, per tick.
    pub fn warm_ticks(&self) -> &[Vec<Vec<UpdateMessage>>] {
        &self.warm
    }

    /// Last accepted reports of all clients, indexed by object id.
    pub fn reports(&self) -> Vec<Option<Report>> {
        self.clients
            .iter()
            .flat_map(|c| c.last.iter().copied())
            .collect()
    }
}

/// Removes a scratch directory when dropped, on success and on failure.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh directory under `benchmark/out/`, unique per process and call.
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("scratch_{}_{label}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark writes: `benchmark/out/`, whether it is run from
/// the root of the checkout (the command in `BENCHMARK.json`) or from the
/// package directory (`cargo test`).
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// The system under test.
pub struct Tier {
    pub store: Arc<Bigtable>,
    pub cluster: MoistCluster,
    /// Holds the write-ahead log's directory for a durable tier.
    pub wal_dir: Option<ScratchDir>,
}

pub fn store_config(wal_dir: Option<&Path>) -> StoreConfig {
    StoreConfig {
        durability: match wal_dir {
            None => Durability::None,
            Some(dir) => Durability::Wal {
                dir: dir.to_path_buf(),
                fsync_every: FSYNC_EVERY,
            },
        },
        ..StoreConfig::default()
    }
}

impl Tier {
    /// An empty tier as workload `w` configures it, with `shards` servers.
    pub fn empty(w: &Workload, shards: usize) -> Result<Tier, Fail> {
        let wal_dir = if w.durable() {
            Some(ScratchDir::new("wal").map_err(|e| format!("scratch dir: {e}"))?)
        } else {
            None
        };
        let store = Bigtable::with_config(store_config(wal_dir.as_ref().map(ScratchDir::path)));
        let archiver = w
            .archiver
            .then(|| Arc::new(PppArchiver::new(w.config().space, PppConfig::default())));
        let mut builder = MoistCluster::builder(&store, w.config())
            .shards(shards)
            .ingest(IngestConfig::default());
        if let Some(a) = &archiver {
            builder = builder.archiver(Arc::clone(a));
        }
        let cluster = builder.build().map_err(|e| format!("build tier: {e}"))?;
        Ok(Tier {
            store,
            cluster,
            wal_dir,
        })
    }

    /// Runs the clustering sweeps due at `now` on the shards client
    /// `client` of `clients` looks after.
    pub fn sweep(&self, client: usize, clients: usize, now: Timestamp) -> Result<(), Fail> {
        for shard in (client..self.cluster.num_shards()).step_by(clients) {
            self.cluster
                .run_due_clustering_shard(shard, now)
                .map_err(|e| format!("clustering sweep: {e}"))?;
        }
        Ok(())
    }
}

/// One set-up: builds the tier and makes the population known to it, one
/// thread per client. Returns the tier and how long it took.
pub fn set_up(w: &Workload, load: &Load, shards: usize) -> Result<(Tier, f64), Fail> {
    let started = Instant::now();
    let tier = Tier::empty(w, shards)?;
    let clients = load.warm.len();
    let road = matches!(w.population, Population::Road { .. });
    let results: Vec<Result<(), Fail>> = std::thread::scope(|scope| {
        let handles: Vec<_> = load
            .warm
            .iter()
            .enumerate()
            .map(|(i, ticks)| {
                let tier = &tier;
                scope.spawn(move || -> Result<(), Fail> {
                    for tick in ticks {
                        for m in tick {
                            tier.cluster
                                .update(m)
                                .map_err(|e| format!("warm-up update: {e}"))?;
                        }
                        if let (true, Some(m)) = (road, tick.last()) {
                            tier.sweep(i, clients, m.ts)?;
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    for r in results {
        r?;
    }
    Ok((tier, started.elapsed().as_secs_f64()))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn the_same_seed_gives_the_same_stream_and_another_seed_another() {
        let w = spec::workload("worstcase").unwrap();
        let small = Workload {
            population: Population::Uniform {
                clients: 2,
                objects: 50,
            },
            ..*w
        };
        let chunk = |seed| {
            let mut load = Load::generate(&small, seed);
            let mut out = Vec::new();
            load.clients[1].next_chunk(&mut out);
            out
        };
        let (a, b, c) = (chunk(7), chunk(7), chunk(8));
        assert_eq!(a.len(), UNIFORM_CHUNK);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.oid == y.oid && x.loc == y.loc));
        assert!(a.iter().zip(&c).any(|(x, y)| x.loc != y.loc));
        // Client 1's objects live in its own id range.
        assert!(a.iter().all(|m| (50..100).contains(&m.oid.0)));
    }

    #[test]
    fn scratch_dirs_are_unique_and_removed_on_drop() {
        let (a, b) = (ScratchDir::new("t").unwrap(), ScratchDir::new("t").unwrap());
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists());
        // Also when the owner unwinds.
        let path = b.path().to_path_buf();
        let _ = std::panic::catch_unwind(move || {
            let _guard = b;
            panic!("boom");
        });
        assert!(!path.exists());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(peak_rss_mb() > 0.0);
    }
}
