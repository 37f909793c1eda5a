//! What the benchmark runs and what it reports. The five workloads and their
//! constants live here; every metric's name, unit, direction and bound, and
//! every workload's why, live in `BENCHMARK.json` at the repository root,
//! which is compiled in and read from nowhere else.

use moist::core::MoistConfig;
use serde_json::Value;
use std::sync::OnceLock;

/// Front-end servers in every workload's tier.
pub const SHARDS: usize = 4;
/// Set-ups per run; `setup_s` is their median, the first one is measured.
pub const SETUP_REPEATS: usize = 3;
/// Simulated seconds one road-network tick advances (updates are applied a
/// tick at a time, then the tick's due clustering sweeps run).
pub const TICK_SECS: f64 = 5.0;
/// Updates one uniform-population chunk holds.
pub const UNIFORM_CHUNK: usize = 10_000;
/// Upper bound of an update interval, simulated seconds (both populations).
pub const MAX_INTERVAL_SECS: f64 = 5.0;
/// Fastest a road agent moves, world units per second, noise included.
pub const ROAD_MAX_SPEED: f64 = 2.3;
/// Per-axis speed bound of the uniform population.
pub const UNIFORM_MAX_SPEED: f64 = 2.0;
/// Velocity random walk of the uniform population (objects keep turning).
pub const UNIFORM_VELOCITY_WALK: f64 = 0.3;
/// Neighbours asked of every NN query.
pub const NN_K: usize = 10;
/// Side of every region query, world units.
pub const REGION_SIDE: f64 = 100.0;
/// Rate of the `rush_hour` writer, updates per wall-clock second.
pub const RUSH_RATE: u64 = 8_000;
/// Length of one `rush_hour` send slot, microseconds.
pub const RUSH_SLOT_US: u64 = 1_000;
/// Checkpoint cadence of `durable`, messages.
pub const CHECKPOINT_EVERY: u64 = 125_000;
/// `fsync_every` of `durable`'s write-ahead log.
pub const FSYNC_EVERY: u64 = 64;
/// Objects the position audit samples after every write workload.
pub const AUDIT_OBJECTS: usize = 2_000;
/// Queries of each kind checked against the brute-force reference.
pub const ORACLE_QUERIES: usize = 200;
/// `rush_hour`: an update not completed this long after it was due has
/// missed its deadline and counts as failed.
pub const RUSH_LIMIT_MS: u64 = 1_000;
/// One update in this many gets an operation span in a traced slice.
pub const UPDATE_SPAN_EVERY: u64 = 64;
/// Operations of each kind the decomposed replay takes from the stream.
pub const REPLAY_UPDATES: usize = 4_000;
pub const REPLAY_QUERIES: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Population {
    /// `clients` road-network simulators of `agents` each, warmed up for
    /// `warm_secs` simulated seconds so that schools have formed.
    Road {
        clients: usize,
        agents: u64,
        warm_secs: f64,
    },
    /// `clients` uniform simulators of `objects` each, loaded once.
    Uniform { clients: usize, objects: u64 },
}

impl Population {
    pub fn clients(&self) -> usize {
        match *self {
            Population::Road { clients, .. } | Population::Uniform { clients, .. } => clients,
        }
    }

    pub fn per_client(&self) -> u64 {
        match *self {
            Population::Road { agents, .. } => agents,
            Population::Uniform { objects, .. } => objects,
        }
    }

    /// Fastest an object moves, for the staleness part of a tolerance.
    pub fn max_speed(&self) -> f64 {
        match self {
            Population::Road { .. } => ROAD_MAX_SPEED,
            Population::Uniform { .. } => UNIFORM_MAX_SPEED * std::f64::consts::SQRT_2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every client applies its own stream with `MoistCluster::update`.
    SyncWriters,
    /// One client sends its stream through `submit` on a durable store,
    /// then the store crashes and recovers.
    DurableSubmit,
    /// Every client queries the frozen population: NN, then regions.
    Readers,
    /// One paced writer beside one closed-loop NN reader.
    RushHour,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, for the two `BENCHMARK.json` cannot list:
    /// every workload listed there must report every end-to-end metric, and
    /// must hold each steady from run to run. `lookup` has no updates, and
    /// no number of `rush_hour`'s own traffic is steady on this host, so
    /// the driver does not run them; `all` and `compare` do, ungated.
    pub unlisted_why: Option<&'static str>,
    pub epsilon: f64,
    pub population: Population,
    pub traffic: Traffic,
    pub archiver: bool,
}

impl Workload {
    pub fn config(&self) -> MoistConfig {
        MoistConfig {
            epsilon: self.epsilon,
            delta_m: 2.0,
            clustering_level: 3,
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        }
    }

    pub fn durable(&self) -> bool {
        self.traffic == Traffic::DurableSubmit
    }

    /// Whether `BENCHMARK.json` lists the workload, so that the driver runs
    /// it and every end-to-end metric is required of it.
    pub fn listed(&self) -> bool {
        self.unlisted_why.is_none()
    }

    pub fn why(&self) -> &'static str {
        self.unlisted_why
            .unwrap_or_else(|| declared().why(self.name))
    }

    /// How far `position` may lie from an object's last accepted report.
    /// With ε = 0 every object leads itself and the answer is the report.
    /// Otherwise a follower is estimated as its leader plus a displacement,
    /// and it stays in its school while it reports within ε of that
    /// estimate *or of the leader itself*; in the second case the estimate
    /// is off by up to the displacement, which clustering bounds by the
    /// diagonal of a clustering cell. A leader's later report also shifts
    /// the estimate by up to one update interval of movement, both ways.
    pub fn audit_tolerance(&self) -> f64 {
        if self.epsilon == 0.0 {
            return 1e-6;
        }
        let cfg = self.config();
        let diagonal = cfg.space.cell_side_world(cfg.clustering_level) * std::f64::consts::SQRT_2;
        self.epsilon + diagonal + self.staleness()
    }

    /// How far a query answer may place an object from where its last
    /// report, extrapolated to the query time, puts it: the index files an
    /// object under its last report, so even ε = 0 answers carry staleness.
    pub fn query_tolerance(&self) -> f64 {
        if self.epsilon == 0.0 {
            self.staleness()
        } else {
            self.audit_tolerance()
        }
    }

    /// One update interval of the fastest movement, both ways.
    fn staleness(&self) -> f64 {
        2.0 * self.population.max_speed() * MAX_INTERVAL_SECS
    }
}

const ROAD_2X10K: Population = Population::Road {
    clients: 2,
    agents: 10_000,
    warm_secs: 20.0,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "commute",
        unlisted_why: None,
        epsilon: 50.0,
        population: ROAD_2X10K,
        traffic: Traffic::SyncWriters,
        archiver: true,
    },
    Workload {
        name: "worstcase",
        unlisted_why: None,
        epsilon: 0.0,
        population: Population::Uniform {
            clients: 2,
            objects: 40_000,
        },
        traffic: Traffic::SyncWriters,
        archiver: false,
    },
    Workload {
        name: "durable",
        unlisted_why: None,
        epsilon: 0.0,
        population: Population::Uniform {
            clients: 1,
            objects: 40_000,
        },
        traffic: Traffic::DurableSubmit,
        archiver: false,
    },
    Workload {
        name: "lookup",
        unlisted_why: Some("Reads only, 2 closed-loop readers on the frozen schooled population: NN k=10, then 100x100 regions, so scans, FLAG, scatter and read routing do all the work, no write beside them."),
        epsilon: 50.0,
        population: ROAD_2X10K,
        traffic: Traffic::Readers,
        archiver: false,
    },
    Workload {
        name: "rush_hour",
        unlisted_why: Some("Writes beside reads: one writer paced open-loop at 8000 updates/s, each update timed from its due time, beside one closed-loop NN reader, so read and write guards cost each other."),
        epsilon: 50.0,
        population: Population::Road {
            clients: 1,
            agents: 20_000,
            warm_secs: 30.0,
        },
        traffic: Traffic::RushHour,
        archiver: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric as `BENCHMARK.json` declares it.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`: the workloads' whys and every metric.
pub struct Declared {
    /// How long one run measures, unless `--seconds` says otherwise.
    pub run_seconds: u64,
    /// (workload, why).
    pub whys: Vec<(String, String)>,
    /// What a user of the tier sees, from the untraced run; the driver gates
    /// these, so every workload reports every one.
    pub end_to_end: Vec<Metric>,
    /// Single layers, and the end-to-end numbers only some workloads have
    /// or this host cannot hold steady (ungated); a metric a workload
    /// cannot produce reads 0.
    pub per_layer: Vec<Metric>,
}

impl Declared {
    fn why(&self, workload: &str) -> &str {
        let listed = self.whys.iter().find(|(name, _)| name == workload);
        listed.map_or("", |(_, why)| why)
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn parse(text: &str) -> Result<Declared, String> {
    let doc = serde_json::from_str_value(text).map_err(|e| e.to_string())?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("no {key} list"))
    };
    let text_of = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("an entry lacks {key}"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    lower_is_better: text_of(m, "better")? == "lower",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Declared {
        run_seconds: (doc.get("run_seconds").and_then(Value::as_f64)).ok_or("no run_seconds")?
            as u64,
        whys: list("workloads")?
            .iter()
            .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well formed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_these_workloads_and_well_formed_metrics() {
        let d = declared();
        let names: Vec<&str> = d.whys.iter().map(|(n, _)| n.as_str()).collect();
        let listed = WORKLOADS.iter().filter(|w| w.listed());
        assert_eq!(names, listed.map(|w| w.name).collect::<Vec<_>>());
        assert!(WORKLOADS.iter().all(|w| (1..=200).contains(&w.why().len())));
        assert!(d.end_to_end.len() <= 16 && d.per_layer.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(seen.insert(&m.name), "{} declared twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            // A rate is better higher, a time or a size lower.
            let rate = m.unit == "1/s";
            let cost = ["s", "ms", "us", "ns", "B", "MB"].contains(&m.unit.as_str());
            assert!(!rate || !m.lower_is_better, "{} is a rate", m.name);
            assert!(!cost || m.lower_is_better, "{} is a cost", m.name);
        }
        // The driver's rule: no bound past 0.25, and set-up has the widest.
        let setup = d.metric("setup_s").and_then(|m| m.bound).unwrap();
        for m in &d.end_to_end {
            let bound = m.bound.expect("an end-to-end metric has a bound");
            assert!(bound <= setup && setup <= 0.25, "{}: {bound}", m.name);
        }
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
