//! # moist-workload
//!
//! Synthetic moving-object workloads reproducing the MOIST paper's §4.1
//! experiment setup:
//!
//! * [`roadnet`] — the road-network simulation: rectangular buildings with
//!   entrances, pedestrians (0–1 u/s) and cars (1–2 u/s), equal-probability
//!   turns at crossroads, 5% building entry/exit, noisy reports, 0–5 s
//!   update intervals;
//! * [`uniform`] — uniform random objects for the BigTable stress tests
//!   (400k–1M objects);
//! * [`driver`] — multi-threaded client pools and per-second QPS timelines.
//!
//! All generators are deterministic under a fixed seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod roadnet;
pub mod uniform;

pub use driver::{ClientPool, QpsSample, QpsTimeline};
pub use roadnet::{Agent, AgentKind, RoadMap, RoadMapConfig, RoadNetSim, SimConfig, SimUpdate};
pub use uniform::UniformSim;
