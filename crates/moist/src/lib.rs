//! # moist
//!
//! A from-scratch, production-quality reproduction of **MOIST: A Scalable
//! and Parallel Moving Object Indexer with School Tracking** (Jiang, Bao,
//! Chang, Li — PVLDB 5(12), 2012), including every substrate the paper
//! builds on.
//!
//! This facade re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`spatial`] | `moist-spatial` | Hilbert/Z curves, hierarchical cells, world ↔ unit-square mapping (§3.2) |
//! | [`bigtable`] | `moist-bigtable` | BigTable-semantics store + calibrated cost model (§3.1) |
//! | [`core`] | `moist-core` | object schools, Algorithm 1 updates, clustering, NN search, FLAG, the sharded `MoistCluster` front-end tier with rendezvous-hashed cell ownership and live shard join/leave (§3.3–3.4, §4.3.3) |
//! | [`archive`] | `moist-archive` | PPP parallel ping-pong aged-data archiving (§3.5–3.6) |
//! | [`baselines`] | `moist-baselines` | the Bx-tree comparator (§2) |
//! | [`workload`] | `moist-workload` | the §4.1 road-network and uniform workloads, client drivers |
//!
//! ## Quickstart
//!
//! ```
//! use moist::bigtable::{Bigtable, Timestamp};
//! use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
//! use moist::spatial::{Point, Velocity};
//!
//! // One store (the "BigTable") and the front-end tier over it: one
//! // server by default, `.shards(n)` for the paper's fleets.
//! let store = Bigtable::new();
//! let cluster = MoistCluster::builder(&store, MoistConfig::default()).build()?;
//!
//! // A taxi reports its position.
//! cluster.update(&UpdateMessage {
//!     oid: ObjectId(1),
//!     loc: Point::new(420.0, 500.0),
//!     vel: Velocity::new(1.8, 0.0),
//!     ts: Timestamp::from_secs(10),
//! })?;
//!
//! // A customer asks for the nearest taxi.
//! let (neighbors, _) = cluster.nn(Point::new(400.0, 500.0), 1, Timestamp::from_secs(11))?;
//! assert_eq!(neighbors[0].oid, ObjectId(1));
//! # Ok::<(), moist::core::MoistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use moist_archive as archive;
pub use moist_baselines as baselines;
pub use moist_bigtable as bigtable;
pub use moist_core as core;
pub use moist_spatial as spatial;
pub use moist_workload as workload;
