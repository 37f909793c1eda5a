//! # moist-core
//!
//! The MOIST moving-object indexer (Jiang, Bao, Chang, Li — VLDB 2012):
//! update shedding through **object schools**, spatial indexing over a
//! space-filling curve, adaptive nearest-neighbour search, lazy velocity
//! clustering, and hooks into the PPP aged-data archiver.
//!
//! Module map (paper section in parentheses):
//!
//! * [`tables`] — the Location, Spatial Index and Affiliation tables (§3.1);
//! * [`school`] — estimated locations & school membership (§3.3);
//! * [`update`] — Algorithm 1, the three-branch update procedure (§3.3.1);
//! * [`cluster`] + [`hexgrid`] — lazy O(n) velocity clustering (§3.3.2);
//! * [`nn`] — Algorithm 2 nearest-neighbour search (§3.4.1);
//! * [`flag`] — Algorithms 3–4, the Fast Level Adaptive Grid (§3.4.2);
//! * [`server`] — one front-end server, a shard of the tier (§4.3);
//! * [`placement`] — who owns a routing key and who may read it:
//!   weighted rendezvous hashing, ranked replica sets, the hot-cell split
//!   table and the region fan-out's range slicer;
//! * [`cluster_tier`] — the library's front door, [`MoistCluster`]: N
//!   servers (one by default) over one
//!   store, routing and clustering partitioned by [`placement`] over an
//!   epoch-stamped membership (`membership`), a write path routed under
//!   the membership read guard with pipelined ingestion (`write`),
//!   replica-anchored and scatter-gathered reads (`read`), and live shard
//!   join/leave/rebalance (`elastic`) (§4.3.3);
//! * [`ingest`] — the batched, pipelined ingestion tier: bounded per-shard
//!   submission queues with size/deadline flush and typed backpressure,
//!   feeding the batched apply path (§4.1's batch-write discount);
//! * [`controller`] — the self-tuning elasticity controller: windows the
//!   tier's measured signals and grows/shrinks/rebalances the fleet
//!   itself under hysteresis (§6.4's scale-out, operator-free).
//!
//! ```
//! use moist_bigtable::{Bigtable, Timestamp};
//! use moist_core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
//! use moist_spatial::{Point, Velocity};
//!
//! let store = Bigtable::new();
//! let cluster = MoistCluster::builder(&store, MoistConfig::default()).build()?;
//! cluster.update(&UpdateMessage {
//!     oid: ObjectId(7),
//!     loc: Point::new(250.0, 750.0),
//!     vel: Velocity::new(1.5, 0.0),
//!     ts: Timestamp::from_secs(1),
//! })?;
//! let (neighbors, _stats) = cluster.nn(Point::new(250.0, 750.0), 1, Timestamp::from_secs(1))?;
//! assert_eq!(neighbors[0].oid, ObjectId(7));
//! # Ok::<(), moist_core::MoistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod cluster_tier;
pub mod codec;
pub mod config;
pub mod controller;
pub mod error;
pub mod flag;
pub mod hexgrid;
pub mod ids;
pub mod ingest;
mod load;
pub mod nn;
pub mod placement;
pub mod query_pool;
pub mod region;
pub mod school;
pub mod server;
pub mod tables;
pub mod update;

pub use cluster::{cluster_cell, cluster_sweep, ClusterReport};
pub use cluster_tier::{
    ClusterBuilder, ClusterStats, MoistCluster, RebalanceReport, ShardLoadStats,
};
pub use codec::{LfRecord, LocationRecord};
pub use config::{table_names, MoistConfig};
pub use controller::{ControllerAction, ControllerConfig, ControllerEvent};
pub use error::{MoistError, Result};
pub use flag::FlagStats;
pub use hexgrid::{HexBin, HexGrid};
pub use ids::ObjectId;
pub use ingest::{IngestConfig, IngestStats, SubmitOutcome};
pub use nn::{nn_query, Neighbor, NnOptions, NnStats};
pub use placement::{owners, slice_ranges, ShardWeight, SplitTable};
pub use query_pool::QueryPool;
pub use region::{plan_region_ranges, RegionStats};
pub use school::estimated_location;
pub use server::{FrontEnd, MoistServer, ServerStats};
pub use tables::{MoistTables, SpatialEntry};
pub use update::{apply_update, UpdateMessage, UpdateOutcome};
