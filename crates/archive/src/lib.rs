//! # moist-archive
//!
//! Aged-data archiving for MOIST (Jiang et al., VLDB 2012, §3.5–3.6): the
//! **Parallel Ping-Pong (PPP)** scheme.
//!
//! * [`record`] — fixed-width archived location records;
//! * [`disk`] — simulated disks charging the paper's Eq. 1 access time
//!   (`T_rot + T_seek + bytes / R_disk`) and tracking utilisation, whose
//!   flushed pages live in one page file per disk;
//! * `buffer` — ping-pong double buffers with `min T_m ≥ max T_d`
//!   monitoring;
//! * [`ppp`] — the archiver: per-disk buffers, the locality-preserving
//!   placement hash `hash_d(i, loc_{i,0})`, object-based and location-based
//!   history queries, and the in-memory recent window (one ring of `m`
//!   records per object);
//! * [`planner`] — the §3.6.2 optimiser choosing `n_d` by maximising
//!   `min(U_d, R_d)` under the ping-pong constraint.
//!
//! ```
//! use moist_archive::{HistoryRecord, PppArchiver, PppConfig};
//! use moist_spatial::{Point, Space, Velocity};
//!
//! let archiver = PppArchiver::new(Space::paper_map(), PppConfig::default());
//! for ts in 0..32u64 {
//!     let rec = HistoryRecord::new(7, ts, Point::new(500.0, 500.0), Velocity::ZERO);
//!     archiver.ingest(rec, ts * 1_000_000);
//! }
//! archiver.flush_all()?;
//! let (history, cost) = archiver.query_object(7, 0, u64::MAX)?;
//! assert_eq!(history.len(), 32);
//! assert_eq!(cost.disks_touched, 1); // object locality: one disk read
//! # Ok::<(), moist_archive::ArchiveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
pub mod disk;
pub mod planner;
pub mod ppp;
pub mod record;

pub use disk::{ArchiveError, DiskProfile, DiskStats};
pub use planner::{Plan, PlanError, PlanPoint, PlannerInput, MAX_PLANNED_DISKS};
pub use ppp::{PppArchiver, PppConfig, PppStats, QueryCost};
pub use record::{HistoryRecord, RECORD_BYTES};
