//! # moist-bigtable
//!
//! An in-process key-value store reproducing the BigTable semantics MOIST
//! (Jiang et al., VLDB 2012) is built on: lexicographically sorted row keys,
//! column families with in-memory vs on-disk locality, timestamped
//! multi-version cells, atomic single-row mutations, batch mutations and
//! contiguous range scans, with automatic tablet splitting.
//!
//! Because the paper's evaluation is entirely about *operation costs* ("the
//! number of read and write operations performed by the server on BigTable …
//! was the major bottleneck", §4.2), the crate pairs the store with a
//! calibrated virtual-time [`cost::CostProfile`]: every operation issued via
//! a [`session::Session`] charges modelled microseconds to a per-client
//! clock, giving deterministic, hardware-independent QPS measurements that
//! preserve the paper's cost asymmetries (batch ≫ point, memory ≫ disk,
//! reads cheaper than writes).
//!
//! ```
//! use moist_bigtable::{
//!     Bigtable, ColumnFamily, Mutation, RowKey, TableSchema, Timestamp,
//! };
//!
//! let store = Bigtable::new();
//! let table = store.create_table(TableSchema::new(
//!     "location",
//!     vec![ColumnFamily::in_memory("loc", 8)],
//! )?)?;
//! let mut session = store.session();
//! session.mutate_row(
//!     &table,
//!     &RowKey::from_u64(42),
//!     &[Mutation::put("loc", "latest", Timestamp::from_secs(1), &b"(3,4)"[..])],
//! )?;
//! let cell = session.get_latest(&table, &RowKey::from_u64(42), "loc", "latest")?;
//! assert_eq!(cell.unwrap().value.as_ref(), b"(3,4)");
//! assert!(session.elapsed_us() > 0.0); // virtual cost was charged
//! # Ok::<(), moist_bigtable::BigtableError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod metrics;
pub mod schema;
pub mod session;
pub mod store;
pub mod table;
mod tablet;
pub mod types;
pub mod wal;

pub use cost::{CostProfile, MeterHub};
pub use error::{BigtableError, Result};
pub use metrics::{Metrics, MetricsSnapshot};
pub use schema::{ColumnFamily, TableSchema};
pub use session::Session;
pub use store::{Bigtable, StoreConfig};
pub use table::{Mutation, OwnedRow, ReadOptions, RowEntry, RowMutation, ScanRange, Table};
pub use types::{Cell, Locality, RowKey, Timestamp};
pub use wal::{Durability, RecoveryReport};

/// The store's value type: values of up to 46 bytes live in place.
pub use bytes::Bytes;
