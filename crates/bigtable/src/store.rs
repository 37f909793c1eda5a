//! The store: a namespace of tables plus global configuration.

use crate::cost::CostProfile;
use crate::error::{BigtableError, Result};
use crate::metrics::MetricsSnapshot;
use crate::schema::TableSchema;
use crate::session::Session;
use crate::table::Table;
use crate::wal::{self, Durability, RecoveryReport, WalWriter};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Store-wide configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Tablets split above this many rows (BigTable's automatic sharding).
    ///
    /// Defaults to 4,096. A tablet is the unit writers contend on (each
    /// row operation write-locks one), so it is sized for the writers,
    /// not the rows: at 65,536 the 80,000-row tables of MOIST's
    /// error-bound-0 stream were one or two tablets, and two writers met
    /// on a tablet lock in most of the ~8 store operations of an update.
    /// At 4,096 they are 20 to 40 tablets (a split cuts at the median)
    /// and rarely meet; smaller tablets only make splits and scans'
    /// tablet hops more frequent.
    pub max_rows_per_tablet: usize,
    /// Whether tables write a WAL (and can be recovered after a crash).
    /// Defaults to [`Durability::None`]: purely in-memory, bit-identical
    /// to the pre-durability store.
    pub durability: Durability,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_rows_per_tablet: 4_096,
            durability: Durability::None,
        }
    }
}

/// An in-process store with BigTable semantics.
///
/// Cloneable via `Arc`; multiple front-end servers share one store exactly
/// like the paper's multi-server deployment shares one BigTable (§4.3.3).
pub struct Bigtable {
    config: StoreConfig,
    tables: RwLock<HashMap<String, Arc<Table>>>,
}

impl Bigtable {
    /// Creates an empty store with the default configuration.
    pub fn new() -> Arc<Self> {
        Self::with_config(StoreConfig::default())
    }

    /// Creates an empty store.
    pub fn with_config(config: StoreConfig) -> Arc<Self> {
        Arc::new(Bigtable {
            config,
            tables: RwLock::new(HashMap::new()),
        })
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Creates a table from a schema. Fails if the name is taken. On a
    /// durable store this creates `<dir>/<name>.wal` and appends the
    /// schema as its first record before the table accepts writes.
    pub fn create_table(&self, schema: TableSchema) -> Result<Arc<Table>> {
        let mut tables = self.tables.write();
        if tables.contains_key(&schema.name) {
            return Err(BigtableError::TableExists(schema.name));
        }
        let writer = match &self.config.durability {
            Durability::None => None,
            Durability::Wal { dir, fsync_every } => {
                std::fs::create_dir_all(dir).map_err(|e| {
                    BigtableError::Wal(format!("create wal dir {}: {e}", dir.display()))
                })?;
                let mut w = WalWriter::create(wal::wal_path(dir, &schema.name), *fsync_every, 1)?;
                w.append(|buf| wal::encode_schema(buf, &schema))?;
                Some(w)
            }
        };
        let name = schema.name.clone();
        let table = Arc::new(Table::new(schema, self.config.max_rows_per_tablet, writer));
        tables.insert(name, Arc::clone(&table));
        Ok(table)
    }

    /// Opens an existing table.
    pub fn open_table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| BigtableError::UnknownTable(name.to_string()))
    }

    /// Drops a table. Outstanding `Arc<Table>` handles keep working but the
    /// name becomes free. On a durable store the table's WAL and snapshot
    /// files are deleted, so a later [`Bigtable::recover`] does not
    /// resurrect it (outstanding handles keep writing to the unlinked
    /// log, which is exactly "dropped but still open").
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.tables
            .write()
            .remove(name)
            .ok_or_else(|| BigtableError::UnknownTable(name.to_string()))?;
        if let Durability::Wal { dir, .. } = &self.config.durability {
            let wal_path = wal::wal_path(dir, name);
            for path in [wal_path.with_extension("snap"), wal_path] {
                if let Err(e) = std::fs::remove_file(&path) {
                    if e.kind() != std::io::ErrorKind::NotFound {
                        return Err(BigtableError::Wal(format!(
                            "remove {}: {e}",
                            path.display()
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Rebuilds a store from the WAL directory named by
    /// `config.durability` (which must be [`Durability::Wal`]): for every
    /// table found on disk, loads its snapshot if one exists, replays the
    /// log on top in append order, truncates a torn final record to the
    /// last consistent cut, and reopens the log for appends at that cut.
    /// Replay is idempotent, so recovering twice — or recovering a log
    /// whose prefix is already covered by the snapshot — converges to the
    /// same state.
    pub fn recover(config: StoreConfig) -> Result<(Arc<Self>, RecoveryReport)> {
        let Durability::Wal { dir, fsync_every } = config.durability.clone() else {
            return Err(BigtableError::Wal(
                "recover requires StoreConfig.durability = Durability::Wal".to_string(),
            ));
        };
        let mut report = RecoveryReport::default();
        let mut tables = HashMap::new();
        for name in wal::scan_tables(&dir)? {
            let wal_path = wal::wal_path(&dir, &name);
            let snap_path = wal_path.with_extension("snap");

            // Snapshot first: it defines the base state, the schema, and
            // (via its frame's sequence number) the last log record it
            // covers.
            let mut table: Option<Table> = None;
            let mut base_seq = 0u64;
            if snap_path.exists() {
                let bytes = std::fs::read(&snap_path).map_err(|e| {
                    BigtableError::Wal(format!("read {}: {e}", snap_path.display()))
                })?;
                let (frames, _, torn) = wal::parse_frames(&bytes);
                if torn || frames.len() != 1 {
                    // write_snapshot publishes via rename, so a snapshot is
                    // all-or-nothing; anything else is real corruption.
                    return Err(BigtableError::Wal(format!(
                        "snapshot {} is corrupt",
                        snap_path.display()
                    )));
                }
                base_seq = frames[0].seq;
                let mut r = wal::Reader::new(frames[0].payload);
                let schema = match wal::read_snapshot_schema(&mut r)? {
                    Some(schema) => schema,
                    None => {
                        return Err(BigtableError::Wal(format!(
                            "snapshot {} does not start with a schema",
                            snap_path.display()
                        )))
                    }
                };
                let t = Table::new(schema, config.max_rows_per_tablet, None);
                t.load_snapshot_rows(&mut r)?;
                table = Some(t);
            }

            // Then the log tail (or the whole log when no snapshot).
            let log_bytes = if wal_path.exists() {
                std::fs::read(&wal_path)
                    .map_err(|e| BigtableError::Wal(format!("read {}: {e}", wal_path.display())))?
            } else {
                Vec::new()
            };
            let (frames, cut, torn) = wal::parse_frames(&log_bytes);
            let mut frames = frames.into_iter();
            let mut table = match table {
                Some(t) => t,
                None => {
                    // No snapshot: the first record must be the schema.
                    let Some(first) = frames.next() else {
                        report.skipped_tables += 1; // creation never finished
                        continue;
                    };
                    match wal::decode_record(first.payload)? {
                        wal::WalRecord::Schema(schema) => {
                            // The schema frame is the replay baseline, so
                            // the loop below never reuses its seq.
                            base_seq = first.seq;
                            Table::new(schema, config.max_rows_per_tablet, None)
                        }
                        _ => {
                            return Err(BigtableError::Wal(format!(
                                "wal {} has no snapshot and does not start with a schema",
                                wal_path.display()
                            )))
                        }
                    }
                }
            };
            let mut next_seq = base_seq + 1;
            for frame in frames {
                next_seq = frame.seq + 1;
                if frame.seq <= base_seq {
                    continue; // already contained in the snapshot
                }
                report.replayed_records += 1;
                report.replayed_bytes += frame.payload.len() as u64;
                table.apply_replayed(wal::decode_record(frame.payload)?)?;
            }
            if torn {
                report.truncated_tables += 1;
            }
            if wal_path.exists() {
                table.attach_wal(WalWriter::open_at(
                    wal_path,
                    fsync_every,
                    cut as u64,
                    next_seq,
                )?);
            } else {
                // Snapshot without a log (e.g. the log was lost): start a
                // fresh one so new writes are durable again.
                let mut w = WalWriter::create(wal::wal_path(&dir, &name), fsync_every, next_seq)?;
                w.append(|buf| wal::encode_schema(buf, table.schema()))?;
                table.attach_wal(w);
            }
            report.tables += 1;
            tables.insert(name, Arc::new(table));
        }
        let store = Arc::new(Bigtable {
            config,
            tables: RwLock::new(tables),
        });
        Ok((store, report))
    }

    /// Compacts every table: snapshot + log truncation (no-op per table
    /// on a non-durable store). Returns total snapshot bytes written.
    pub fn compact_all(&self) -> Result<u64> {
        let tables: Vec<Arc<Table>> = self.tables.read().values().cloned().collect();
        let mut bytes = 0u64;
        for t in tables {
            bytes += t.compact()?;
        }
        Ok(bytes)
    }

    /// Sum of all tables' metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let tables = self.tables.read();
        let mut total = MetricsSnapshot::default();
        for t in tables.values() {
            let s = t.metrics().snapshot();
            total.read_ops += s.read_ops;
            total.rows_read += s.rows_read;
            total.bytes_read += s.bytes_read;
            total.write_ops += s.write_ops;
            total.mutations += s.mutations;
            total.bytes_written += s.bytes_written;
            total.scan_ops += s.scan_ops;
            total.rows_scanned += s.rows_scanned;
            total.batch_ops += s.batch_ops;
            total.wal_appends += s.wal_appends;
            total.wal_bytes += s.wal_bytes;
            total.wal_fsyncs += s.wal_fsyncs;
            total.wal_replayed += s.wal_replayed;
        }
        total
    }

    /// Opens a session charged at [`CostProfile::default`].
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(CostProfile::default())
    }

    /// Opens a session with an explicit profile (e.g. [`CostProfile::free`]
    /// in tests).
    pub fn session_with(self: &Arc<Self>, profile: CostProfile) -> Session {
        Session::new(profile)
    }

    /// Opens a session at [`CostProfile::default`] attached to a shared
    /// `MeterHub`: every charge is mirrored into the hub, and the
    /// session's clock starts at the hub's current total so absolute
    /// mid-call reads replay the single-shared-clock timeline exactly.
    /// This is what lets a server run query paths from `&self` — each
    /// call opens an ephemeral hubbed session instead of mutating one
    /// shared clock.
    pub fn session_with_hub(self: &Arc<Self>, hub: Arc<crate::cost::MeterHub>) -> Session {
        Session::with_hub(hub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnFamily;

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(name, vec![ColumnFamily::in_memory("f", 1)]).unwrap()
    }

    #[test]
    fn create_open_drop() {
        let store = Bigtable::new();
        store.create_table(schema("a")).unwrap();
        store.create_table(schema("b")).unwrap();
        assert_eq!(store.table_names(), vec!["a", "b"]);
        assert!(matches!(
            store.create_table(schema("a")),
            Err(BigtableError::TableExists(_))
        ));
        assert!(store.open_table("a").is_ok());
        store.drop_table("a").unwrap();
        assert!(matches!(
            store.open_table("a"),
            Err(BigtableError::UnknownTable(_))
        ));
        assert!(store.drop_table("a").is_err());
    }

    #[test]
    fn metrics_aggregate_across_tables() {
        let store = Bigtable::new();
        let a = store.create_table(schema("a")).unwrap();
        let b = store.create_table(schema("b")).unwrap();
        use crate::table::Mutation;
        use crate::types::{RowKey, Timestamp};
        a.mutate_row(
            &RowKey::from_u64(1),
            &[Mutation::put("f", "q", Timestamp(0), &b"x"[..])],
        )
        .unwrap();
        b.mutate_row(
            &RowKey::from_u64(1),
            &[Mutation::put("f", "q", Timestamp(0), &b"y"[..])],
        )
        .unwrap();
        assert_eq!(store.metrics_snapshot().write_ops, 2);
    }
}
