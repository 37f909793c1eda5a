//! Cost-charged sessions.
//!
//! A [`Session`] wraps store operations and charges their modelled cost to
//! its own virtual clock. Each simulated front-end server or client owns
//! one session; virtual elapsed time divided into operation counts yields
//! the modelled QPS the benchmarks report.

use crate::cost::{CostProfile, MeterHub};
use crate::error::Result;
use crate::table::{Mutation, OwnedRow, ReadOptions, RowMutation, ScanRange, Table};
use crate::types::{Cell, Locality, RowKey};
use std::sync::Arc;

/// A cost-charged view of a store.
///
/// A plain session keeps its elapsed time to itself. A hub-attached
/// session (see [`Bigtable::session_with_hub`](crate::Bigtable::session_with_hub))
/// starts its clock at the shared [`MeterHub`]'s current total and mirrors
/// every charge into the hub, so:
///
/// * absolute `elapsed_us()` reads mid-call match what one shared clock
///   would have shown (single-threaded runs stay bit-identical), and
/// * concurrent calls each own a clock — no `&mut` clock contention —
///   while the hub accumulates the server-wide total.
///
/// Operation counts are not kept here: every store operation is counted
/// exactly once, in its table's [`Metrics`](crate::Metrics).
pub struct Session {
    profile: CostProfile,
    elapsed_us: f64,
    hub: Option<Arc<MeterHub>>,
}

impl Session {
    pub(crate) fn new(profile: CostProfile) -> Self {
        Session {
            profile,
            elapsed_us: 0.0,
            hub: None,
        }
    }

    pub(crate) fn with_hub(hub: Arc<MeterHub>) -> Self {
        Session {
            profile: CostProfile::default(),
            elapsed_us: hub.elapsed_us(),
            hub: Some(hub),
        }
    }

    /// Virtual microseconds consumed so far (including a hub's seed).
    pub fn elapsed_us(&self) -> f64 {
        self.elapsed_us
    }

    /// Resets the clock, returning elapsed microseconds.
    ///
    /// On a hub-attached session this resets the shared hub too and
    /// returns the hub's (authoritative, server-wide) elapsed total.
    pub fn reset(&mut self) -> f64 {
        let own = std::mem::take(&mut self.elapsed_us);
        match &self.hub {
            Some(hub) => hub.reset(),
            None => own,
        }
    }

    /// Charges `us` to the session's clock and mirrors it into the hub
    /// (non-positive charges are ignored). All cost accounting funnels
    /// through here so the hub sees the exact per-op addition sequence
    /// (not a coarse end-of-call fold).
    #[inline]
    fn charge(&mut self, us: f64) {
        if us > 0.0 {
            self.elapsed_us += us;
            if let Some(hub) = &self.hub {
                hub.charge_us(us);
            }
        }
    }

    /// Adds non-store work (e.g. server CPU) to the virtual timeline.
    pub fn charge_extra_us(&mut self, us: f64) {
        self.charge(us);
    }

    /// Durability surcharge for one write RPC on `table` that logged
    /// roughly `bytes` of mutations (plus frame overhead). Zero on
    /// non-durable tables, so `Durability::None` stays bit-identical.
    fn charge_wal(&mut self, table: &Table, bytes: u64) {
        if let Some(every) = table.wal_fsync_every() {
            let us = self.profile.wal_write_us(bytes + 32, every);
            self.charge(us);
        }
    }

    fn family_touches_disk(table: &Table, opts: &ReadOptions) -> bool {
        match &opts.families {
            None => table
                .schema()
                .families
                .iter()
                .any(|f| f.locality == Locality::Disk),
            Some(names) => names.iter().any(|n| {
                table
                    .schema()
                    .family(n)
                    .map(|(_, f)| f.locality == Locality::Disk)
                    .unwrap_or(false)
            }),
        }
    }

    /// Charged [`Table::get_latest`].
    pub fn get_latest(
        &mut self,
        table: &Table,
        key: &RowKey,
        family: &str,
        qualifier: &str,
    ) -> Result<Option<Cell>> {
        let cell = table.get_latest(key, family, qualifier)?;
        let bytes = cell.as_ref().map_or(0, |c| c.value.len() as u64);
        let disk = table
            .schema()
            .family(family)
            .map(|(_, f)| f.locality == Locality::Disk)
            .unwrap_or(false);
        let us = self
            .profile
            .point_read_us(table.approx_row_count(), bytes, disk);
        self.charge(us);
        Ok(cell)
    }

    /// Charged [`Table::get_row`].
    pub fn get_row(
        &mut self,
        table: &Table,
        key: &RowKey,
        opts: &ReadOptions,
    ) -> Result<Option<OwnedRow>> {
        let row = table.get_row(key, opts)?;
        let bytes = row.as_ref().map_or(0, |r| r.payload_bytes() as u64);
        let disk = Self::family_touches_disk(table, opts);
        let us = self
            .profile
            .point_read_us(table.approx_row_count(), bytes, disk);
        self.charge(us);
        Ok(row)
    }

    /// Charged [`Table::batch_get`]: one RPC, per-row cost at scan (not
    /// point-read) rates — BigTable's multi-get amortisation.
    pub fn batch_get(
        &mut self,
        table: &Table,
        keys: &[RowKey],
        opts: &ReadOptions,
    ) -> Result<Vec<Option<OwnedRow>>> {
        let rows = table.batch_get(keys, opts)?;
        let bytes: u64 = rows
            .iter()
            .flatten()
            .map(|r| r.payload_bytes() as u64)
            .sum();
        let disk = Self::family_touches_disk(table, opts);
        let us = self
            .profile
            .scan_us(table.approx_row_count(), keys.len() as u64, bytes, disk);
        self.charge(us);
        Ok(rows)
    }

    /// Charged [`Table::mutate_row`].
    pub fn mutate_row(
        &mut self,
        table: &Table,
        key: &RowKey,
        mutations: &[Mutation],
    ) -> Result<()> {
        table.mutate_row(key, mutations)?;
        let bytes = Table::mutation_bytes(mutations);
        let us = self
            .profile
            .write_us(table.approx_row_count(), mutations.len() as u64, bytes);
        self.charge(us);
        self.charge_wal(table, bytes);
        Ok(())
    }

    /// Charged [`Table::mutate_rows`] (batch; the cheap path clustering uses).
    pub fn mutate_rows(&mut self, table: &Table, batch: &[RowMutation]) -> Result<usize> {
        let n = table.mutate_rows(batch)?;
        let muts: u64 = batch.iter().map(|rm| rm.mutations.len() as u64).sum();
        let bytes: u64 = batch
            .iter()
            .map(|rm| Table::mutation_bytes(&rm.mutations))
            .sum();
        let us = self.profile.batch_write_us(batch.len() as u64, muts, bytes);
        self.charge(us);
        self.charge_wal(table, bytes);
        Ok(n)
    }

    /// Charged [`Table::check_and_mutate`]: costs a point read plus, when
    /// the guard matches, the write.
    #[allow(clippy::too_many_arguments)]
    pub fn check_and_mutate(
        &mut self,
        table: &Table,
        key: &RowKey,
        family: &str,
        qualifier: &str,
        expected: Option<&[u8]>,
        mutations: &[Mutation],
    ) -> Result<bool> {
        let applied = table.check_and_mutate(key, family, qualifier, expected, mutations)?;
        let rows = table.approx_row_count();
        let mut us = self.profile.point_read_us(rows, 0, false);
        if applied {
            let bytes = Table::mutation_bytes(mutations);
            us += self.profile.write_us(rows, mutations.len() as u64, bytes);
            self.charge_wal(table, bytes);
        }
        self.charge(us);
        Ok(applied)
    }

    /// Charged [`Table::scan`].
    pub fn scan(
        &mut self,
        table: &Table,
        range: &ScanRange,
        opts: &ReadOptions,
        limit: Option<usize>,
    ) -> Result<Vec<OwnedRow>> {
        let rows = table.scan(range, opts, limit)?;
        let bytes: u64 = rows.iter().map(|r| r.payload_bytes() as u64).sum();
        let disk = Self::family_touches_disk(table, opts);
        let us = self
            .profile
            .scan_us(table.approx_row_count(), rows.len() as u64, bytes, disk);
        self.charge(us);
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnFamily, TableSchema};
    use crate::store::Bigtable;
    use crate::types::Timestamp;

    fn setup() -> (Arc<Bigtable>, Arc<Table>) {
        let store = Bigtable::new();
        let t = store
            .create_table(
                TableSchema::new(
                    "t",
                    vec![
                        ColumnFamily::in_memory("mem", 4),
                        ColumnFamily::on_disk("disk", 4),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        (store, t)
    }

    #[test]
    fn session_charges_time_per_op() {
        let (store, t) = setup();
        let mut s = store.session();
        assert_eq!(s.elapsed_us(), 0.0);
        s.mutate_row(
            &t,
            &RowKey::from_u64(1),
            &[Mutation::put("mem", "q", Timestamp(0), &b"hello"[..])],
        )
        .unwrap();
        let after_write = s.elapsed_us();
        assert!(after_write > 0.0);
        let cell = s.get_latest(&t, &RowKey::from_u64(1), "mem", "q").unwrap();
        assert!(cell.is_some());
        assert!(s.elapsed_us() > after_write);
        let ops = store.metrics_snapshot();
        assert_eq!((ops.write_ops, ops.read_ops), (1, 1));
        let elapsed = s.reset();
        assert!(elapsed > 0.0);
        assert_eq!(s.elapsed_us(), 0.0);
    }

    #[test]
    fn disk_family_reads_cost_more() {
        let (store, t) = setup();
        let mut s = store.session();
        let k = RowKey::from_u64(1);
        s.mutate_row(
            &t,
            &k,
            &[Mutation::put("mem", "q", Timestamp(0), &b"x"[..])],
        )
        .unwrap();
        s.mutate_row(
            &t,
            &k,
            &[Mutation::put("disk", "q", Timestamp(0), &b"x"[..])],
        )
        .unwrap();
        s.reset();
        let _ = s.get_latest(&t, &k, "mem", "q").unwrap();
        let mem_cost = s.reset();
        let _ = s.get_latest(&t, &k, "disk", "q").unwrap();
        let disk_cost = s.reset();
        assert!(disk_cost > 5.0 * mem_cost, "{disk_cost} vs {mem_cost}");
    }

    #[test]
    fn batch_cheaper_than_singles() {
        let (store, t) = setup();
        let mut s = store.session();
        let batch: Vec<RowMutation> = (0..100u64)
            .map(|i| {
                RowMutation::new(
                    RowKey::from_u64(i),
                    vec![Mutation::put("mem", "q", Timestamp(0), &b"v"[..])],
                )
            })
            .collect();
        s.mutate_rows(&t, &batch).unwrap();
        let batch_cost = s.reset();
        for i in 100..200u64 {
            s.mutate_row(
                &t,
                &RowKey::from_u64(i),
                &[Mutation::put("mem", "q", Timestamp(0), &b"v"[..])],
            )
            .unwrap();
        }
        let single_cost = s.reset();
        assert!(batch_cost < single_cost / 4.0);
    }

    #[test]
    fn free_profile_charges_nothing() {
        let (store, t) = setup();
        let mut s = store.session_with(CostProfile::free());
        s.mutate_row(
            &t,
            &RowKey::from_u64(1),
            &[Mutation::put("mem", "q", Timestamp(0), &b"v"[..])],
        )
        .unwrap();
        assert_eq!(s.elapsed_us(), 0.0);
        assert_eq!(store.metrics_snapshot().write_ops, 1);
    }

    #[test]
    fn hub_session_starts_at_the_hub_total_and_mirrors_each_charge() {
        // A session seeded at the hub's snapshot sees the same absolute
        // values one shared clock would have shown.
        let (store, t) = setup();
        let hub = Arc::new(MeterHub::new());
        hub.charge_us(123.25);
        let mut s = store.session_with_hub(Arc::clone(&hub));
        assert_eq!(s.elapsed_us(), 123.25);
        for i in 0..3u64 {
            s.mutate_row(
                &t,
                &RowKey::from_u64(i),
                &[Mutation::put("mem", "q", Timestamp(0), &b"v"[..])],
            )
            .unwrap();
            assert_eq!(s.elapsed_us().to_bits(), hub.elapsed_us().to_bits());
        }
        assert!(s.elapsed_us() > 123.25);
        // Resetting a hub-attached session empties the hub and returns
        // its total.
        let total = hub.elapsed_us();
        assert_eq!(s.reset().to_bits(), total.to_bits());
        assert_eq!((s.elapsed_us(), hub.elapsed_us()), (0.0, 0.0));
    }

    #[test]
    fn scan_charges_per_row() {
        let (store, t) = setup();
        let mut s = store.session();
        let batch: Vec<RowMutation> = (0..50u64)
            .map(|i| {
                RowMutation::new(
                    RowKey::from_u64(i),
                    vec![Mutation::put("mem", "q", Timestamp(0), &b"v"[..])],
                )
            })
            .collect();
        s.mutate_rows(&t, &batch).unwrap();
        s.reset();
        let small = s
            .scan(
                &t,
                &ScanRange::between(RowKey::from_u64(0), RowKey::from_u64(5)),
                &ReadOptions::latest_in("mem"),
                None,
            )
            .unwrap();
        let small_cost = s.reset();
        let big = s
            .scan(&t, &ScanRange::all(), &ReadOptions::latest_in("mem"), None)
            .unwrap();
        let big_cost = s.reset();
        assert_eq!(small.len(), 5);
        assert_eq!(big.len(), 50);
        assert!(big_cost > small_cost);
    }
}
