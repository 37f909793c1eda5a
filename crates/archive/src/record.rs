//! History records: the archived unit of MOIST's aged-data pipeline.

use moist_spatial::{Point, Velocity};
use serde::Serialize;

/// One archived location fix of one object.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HistoryRecord {
    /// Object id.
    pub oid: u64,
    /// Fix timestamp in microseconds of simulation time.
    pub ts_us: u64,
    /// World-coordinate location.
    pub loc: Point,
    /// Velocity at the fix.
    pub vel: Velocity,
}

/// Fixed on-disk size of one encoded record, bytes.
pub const RECORD_BYTES: usize = 48;

impl HistoryRecord {
    /// Creates a record.
    pub fn new(oid: u64, ts_us: u64, loc: Point, vel: Velocity) -> Self {
        HistoryRecord {
            oid,
            ts_us,
            loc,
            vel,
        }
    }
}
