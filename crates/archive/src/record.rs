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

/// Size of one record in a page file, bytes: six little-endian 8-byte
/// fields — `oid`, `ts_us`, `x`, `y`, `vx`, `vy` — back to back, so a page
/// of `n` records is exactly `n · RECORD_BYTES` bytes on disk and in the
/// Eq. 1 transfer charge.
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

    /// The record's page-file encoding.
    pub(crate) fn encode(&self) -> [u8; RECORD_BYTES] {
        let fields = [
            self.oid.to_le_bytes(),
            self.ts_us.to_le_bytes(),
            self.loc.x.to_le_bytes(),
            self.loc.y.to_le_bytes(),
            self.vel.vx.to_le_bytes(),
            self.vel.vy.to_le_bytes(),
        ];
        let mut out = [0u8; RECORD_BYTES];
        for (chunk, field) in out.chunks_exact_mut(8).zip(fields) {
            chunk.copy_from_slice(&field);
        }
        out
    }

    /// Decodes one [`encode`](Self::encode)d record.
    pub(crate) fn decode(bytes: &[u8; RECORD_BYTES]) -> Self {
        let field = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            b
        };
        HistoryRecord {
            oid: u64::from_le_bytes(field(0)),
            ts_us: u64::from_le_bytes(field(1)),
            loc: Point::new(f64::from_le_bytes(field(2)), f64::from_le_bytes(field(3))),
            vel: Velocity::new(f64::from_le_bytes(field(4)), f64::from_le_bytes(field(5))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_round_trips_every_field_bit_for_bit() {
        let r = HistoryRecord::new(
            u64::MAX - 3,
            1 << 62,
            Point::new(-0.0, 1e-300),
            Velocity::new(f64::MAX, -7.25),
        );
        let bytes = r.encode();
        assert_eq!(&bytes[..8], &(u64::MAX - 3).to_le_bytes());
        let back = HistoryRecord::decode(&bytes);
        assert_eq!(back.oid, r.oid);
        assert_eq!(back.ts_us, r.ts_us);
        for (a, b) in [
            (back.loc.x, r.loc.x),
            (back.loc.y, r.loc.y),
            (back.vel.vx, r.vel.vx),
            (back.vel.vy, r.vel.vy),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
