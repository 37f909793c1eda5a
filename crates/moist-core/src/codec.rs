//! Binary encodings for values stored in the three MOIST tables.
//!
//! All encodings are fixed-width little-endian so the cost model charges
//! realistic byte counts and decoding never allocates.

use crate::error::{MoistError, Result};
use crate::ids::ObjectId;
use moist_spatial::{Displacement, Point, Velocity};

/// A stored location record: position + velocity + the leaf spatial index
/// the object was filed under when the record was written.
///
/// Keeping the leaf index in the record lets a leader update delete its old
/// Spatial Index Table row without an extra read (§3.3.1, Algorithm 1 l.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationRecord {
    /// World-coordinate position.
    pub loc: Point,
    /// Velocity in world units per second.
    pub vel: Velocity,
    /// Leaf cell index in the Spatial Index Table at write time.
    pub leaf_index: u64,
}

/// Encoded size of a [`LocationRecord`].
const LOCATION_RECORD_BYTES: usize = 40;

impl LocationRecord {
    /// Encodes to fixed-width bytes.
    pub fn encode(&self) -> [u8; LOCATION_RECORD_BYTES] {
        let mut b = [0u8; LOCATION_RECORD_BYTES];
        b[0..8].copy_from_slice(&self.loc.x.to_le_bytes());
        b[8..16].copy_from_slice(&self.loc.y.to_le_bytes());
        b[16..24].copy_from_slice(&self.vel.vx.to_le_bytes());
        b[24..32].copy_from_slice(&self.vel.vy.to_le_bytes());
        b[32..40].copy_from_slice(&self.leaf_index.to_le_bytes());
        b
    }

    /// Decodes bytes written by [`LocationRecord::encode`].
    pub fn decode(buf: &[u8]) -> Result<LocationRecord> {
        if buf.len() < LOCATION_RECORD_BYTES {
            return Err(MoistError::Codec("location record too short"));
        }
        let f = |r: std::ops::Range<usize>| f64::from_le_bytes(buf[r].try_into().unwrap());
        Ok(LocationRecord {
            loc: Point::new(f(0..8), f(8..16)),
            vel: Velocity::new(f(16..24), f(24..32)),
            leaf_index: u64::from_le_bytes(buf[32..40].try_into().unwrap()),
        })
    }
}

/// The L/F record of the Affiliation Table (§3.1.1): every object is either
/// a leader (with the time it was chosen) or a follower (with its leader and
/// the displacement `leader → follower`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LfRecord {
    /// The object leads an object school.
    Leader {
        /// Microsecond timestamp when the object became a leader.
        since_us: u64,
        /// Leaf spatial index this leader currently occupies, so the next
        /// update can delete the old Spatial Index Table row without an
        /// extra read (Algorithm 1, line 3).
        last_leaf: u64,
    },
    /// The object follows `leader` at a fixed displacement.
    Follower {
        /// The school's leader.
        leader: ObjectId,
        /// Displacement from the leader to this object at affiliation time.
        displacement: Displacement,
        /// Microsecond timestamp of the last renewal.
        since_us: u64,
    },
}

/// Maximum encoded size of an [`LfRecord`].
const LF_RECORD_BYTES: usize = 33;

impl LfRecord {
    /// Whether this is a leader record.
    pub fn is_leader(&self) -> bool {
        matches!(self, LfRecord::Leader { .. })
    }

    /// Encodes to tagged bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            LfRecord::Leader {
                since_us,
                last_leaf,
            } => {
                let mut b = Vec::with_capacity(17);
                b.push(0u8);
                b.extend_from_slice(&since_us.to_le_bytes());
                b.extend_from_slice(&last_leaf.to_le_bytes());
                b
            }
            LfRecord::Follower {
                leader,
                displacement,
                since_us,
            } => {
                let mut b = Vec::with_capacity(LF_RECORD_BYTES);
                b.push(1u8);
                b.extend_from_slice(&leader.0.to_le_bytes());
                b.extend_from_slice(&displacement.dx.to_le_bytes());
                b.extend_from_slice(&displacement.dy.to_le_bytes());
                b.extend_from_slice(&since_us.to_le_bytes());
                b
            }
        }
    }

    /// Decodes bytes written by [`LfRecord::encode`].
    pub fn decode(buf: &[u8]) -> Result<LfRecord> {
        match buf.first() {
            Some(0) if buf.len() >= 17 => Ok(LfRecord::Leader {
                since_us: u64::from_le_bytes(buf[1..9].try_into().unwrap()),
                last_leaf: u64::from_le_bytes(buf[9..17].try_into().unwrap()),
            }),
            Some(1) if buf.len() >= LF_RECORD_BYTES => {
                let f = |r: std::ops::Range<usize>| f64::from_le_bytes(buf[r].try_into().unwrap());
                Ok(LfRecord::Follower {
                    leader: ObjectId(u64::from_le_bytes(buf[1..9].try_into().unwrap())),
                    displacement: Displacement::new(f(9..17), f(17..25)),
                    since_us: u64::from_le_bytes(buf[25..33].try_into().unwrap()),
                })
            }
            _ => Err(MoistError::Codec("malformed L/F record")),
        }
    }
}

/// One Follower-Info entry value: the displacement `leader → follower`
/// (the follower's id is the column qualifier).
pub fn encode_displacement(d: Displacement) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[0..8].copy_from_slice(&d.dx.to_le_bytes());
    b[8..16].copy_from_slice(&d.dy.to_le_bytes());
    b
}

/// Decodes a displacement value.
pub(crate) fn decode_displacement(buf: &[u8]) -> Result<Displacement> {
    if buf.len() < 16 {
        return Err(MoistError::Codec("displacement too short"));
    }
    Ok(Displacement::new(
        f64::from_le_bytes(buf[0..8].try_into().unwrap()),
        f64::from_le_bytes(buf[8..16].try_into().unwrap()),
    ))
}

/// Qualifier string for a follower column (`fixed-width hex` so columns sort
/// by id).
pub(crate) fn follower_qualifier(oid: ObjectId) -> String {
    format!("{:016x}", oid.0)
}

/// Parses a qualifier written by [`follower_qualifier`].
pub(crate) fn parse_follower_qualifier(q: &str) -> Result<ObjectId> {
    u64::from_str_radix(q, 16)
        .map(ObjectId)
        .map_err(|_| MoistError::Codec("bad follower qualifier"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_record_roundtrip() {
        let r = LocationRecord {
            loc: Point::new(1.5, -2.5),
            vel: Velocity::new(0.25, 0.75),
            leaf_index: 0xABCD,
        };
        assert_eq!(LocationRecord::decode(&r.encode()).unwrap(), r);
        assert!(LocationRecord::decode(&[0u8; 10]).is_err());
    }

    #[test]
    fn lf_record_roundtrip_both_variants() {
        let l = LfRecord::Leader {
            since_us: 42,
            last_leaf: 0xFEED,
        };
        assert_eq!(LfRecord::decode(&l.encode()).unwrap(), l);
        assert!(l.is_leader());
        let f = LfRecord::Follower {
            leader: ObjectId(9),
            displacement: Displacement::new(-1.0, 2.0),
            since_us: 77,
        };
        assert_eq!(LfRecord::decode(&f.encode()).unwrap(), f);
        assert!(!f.is_leader());
        assert!(LfRecord::decode(&[]).is_err());
        assert!(LfRecord::decode(&[2, 0, 0]).is_err());
        assert!(LfRecord::decode(&[1, 0, 0]).is_err(), "truncated follower");
    }

    #[test]
    fn displacement_roundtrip() {
        let d = Displacement::new(3.5, -4.5);
        assert_eq!(decode_displacement(&encode_displacement(d)).unwrap(), d);
        assert!(decode_displacement(&[0u8; 3]).is_err());
    }

    #[test]
    fn follower_qualifiers_sort_by_id() {
        let a = follower_qualifier(ObjectId(9));
        let b = follower_qualifier(ObjectId(300));
        assert!(a < b);
        assert_eq!(parse_follower_qualifier(&a).unwrap(), ObjectId(9));
        assert!(parse_follower_qualifier("zz").is_err());
    }
}
