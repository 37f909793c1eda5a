//! Binary encodings for values stored in the three MOIST tables.
//!
//! All encodings are fixed-width little-endian so the cost model charges
//! realistic byte counts and decoding never allocates.

use crate::error::{MoistError, Result};
use crate::ids::ObjectId;
use moist_bigtable::Bytes;
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
        let [x, y, vx, vy, leaf, ..] = words(buf) else {
            return Err(MoistError::Codec("location record too short"));
        };
        Ok(LocationRecord {
            loc: Point::new(f64::from_le_bytes(*x), f64::from_le_bytes(*y)),
            vel: Velocity::new(f64::from_le_bytes(*vx), f64::from_le_bytes(*vy)),
            leaf_index: u64::from_le_bytes(*leaf),
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

    /// Encodes to tagged bytes (17 for a leader, 33 for a follower), held
    /// in place by the returned value.
    pub fn encode(&self) -> Bytes {
        let mut b = [0u8; LF_RECORD_BYTES];
        let len = match self {
            LfRecord::Leader {
                since_us,
                last_leaf,
            } => {
                b[1..9].copy_from_slice(&since_us.to_le_bytes());
                b[9..17].copy_from_slice(&last_leaf.to_le_bytes());
                17
            }
            LfRecord::Follower {
                leader,
                displacement,
                since_us,
            } => {
                b[0] = 1;
                b[1..9].copy_from_slice(&leader.0.to_le_bytes());
                b[9..17].copy_from_slice(&displacement.dx.to_le_bytes());
                b[17..25].copy_from_slice(&displacement.dy.to_le_bytes());
                b[25..33].copy_from_slice(&since_us.to_le_bytes());
                LF_RECORD_BYTES
            }
        };
        Bytes::copy_from_slice(&b[..len])
    }

    /// Decodes bytes written by [`LfRecord::encode`].
    pub fn decode(buf: &[u8]) -> Result<LfRecord> {
        match buf.split_first().map(|(&tag, rest)| (tag, words(rest))) {
            Some((0, [since, leaf, ..])) => Ok(LfRecord::Leader {
                since_us: u64::from_le_bytes(*since),
                last_leaf: u64::from_le_bytes(*leaf),
            }),
            Some((1, [leader, dx, dy, since, ..])) => Ok(LfRecord::Follower {
                leader: ObjectId(u64::from_le_bytes(*leader)),
                displacement: Displacement::new(f64::from_le_bytes(*dx), f64::from_le_bytes(*dy)),
                since_us: u64::from_le_bytes(*since),
            }),
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
    let [dx, dy, ..] = words(buf) else {
        return Err(MoistError::Codec("displacement too short"));
    };
    Ok(Displacement::new(
        f64::from_le_bytes(*dx),
        f64::from_le_bytes(*dy),
    ))
}

/// The whole 8-byte little-endian words at the front of `buf`; decoders
/// match on how many there are, so a short value is an error, not a panic.
fn words(buf: &[u8]) -> &[[u8; 8]] {
    buf.as_chunks().0
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
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Disk bytes are untrusted: any value decodes to `Ok` or a typed
        /// error, and whatever decodes re-encodes to the bytes it read.
        #[test]
        fn any_bytes_decode_to_a_value_or_an_error(
            tag in prop_oneof![Just(0u8), Just(1u8), any::<u8>()],
            tail in prop::collection::vec(any::<u8>(), 48),
            len in 0usize..49,
        ) {
            // The first byte is an L/F tag two times in three.
            let bytes: Vec<u8> = std::iter::once(tag).chain(tail).take(len).collect();
            if let Ok(r) = LocationRecord::decode(&bytes) {
                prop_assert_eq!(&r.encode()[..], &bytes[..LOCATION_RECORD_BYTES]);
            }
            if let Ok(l) = LfRecord::decode(&bytes) {
                let enc = l.encode();
                prop_assert_eq!(&enc[..], &bytes[..enc.len()]);
            }
            if let Ok(d) = decode_displacement(&bytes) {
                prop_assert_eq!(&encode_displacement(d)[..], &bytes[..16]);
            }
        }

        #[test]
        fn decode_inverts_encode(
            (x, y, vx, vy) in (any::<f64>(), any::<f64>(), any::<f64>(), any::<f64>()),
            (a, b) in (any::<u64>(), any::<u64>()),
        ) {
            let r = LocationRecord {
                loc: Point::new(x, y),
                vel: Velocity::new(vx, vy),
                leaf_index: a,
            };
            prop_assert_eq!(LocationRecord::decode(&r.encode()).unwrap(), r);
            let l = LfRecord::Leader { since_us: a, last_leaf: b };
            prop_assert_eq!(LfRecord::decode(&l.encode()).unwrap(), l);
            let d = Displacement::new(vx, vy);
            let f = LfRecord::Follower { leader: ObjectId(a), displacement: d, since_us: b };
            prop_assert_eq!(LfRecord::decode(&f.encode()).unwrap(), f);
            prop_assert_eq!(decode_displacement(&encode_displacement(d)).unwrap(), d);
        }
    }
}
