//! Fundamental value types: row keys, timestamps, cells.

use bytes::Bytes;
use serde::Serialize;
use std::fmt;

/// Longest string an [`InlineBytes`] holds in place. 22 is what fits
/// beside a length byte and the enum tag in the 24 bytes a `Vec<u8>` took,
/// and covers MOIST's 8-byte (object id) and 16-byte (cell ∥ object id)
/// row keys and its qualifiers (16 hex digits at most); longer strings (the
/// `BxTree` baseline's 24-byte keys) go to the heap.
const INLINE_CAP: usize = 22;

/// A short byte string ordered as its bytes, stored in place when it fits:
/// what row keys and column qualifiers are kept as, so that searching a
/// tablet's tree or a row's columns follows no pointer to compare.
#[derive(Debug, Clone)]
pub(crate) enum InlineBytes {
    /// `buf[..len]` is the string and `buf[len..]` is zero, so that
    /// comparing whole buffers and then lengths gives the slices' order.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    /// Only for strings longer than `INLINE_CAP`: each has one form.
    Heap(Box<[u8]>),
}

impl InlineBytes {
    const EMPTY: InlineBytes = InlineBytes::Inline {
        len: 0,
        buf: [0; INLINE_CAP],
    };

    pub(crate) fn new(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE_CAP {
            let mut buf = [0; INLINE_CAP];
            buf[..bytes.len()].copy_from_slice(bytes);
            InlineBytes::Inline {
                len: bytes.len() as u8,
                buf,
            }
        } else {
            InlineBytes::Heap(bytes.into())
        }
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            InlineBytes::Inline { len, buf } => &buf[..usize::from(*len)],
            InlineBytes::Heap(bytes) => bytes,
        }
    }
}

impl Ord for InlineBytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use InlineBytes::Inline;
        match (self, other) {
            // The hot case: no pointer to chase, no `memcmp` call and no
            // length to branch on until the padded buffers tie (one string
            // is the other plus zeros), where the shorter sorts first as in
            // slice order. Three big-endian words cover the buffer; the
            // last overlaps the second, whose bytes tied by then.
            (Inline { len: la, buf: a }, Inline { len: lb, buf: b }) => {
                let word = |buf: &[u8; INLINE_CAP], at: usize| {
                    let mut word = [0; 8];
                    word.copy_from_slice(&buf[at..at + 8]);
                    u64::from_be_bytes(word)
                };
                [0, 8, INLINE_CAP - 8]
                    .into_iter()
                    .map(|at| word(a, at).cmp(&word(b, at)))
                    .find(|order| order.is_ne())
                    .unwrap_or(la.cmp(lb))
            }
            _ => self.as_slice().cmp(other.as_slice()),
        }
    }
}

impl PartialOrd for InlineBytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for InlineBytes {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for InlineBytes {}

impl std::hash::Hash for InlineBytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// A row key: an arbitrary byte string; rows are stored in lexicographic
/// key order, which is what makes contiguous-range batch reads fast (§3.1).
///
/// The bytes are opaque: read them with [`RowKey::as_slice`]. `Ord`, `Eq`
/// and `Hash` are those of that slice. Keys of up to 22 bytes live inline,
/// so a B-tree search compares them without leaving the node.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowKey(InlineBytes);

impl RowKey {
    /// Empty key — the smallest possible key, used as a range start.
    pub const MIN: RowKey = RowKey(InlineBytes::EMPTY);

    /// Builds a key from raw bytes.
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Self {
        RowKey(InlineBytes::new(bytes.as_ref()))
    }

    /// The key's bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.0.as_slice()
    }

    /// Builds a key from a `u64` in big-endian order so that numeric order
    /// equals byte order. This is how spatial indexes and object ids become
    /// scan-friendly keys.
    pub fn from_u64(v: u64) -> Self {
        RowKey::from_bytes(v.to_be_bytes())
    }

    /// Reads back a key created by [`RowKey::from_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        let arr: [u8; 8] = self.as_slice().try_into().ok()?;
        Some(u64::from_be_bytes(arr))
    }

    /// Builds a composite key `prefix ∥ u64` (e.g. `cell-index ∥ object-id`
    /// rows in the Spatial Index Table).
    pub fn composite(prefix: u64, suffix: u64) -> Self {
        let mut bytes = [0; 16];
        bytes[..8].copy_from_slice(&prefix.to_be_bytes());
        bytes[8..].copy_from_slice(&suffix.to_be_bytes());
        RowKey::from_bytes(bytes)
    }

    /// Splits a composite key back into `(prefix, suffix)`.
    pub fn split_composite(&self) -> Option<(u64, u64)> {
        let (p, s) = self.as_slice().split_first_chunk::<8>()?;
        let s: [u8; 8] = s.try_into().ok()?;
        Some((u64::from_be_bytes(*p), u64::from_be_bytes(s)))
    }

    /// Key length in bytes (used for transfer-cost accounting).
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the key is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The smallest key strictly greater than every key with this prefix:
    /// the standard "prefix successor" used to turn a prefix into a range.
    /// Returns `None` when the key is all `0xFF` (no successor exists).
    pub fn prefix_successor(&self) -> Option<RowKey> {
        let bytes = self.as_slice();
        let keep = bytes.iter().rposition(|&b| b < 0xFF)? + 1;
        let mut v = bytes[..keep].to_vec();
        v[keep - 1] += 1;
        Some(RowKey::from_bytes(v))
    }
}

impl Default for RowKey {
    fn default() -> Self {
        RowKey::MIN
    }
}

impl Serialize for RowKey {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_newtype_struct("RowKey", self.as_slice())
    }
}

impl fmt::Debug for RowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_u64() {
            write!(f, "RowKey(u64:{v})")
        } else if let Some((p, s)) = self.split_composite() {
            write!(f, "RowKey({p}∥{s})")
        } else {
            write!(f, "RowKey({:02x?})", self.as_slice())
        }
    }
}

impl From<u64> for RowKey {
    fn from(v: u64) -> Self {
        RowKey::from_u64(v)
    }
}

impl From<&str> for RowKey {
    fn from(s: &str) -> Self {
        RowKey::from_bytes(s)
    }
}

/// Microseconds since the start of the simulation. Every stored cell is
/// timestamped (§3.1.2: "Each location record is timestamped").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Simulation epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// From whole seconds, saturating at the end of time.
    pub fn from_secs(s: u64) -> Self {
        Timestamp(s.saturating_mul(1_000_000))
    }

    /// From floating-point seconds (sub-microsecond truncated).
    pub fn from_secs_f64(s: f64) -> Self {
        Timestamp((s.max(0.0) * 1e6) as u64)
    }

    /// As floating-point seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference in seconds (`self - earlier`).
    pub fn secs_since(&self, earlier: Timestamp) -> f64 {
        (self.0.saturating_sub(earlier.0)) as f64 / 1e6
    }

    /// Timestamp advanced by `s` seconds, saturating at the end of time
    /// (negative and NaN advances count as zero).
    pub fn plus_secs(&self, s: f64) -> Timestamp {
        Timestamp(self.0.saturating_add((s.max(0.0) * 1e6) as u64))
    }
}

/// One timestamped value of a column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Cell {
    /// When the value was written.
    pub ts: Timestamp,
    /// The stored bytes.
    #[serde(with = "serde_bytes_compat")]
    pub value: Bytes,
}

/// Where a column family's data lives — the paper's "in-memory column" vs
/// "disk column" distinction (§3.1, Figure 2/3). Reads from `Disk` families
/// are charged a much larger cost by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Locality {
    /// Served from the tablet server's memory.
    InMemory,
    /// Served from SSTables on disk.
    Disk,
}

mod serde_bytes_compat {
    //! `Bytes` does not implement serde by default without a feature; route
    //! through `Vec<u8>` which is fine at config/record-dump volumes.
    use bytes::Bytes;
    use serde::Serializer;

    pub fn serialize<S: Serializer>(b: &Bytes, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_keys_sort_numerically() {
        let keys: Vec<RowKey> = [1u64, 255, 256, 65535, 1 << 40]
            .iter()
            .map(|&v| RowKey::from_u64(v))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys[4].as_u64(), Some(1 << 40));
    }

    #[test]
    fn composite_keys_sort_prefix_major() {
        let a = RowKey::composite(5, u64::MAX);
        let b = RowKey::composite(6, 0);
        assert!(a < b);
        assert_eq!(a.split_composite(), Some((5, u64::MAX)));
    }

    #[test]
    fn prefix_successor_is_tight() {
        let k = RowKey::from_bytes(vec![1, 2, 3]);
        let succ = k.prefix_successor().unwrap();
        assert_eq!(succ.as_slice(), [1, 2, 4]);
        // Every key with the prefix sorts below the successor.
        let extended = RowKey::from_bytes(vec![1, 2, 3, 255, 255]);
        assert!(extended < succ);
        // Rolls over trailing 0xFF bytes.
        let k2 = RowKey::from_bytes(vec![7, 255, 255]);
        assert_eq!(k2.prefix_successor().unwrap().as_slice(), [8]);
        // All-0xFF has no successor.
        assert!(RowKey::from_bytes(vec![255, 255])
            .prefix_successor()
            .is_none());
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(10);
        assert_eq!(t.plus_secs(2.5), Timestamp(12_500_000));
        assert_eq!(t.plus_secs(2.5).secs_since(t), 2.5);
        assert_eq!(Timestamp::ZERO.secs_since(t), 0.0); // saturating
        assert!((Timestamp::from_secs_f64(1.25).as_secs_f64() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn plus_secs_saturates() {
        let end = Timestamp(u64::MAX);
        assert_eq!(Timestamp(u64::MAX - 10).plus_secs(1.0), end);
        assert_eq!(Timestamp::from_secs(11).plus_secs(f64::INFINITY), end);
        assert_eq!(Timestamp::from_secs(11).plus_secs(1e300), end);
        assert_eq!(end.plus_secs(0.0), end);
        let t = Timestamp::from_secs(11);
        assert_eq!(t.plus_secs(-3.0), t);
        assert_eq!(t.plus_secs(f64::NAN), t);
    }

    #[test]
    fn from_secs_saturates() {
        let last = u64::MAX / 1_000_000;
        assert_eq!(Timestamp::from_secs(last), Timestamp(last * 1_000_000));
        assert_eq!(Timestamp::from_secs(last + 1), Timestamp(u64::MAX));
        assert_eq!(Timestamp::from_secs(u64::MAX / 1000), Timestamp(u64::MAX));
        assert_eq!(Timestamp::from_secs(u64::MAX), Timestamp(u64::MAX));
    }

    #[test]
    fn as_u64_rejects_wrong_length() {
        assert_eq!(RowKey::from_bytes(vec![1, 2]).as_u64(), None);
        assert_eq!(RowKey::composite(1, 2).as_u64(), None);
        assert_eq!(RowKey::from_u64(9).split_composite(), None);
    }
}
