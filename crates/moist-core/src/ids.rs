//! Object identifiers.

use serde::Serialize;
use std::fmt;

/// A moving object's identifier (the paper's OID).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct ObjectId(pub u64);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oid:{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(v: u64) -> Self {
        ObjectId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_ordering() {
        assert_eq!(ObjectId(7).to_string(), "7");
        assert!(ObjectId(1) < ObjectId(2));
        assert_eq!(format!("{:?}", ObjectId(3)), "oid:3");
    }
}
