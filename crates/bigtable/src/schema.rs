//! Table schemas: named column families with locality and version limits.

use crate::error::{BigtableError, Result};
use crate::types::Locality;
use serde::Serialize;

/// Declaration of one column family.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ColumnFamily {
    /// Family name, unique within the table.
    pub name: String,
    /// Memory or disk locality (drives the read cost model).
    pub locality: Locality,
    /// Maximum stored versions per column; older versions are garbage
    /// collected on write. `usize::MAX` keeps everything (the Location
    /// Table's history columns want this until archiving trims them).
    pub max_versions: usize,
}

impl ColumnFamily {
    /// An in-memory family keeping `max_versions` versions.
    pub fn in_memory(name: impl Into<String>, max_versions: usize) -> Self {
        ColumnFamily {
            name: name.into(),
            locality: Locality::InMemory,
            max_versions: max_versions.max(1),
        }
    }

    /// A disk family keeping `max_versions` versions.
    pub fn on_disk(name: impl Into<String>, max_versions: usize) -> Self {
        ColumnFamily {
            name: name.into(),
            locality: Locality::Disk,
            max_versions: max_versions.max(1),
        }
    }
}

/// Schema of a table: its name plus its column families.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TableSchema {
    /// Table name, unique within the store.
    pub name: String,
    /// Declared column families.
    pub families: Vec<ColumnFamily>,
}

impl TableSchema {
    /// Creates and validates a schema.
    pub fn new(name: impl Into<String>, families: Vec<ColumnFamily>) -> Result<Self> {
        let name = name.into();
        if families.is_empty() {
            return Err(BigtableError::InvalidSchema(format!(
                "table {name:?} has no column families"
            )));
        }
        for (i, f) in families.iter().enumerate() {
            if f.name.is_empty() {
                return Err(BigtableError::InvalidSchema(format!(
                    "table {name:?} has an unnamed family"
                )));
            }
            if families[..i].iter().any(|g| g.name == f.name) {
                return Err(BigtableError::InvalidSchema(format!(
                    "table {name:?} declares family {:?} twice",
                    f.name
                )));
            }
        }
        Ok(TableSchema { name, families })
    }

    /// Index of a family by name.
    fn family_index(&self, family: &str) -> Option<usize> {
        self.families.iter().position(|f| f.name == family)
    }

    /// Family declaration by name, as an error-carrying lookup.
    pub(crate) fn family(&self, family: &str) -> Result<(usize, &ColumnFamily)> {
        self.family_index(family)
            .map(|i| (i, &self.families[i]))
            .ok_or_else(|| BigtableError::UnknownFamily {
                table: self.name.clone(),
                family: family.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_validation() {
        assert!(TableSchema::new("t", vec![]).is_err());
        let dup = TableSchema::new(
            "t",
            vec![
                ColumnFamily::in_memory("a", 1),
                ColumnFamily::in_memory("a", 2),
            ],
        );
        assert!(dup.is_err());
        let unnamed = TableSchema::new("t", vec![ColumnFamily::in_memory("", 1)]);
        assert!(unnamed.is_err());
    }

    #[test]
    fn family_lookup() {
        let s = TableSchema::new(
            "t",
            vec![
                ColumnFamily::in_memory("mem", 3),
                ColumnFamily::on_disk("disk", usize::MAX),
            ],
        )
        .unwrap();
        assert_eq!(s.family_index("mem"), Some(0));
        let (i, f) = s.family("disk").unwrap();
        assert_eq!(i, 1);
        assert_eq!(f.locality, Locality::Disk);
        assert!(matches!(
            s.family("nope"),
            Err(BigtableError::UnknownFamily { .. })
        ));
    }

    #[test]
    fn max_versions_floor_is_one() {
        let f = ColumnFamily::in_memory("m", 0);
        assert_eq!(f.max_versions, 1);
    }
}
