//! MOIST error type.

use moist_archive::ArchiveError;
use moist_bigtable::BigtableError;
use std::fmt;

/// Errors surfaced by the MOIST indexer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoistError {
    /// Underlying store error.
    Store(BigtableError),
    /// The history archive lost a page or could not read one back.
    Archive(ArchiveError),
    /// A stored value failed to decode (corruption or version skew).
    Codec(&'static str),
    /// An update or query referenced an object with inconsistent state
    /// (e.g. a follower whose leader vanished).
    Inconsistent(String),
    /// Invalid configuration.
    Config(String),
    /// A cluster-tier operation addressed a shard that is not in the
    /// current membership (position past the end, unknown shard id, or
    /// removing the last live shard). Failover code paths match on this
    /// instead of aborting on an index panic.
    NoSuchShard(String),
    /// A submission hit a full ingestion queue.
    /// The update was **not** accepted: the client owns the retry. `shard`
    /// is the stable shard id the update routed to and `depth` the queue
    /// depth observed at rejection time.
    Backpressure {
        /// Stable id of the shard whose queue was full.
        shard: u64,
        /// Queue depth at the moment of rejection.
        depth: usize,
    },
}

impl fmt::Display for MoistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoistError::Store(e) => write!(f, "store error: {e}"),
            MoistError::Archive(e) => write!(f, "archive error: {e}"),
            MoistError::Codec(msg) => write!(f, "codec error: {msg}"),
            MoistError::Inconsistent(msg) => write!(f, "inconsistent state: {msg}"),
            MoistError::Config(msg) => write!(f, "bad configuration: {msg}"),
            MoistError::NoSuchShard(msg) => write!(f, "no such shard: {msg}"),
            MoistError::Backpressure { shard, depth } => {
                write!(
                    f,
                    "backpressure: ingest queue for shard {shard} full at depth {depth}"
                )
            }
        }
    }
}

impl std::error::Error for MoistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MoistError::Store(e) => Some(e),
            MoistError::Archive(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BigtableError> for MoistError {
    fn from(e: BigtableError) -> Self {
        MoistError::Store(e)
    }
}

impl From<ArchiveError> for MoistError {
    fn from(e: ArchiveError) -> Self {
        MoistError::Archive(e)
    }
}

/// Result alias for MOIST operations.
pub type Result<T> = std::result::Result<T, MoistError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = MoistError::from(BigtableError::UnknownTable("x".into()));
        assert!(e.to_string().contains("unknown table"));
        assert!(e.source().is_some());
        assert!(MoistError::Codec("bad").source().is_none());
    }

    #[test]
    fn backpressure_names_the_shard_and_depth() {
        let e = MoistError::Backpressure {
            shard: 7,
            depth: 256,
        };
        let s = e.to_string();
        assert!(s.contains("shard 7"), "{s}");
        assert!(s.contains("depth 256"), "{s}");
        use std::error::Error;
        assert!(e.source().is_none());
    }
}
