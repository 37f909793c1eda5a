//! A page the archive cannot write is an error, never a short answer.
//!
//! The archive's page files are created in the temporary directory, so
//! this test points `TMPDIR` below a regular file, where nothing can be
//! created. That setting is process-wide, so the test lives alone in its
//! test binary.

use moist::archive::{ArchiveError, PppArchiver, PppConfig, RECORD_BYTES};
use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, MoistError, ObjectId, UpdateMessage};
use moist::spatial::{Point, Velocity};
use std::sync::Arc;

#[test]
fn a_page_the_archive_cannot_write_fails_flush_and_every_history_query() {
    let blocker = std::env::temp_dir().join(format!("moist-archive-errors-{}", std::process::id()));
    std::fs::write(&blocker, b"a file, not a directory").unwrap();
    std::env::set_var("TMPDIR", blocker.join("pages"));

    let store = Bigtable::new();
    let cfg = MoistConfig::without_schooling(); // every update archived
    let archiver = Arc::new(PppArchiver::new(
        cfg.space,
        PppConfig {
            total_buffer_bytes: 4 * 8 * RECORD_BYTES,
            column_records: 4,
            ..PppConfig::default()
        },
    ));
    let cluster = MoistCluster::builder(&store, cfg)
        .archiver(Arc::clone(&archiver))
        .build()
        .unwrap();
    for t in 0..40u64 {
        // The archive's failure is not the update's: every update lands.
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(7),
                loc: Point::new(300.0, 300.0),
                vel: Velocity::ZERO,
                ts: Timestamp::from_secs(t),
            })
            .unwrap();
    }
    assert!(
        archiver.disk_stats().iter().any(|s| s.pages_written > 0),
        "pages were charged"
    );

    let err = archiver.flush_all().unwrap_err();
    assert!(matches!(err, ArchiveError::PageWrite { .. }), "{err:?}");
    assert_eq!(archiver.query_object(7, 0, u64::MAX), Err(err.clone()));
    let world = cluster.config().space.world;
    assert_eq!(
        archiver.query_region(&world, 0, u64::MAX, 0.0),
        Err(err.clone())
    );
    assert_eq!(
        cluster.history(ObjectId(7), Timestamp::ZERO, Timestamp::from_secs(100)),
        Err(MoistError::Archive(err))
    );
    std::fs::remove_file(&blocker).unwrap();
}
