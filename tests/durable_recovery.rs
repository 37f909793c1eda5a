//! Kill-style durability test for the cluster tier: 8 threads push
//! acknowledged updates through a durable [`MoistCluster`], the whole
//! tier (and its store) is dropped with no graceful shutdown, and
//! [`ClusterBuilder::recover`](moist::core::ClusterBuilder::recover) must rebuild a tier that still answers with
//! every acknowledged update — twice, because replay is idempotent.

use moist::bigtable::{Bigtable, Durability, StoreConfig, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::{Point, Velocity};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

const SHARDS: usize = 4;
const WORKERS: usize = 8;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moist_durable_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &std::path::Path) -> StoreConfig {
    StoreConfig {
        durability: Durability::Wal {
            dir: dir.to_path_buf(),
            fsync_every: 32,
        },
        ..StoreConfig::default()
    }
}

fn tier_config() -> MoistConfig {
    MoistConfig {
        epsilon: 50.0,
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    }
}

fn msg(oid: u64, x: f64, y: f64, secs: f64) -> UpdateMessage {
    UpdateMessage {
        oid: ObjectId(oid),
        loc: Point::new(x, y),
        vel: Velocity::new(0.8, 0.3),
        ts: Timestamp::from_secs_f64(secs),
    }
}

#[test]
fn acknowledged_cluster_updates_survive_a_crash() {
    let dir = test_dir("kill");
    let store = Bigtable::with_config(durable_config(&dir));
    let cluster = MoistCluster::builder(&store, tier_config())
        .shards(SHARDS)
        .build()
        .unwrap();

    // 8 threads race synchronous updates; each records (oid, ts, loc)
    // only after `update` returned Ok — the durable acknowledgement.
    // A shared budget stops everyone at an arbitrary mid-stream point.
    let budget = AtomicI64::new(2_400);
    let acked: Mutex<Vec<(u64, Timestamp, Point)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for worker in 0..WORKERS as u64 {
            let cluster = &cluster;
            let budget = &budget;
            let acked = &acked;
            scope.spawn(move || {
                let mut mine = Vec::new();
                let mut i = 0u64;
                while budget.fetch_sub(1, Ordering::Relaxed) > 0 {
                    let oid = worker * 10_000 + (i % 97);
                    let x = 20.0 + ((oid * 131 + i * 17) % 960) as f64;
                    let y = 20.0 + ((oid * 61 + i * 29) % 960) as f64;
                    let t = 1.0 + i as f64 / 50.0 + worker as f64 / 1000.0;
                    let m = msg(oid, x, y, t);
                    cluster.update(&m).unwrap();
                    mine.push((oid, m.ts, m.loc));
                    i += 1;
                }
                acked.lock().unwrap().append(&mut mine);
            });
        }
    });
    let acked = acked.into_inner().unwrap();
    assert!(acked.len() > 1_500, "workload too small: {}", acked.len());

    // Last write per object wins: dedupe to the newest acknowledged
    // timestamp per oid (the location table may keep fewer versions).
    let mut latest: std::collections::HashMap<u64, (Timestamp, Point)> =
        std::collections::HashMap::new();
    for (oid, ts, loc) in &acked {
        let e = latest.entry(*oid).or_insert((*ts, *loc));
        if *ts >= e.0 {
            *e = (*ts, *loc);
        }
    }

    drop(cluster);
    drop(store); // crash: no checkpoint, no drain, nothing graceful

    let (_store, recovered, report) = MoistCluster::builder(&Bigtable::new(), tier_config())
        .shards(SHARDS)
        .recover(durable_config(&dir))
        .unwrap();
    assert!(report.tables >= 3, "all MOIST tables recover: {report:?}");
    assert!(report.replayed_records > 0);
    // Every object's last acknowledged position is served back.
    for (oid, (ts, loc)) in &latest {
        let got = recovered
            .position(ObjectId(*oid), *ts)
            .unwrap()
            .unwrap_or_else(|| panic!("acknowledged object {oid} lost"));
        assert!(
            (got.x - loc.x).abs() < 1e-6 && (got.y - loc.y).abs() < 1e-6,
            "object {oid}: recovered {got:?}, acknowledged {loc:?}"
        );
    }

    // Idempotent re-recovery: same files, same answers.
    drop(recovered);
    let (_store2, again, report2) = MoistCluster::builder(&Bigtable::new(), tier_config())
        .shards(SHARDS)
        .recover(durable_config(&dir))
        .unwrap();
    assert_eq!(report2.replayed_records, report.replayed_records);
    for (oid, (ts, loc)) in &latest {
        let got = again.position(ObjectId(*oid), *ts).unwrap().unwrap();
        assert!((got.x - loc.x).abs() < 1e-6 && (got.y - loc.y).abs() < 1e-6);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn builder_recover_preserves_replica_ingest_and_controller_config() {
    use moist::archive::{PppArchiver, PppConfig};
    use moist::core::{ControllerConfig, IngestConfig};
    use std::sync::Arc;

    let dir = test_dir("knobs");
    let icfg = IngestConfig {
        batch_size: 16,
        queue_cap: 256,
    };
    let ccfg = ControllerConfig {
        min_shards: 2,
        max_shards: 6,
        ..ControllerConfig::default()
    };
    let archiver = Arc::new(PppArchiver::new(tier_config().space, PppConfig::default()));
    // One builder recipe for both construction paths: `build()` and
    // `recover()` must carry every knob onto the fleet.
    let builder = |store: &Arc<Bigtable>| {
        MoistCluster::builder(store, tier_config())
            .shards(SHARDS)
            .replicas(2)
            .ingest(icfg)
            .controller(ccfg)
            .archiver(Arc::clone(&archiver))
    };
    let assert_knobs = |cluster: &MoistCluster, path: &str| {
        assert_eq!(cluster.num_shards(), SHARDS, "{path}");
        assert_eq!(
            cluster.cluster_stats().replicas,
            2,
            "{path}: replication factor"
        );
        assert_eq!(cluster.ingest_config().batch_size, 16, "{path}: ingest");
        assert_eq!(cluster.ingest_config().queue_cap, 256, "{path}: ingest");
        assert_eq!(
            cluster.controller_config(),
            Some(ccfg.normalized()),
            "{path}: controller must be armed"
        );
    };

    let store = Bigtable::with_config(durable_config(&dir));
    let cluster = builder(&store).build().unwrap();
    assert_knobs(&cluster, "build");
    for i in 0..40u64 {
        cluster
            .update(&msg(
                i,
                20.0 + (i * 131 % 960) as f64,
                20.0 + (i * 61 % 960) as f64,
                1.0,
            ))
            .unwrap();
    }
    assert!(
        !archiver.recent_records(0).is_empty(),
        "build: writes must reach the archiver"
    );
    let want_ingest = cluster.ingest_config();
    drop(cluster);
    drop(store); // crash

    let (_store, recovered, report) = builder(&Bigtable::new())
        .recover(durable_config(&dir))
        .unwrap();
    assert!(report.replayed_records > 0);
    assert_knobs(&recovered, "recover");
    assert_eq!(recovered.ingest_config(), want_ingest);
    // And the data is still there, replica-routed.
    for i in 0..40u64 {
        assert!(recovered
            .position(ObjectId(i), Timestamp::from_secs(2))
            .unwrap()
            .is_some());
    }
    // The archiver rode along too: a record written after recovery
    // reaches it, and so does one written on a shard that joins later.
    recovered.update(&msg(1_000, 500.0, 500.0, 3.0)).unwrap();
    assert!(
        !archiver.recent_records(1_000).is_empty(),
        "recover: writes must reach the archiver"
    );
    let joiner = recovered.add_shard().unwrap();
    let joiner_pos = recovered
        .shard_ids()
        .iter()
        .position(|&id| id == joiner)
        .unwrap();
    let on_joiner = (0..1024u64)
        .map(|i| Point::new(15.0 + 30.0 * (i % 32) as f64, 15.0 + 30.0 * (i / 32) as f64))
        .find(|p| recovered.shard_for_point(p) == joiner_pos)
        .expect("the joiner wins some cell");
    recovered
        .update(&msg(1_001, on_joiner.x, on_joiner.y, 3.0))
        .unwrap();
    assert!(
        !archiver.recent_records(1_001).is_empty(),
        "add_shard: the joiner must stream into the tier's archiver"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_drains_ingest_before_snapshotting() {
    let dir = test_dir("ckpt");
    let store = Bigtable::with_config(durable_config(&dir));
    let cluster = MoistCluster::builder(&store, tier_config())
        .shards(2)
        .build()
        .unwrap();
    // Buffer updates through the async path; none are applied yet.
    for i in 0..10u64 {
        cluster
            .submit(&msg(i, 100.0 + i as f64, 200.0, 1.0 + i as f64 / 10.0))
            .unwrap();
    }
    let (drained, snap_bytes) = cluster.checkpoint().unwrap();
    assert_eq!(drained, 10, "checkpoint must apply the buffered updates");
    assert!(snap_bytes > 0);

    // Crash right after: recovery restores from snapshots alone (the
    // logs were truncated by the checkpoint, so nothing replays).
    drop(cluster);
    drop(store);
    let (_store, recovered, report) = MoistCluster::builder(&Bigtable::new(), tier_config())
        .shards(2)
        .recover(durable_config(&dir))
        .unwrap();
    assert_eq!(report.replayed_records, 0, "{report:?}");
    for i in 0..10u64 {
        let got = recovered
            .position(ObjectId(i), Timestamp::from_secs(2))
            .unwrap()
            .unwrap_or_else(|| panic!("checkpointed object {i} lost"));
        assert!(
            (got.x - (100.0 + i as f64)).abs() < 1.0,
            "object {i}: {got:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
