//! Helpers shared by the cluster-tier integration tests.

use moist::core::{MoistCluster, SplitTable};
use moist::spatial::cells_at_level;

/// The owner position of every clustering cell, asserting along the way
/// that exactly one live shard owns each cell — the tier's partition
/// invariant, checked after joins, kills and churn alike.
pub fn sole_owner_positions(cluster: &MoistCluster) -> Vec<usize> {
    let cells = cells_at_level(cluster.config().clustering_level);
    (0..cells)
        .map(|index| {
            let owners: Vec<usize> = (0..cluster.num_shards())
                .filter(|&i| {
                    cluster
                        .with_shard(i, |s| s.scheduler().owns(index))
                        .unwrap()
                })
                .collect();
            assert_eq!(owners.len(), 1, "cell {index} owners: {owners:?}");
            owners[0]
        })
        .collect()
}

/// Asserts the live shards' schedulers own every *routing key* — unsplit
/// clustering cells plus the four children of every split cell — exactly
/// once. The split-aware partition invariant, checked after rebalances,
/// kills and churn alike (load-aware placement must never orphan or
/// double-own a key, whatever weights and splits it chose).
#[allow(dead_code)] // not every integration test exercises splits
pub fn assert_routing_key_partition(cluster: &MoistCluster) {
    let cfg = *cluster.config();
    let split: std::collections::HashSet<u64> =
        cluster.cluster_stats().split_cells.into_iter().collect();
    let mut keys = Vec::new();
    for cell in 0..cells_at_level(cfg.clustering_level) {
        if split.contains(&cell) {
            keys.extend(SplitTable::child_keys(cell));
        } else {
            keys.push(cell);
        }
    }
    for key in keys {
        let owners: Vec<usize> = (0..cluster.num_shards())
            .filter(|&i| cluster.with_shard(i, |s| s.scheduler().owns(key)).unwrap())
            .collect();
        assert_eq!(owners.len(), 1, "routing key {key:#x} owners: {owners:?}");
    }
}
