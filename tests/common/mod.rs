//! Helpers shared by the cluster-tier integration tests.

use moist::core::{MoistCluster, SplitTable};
use moist::spatial::{cells_at_level, CellId};

/// The owner position of every clustering cell — the shard its centre
/// routes to — after asserting the schedule partition
/// ([`assert_routing_key_partition`]): checked after joins, kills and
/// churn alike.
pub fn sole_owner_positions(cluster: &MoistCluster) -> Vec<usize> {
    assert_routing_key_partition(cluster);
    let cfg = *cluster.config();
    (0..cells_at_level(cfg.clustering_level))
        .map(|index| {
            let cell = CellId {
                level: cfg.clustering_level,
                index,
            };
            cluster.shard_for_point(&cfg.space.to_world(&cell.center(cfg.space.curve)))
        })
        .collect()
}

/// Asserts the tier's clustering schedule holds a deadline for every
/// *routing key* — unsplit clustering cells plus the four children of
/// every split cell — and for no stale key (a split cell itself, or a
/// child of an unsplit one). The split-aware partition invariant,
/// checked after rebalances, kills and churn alike (load-aware placement
/// must never orphan a key or leave a dead one firing, whatever weights
/// and splits it chose).
pub fn assert_routing_key_partition(cluster: &MoistCluster) {
    let split = cluster.cluster_stats().split_cells;
    for cell in 0..cells_at_level(cluster.config().clustering_level) {
        let is_split = split.contains(&cell);
        let cell_due = cluster.clustering_deadline(cell);
        assert_eq!(
            cell_due.is_some(),
            !is_split,
            "cell {cell} (split: {is_split})"
        );
        for child in SplitTable::child_keys(cell) {
            let child_due = cluster.clustering_deadline(child);
            assert_eq!(
                child_due.is_some(),
                is_split,
                "child {child:#x} of cell {cell}"
            );
        }
    }
}
