//! Property tests for rendezvous cell ownership — the minimal-remap
//! contract elastic membership rests on (vendored proptest):
//!
//! 1. **join** — adding one shard to an N-shard membership remaps at most
//!    ⌈cells/(N+1)⌉ plus statistical slack, and every remapped cell moves
//!    *to the joiner* (an exact structural property, not a bound);
//! 2. **leave** — removing one shard remaps exactly the departed shard's
//!    cells and nothing else;
//! 3. **order independence** — ownership is a function of the membership
//!    *set*, not the order the ids are listed in;
//! 4. **agreement** — a tier's clustering ticks, after any churn, fire
//!    every cell exactly once and each on the rank-0 owner ([`owners`]) of
//!    its routing key, so routing and clustering can never disagree about
//!    a cell's home shard (the split-aware version, with real hot-cell
//!    splits, is `schedule_props.rs`).
//!
//! The load-aware placement layer extends the contract (same suite):
//!
//! 5. **proportional share** — each member owns a key share proportional
//!    to its weight, within statistical slack;
//! 6. **weight-change minimality** — raising one member's weight only
//!    moves keys *to* it, lowering it only moves keys *away* from it;
//! 7. **split-table agreement** — with weights and hot-cell splits in
//!    play, every leaf routes to one of the split table's routing keys,
//!    and [`slice_ranges`] with the primary as reader is an exact
//!    partition of any range set whose pieces all sit on the rank-0 owner
//!    of their routing key.
//!
//! The replicated-ownership layer extends it again (same suite):
//!
//! 8. **rank-0 pin** — rank 0 of any replica set is the `k = 1` owner,
//!    members are distinct and the set clamps to the membership, so
//!    widening `replicas` never moves a key's primary;
//! 9. **prefix stability** — a join or leave never reorders the surviving
//!    members of a replica set: a leave promotes the next-ranked member in
//!    place, a join can only insert the joiner (possibly displacing the
//!    tail) — the property instant follower promotion rests on.
//!
//! The pipelined ingestion layer extends it again (same suite):
//!
//! 10. **epoch-crossing flush** — a batch enqueued under epoch E and
//!     drained by a join or leave under epoch E+1 lands every update on
//!     its key's *current* rank-0 primary exactly once: enqueue-time
//!     routing is advisory, apply-time routing is authoritative.

use moist_bigtable::{Bigtable, Timestamp};
use moist_core::{
    owners, slice_ranges, IngestConfig, MoistCluster, MoistConfig, ObjectId, ShardWeight,
    SplitTable, SubmitOutcome, UpdateMessage,
};
use moist_spatial::{Point, Velocity};
use proptest::prelude::*;

/// A membership of 1–12 distinct shard ids drawn from a wide id space
/// (ids are never reused in the tier, so gaps and large values are the
/// norm after churn).
fn membership(rng: &mut TestRng, max_len: usize) -> Vec<u64> {
    let len = 1 + (rng.below(max_len as u64) as usize);
    let mut ids = Vec::with_capacity(len);
    while ids.len() < len {
        let id = rng.below(1 << 20);
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// Unit-weight members: the unweighted rendezvous.
fn units(ids: &[u64]) -> Vec<ShardWeight> {
    ids.iter().map(|&id| ShardWeight::unit(id)).collect()
}

/// The rank-0 owner (primary) of `key`.
fn owner(key: u64, members: &[ShardWeight]) -> u64 {
    owners(key, members, 1)[0]
}

/// Asserts `slices` is an exact partition of `ranges`: flattening every
/// reader's slices and re-merging adjacency reproduces the input — no leaf
/// index dropped, duplicated, or moved.
fn assert_exact_partition(slices: &[(u64, Vec<(u64, u64)>)], ranges: &[(u64, u64)]) {
    let mut flat: Vec<(u64, u64)> = slices.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    flat.sort_unstable();
    for pair in flat.windows(2) {
        assert!(pair[0].1 <= pair[1].0, "overlapping slices: {pair:?}");
    }
    let mut rebuilt: Vec<(u64, u64)> = Vec::new();
    for (start, end) in flat {
        match rebuilt.last_mut() {
            Some((_, e)) if *e == start => *e = end,
            _ => rebuilt.push((start, end)),
        }
    }
    assert_eq!(rebuilt, ranges, "slices do not rebuild the input range set");
}

/// Fisher–Yates shuffle driven by the deterministic test RNG.
fn shuffled(rng: &mut TestRng, mut ids: Vec<u64>) -> Vec<u64> {
    for i in (1..ids.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        ids.swap(i, j);
    }
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn join_remaps_at_most_its_fair_share_and_only_to_the_joiner(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("join_remap", seed);
        let ids = membership(&mut rng, 12);
        let joiner = loop {
            let id = rng.below(1 << 20) + (1 << 20); // disjoint from members
            if !ids.contains(&id) {
                break id;
            }
        };
        let mut grown = ids.clone();
        grown.push(joiner);
        let cells: u64 = 1024;
        let n1 = grown.len() as u64;

        let (members, grown) = (units(&ids), units(&grown));
        let mut remapped = 0u64;
        for cell in 0..cells {
            let before = owner(cell, &members);
            let after = owner(cell, &grown);
            if before != after {
                remapped += 1;
                // Exact structural property: a cell only ever moves to the
                // joiner — the incumbents' weights did not change.
                prop_assert_eq!(after, joiner, "cell {} moved between incumbents", cell);
            }
        }
        // The joiner's fair share is cells/(N+1). The winner counts are
        // binomial-ish, so allow generous slack — but stay far below the
        // near-total remap a modular hash over the count would cause.
        let fair = cells.div_ceil(n1);
        let slack = fair / 2 + 32;
        prop_assert!(
            remapped <= fair + slack,
            "remapped {} of {} cells; fair share {} (+{} slack) with {} members",
            remapped, cells, fair, slack, n1
        );
    }

    #[test]
    fn leave_remaps_exactly_the_departed_shards_cells(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("leave_remap", seed);
        let mut ids = membership(&mut rng, 12);
        if ids.len() < 2 {
            ids.push(ids[0] + 1);
        }
        let departed = ids[rng.below(ids.len() as u64) as usize];
        let survivors: Vec<u64> = ids.iter().copied().filter(|&m| m != departed).collect();

        let (members, remaining) = (units(&ids), units(&survivors));
        for cell in 0..1024u64 {
            let before = owner(cell, &members);
            let after = owner(cell, &remaining);
            if before == departed {
                // The departed shard's cells land on some survivor.
                prop_assert!(survivors.contains(&after));
            } else {
                // Everyone else's cells do not move at all.
                prop_assert_eq!(after, before, "cell {} moved without cause", cell);
            }
        }
    }

    #[test]
    fn ownership_is_independent_of_membership_list_order(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("order_independence", seed);
        let ids = membership(&mut rng, 12);
        let reordered = shuffled(&mut rng, ids.clone());
        let (members, reordered) = (units(&ids), units(&reordered));
        for cell in 0..512u64 {
            prop_assert_eq!(
                owner(cell, &members),
                owner(cell, &reordered),
                "cell {} owner depends on list order", cell
            );
        }
    }

    #[test]
    fn owner_sliced_ranges_exactly_partition_the_range_set(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("owner_slices", seed);
        let ids = membership(&mut rng, 10);
        let clustering_level = (rng.below(6) + 1) as u8; // 1..=6
        let leaf_level = clustering_level + (rng.below(5) as u8); // up to +4 finer
        let leaf_span = 1u64 << (2 * leaf_level as u64);
        let shift = 2 * (leaf_level - clustering_level) as u64;

        // A random set of disjoint, non-adjacent merged ranges — the shape
        // `plan_region_ranges` produces (gaps >= 1 keep them maximal).
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let mut cursor = rng.below(8);
        while cursor < leaf_span && ranges.len() < 24 {
            let len = 1 + rng.below(leaf_span.div_ceil(6).max(1));
            let end = (cursor + len).min(leaf_span);
            ranges.push((cursor, end));
            cursor = end + 1 + rng.below(16);
        }
        if ranges.is_empty() {
            ranges.push((0, leaf_span)); // tiny level: fall back to the full span
        }

        // Random weights, a random split table (when there is a finer
        // level to split into) and a random replication factor: the
        // "primary" reader choice must ignore everything but rank 0.
        let members: Vec<ShardWeight> = ids
            .iter()
            .map(|&id| ShardWeight { id, weight: 0.5 + rng.below(8) as f64 / 2.0 })
            .collect();
        let mut splits = SplitTable::new();
        if shift >= 2 {
            for _ in 0..rng.below(4) {
                splits.split(rng.below(1 << (2 * clustering_level as u64)));
            }
        }
        let k = 1 + rng.below(3) as usize;
        let slices = slice_ranges(&ranges, clustering_level, leaf_level, &splits, |key| {
            owners(key, &members, k)[0]
        });

        // Every piece sits on the rank-0 owner of the routing key of every
        // leaf it spans (sampled once per child-cell span — the finest
        // routing granularity).
        let step = 1u64 << shift.saturating_sub(2);
        for (reader, slice) in &slices {
            prop_assert!(ids.contains(reader));
            for &(start, end) in slice {
                prop_assert!(start < end, "empty slice range");
                let mut leaf = start;
                while leaf < end {
                    let key = splits.route_leaf(leaf, clustering_level, leaf_level);
                    prop_assert_eq!(
                        owners(key, &members, k)[0], *reader,
                        "slice [{}, {}) holds leaf {} owned elsewhere", start, end, leaf
                    );
                    leaf = (leaf / step + 1) * step;
                }
            }
        }
        assert_exact_partition(&slices, &ranges);
    }

    #[test]
    fn weighted_ownership_share_tracks_weight(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("weighted_share", seed);
        let ids = membership(&mut rng, 6);
        let weight_choices = [0.5, 1.0, 2.0, 4.0];
        let members: Vec<ShardWeight> = ids
            .iter()
            .map(|&id| ShardWeight {
                id,
                weight: weight_choices[rng.below(weight_choices.len() as u64) as usize],
            })
            .collect();
        let total_weight: f64 = members.iter().map(|m| m.weight).sum();
        let keys = 4096u64;
        let mut won = vec![0u64; members.len()];
        for key in 0..keys {
            let owner = owner(key, &members);
            let pos = members.iter().position(|m| m.id == owner).unwrap();
            won[pos] += 1;
        }
        for (pos, m) in members.iter().enumerate() {
            let expect = keys as f64 * m.weight / total_weight;
            let got = won[pos] as f64;
            // Binomial-ish noise: half the expectation plus a flat floor
            // covers the small-share members without hiding a broken
            // weighting (which would be off by integer factors).
            prop_assert!(
                (got - expect).abs() <= expect * 0.5 + 48.0,
                "member {} (w={}) won {} of {} keys, expected ≈{:.0}",
                m.id, m.weight, got, keys, expect
            );
        }
    }

    #[test]
    fn weight_change_remaps_only_toward_or_away_from_the_changed_shard(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("weight_change_remap", seed);
        let ids = membership(&mut rng, 8);
        let members: Vec<ShardWeight> = ids
            .iter()
            .map(|&id| ShardWeight {
                id,
                weight: 0.5 + rng.below(8) as f64 / 2.0,
            })
            .collect();
        let target = members[rng.below(members.len() as u64) as usize].id;
        let rescale = |factor: f64| -> Vec<ShardWeight> {
            members
                .iter()
                .map(|m| ShardWeight {
                    id: m.id,
                    weight: if m.id == target { m.weight * factor } else { m.weight },
                })
                .collect()
        };
        let raised = rescale(2.0);
        let lowered = rescale(0.5);
        let mut toward = 0u64;
        for key in 0..1024u64 {
            let before = owner(key, &members);
            let up = owner(key, &raised);
            if up != before {
                // An exact structural property: only the raised member's
                // score changed, so keys can only move *to* it.
                prop_assert_eq!(up, target, "key {} moved between bystanders", key);
                toward += 1;
            }
            let down = owner(key, &lowered);
            if down != before {
                prop_assert_eq!(before, target, "key {} left an unchanged shard", key);
                prop_assert!(down != target);
            }
        }
        // Doubling a weight must actually attract keys (unless the member
        // already owned essentially everything).
        let owned_before = (0..1024u64)
            .filter(|&k| owner(k, &members) == target)
            .count();
        prop_assert!(
            toward > 0 || owned_before > 900,
            "doubling member {}'s weight attracted nothing (owned {} before)",
            target, owned_before
        );
    }

    #[test]
    fn split_table_routing_agrees_with_slicing(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("split_table_agreement", seed);
        let ids = membership(&mut rng, 6);
        let members: Vec<ShardWeight> = ids
            .iter()
            .map(|&id| ShardWeight {
                id,
                weight: 0.5 + rng.below(6) as f64 / 2.0,
            })
            .collect();
        let cfg = MoistConfig {
            clustering_level: 3, // 64 cells
            ..MoistConfig::default()
        };
        let mut splits = SplitTable::new();
        for _ in 0..(1 + rng.below(3)) {
            splits.split(rng.below(64));
        }

        // Sampled leaves route to one of the table's routing keys.
        let keys = splits.routing_keys(cfg.clustering_level);
        let leaf_level = cfg.space.leaf_level;
        let leaf_span = 1u64 << (2 * leaf_level as u64);
        for _ in 0..128 {
            let leaf = rng.below(leaf_span);
            let key = splits.route_leaf(leaf, cfg.clustering_level, leaf_level);
            prop_assert!(keys.contains(&key), "leaf {} routes off the table", leaf);
        }

        // The slicer stays an exact partition with weights and splits in
        // play.
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let mut cursor = rng.below(1 << 8);
        while cursor < leaf_span && ranges.len() < 16 {
            let len = 1 + rng.below(leaf_span / 5);
            let end = (cursor + len).min(leaf_span);
            ranges.push((cursor, end));
            cursor = end + 1 + rng.below(1 << 30);
        }
        if ranges.is_empty() {
            ranges.push((0, leaf_span));
        }
        let slices = slice_ranges(&ranges, cfg.clustering_level, leaf_level, &splits, |key| {
            owner(key, &members)
        });
        assert_exact_partition(&slices, &ranges);
        // And every slice's leaves route to its owner.
        for (reader, slice) in &slices {
            for &(start, end) in slice {
                for leaf in [start, end - 1] {
                    let key = splits.route_leaf(leaf, cfg.clustering_level, leaf_level);
                    prop_assert_eq!(owner(key, &members), *reader);
                }
            }
        }
    }

    #[test]
    fn tier_ticks_fire_each_cell_once_on_its_routing_owner(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("tick_agreement", seed);
        let cfg = MoistConfig {
            clustering_level: 4, // 256 cells
            ..MoistConfig::default()
        };
        let store = Bigtable::new();
        let cluster = MoistCluster::builder(&store, cfg)
            .shards(1 + rng.below(6) as usize)
            .build()
            .unwrap();
        // Churn, so the ids have gaps and the joiners hold migrated cells.
        for _ in 0..rng.below(4) {
            if rng.below(2) == 0 || cluster.num_shards() == 1 {
                cluster.add_shard().unwrap();
            } else {
                let ids = cluster.shard_ids();
                cluster.remove_shard(ids[rng.below(ids.len() as u64) as usize]).unwrap();
            }
        }
        let ids = cluster.shard_ids();
        let members = units(&ids);
        // Past every staggered first deadline (they all lie in [T, 2T)).
        let now = Timestamp::from_secs_f64(2.0 * cfg.cluster_interval_secs);
        for pos in 0..ids.len() {
            cluster.run_due_clustering_shard(pos, now).unwrap();
        }
        for (pos, stats) in cluster.shard_stats().iter().enumerate() {
            let owned = (0..256u64).filter(|&cell| owner(cell, &members) == ids[pos]).count();
            prop_assert_eq!(stats.cluster_runs, owned as u64, "shard {} fired others' cells", ids[pos]);
        }
        prop_assert_eq!(cluster.stats().cluster_runs, 256, "members {:?}", ids);
    }

    #[test]
    fn replica_set_rank_zero_is_the_single_owner_bit_identically(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("replica_rank0", seed);
        let ids = membership(&mut rng, 12);
        // Mix equal and unequal weights so the PR-5 tie-break (hash, then
        // smaller id) is exercised, not just the score comparison.
        let members: Vec<ShardWeight> = ids
            .iter()
            .map(|&id| ShardWeight {
                id,
                weight: if rng.below(2) == 0 { 1.0 } else { 0.5 + rng.below(6) as f64 / 2.0 },
            })
            .collect();
        for key in 0..1024u64 {
            // Rank 0 of any larger set is still the k = 1 winner, with all
            // members distinct and the set clamped to the membership.
            let k = 1 + (rng.below(4) as usize);
            let set = owners(key, &members, k);
            prop_assert_eq!(set.len(), k.min(members.len()));
            prop_assert_eq!(set[0], owner(key, &members));
            let mut dedup = set.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), set.len(), "replica set repeats a member");
        }
    }

    #[test]
    fn replica_sets_are_prefix_stable_under_join_and_leave(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("replica_prefix", seed);
        let mut ids = membership(&mut rng, 10);
        if ids.len() < 2 {
            ids.push(ids[0] + 1);
        }
        let k = 2 + (rng.below(2) as usize); // 2..=3, the practical range
        let departed = ids[rng.below(ids.len() as u64) as usize];
        let survivors: Vec<u64> = ids.iter().copied().filter(|&m| m != departed).collect();
        let joiner = loop {
            let id = rng.below(1 << 20) + (1 << 20);
            if !ids.contains(&id) {
                break id;
            }
        };
        let mut grown = ids.clone();
        grown.push(joiner);

        let (members, remaining, grown) = (units(&ids), units(&survivors), units(&grown));
        for key in 0..1024u64 {
            let before = owners(key, &members, k);

            // Leave: the departed member drops out of every set it was in;
            // everyone else keeps their relative rank (a rank-0 departure
            // promotes the rank-1 follower in place — instant promotion),
            // and only the freed tail slot is refilled.
            let after_leave = owners(key, &remaining, k);
            let kept: Vec<u64> = before.iter().copied().filter(|&m| m != departed).collect();
            prop_assert!(
                after_leave.starts_with(&kept),
                "key {}: leave reordered survivors ({:?} -> {:?})", key, before, after_leave
            );

            // Join: incumbents never reorder — stripping the joiner from
            // the new set leaves a prefix of the old one.
            let after_join = owners(key, &grown, k);
            let incumbents: Vec<u64> =
                after_join.iter().copied().filter(|&m| m != joiner).collect();
            prop_assert!(
                before.starts_with(&incumbents),
                "key {}: join reordered incumbents ({:?} -> {:?})", key, before, after_join
            );
        }
    }

    #[test]
    fn epoch_crossing_flushes_land_once_on_the_current_primary(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("epoch_cross_flush", seed);
        let store = Bigtable::new();
        let shards = 2 + rng.below(4) as usize; // 2..=5 live shards
        let cluster = MoistCluster::builder(&store, MoistConfig::default())
            .shards(shards)
            .ingest(IngestConfig {
                batch_size: 4096, // nothing size-flushes: only the epoch bump drains
                ..IngestConfig::default()
            })
            .build()
            .unwrap();

        // Enqueue a randomized spread of registrations under epoch E.
        let n = 24 + rng.below(25) as usize; // 24..=48
        let mut msgs = Vec::with_capacity(n);
        for i in 0..n {
            let m = UpdateMessage {
                oid: ObjectId(i as u64),
                loc: Point::new(5.0 + rng.below(991) as f64, 5.0 + rng.below(991) as f64),
                vel: Velocity::new(1.0, 0.0),
                ts: Timestamp::from_secs(1),
            };
            prop_assert!(matches!(
                cluster.submit(&m).unwrap(),
                SubmitOutcome::Enqueued { .. }
            ));
            msgs.push(m);
        }
        let epoch_before = cluster.cluster_stats().epoch;
        prop_assert_eq!(cluster.stats().updates, 0, "nothing may apply before the flush");
        prop_assert_eq!(cluster.ingest_stats().queued, n as u64);

        // Cross an epoch: a join or a leave, either of which publishes the
        // new membership *first* and then drains the queues under it.
        if rng.below(2) == 0 {
            cluster.add_shard().unwrap();
        } else {
            let ids = cluster.shard_ids();
            let victim = ids[rng.below(ids.len() as u64) as usize];
            cluster.remove_shard(victim).unwrap();
        }
        prop_assert_eq!(cluster.cluster_stats().epoch, epoch_before + 1);

        // Exactly once: every buffered update applied, none left, none doubled.
        let is = cluster.ingest_stats();
        prop_assert_eq!(is.queued, 0);
        prop_assert_eq!(is.flushed_updates, n as u64);
        prop_assert!(is.drain_flushes >= 1);
        prop_assert_eq!(is.backpressure + is.overload_shed, 0);
        prop_assert_eq!(cluster.stats().updates, n as u64);

        // ...and every one landed on its key's *current* rank-0 primary:
        // per-shard counters match the counts predicted by post-bump
        // routing, shard by shard (a departed victim absorbed nothing, so
        // the live shards account for the whole batch).
        let mut predicted = vec![0u64; cluster.shard_ids().len()];
        for m in &msgs {
            predicted[cluster.shard_for_point(&m.loc)] += 1;
        }
        let live: Vec<u64> = cluster.shard_stats().iter().map(|s| s.updates).collect();
        prop_assert_eq!(live, predicted);
    }
}
