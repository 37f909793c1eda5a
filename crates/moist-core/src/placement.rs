//! Placement: who owns routing key *k*, and who may read it.
//!
//! The cluster tier hashes *routing keys* — clustering cells, or the four
//! child cells of a cell hot enough to be split ([`SplitTable`]) — onto
//! shards by **weighted rendezvous** (highest-random-weight) hashing over
//! the stable shard ids: `score(m) = w_m / (−ln u_m)` where `u_m ∈ (0,1)`
//! is member `m`'s hashed draw for the key. This module is the single
//! definition of that decision; routing ([`crate::cluster_tier`]), which
//! shard's tick pops a key off the tier's clustering schedule
//! ([`crate::MoistCluster::run_due_clustering_shard`]) and the region
//! fan-out's slicing ([`slice_ranges`]) all go through it, so they can
//! never disagree on a tie-break or a weight change.
//!
//! Properties (property-tested in `moist-core/tests/rendezvous_props.rs`):
//!
//! * **minimal remap** — a member's score for a key never depends on who
//!   else is in the membership, so a join steals only the keys the joiner
//!   now wins (~`1/(N+1)` of them), a leave reassigns only the departed
//!   member's keys, and raising (lowering) one member's weight only moves
//!   keys *to* (*away from*) it. The result is independent of the order
//!   of `members`;
//! * **proportional share** — each member owns a fraction of the key
//!   space proportional to `w_m / Σw` (within hash noise);
//! * **prefix-stable ranks** — member ids are distinct, so (score, raw
//!   draw, smaller id) is a strict total order and the ranked top-`k`
//!   ([`owners`]) is well-defined: its first element is the single winner,
//!   a join inserts the joiner at its rank and shifts only lower ranks
//!   down, and a leave erases one rank and promotes the next — the basis
//!   of the tier's instant follower promotion.

use moist_spatial::{cells_at_level, CellId};
use std::collections::{BTreeMap, BTreeSet};

/// One member of a weighted membership: a stable shard id plus its
/// placement weight (relative capacity — the load-signal layer derives it
/// from measured utilization; see
/// [`crate::cluster_tier::MoistCluster::rebalance`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardWeight {
    /// Stable shard id.
    pub id: u64,
    /// Relative capacity; non-finite or non-positive weights are clamped
    /// to a small floor so a misconfigured shard still owns *something*
    /// (total loss of ownership would orphan its in-flight state).
    pub weight: f64,
}

impl ShardWeight {
    /// A unit-weight member (unweighted rendezvous is all-unit weights).
    pub fn unit(id: u64) -> Self {
        ShardWeight { id, weight: 1.0 }
    }
}

/// The weight floor substituted for non-finite / non-positive weights.
const MIN_SHARD_WEIGHT: f64 = 1e-6;

/// A member's rank key for one routing key: `(score, raw draw, id)`.
type Rank = (f64, u64, u64);

/// Member `m`'s rank key for `key`. The raw draw is a splitmix64-style
/// finalizer over the `(key, id)` pair, so each member's stream is
/// decorrelated both across keys (curve-adjacent hot cells spread out)
/// and across members.
fn rank_of(key: u64, m: &ShardWeight) -> Rank {
    let mut z = key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(m.id.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let h = z ^ (z >> 31);
    // Map the top 53 bits into (0,1): never 0 or 1, so ln is finite.
    let u = ((h >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    let w = if m.weight.is_finite() && m.weight > 0.0 {
        m.weight.max(MIN_SHARD_WEIGHT)
    } else {
        MIN_SHARD_WEIGHT
    };
    (w / -u.ln(), h, m.id)
}

/// Whether rank key `a` beats `b`: larger score, then the larger raw draw
/// (restores the unweighted ordering when equal weights collapse scores),
/// then the smaller id.
fn beats(a: &Rank, b: &Rank) -> bool {
    a.0 > b.0 || (a.0 == b.0 && (a.1 > b.1 || (a.1 == b.1 && a.2 < b.2)))
}

/// Position in `members` of the rendezvous winner of `key`: one
/// allocation-free pass (this sits on the tier's per-operation hot path).
/// Panics if `members` is empty (an empty cluster owns nothing).
pub(crate) fn winner(key: u64, members: &[ShardWeight]) -> usize {
    let mut best: Option<(Rank, usize)> = None;
    for (pos, m) in members.iter().enumerate() {
        let rank = rank_of(key, m);
        if best.as_ref().is_none_or(|(b, _)| beats(&rank, b)) {
            best = Some((rank, pos));
        }
    }
    best.expect("rendezvous over empty membership").1
}

/// Positions in `members` of the rendezvous top-`k` of `key`, best first
/// (`[0]` is exactly [`winner`]); `k` clamps to the membership size.
pub(crate) fn ranked(key: u64, members: &[ShardWeight], k: usize) -> Vec<usize> {
    let k = k.min(members.len());
    // Small insertion-sorted list (k is 2–3 in practice).
    let mut top: Vec<(Rank, usize)> = Vec::with_capacity(k + 1);
    for (pos, m) in members.iter().enumerate() {
        let rank = rank_of(key, m);
        let at = top
            .iter()
            .position(|(b, _)| beats(&rank, b))
            .unwrap_or(top.len());
        if at < k {
            top.insert(at, (rank, pos));
            top.truncate(k);
        }
    }
    top.into_iter().map(|(_, pos)| pos).collect()
}

/// The ranked replica set of routing key `key`: the ids of the rendezvous
/// top-`k` of `members`, best first. `owners[0]` is the **primary** (the
/// single winner — the only member that takes the key's updates and
/// clusters it), `owners[1..]` are the followers in promotion order; `k`
/// clamps to the membership size. Panics if `members` is empty.
pub fn owners(key: u64, members: &[ShardWeight], k: usize) -> Vec<u64> {
    assert!(!members.is_empty(), "rendezvous over empty membership");
    ranked(key, members, k)
        .into_iter()
        .map(|pos| members[pos].id)
        .collect()
}

/// Who may serve a *read* of `key` under replication factor `replicas`:
/// the least-loaded member of the key's replica set as measured by
/// `load_of(position)`. Strict `<` scanning best rank first keeps reads on
/// the primary until a follower is genuinely cheaper, and `replicas <= 1`
/// (the set *is* the primary) never consults `load_of`. Returns the
/// chosen position plus whether it is a follower (rank 1+). Reads are
/// correct on any shard — the store is shared — so this only spreads
/// load; the write path still serializes on the primary alone.
pub(crate) fn reader(
    key: u64,
    members: &[ShardWeight],
    replicas: usize,
    load_of: impl Fn(usize) -> f64,
) -> (usize, bool) {
    if replicas <= 1 || members.len() <= 1 {
        return (winner(key, members), false);
    }
    let set = ranked(key, members, replicas);
    let mut best = (0usize, f64::INFINITY);
    for (rank, &pos) in set.iter().enumerate() {
        let load = load_of(pos);
        if load < best.1 {
            best = (rank, load);
        }
    }
    (set[best.0], best.0 > 0)
}

/// Tag bit marking a routing key as a *child* cell one level finer than
/// the clustering level (set by [`SplitTable::route_leaf`] for split
/// cells). Cell indexes use at most `2·leaf_level ≤ 62` bits, so the top
/// bit is free.
pub(crate) const SPLIT_CHILD_TAG: u64 = 1 << 63;

/// Decodes a routing key into the concrete cell it names: plain keys are
/// cells at `clustering_level`, tagged keys ([`SPLIT_CHILD_TAG`]) are
/// child cells one level finer.
pub(crate) fn routing_key_cell(key: u64, clustering_level: u8) -> CellId {
    if key & SPLIT_CHILD_TAG != 0 {
        CellId {
            level: clustering_level + 1,
            index: key & !SPLIT_CHILD_TAG,
        }
    } else {
        CellId {
            level: clustering_level,
            index: key,
        }
    }
}

/// The routing key naming `cell`, a cell at `clustering_level` or one
/// level finer: the inverse of [`routing_key_cell`].
pub(crate) fn cell_routing_key(cell: CellId, clustering_level: u8) -> u64 {
    if cell.level > clustering_level {
        SPLIT_CHILD_TAG | cell.index
    } else {
        cell.index
    }
}

/// The set of clustering cells whose ownership is split one level finer.
///
/// Placement normally hashes whole clustering cells to shards; a
/// business-center cell hot enough to pin a shard on its own cannot be
/// fixed by any whole-cell assignment. The split table is consulted
/// *before* rendezvous: a split cell routes by its four child cells (one
/// level finer), each hashed independently, so the hot cell's load spreads
/// across up to four shards. Updates still serialize per routing key on
/// one owner, and each child is lazily clustered by its owner as its own
/// (smaller) cell — the clustering-vs-cross-cell-move races this could
/// surface are the same class [`crate::cluster::cluster_cell`]'s guarded
/// commit already resolves for ordinary cell-boundary crossings (the merge
/// aborts when the scanned spatial row changed under it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplitTable {
    cells: BTreeSet<u64>,
}

impl SplitTable {
    /// An empty table (no cell split).
    pub fn new() -> Self {
        SplitTable::default()
    }

    /// Whether clustering cell `cell` is split.
    pub(crate) fn is_split(&self, cell: u64) -> bool {
        self.cells.contains(&cell)
    }

    /// Marks `cell` as split. Returns `false` if it already was.
    pub fn split(&mut self, cell: u64) -> bool {
        self.cells.insert(cell)
    }

    /// Reunites a split `cell`: its four children stop routing
    /// independently and the cell routes whole again. Returns `false` if
    /// the cell was not split. The table is capped (the cluster tier
    /// splits at most a handful of business-center cells), so un-splitting
    /// demand-faded cells is what keeps the cap *re-usable* when the hot
    /// spot moves. The reunited cell's clustering deadline is its earliest
    /// child's.
    pub(crate) fn unsplit(&mut self, cell: u64) -> bool {
        self.cells.remove(&cell)
    }

    /// The split cells, ascending.
    pub(crate) fn cells(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells.iter().copied()
    }

    /// Number of split cells.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// The four routing keys of a split cell's children.
    pub fn child_keys(cell: u64) -> [u64; 4] {
        [
            SPLIT_CHILD_TAG | (cell << 2),
            SPLIT_CHILD_TAG | ((cell << 2) + 1),
            SPLIT_CHILD_TAG | ((cell << 2) + 2),
            SPLIT_CHILD_TAG | ((cell << 2) + 3),
        ]
    }

    /// The routing key of leaf index `leaf`: the containing clustering
    /// cell, or — when that cell is split — the containing child cell
    /// tagged with `SPLIT_CHILD_TAG`. Panics if `clustering_level >
    /// leaf_level` (rejected by config validation) or a split cell has no
    /// finer level to split into.
    pub fn route_leaf(&self, leaf: u64, clustering_level: u8, leaf_level: u8) -> u64 {
        let cell = leaf >> (2 * (leaf_level - clustering_level) as u64);
        if self.is_split(cell) {
            assert!(
                clustering_level < leaf_level,
                "cannot split below the leaf level"
            );
            SPLIT_CHILD_TAG | (leaf >> (2 * (leaf_level - clustering_level - 1) as u64))
        } else {
            cell
        }
    }

    /// Every routing key of the clustering level under this table: each
    /// unsplit cell once, each split cell as its four children. The keys
    /// partition the level exactly (each leaf index maps to exactly one
    /// key via [`route_leaf`](SplitTable::route_leaf)).
    pub fn routing_keys(&self, clustering_level: u8) -> Vec<u64> {
        let mut keys = Vec::new();
        for cell in 0..cells_at_level(clustering_level) {
            if self.is_split(cell) {
                keys.extend(Self::child_keys(cell));
            } else {
                keys.push(cell);
            }
        }
        keys
    }
}

/// Slices a region query's merged leaf-index ranges by reader: each range
/// is cut at routing-key boundaries — clustering-cell boundaries (a cell
/// at `clustering_level` spans `4^(leaf_level − clustering_level)`
/// contiguous leaf indexes), child-cell boundaries inside cells in
/// `splits` — and every piece goes to the member id `reader_of(key)`
/// returns for the piece's routing key, with adjacent same-reader pieces
/// re-merged so each shard still scans maximal contiguous ranges. The keys
/// handed to `reader_of` are exactly [`SplitTable::route_leaf`]'s for the
/// piece's leaves, so with the primary as reader (`owners(key, ..)[0]`) a
/// scattered query's slices land on the shards that own the matching write
/// traffic; the tier passes its least-loaded-replica choice instead.
///
/// The returned slices are an **exact partition** of the input whatever
/// `reader_of` returns: no leaf index is dropped, duplicated, or moved —
/// the scatter-gather region path scans precisely the ranges the
/// single-server plan would have (property-tested in
/// `moist-core/tests/rendezvous_props.rs`).
///
/// Returns `(reader id, that reader's merged ranges)` pairs in ascending
/// id order. Panics if `clustering_level > leaf_level` (rejected by
/// `MoistConfig::validate`).
pub fn slice_ranges(
    ranges: &[(u64, u64)],
    clustering_level: u8,
    leaf_level: u8,
    splits: &SplitTable,
    mut reader_of: impl FnMut(u64) -> u64,
) -> Vec<(u64, Vec<(u64, u64)>)> {
    assert!(
        clustering_level <= leaf_level,
        "clustering level {clustering_level} finer than leaf level {leaf_level}"
    );
    let shift = 2 * (leaf_level - clustering_level) as u64;
    let mut by_reader: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for &(start, end) in ranges {
        let mut s = start;
        while s < end {
            let cell = s >> shift;
            let (key, e) = if shift >= 2 && splits.is_split(cell) {
                let child_shift = shift - 2;
                let child = s >> child_shift;
                (SPLIT_CHILD_TAG | child, end.min((child + 1) << child_shift))
            } else {
                (cell, end.min((cell + 1) << shift))
            };
            let slots = by_reader.entry(reader_of(key)).or_default();
            match slots.last_mut() {
                Some((_, le)) if *le == s => *le = e,
                _ => slots.push((s, e)),
            }
            s = e;
        }
    }
    by_reader.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(ids: &[u64]) -> Vec<ShardWeight> {
        ids.iter().map(|&id| ShardWeight::unit(id)).collect()
    }

    #[test]
    fn ownership_is_order_independent_and_total() {
        let ids = [3u64, 11, 42, 7];
        let members = units(&ids);
        let mut reversed = members.clone();
        reversed.reverse();
        for key in 0..256u64 {
            let owner = owners(key, &members, 1)[0];
            assert!(ids.contains(&owner));
            assert_eq!(owner, owners(key, &reversed, 1)[0], "key {key}");
        }
        // Each member wins a non-trivial share (hash balance, not exact).
        for &m in &ids {
            let won = (0..256u64)
                .filter(|&k| owners(k, &members, 1)[0] == m)
                .count();
            assert!(won > 20, "member {m} won only {won}/256 cells");
        }
    }

    #[test]
    fn heavier_members_win_proportionally_more_keys() {
        let members = [
            ShardWeight { id: 1, weight: 1.0 },
            ShardWeight { id: 2, weight: 2.0 },
            ShardWeight { id: 3, weight: 4.0 },
        ];
        let mut won = [0u64; 3];
        let keys = 8192u64;
        for key in 0..keys {
            won[winner(key, &members)] += 1;
        }
        // Expected shares 1/7, 2/7, 4/7 within generous hash noise.
        for (i, m) in members.iter().enumerate() {
            let expect = keys as f64 * m.weight / 7.0;
            let got = won[i] as f64;
            assert!(
                (got - expect).abs() < expect * 0.25 + 32.0,
                "member {} won {} keys, expected ≈{}",
                m.id,
                got,
                expect
            );
        }
    }

    #[test]
    fn ranked_owners_lead_with_the_winner_scan() {
        // Mixed and equal weights, so both the score comparison and the
        // (raw draw, smaller id) tie-break are exercised.
        let ids = [3u64, 11, 42, 7, 900_001];
        let weighted: Vec<ShardWeight> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| ShardWeight {
                id,
                weight: 0.5 + i as f64,
            })
            .collect();
        for members in [weighted, units(&ids)] {
            for key in 0..4096u64 {
                // The allocation-free winner scan and the ranked top-k are
                // two loops over one scoring function: rank 0 is the
                // winner, bit for bit, at every k.
                assert_eq!(ranked(key, &members, 1), vec![winner(key, &members)]);
                // Larger k keeps rank 0 the winner and extends with
                // distinct followers; k past the membership clamps.
                let set = owners(key, &members, 3);
                assert_eq!(set.len(), 3);
                assert_eq!(set[0], members[winner(key, &members)].id, "key {key}");
                let mut uniq = set.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), 3, "replica set has no duplicates");
                let all = owners(key, &members, 99);
                assert_eq!(all.len(), ids.len(), "k clamps to the membership");
                assert_eq!(&all[..3], &set[..], "rank prefix is stable in k");
                assert!(owners(key, &members, 0).is_empty());
            }
        }
    }

    #[test]
    fn ranked_owners_are_prefix_stable_under_leave() {
        // Removing one member promotes the next rank for exactly the keys
        // it appeared on — every other key's ranked prefix is untouched.
        let ids = [3u64, 11, 42, 7, 900_001];
        for key in 0..2048u64 {
            let before = owners(key, &units(&ids), 3);
            let departed = before[0];
            let survivors: Vec<u64> = ids.iter().copied().filter(|&m| m != departed).collect();
            let after = owners(key, &units(&survivors), 2);
            assert_eq!(
                after[..2],
                before[1..3],
                "key {key}: the old followers must step up in order"
            );
        }
    }

    #[test]
    fn replica_reader_slicing_partitions_and_degenerates_to_the_primary() {
        let members = units(&[1, 2, 5, 9]);
        let (cl, ll) = (2u8, 5u8);
        let ranges = [(0u64, 700u64), (800, 1024)];
        let no_splits = SplitTable::default();
        let slice_by = |replicas: usize, load_of: &dyn Fn(usize) -> f64| {
            slice_ranges(&ranges, cl, ll, &no_splits, |key| {
                members[reader(key, &members, replicas, load_of).0].id
            })
        };
        // replicas = 1 reads from the primary and never consults the load.
        let by_primary = slice_ranges(&ranges, cl, ll, &no_splits, |key| {
            owners(key, &members, 1)[0]
        });
        assert_eq!(
            slice_by(1, &|_| panic!("no load lookup at replicas = 1")),
            by_primary
        );
        // A level fleet at replicas = 2 also stays on the primaries.
        assert_eq!(slice_by(2, &|_| 0.0), by_primary);
        // replicas = 2 with a load signal still partitions the input.
        let sliced = slice_by(2, &|pos| if pos == 0 { 100.0 } else { pos as f64 });
        let mut total = 0u64;
        for (_, slices) in &sliced {
            for &(s, e) in slices {
                assert!(s < e);
                total += e - s;
            }
        }
        assert_eq!(total, 700 + 224, "no leaf dropped or duplicated");
        // Shard 1 is the heaviest: it serves a key only when it is the
        // sole replica-set member available, which never happens at k=2
        // over 4 live shards — its read load shifts to its followers.
        assert!(
            sliced.iter().all(|&(id, _)| id != 1),
            "overloaded shard must not serve replica reads: {sliced:?}"
        );
    }

    #[test]
    fn degenerate_weights_are_floored_not_fatal() {
        let members = [
            ShardWeight {
                id: 1,
                weight: f64::NAN,
            },
            ShardWeight {
                id: 2,
                weight: -3.0,
            },
            ShardWeight { id: 3, weight: 1.0 },
        ];
        // Every key has a winner; the healthy member dominates.
        let healthy = (0..512u64).filter(|&k| winner(k, &members) == 2).count();
        assert!(healthy > 450, "floored weights must not win: {healthy}/512");
    }

    #[test]
    fn split_table_routes_leaves_through_children() {
        let (cl, ll) = (2u8, 5u8);
        let mut splits = SplitTable::new();
        assert!(splits.split(6));
        assert!(!splits.split(6), "double split is a no-op");
        // A leaf in an unsplit cell routes to the cell itself.
        let leaf_unsplit = 3 << (2 * (ll - cl));
        assert_eq!(splits.route_leaf(leaf_unsplit, cl, ll), 3);
        // A leaf in the split cell routes to its tagged child.
        let leaf_split = (6 << (2 * (ll - cl))) + 17;
        let key = splits.route_leaf(leaf_split, cl, ll);
        assert_ne!(key & SPLIT_CHILD_TAG, 0);
        let child = routing_key_cell(key, cl);
        assert_eq!(child.level, cl + 1);
        assert_eq!(child.index >> 2, 6, "child must descend from cell 6");
        // The routing keys partition the level: 15 unsplit + 4 children.
        let keys = splits.routing_keys(cl);
        assert_eq!(keys.len(), 15 + 4);
        let mut covered = std::collections::HashSet::new();
        for key in keys {
            let cell = routing_key_cell(key, cl);
            assert_eq!(cell_routing_key(cell, cl), key);
            let (s, e) = cell.descendant_range(ll).unwrap();
            for leaf in s..e {
                assert!(covered.insert(leaf), "leaf {leaf} covered twice");
                assert_eq!(splits.route_leaf(leaf, cl, ll), key);
            }
        }
        assert_eq!(covered.len() as u64, 1 << (2 * ll));
    }

    #[test]
    fn split_table_cap_is_reusable_through_unsplit() {
        // The cluster tier caps the table at 16 entries. Un-splitting
        // must free capacity so a *moving* hot spot recycles the cap
        // instead of permanently exhausting it.
        const CAP: usize = 16;
        let mut splits = SplitTable::new();
        for cell in 0..CAP as u64 {
            assert!(splits.split(cell));
        }
        assert_eq!(splits.len(), CAP, "table full");
        // The hot spot fades in the first four cells and moves on.
        for cell in 0..4u64 {
            assert!(splits.unsplit(cell));
            assert!(!splits.unsplit(cell), "double un-split is a no-op");
            assert!(!splits.is_split(cell));
        }
        assert_eq!(splits.len(), CAP - 4, "capacity freed");
        // The freed capacity takes new hot cells up to the cap again.
        for cell in 100..104u64 {
            assert!(splits.split(cell));
        }
        assert_eq!(splits.len(), CAP);
        // An un-split cell routes whole again; a still-split one doesn't.
        let (cl, ll) = (3u8, 5u8);
        assert_eq!(splits.route_leaf(1 << (2 * (ll - cl)), cl, ll), 1);
        assert_ne!(
            splits.route_leaf(5 << (2 * (ll - cl)), cl, ll) & SPLIT_CHILD_TAG,
            0
        );
    }

    #[test]
    fn slicing_cuts_split_cells_at_child_boundaries() {
        let (cl, ll) = (1u8, 4u8);
        let members = units(&[10, 20, 30]);
        let mut splits = SplitTable::new();
        splits.split(2);
        let span = 1u64 << (2 * ll);
        let slices = slice_ranges(&[(0, span)], cl, ll, &splits, |key| {
            owners(key, &members, 1)[0]
        });
        // Exact partition, and every piece inside cell 2 belongs to the
        // owner of its child key.
        let mut flat: Vec<(u64, u64)> = Vec::new();
        let child_shift = 2 * (ll - cl - 1) as u64;
        for (owner, ranges) in &slices {
            for &(s, e) in ranges {
                flat.push((s, e));
                let cell = s >> (2 * (ll - cl) as u64);
                if cell == 2 {
                    for child in (s >> child_shift)..=((e - 1) >> child_shift) {
                        assert_eq!(owners(SPLIT_CHILD_TAG | child, &members, 1)[0], *owner);
                    }
                }
            }
        }
        flat.sort_unstable();
        let total: u64 = flat.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, span, "no leaf dropped or duplicated");
    }
}
