//! The allocation budget of a leader update.
//!
//! With schooling off (ε = 0) every update is a leader update, and one
//! that crosses into another leaf cell is the heaviest kind: it reads the
//! L/F record and the old Spatial Index row, rewrites the location,
//! deletes the old spatial row under a check-and-mutate guard, inserts
//! the new one and rewrites the L/F record. Records are 16–40 fixed
//! bytes and live in place in the store's values; what is left to
//! allocate is the new spatial row's storage (its column vector and the
//! column's version vector) and the tree nodes a growing tablet splits.
//!
//! A counting global allocator, counting per thread, measures the
//! updates this test's thread makes on a one-shard tier. It lives alone
//! in this test binary, so that it counts nothing but this file's tests.

use moist_bigtable::{Bigtable, Timestamp};
use moist_core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage, UpdateOutcome};
use moist_spatial::{Point, Velocity};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations this thread made while counting was on.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-locals, which touch no allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed on to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed on to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) this thread makes in `f`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get) - before)
}

const OBJECTS: u64 = 2_000;
const ROUNDS: u64 = 4;

/// Object `oid`'s position in round `round`: scattered over the paper
/// map, and 37 units further along both axes each round — more than a
/// leaf cell, so every update after the first crosses into another leaf.
fn at(oid: u64, round: u64) -> Point {
    let scatter = |salt: u64| {
        let h = (oid ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 11) as f64 / (1u64 << 53) as f64 * 800.0
    };
    let step = 37.0 * round as f64;
    Point::new(scatter(1) + step, scatter(2) + step)
}

#[test]
fn a_cross_leaf_leader_update_allocates_at_most_four_times() {
    let cfg = MoistConfig {
        epsilon: 0.0,
        ..MoistConfig::default()
    };
    let space = cfg.space;
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, cfg).build().unwrap();
    let update = |oid: u64, round: u64| {
        let msg = UpdateMessage {
            oid: ObjectId(oid),
            loc: at(oid, round),
            vel: Velocity::new(1.0, 1.0),
            ts: Timestamp::from_secs(round + 1),
        };
        cluster.update(&msg).unwrap()
    };
    // Registration, then one warm-up round: every version list is full
    // and every scratch buffer has grown before counting starts.
    for round in 0..2 {
        for oid in 0..OBJECTS {
            update(oid, round);
        }
    }
    let mut allocs = 0;
    for round in 2..2 + ROUNDS {
        for oid in 0..OBJECTS {
            let leaf = |round| space.leaf_cell(&at(oid, round)).index;
            assert_ne!(leaf(round), leaf(round - 1), "object {oid} stayed put");
            let (outcome, n) = counted(|| update(oid, round));
            assert_eq!(outcome, UpdateOutcome::LeaderUpdated);
            allocs += n;
        }
    }
    let per_update = allocs as f64 / (OBJECTS * ROUNDS) as f64;
    assert!(
        per_update <= 4.0,
        "a cross-leaf leader update allocates {per_update:.2} times"
    );
}
