//! Property tests for per-call cost mirroring: any interleaving of
//! query/update charges lands on the shared [`MeterHub`] with the same
//! `elapsed_us` total — and hubbed sessions on the same
//! [`MetricsSnapshot`] — as one serialized clock.
//!
//! The hub counts whole picoseconds, so the charges need not be exact in
//! `f64`: any multiset of them totals the same bits in any order, from any
//! number of threads. The session-level test uses the real cost profile
//! and compares against a serialized oracle that applies the same ops in
//! the same global order.

use moist_bigtable::{Bigtable, MeterHub, Mutation, ReadOptions, RowKey, ScanRange, Timestamp};
use proptest::prelude::*;

/// Deterministic xorshift over `seed` for shuffling.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `charges` in a seeded Fisher–Yates order.
fn shuffled(charges: &[f64], seed: u64) -> Vec<f64> {
    let mut v = charges.to_vec();
    let mut state = seed | 1;
    for i in (1..v.len()).rev() {
        v.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
    }
    v
}

#[derive(Debug, Clone)]
enum Op {
    Put { key: u64, val: u8 },
    Get { key: u64 },
    Scan { limit: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..32, any::<u8>()).prop_map(|(key, val)| Op::Put { key, val }),
        3 => (0u64..32).prop_map(|key| Op::Get { key }),
        1 => (1u8..8).prop_map(|limit| Op::Scan { limit }),
    ]
}

fn apply(s: &mut moist_bigtable::Session, t: &moist_bigtable::Table, op: &Op) {
    match op {
        Op::Put { key, val } => s
            .mutate_row(
                t,
                &RowKey::from_u64(*key),
                &[Mutation::put("mem", "q", Timestamp(0), &[*val][..])],
            )
            .unwrap(),
        Op::Get { key } => {
            s.get_latest(t, &RowKey::from_u64(*key), "mem", "q")
                .unwrap();
        }
        Op::Scan { limit } => {
            s.scan(
                t,
                &ScanRange::all(),
                &ReadOptions::latest_in("mem"),
                Some(*limit as usize),
            )
            .unwrap();
        }
    }
}

fn store_with_table() -> (
    std::sync::Arc<Bigtable>,
    std::sync::Arc<moist_bigtable::Table>,
) {
    let store = Bigtable::new();
    let t = store
        .create_table(
            moist_bigtable::TableSchema::new(
                "t",
                vec![moist_bigtable::ColumnFamily::in_memory("mem", 4)],
            )
            .unwrap(),
        )
        .unwrap();
    (store, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One multiset of positive charges, applied in two shuffled orders
    /// and each split across two threads, gives bit-identical totals.
    /// Charges of this size are not exact in `f64`, so a hub that summed
    /// floats would read an order-dependent last bit here.
    #[test]
    fn any_order_on_any_threads_gives_the_same_total(
        charges in prop::collection::vec(0.001f64..1000.0, 2..200),
        seeds in (any::<u64>(), any::<u64>()),
    ) {
        let total = |order: Vec<f64>| {
            let hub = MeterHub::new();
            let (left, right) = order.split_at(order.len() / 2);
            std::thread::scope(|scope| {
                scope.spawn(|| left.iter().for_each(|&c| hub.charge_us(c)));
                right.iter().for_each(|&c| hub.charge_us(c));
            });
            hub.elapsed_us().to_bits()
        };
        prop_assert_eq!(
            total(shuffled(&charges, seeds.0)),
            total(shuffled(&charges, seeds.1))
        );
    }

    /// Hubbed sessions: two sessions sharing one hub, fed an arbitrary
    /// interleaving of store ops, reach the same `MetricsSnapshot` and
    /// the same hub `elapsed_us` bits as one serialized session applying
    /// the identical global op order.
    #[test]
    fn hubbed_sessions_match_serialized_metrics(
        schedule in prop::collection::vec((any::<bool>(), op_strategy()), 1..60),
    ) {
        use std::sync::Arc;
        // Interleaved: two hub-attached sessions over one store.
        let (store_a, table_a) = store_with_table();
        let hub_a = Arc::new(MeterHub::new());
        let mut s1 = store_a.session_with_hub(Arc::clone(&hub_a));
        let mut s2 = store_a.session_with_hub(Arc::clone(&hub_a));
        for (first, op) in &schedule {
            let s = if *first { &mut s1 } else { &mut s2 };
            apply(s, &table_a, op);
        }

        // Serialized oracle: one session, same global order.
        let (store_b, table_b) = store_with_table();
        let hub_b = Arc::new(MeterHub::new());
        let mut solo = store_b.session_with_hub(Arc::clone(&hub_b));
        for (_, op) in &schedule {
            apply(&mut solo, &table_b, op);
        }

        prop_assert_eq!(store_a.metrics_snapshot(), store_b.metrics_snapshot());
        prop_assert_eq!(hub_a.elapsed_us().to_bits(), hub_b.elapsed_us().to_bits());
    }
}
