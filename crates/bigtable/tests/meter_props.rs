//! Property tests for per-call cost mirroring: any interleaving of
//! query/update charges lands on the shared [`MeterHub`] with the same
//! `elapsed_us` total — and hubbed sessions on the same
//! [`MetricsSnapshot`] — as one serialized clock.
//!
//! The per-charge tests use *dyadic* charges (multiples of 2⁻¹⁰ with
//! bounded magnitude) so every partial `f64` sum is exact and the
//! equality can be bitwise, not approximate. The session-level test uses
//! the real cost profile but compares against a serialized oracle that
//! applies the same ops in the same global order, which the hub's
//! per-op mirroring reproduces exactly.

use moist_bigtable::{Bigtable, MeterHub, Mutation, ReadOptions, RowKey, ScanRange, Timestamp};
use proptest::prelude::*;

/// Dyadic charge in [0, 64): k·2⁻¹⁰, exact under f64 addition.
fn dyadic() -> impl Strategy<Value = f64> {
    (0u32..1 << 16).prop_map(|k| k as f64 / 1024.0)
}

/// Deterministic xorshift over `seed` for picking interleavings.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
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

    /// Per-op mirroring (what hubbed sessions do): charges from many
    /// calls, interleaved in an arbitrary order, land on the hub with
    /// the exact totals of one serialized clock — bitwise.
    #[test]
    fn per_op_folding_is_lossless(
        calls in prop::collection::vec(prop::collection::vec(dyadic(), 1..12), 1..12),
        seed in any::<u64>(),
    ) {
        // Serialized oracle: one plain f64 sum, in call order.
        let clock: f64 = calls.iter().flatten().fold(0.0, |sum, &c| sum + c);

        // Interleaved run: each call keeps its own f64 sum; every charge
        // is mirrored into the hub at an arbitrary point in the schedule.
        let hub = MeterHub::new();
        let mut own = vec![0.0f64; calls.len()];
        let mut cursors = vec![0usize; calls.len()];
        let mut remaining: usize = calls.iter().map(|c| c.len()).sum();
        let mut state = seed | 1;
        while remaining > 0 {
            let mut pick = (next(&mut state) as usize) % calls.len();
            while cursors[pick] >= calls[pick].len() {
                pick = (pick + 1) % calls.len();
            }
            let c = calls[pick][cursors[pick]];
            own[pick] += c;
            hub.charge_us(c);
            cursors[pick] += 1;
            remaining -= 1;
        }
        prop_assert_eq!(hub.elapsed_us().to_bits(), clock.to_bits());
        // And each per-call sum holds exactly its own call's charges.
        for (own, call) in own.iter().zip(&calls) {
            let alone: f64 = call.iter().fold(0.0, |sum, &c| sum + c);
            prop_assert_eq!(own.to_bits(), alone.to_bits());
        }
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
