//! Property-based tests for the Bx-tree comparator: range and kNN queries
//! against a brute-force oracle.

use moist_baselines::{BxConfig, BxTree};
use moist_bigtable::{Bigtable, CostProfile, Timestamp};
use moist_spatial::{Point, Rect, Space, Velocity};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Obj {
    oid: u64,
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
}

fn objects(n: usize) -> impl Strategy<Value = Vec<Obj>> {
    prop::collection::vec(
        (0.0f64..1000.0, 0.0f64..1000.0, -2.0f64..2.0, -2.0f64..2.0),
        1..n,
    )
    .prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (x, y, vx, vy))| Obj {
                oid: i as u64,
                x,
                y,
                vx,
                vy,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bx-tree range queries are a superset-free match of the oracle:
    /// exactly the objects whose extrapolated position lies in the rect.
    #[test]
    fn bxtree_range_matches_oracle(
        objs in objects(60),
        rx in 0.0f64..800.0,
        ry in 0.0f64..800.0,
        side in 20.0f64..300.0,
        query_dt in 0.0f64..30.0,
    ) {
        let store = Bigtable::new();
        let mut tree = BxTree::new(
            &store,
            Space::paper_map(),
            BxConfig { v_max: 3.0, ..BxConfig::default() },
            "bx",
        )
        .unwrap();
        let mut s = store.session_with(CostProfile::free());
        let t0 = Timestamp::from_secs(1);
        for o in &objs {
            tree.update(&mut s, o.oid, &Point::new(o.x, o.y), &Velocity::new(o.vx, o.vy), t0)
                .unwrap();
        }
        let at = t0.plus_secs(query_dt);
        let rect = Rect::new(rx, ry, rx + side, ry + side);
        let got = tree.range_query(&mut s, &rect, at).unwrap();
        let mut got_ids: Vec<u64> = got.iter().map(|e| e.oid).collect();
        got_ids.sort_unstable();
        // Timestamp quantisation (whole µs) can flip membership for objects
        // within ~v·1e-6 of the rect border; treat those as "either way".
        let eps = 1e-4;
        let inner = Rect::new(rect.min_x + eps, rect.min_y + eps, rect.max_x - eps, rect.max_y - eps);
        let outer = Rect::new(rect.min_x - eps, rect.min_y - eps, rect.max_x + eps, rect.max_y + eps);
        for o in &objs {
            let p = Point::new(o.x + o.vx * query_dt, o.y + o.vy * query_dt);
            if inner.contains(&p) {
                prop_assert!(got_ids.contains(&o.oid), "missing object {}", o.oid);
            } else if !outer.contains(&p) {
                prop_assert!(!got_ids.contains(&o.oid), "spurious object {}", o.oid);
            }
        }
    }

    /// Bx-tree kNN equals brute force at any query time within the phase.
    #[test]
    fn bxtree_knn_matches_oracle(
        objs in objects(80),
        qx in 0.0f64..1000.0,
        qy in 0.0f64..1000.0,
        k in 1usize..8,
        query_dt in 0.0f64..20.0,
    ) {
        let store = Bigtable::new();
        let mut tree = BxTree::new(
            &store,
            Space::paper_map(),
            BxConfig { v_max: 3.0, ..BxConfig::default() },
            "bx",
        )
        .unwrap();
        let mut s = store.session_with(CostProfile::free());
        let t0 = Timestamp::from_secs(1);
        for o in &objs {
            tree.update(&mut s, o.oid, &Point::new(o.x, o.y), &Velocity::new(o.vx, o.vy), t0)
                .unwrap();
        }
        let at = t0.plus_secs(query_dt);
        let center = Point::new(qx, qy);
        let got = tree.knn(&mut s, center, k, at).unwrap();
        let mut brute: Vec<(f64, u64)> = objs
            .iter()
            .map(|o| {
                let p = Point::new(o.x + o.vx * query_dt, o.y + o.vy * query_dt);
                (center.distance(&p), o.oid)
            })
            .collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0));
        let kk = k.min(objs.len());
        prop_assert_eq!(got.len(), kk);
        for (g, w) in got.iter().zip(brute.iter()) {
            // Timestamps quantise to whole microseconds, so extrapolated
            // positions can differ from the f64 oracle by ~v·1e-6 s.
            prop_assert!(
                (center.distance(&g.loc) - w.0).abs() < 1e-4,
                "kNN distance mismatch: {} vs {}",
                center.distance(&g.loc),
                w.0
            );
        }
    }
}
