//! Property-based tests of MOIST's core invariants, driven by arbitrary
//! update/cluster/query interleavings checked against a naive in-memory
//! oracle.
//!
//! The invariants (derived from §3.1–3.4):
//!
//! 1. **Role partition** — after any operation sequence, every seen object
//!    is exactly one of leader / follower; every follower's leader is a
//!    leader; every follower appears in its leader's Follower Info and in
//!    nobody else's.
//! 2. **Spatial index = leaders** — the Spatial Index Table holds exactly
//!    the leaders, each under the leaf cell of its last accepted location.
//! 3. **ε-bound** — a follower's served position never deviates from its
//!    last *reported* position by more than ε plus the leader's movement
//!    since (the school contract).
//! 4. **NN exactness over leaders** — leaders-only NN results equal brute
//!    force over the oracle's leader positions.

use moist_bigtable::{Bigtable, CostProfile, Session, Timestamp};
use moist_core::{
    apply_update, cluster_sweep, nn_query, LfRecord, MoistConfig, MoistTables, NnOptions, ObjectId,
    UpdateMessage, UpdateOutcome,
};
use moist_spatial::{Point, Velocity};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum Op {
    Update {
        oid: u64,
        x: f64,
        y: f64,
        vx: f64,
        vy: f64,
        dt: f64,
    },
    Cluster,
}

fn op_strategy(objects: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        9 => (
            0..objects,
            0.0f64..1000.0,
            0.0f64..1000.0,
            -2.0f64..2.0,
            -2.0f64..2.0,
            0.1f64..5.0,
        )
            .prop_map(|(oid, x, y, vx, vy, dt)| Op::Update { oid, x, y, vx, vy, dt }),
        1 => Just(Op::Cluster),
    ]
}

struct Harness {
    tables: MoistTables,
    session: Session,
    cfg: MoistConfig,
    now: f64,
    /// Last *reported* (non-shed-or-shed) position per object.
    reported: HashMap<u64, (Point, f64)>,
}

impl Harness {
    fn new() -> Self {
        let store = Bigtable::new();
        let cfg = MoistConfig::default();
        let tables = MoistTables::create(&store, &cfg).unwrap();
        let session = store.session_with(CostProfile::free());
        Harness {
            tables,
            session,
            cfg,
            now: 0.0,
            reported: HashMap::new(),
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Update {
                oid,
                x,
                y,
                vx,
                vy,
                dt,
            } => {
                self.now += dt;
                let msg = UpdateMessage {
                    oid: ObjectId(*oid),
                    loc: Point::new(*x, *y),
                    vel: Velocity::new(*vx, *vy),
                    ts: Timestamp::from_secs_f64(self.now),
                };
                let out = apply_update(&mut self.session, &self.tables, &self.cfg, &msg).unwrap();
                match out {
                    UpdateOutcome::Shed
                    | UpdateOutcome::Registered
                    | UpdateOutcome::LeaderUpdated
                    | UpdateOutcome::Departed { .. } => {
                        self.reported.insert(*oid, (msg.loc, self.now));
                    }
                }
            }
            Op::Cluster => {
                self.now += 1.0;
                cluster_sweep(
                    &mut self.session,
                    &self.tables,
                    &self.cfg,
                    Timestamp::from_secs_f64(self.now),
                )
                .unwrap();
            }
        }
    }

    /// Invariants 1 and 2.
    fn check_structure(&mut self) -> Result<(), TestCaseError> {
        let ids: Vec<ObjectId> = self.reported.keys().map(|&o| ObjectId(o)).collect();
        let mut leaders: HashSet<u64> = HashSet::new();
        let mut followers: HashMap<u64, u64> = HashMap::new();
        for oid in &ids {
            match self.tables.lf(&mut self.session, *oid).unwrap() {
                Some(LfRecord::Leader { .. }) => {
                    leaders.insert(oid.0);
                }
                Some(LfRecord::Follower { leader, .. }) => {
                    followers.insert(oid.0, leader.0);
                }
                None => prop_assert!(false, "object {oid} lost its L/F record"),
            }
        }
        // Every follower's leader is a leader with a matching Follower Info
        // entry.
        for (&f, &l) in &followers {
            prop_assert!(
                leaders.contains(&l),
                "follower {f}'s leader {l} is not a leader"
            );
            let info = self
                .tables
                .followers(&mut self.session, ObjectId(l))
                .unwrap();
            prop_assert!(
                info.iter().any(|(o, _)| o.0 == f),
                "follower {f} missing from leader {l}'s Follower Info"
            );
        }
        // No follower appears in a *different* leader's Follower Info, and
        // leaders' Follower Info only lists actual followers of that leader.
        for &l in &leaders {
            for (o, _) in self
                .tables
                .followers(&mut self.session, ObjectId(l))
                .unwrap()
            {
                // Stale entries for objects that departed are deleted by
                // Algorithm 1 line 10; anything listed must follow l.
                if let Some(&actual) = followers.get(&o.0) {
                    prop_assert_eq!(
                        actual,
                        l,
                        "object listed under leader {} but follows {}",
                        l,
                        actual
                    );
                } else {
                    prop_assert!(
                        !leaders.contains(&o.0),
                        "leader {} listed as follower of {}",
                        o.0,
                        l
                    );
                }
            }
        }
        // Spatial index rows are exactly the leaders.
        let entries = self
            .tables
            .spatial_scan_cell(
                &mut self.session,
                moist_spatial::CellId::ROOT,
                self.cfg.space.leaf_level,
                None,
            )
            .unwrap();
        let indexed: HashSet<u64> = entries.iter().map(|e| e.oid.0).collect();
        prop_assert_eq!(indexed.len(), entries.len(), "duplicate spatial entries");
        prop_assert_eq!(&indexed, &leaders, "spatial index != leader set");
        // Each leader is filed under the leaf of its last accepted location.
        for e in &entries {
            let expected_leaf = self.cfg.space.leaf_cell(&e.record.loc).index;
            prop_assert_eq!(e.leaf_index, expected_leaf, "leader filed in wrong cell");
        }
        Ok(())
    }

    /// Invariant 4: leaders-only NN at an arbitrary level is exact.
    ///
    /// Exactness requires stored positions to be current (Algorithm 2
    /// prunes by *stored* cell distance; the paper's leaders re-file on
    /// every update so staleness is bounded by the update interval). The
    /// static-object property test below drives this with zero velocities;
    /// the moving-object test checks ordering/shape only.
    fn check_nn(&mut self, center: Point, level: u8) -> Result<(), TestCaseError> {
        let entries = self
            .tables
            .spatial_scan_cell(
                &mut self.session,
                moist_spatial::CellId::ROOT,
                self.cfg.space.leaf_level,
                None,
            )
            .unwrap();
        let at = Timestamp::from_secs_f64(self.now);
        let mut brute: Vec<(u64, f64)> = entries
            .iter()
            .map(|e| {
                let pos = e.record.loc.advance(e.record.vel, at.secs_since(e.ts));
                (e.oid.0, center.distance(&pos))
            })
            .collect();
        brute.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let k = 5.min(brute.len());
        let opts = NnOptions {
            include_followers: false,
            ..NnOptions::new(5)
        };
        let (nn, _) = nn_query(
            &mut self.session,
            &self.tables,
            &self.cfg,
            center,
            at,
            level,
            &opts,
        )
        .unwrap();
        prop_assert_eq!(nn.len(), k);
        // Compare distances (id ties can legitimately reorder).
        for (got, want) in nn.iter().zip(brute.iter()) {
            prop_assert!(
                (got.distance - want.1).abs() < 1e-6,
                "NN distance mismatch: {} vs {}",
                got.distance,
                want.1
            );
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn structural_invariants_hold_under_any_interleaving(
        ops in prop::collection::vec(op_strategy(12), 1..60),
        qx in 0.0f64..1000.0,
        qy in 0.0f64..1000.0,
        level in 2u8..8,
    ) {
        let mut h = Harness::new();
        for op in &ops {
            h.apply(op);
        }
        h.check_structure()?;
        // Moving objects: NN must be well-formed (sorted, deduplicated),
        // even though staleness-extrapolation can reorder near-ties.
        let at = Timestamp::from_secs_f64(h.now);
        let (nn, _) = nn_query(
            &mut h.session,
            &h.tables,
            &h.cfg,
            Point::new(qx, qy),
            at,
            level,
            &NnOptions::new(5),
        )
        .unwrap();
        prop_assert!(nn.windows(2).all(|w| w[0].distance <= w[1].distance));
        let mut ids: Vec<u64> = nn.iter().map(|n| n.oid.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), nn.len(), "duplicate neighbours");
    }

    #[test]
    fn nn_is_exact_for_static_objects(
        ops in prop::collection::vec(op_strategy(12), 1..60),
        qx in 0.0f64..1000.0,
        qy in 0.0f64..1000.0,
        level in 2u8..8,
    ) {
        let mut h = Harness::new();
        for op in &ops {
            // Zero the velocities: stored positions stay exact forever.
            match op {
                Op::Update { oid, x, y, dt, .. } => h.apply(&Op::Update {
                    oid: *oid,
                    x: *x,
                    y: *y,
                    vx: 0.0,
                    vy: 0.0,
                    dt: *dt,
                }),
                Op::Cluster => h.apply(op),
            }
        }
        h.check_nn(Point::new(qx, qy), level)?;
    }

    /// The ε contract: while an update is shed, the *served* position stays
    /// within ε of the reported one at the moment of the report.
    #[test]
    fn shed_updates_keep_served_positions_within_epsilon(
        positions in prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 2..8),
    ) {
        let mut h = Harness::new();
        // Two co-located, co-moving objects; cluster them into one school.
        let base = Point::new(positions[0].0, positions[0].1);
        for oid in [1u64, 2] {
            h.apply(&Op::Update {
                oid,
                x: base.x,
                y: base.y + oid as f64, // 1–2 units apart
                vx: 1.0,
                vy: 0.0,
                dt: 0.1,
            });
        }
        h.apply(&Op::Cluster);
        // Follower (whichever of the two it is) reports along the shared
        // trajectory; every shed report must be within ε of the estimate.
        let t0 = h.now;
        for step in 1..=5u64 {
            let dt = 1.0;
            let expected_x = base.x + (h.now + dt - t0) + 1.0; // v=1
            for oid in [1u64, 2] {
                let lf = h.tables.lf(&mut h.session, ObjectId(oid)).unwrap().unwrap();
                if !lf.is_leader() {
                    let msg = UpdateMessage {
                        oid: ObjectId(oid),
                        loc: Point::new(expected_x, base.y + oid as f64),
                        vel: Velocity::new(1.0, 0.0),
                        ts: Timestamp::from_secs_f64(h.now + dt),
                    };
                    let out =
                        apply_update(&mut h.session, &h.tables, &h.cfg, &msg).unwrap();
                    if out == UpdateOutcome::Shed {
                        // Served position = estimate; check ε bound.
                        if let LfRecord::Follower { leader, displacement, .. } = lf {
                            let (lts, lrec) = h
                                .tables
                                .latest_location(&mut h.session, leader)
                                .unwrap()
                                .unwrap();
                            let est = moist_core::estimated_location(
                                &lrec,
                                lts,
                                displacement,
                                msg.ts,
                            );
                            let err = est.distance(&msg.loc);
                            prop_assert!(
                                err <= h.cfg.epsilon + 1e-9,
                                "shed at error {err} > ε {} (step {step})",
                                h.cfg.epsilon
                            );
                        }
                    }
                }
            }
            h.now += dt;
        }
    }
}
