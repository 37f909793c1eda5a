//! Failure injection: corrupted stored values, schema drift and hostile
//! inputs must surface as typed errors, never panics, and must not corrupt
//! unrelated state.

use moist_bigtable::{Bigtable, CostProfile, Mutation, RowKey, Timestamp};
use moist_core::{
    apply_update, nn_query, MoistConfig, MoistError, MoistTables, NnOptions, ObjectId,
    UpdateMessage,
};
use moist_spatial::{Point, Velocity};
use std::sync::Arc;

fn setup() -> (
    Arc<Bigtable>,
    MoistTables,
    moist_bigtable::Session,
    MoistConfig,
) {
    let store = Bigtable::new();
    let cfg = MoistConfig::default();
    let tables = MoistTables::create(&store, &cfg).unwrap();
    let session = store.session_with(CostProfile::free());
    (store, tables, session, cfg)
}

fn msg(oid: u64, x: f64, y: f64) -> UpdateMessage {
    UpdateMessage {
        oid: ObjectId(oid),
        loc: Point::new(x, y),
        vel: Velocity::new(1.0, 0.0),
        ts: Timestamp::from_secs(1),
    }
}

#[test]
fn corrupted_lf_record_is_a_codec_error_not_a_panic() {
    let (_store, tables, mut s, cfg) = setup();
    apply_update(&mut s, &tables, &cfg, &msg(1, 100.0, 100.0)).unwrap();
    // Corrupt object 1's L/F record with garbage bytes.
    tables
        .affiliation
        .mutate_row(
            &RowKey::from_u64(1),
            &[Mutation::put(
                "lf",
                "lf",
                Timestamp::from_secs(2),
                vec![0xFF, 0x00, 0x13],
            )],
        )
        .unwrap();
    let err = apply_update(&mut s, &tables, &cfg, &msg(1, 101.0, 100.0)).unwrap_err();
    assert!(matches!(err, MoistError::Codec(_)), "got {err:?}");
    // Other objects keep working.
    apply_update(&mut s, &tables, &cfg, &msg(2, 200.0, 200.0)).unwrap();
}

#[test]
fn corrupted_spatial_record_fails_queries_cleanly() {
    let (_store, tables, mut s, cfg) = setup();
    apply_update(&mut s, &tables, &cfg, &msg(1, 100.0, 100.0)).unwrap();
    // Overwrite the spatial row's record with a short buffer.
    let leaf = cfg.space.leaf_cell(&Point::new(100.0, 100.0)).index;
    tables
        .spatial
        .mutate_row(
            &RowKey::composite(leaf, 1),
            &[Mutation::put(
                "id",
                "r",
                Timestamp::from_secs(2),
                vec![1, 2, 3],
            )],
        )
        .unwrap();
    let err = nn_query(
        &mut s,
        &tables,
        &cfg,
        Point::new(100.0, 100.0),
        Timestamp::from_secs(2),
        4,
        &NnOptions::new(1),
    )
    .unwrap_err();
    assert!(matches!(err, MoistError::Codec(_)));
}

#[test]
fn corrupted_follower_displacement_is_detected() {
    let (_store, tables, mut s, cfg) = setup();
    apply_update(&mut s, &tables, &cfg, &msg(1, 100.0, 100.0)).unwrap();
    // Plant a malformed Follower Info column on the leader's row.
    tables
        .affiliation
        .mutate_row(
            &RowKey::from_u64(1),
            &[Mutation::put(
                "followers",
                "00000000000000ff",
                Timestamp::from_secs(2),
                vec![9u8; 5], // too short for a displacement
            )],
        )
        .unwrap();
    let err = tables.followers(&mut s, ObjectId(1)).unwrap_err();
    assert!(matches!(err, MoistError::Codec(_)));
}

#[test]
fn malformed_follower_qualifier_is_detected() {
    let (_store, tables, mut s, cfg) = setup();
    apply_update(&mut s, &tables, &cfg, &msg(1, 100.0, 100.0)).unwrap();
    tables
        .affiliation
        .mutate_row(
            &RowKey::from_u64(1),
            &[Mutation::put(
                "followers",
                "not-hex!",
                Timestamp::from_secs(2),
                moist_core::codec::encode_displacement(moist_spatial::Displacement::ZERO).to_vec(),
            )],
        )
        .unwrap();
    let err = tables.followers(&mut s, ObjectId(1)).unwrap_err();
    assert!(matches!(err, MoistError::Codec(_)));
}

#[test]
fn non_finite_inputs_rejected_everywhere() {
    let (_store, tables, mut s, cfg) = setup();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let m = UpdateMessage {
            oid: ObjectId(1),
            loc: Point::new(bad, 0.0),
            vel: Velocity::ZERO,
            ts: Timestamp::from_secs(1),
        };
        assert!(apply_update(&mut s, &tables, &cfg, &m).is_err());
        let m = UpdateMessage {
            oid: ObjectId(1),
            loc: Point::new(0.0, 0.0),
            vel: Velocity::new(0.0, bad),
            ts: Timestamp::from_secs(1),
        };
        assert!(apply_update(&mut s, &tables, &cfg, &m).is_err());
    }
    // Nothing was registered by the rejected updates.
    assert!(tables.lf(&mut s, ObjectId(1)).unwrap().is_none());
}

#[test]
fn far_out_of_bounds_locations_are_clamped_not_lost() {
    let (_store, tables, mut s, cfg) = setup();
    // GPS glitches far outside the map still index (clamped to the border).
    apply_update(&mut s, &tables, &cfg, &msg(1, -5000.0, 90210.0)).unwrap();
    let (nn, _) = nn_query(
        &mut s,
        &tables,
        &cfg,
        Point::new(0.0, 1000.0),
        Timestamp::from_secs(1),
        4,
        &NnOptions::new(1),
    )
    .unwrap();
    assert_eq!(nn.len(), 1);
    assert_eq!(nn[0].oid, ObjectId(1));
}

#[test]
fn dropped_table_surfaces_as_store_error() {
    let (store, tables, mut s, cfg) = setup();
    apply_update(&mut s, &tables, &cfg, &msg(1, 100.0, 100.0)).unwrap();
    store.drop_table(moist_core::table_names::LOCATION).unwrap();
    // Existing handles still work (the Arc keeps the data)…
    apply_update(&mut s, &tables, &cfg, &msg(1, 101.0, 100.0)).unwrap();
    // …but re-opening fails loudly.
    match MoistTables::open(&store) {
        Err(MoistError::Store(_)) => {}
        Err(other) => panic!("wrong error kind: {other}"),
        Ok(_) => panic!("open must fail after drop"),
    }
}
