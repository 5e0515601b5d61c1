//! Property suite for source-delta application: inserting rows and then
//! deleting the same rows is an identity on the table (content, key index,
//! columnar image, size accounting). The splice memo property lives in its
//! own test binary (`splice_memo.rs`) because it reads the process-wide
//! `payload_scans()` counter.

use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::{Catalog, Database, Relation, Row, SourceDelta, Table, TableSchema, Value};

fn random_row(rng: &mut StdRng, i: usize) -> Row {
    vec![
        Value::str(format!("k{i:04}")),
        Value::str(format!("v{}", rng.gen_range(0..9u32))),
        if rng.gen_bool(0.3) {
            Value::Null
        } else {
            Value::str(format!("d{}", rng.gen_range(0..4u32)))
        },
    ]
}

fn random_catalog(rng: &mut StdRng, rows: usize) -> Catalog {
    let mut c = Catalog::new();
    let mut db = Database::new("DB1");
    let mut keyed = Table::new(TableSchema::strings("keyed", &["id", "v", "d"], &["id"]));
    let mut bag = Table::new(TableSchema::strings("bag", &["id", "v", "d"], &[]));
    for i in 0..rows {
        keyed.insert(random_row(rng, i)).unwrap();
        let j = rng.gen_range(0..20usize);
        let r = random_row(rng, j);
        bag.insert(r.clone()).unwrap();
        if rng.gen_bool(0.3) {
            bag.insert(r).unwrap(); // duplicates: delete must pick one
        }
    }
    db.add_table(keyed).unwrap();
    db.add_table(bag).unwrap();
    c.add_source(db).unwrap();
    c
}

fn snapshot(c: &Catalog, table: &str) -> (Vec<Row>, usize, usize) {
    let t = c.table("DB1", table).unwrap();
    let rel = t.columnar();
    (t.rows().to_vec(), rel.byte_size(), rel.wire_bytes())
}

#[test]
fn insert_then_delete_of_same_rows_is_identity() {
    let mut rng = StdRng::seed_from_u64(0xde17_a001);
    for case in 0..30 {
        let rows = rng.gen_range(1..40usize);
        let mut c = random_catalog(&mut rng, rows);
        let before_keyed = snapshot(&c, "keyed");
        let before_bag = snapshot(&c, "bag");
        let fp = c.schema_fingerprint();

        let fresh: Vec<Row> = (0..rng.gen_range(1..10usize))
            .map(|i| random_row(&mut rng, 1000 + i))
            .collect();
        // One delta carrying both directions: inserts apply first.
        let both = SourceDelta::new()
            .insert("DB1", "keyed", fresh.clone())
            .insert("DB1", "bag", fresh.clone())
            .delete("DB1", "keyed", fresh.clone())
            .delete("DB1", "bag", fresh.clone());
        let applied = c.apply_delta(&both).unwrap();
        assert_eq!(applied.inserted, 2 * fresh.len(), "case {case}");
        assert_eq!(applied.deleted, 2 * fresh.len(), "case {case}");

        for (table, before) in [("keyed", &before_keyed), ("bag", &before_bag)] {
            let after = snapshot(&c, table);
            assert_eq!(after.0, before.0, "case {case}: {table} rows");
            assert_eq!(after.1, before.1, "case {case}: {table} byte_size");
            assert_eq!(after.2, before.2, "case {case}: {table} wire_bytes");
        }
        assert_eq!(fp, c.schema_fingerprint(), "case {case}: schema untouched");
        // The key index survived the round trip.
        let t = c.table("DB1", "keyed").unwrap();
        for row in t.rows() {
            assert_eq!(
                t.get_by_key(&[row[0].clone()]).unwrap(),
                row,
                "case {case}: pk lookup"
            );
        }
    }
}

#[test]
fn delete_removes_last_duplicate_so_round_trips_compose() {
    // [a, b, a] + insert(a) → [a, b, a, a]; deleting `a` must drop the
    // *last* occurrence to restore [a, b, a] exactly (positions included).
    let mut t = Table::new(TableSchema::strings("dup", &["x"], &[]));
    for v in ["a", "b", "a"] {
        t.insert(vec![Value::str(v)]).unwrap();
    }
    t.insert(vec![Value::str("a")]).unwrap();
    t.delete(&[Value::str("a")]).unwrap();
    let got: Vec<&str> = t.rows().iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(got, vec!["a", "b", "a"]);
}

#[test]
fn splice_rejects_mismatched_columns() {
    let rel = Relation::empty(vec!["a".into()]);
    let other = Relation::empty(vec!["b".into()]);
    assert!(rel.splice(0, 0, &other).is_err());
}
