//! Property tests over the temporal store: UC invariants must survive any
//! interleaving of location updates, packings, sales, and queries.

use proptest::prelude::*;
use rfid_epc::{Epc, Gid96};
use rfid_events::Timestamp;
use rfid_store::{Cond, CondOp, Database, Filter, Value};

fn epc(n: u64) -> Epc {
    Gid96::new(1, 1, n).unwrap().into()
}

#[derive(Debug, Clone)]
enum Op {
    MoveTo { object: u64, loc: u8 },
    Pack { case: u64, item: u64 },
    Unpack { item: u64 },
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..6, 0u8..4).prop_map(|(object, loc)| Op::MoveTo { object, loc }),
            (100u64..104, 0u64..6).prop_map(|(case, item)| Op::Pack { case, item }),
            (0u64..6).prop_map(|item| Op::Unpack { item }),
        ],
        0..60,
    )
}

proptest! {
    /// After any op sequence: at most one open (UC) location row per
    /// object, at most one open containment per item, and the snapshot
    /// queries agree with a naive replay.
    #[test]
    fn uc_invariants_hold(ops in ops_strategy()) {
        let mut db = Database::rfid();
        let mut naive_loc = std::collections::HashMap::<u64, u8>::new();
        let mut naive_parent = std::collections::HashMap::<u64, Option<u64>>::new();
        for (i, op) in ops.iter().enumerate() {
            let t = Timestamp::from_secs(i as u64 + 1);
            match *op {
                Op::MoveTo { object, loc } => {
                    db.record_location(epc(object), &format!("loc{loc}"), t).unwrap();
                    naive_loc.insert(object, loc);
                }
                Op::Pack { case, item } => {
                    db.record_containment(epc(case), &[epc(item)], t).unwrap();
                    naive_parent.insert(item, Some(case));
                }
                Op::Unpack { item } => {
                    db.end_containment(epc(item), t).unwrap();
                    naive_parent.insert(item, None);
                }
            }
        }
        let now = Timestamp::from_secs(ops.len() as u64 + 10);

        // One open row per object, tops.
        for object in 0u64..6 {
            let open = db
                .table("OBJECTLOCATION").unwrap()
                .count(
                    &Filter::on(Cond::eq("object_epc", epc(object)))
                        .and(Cond::new("tend", CondOp::Eq, Value::Uc)),
                )
                .unwrap();
            prop_assert!(open <= 1, "object {object} has {open} open location rows");
            let expected = naive_loc.get(&object).map(|l| format!("loc{l}"));
            prop_assert_eq!(db.current_location(epc(object)).unwrap(), expected);
            prop_assert_eq!(db.location_at(epc(object), now).unwrap(),
                            naive_loc.get(&object).map(|l| format!("loc{l}")));

            let open_containments = db
                .table("OBJECTCONTAINMENT").unwrap()
                .count(
                    &Filter::on(Cond::eq("object_epc", epc(object)))
                        .and(Cond::new("tend", CondOp::Eq, Value::Uc)),
                )
                .unwrap();
            prop_assert!(open_containments <= 1);
            let expected_parent = naive_parent.get(&object).copied().flatten().map(epc);
            prop_assert_eq!(db.parent_at(epc(object), now).unwrap(), expected_parent);
        }
    }

    /// Location history periods tile the timeline: consecutive rows abut,
    /// only the last is open.
    #[test]
    fn history_periods_tile(moves in prop::collection::vec(0u8..5, 1..20)) {
        let mut db = Database::rfid();
        for (i, loc) in moves.iter().enumerate() {
            db.record_location(epc(1), &format!("loc{loc}"), Timestamp::from_secs(i as u64))
                .unwrap();
        }
        let history = db.location_history(epc(1)).unwrap();
        prop_assert_eq!(history.len(), moves.len());
        for w in history.windows(2) {
            prop_assert_eq!(w[0].period.to, Some(w[1].period.from), "gap in the timeline");
        }
        prop_assert_eq!(history.last().unwrap().period.to, None, "latest row open");
    }

    /// select/count/delete agree with each other on random filters.
    #[test]
    fn select_count_delete_agree(rows in prop::collection::vec((0u64..5, 0u8..3), 0..40),
                                 probe in 0u64..5) {
        let mut db = Database::rfid();
        for (i, &(object, loc)) in rows.iter().enumerate() {
            db.table_mut("OBJECTLOCATION").unwrap().insert(vec![
                Value::Epc(epc(object)),
                Value::str(format!("loc{loc}")),
                Value::Time(Timestamp::from_secs(i as u64)),
                Value::Uc,
            ]).unwrap();
        }
        let filter = Filter::on(Cond::eq("object_epc", epc(probe)));
        let table = db.table_mut("OBJECTLOCATION").unwrap();
        let selected = table.select(&filter).unwrap().len();
        prop_assert_eq!(selected, table.count(&filter).unwrap());
        let deleted = table.delete(&filter).unwrap();
        prop_assert_eq!(deleted, selected);
        prop_assert_eq!(table.count(&filter).unwrap(), 0);
        prop_assert_eq!(table.len(), rows.len() - deleted);
    }
}

/// One step of the index workload: the `a`/`b` columns are indexed, `c`
/// is not.
#[derive(Debug, Clone)]
enum IndexOp {
    Insert(i64, u8, i64),
    /// `UPDATE SET <col> = v WHERE <where_col> = w AND c >= floor`.
    Update {
        col: usize,
        value: i64,
        where_col: usize,
        where_value: i64,
        floor: i64,
    },
    /// `DELETE WHERE <where_col> = w`.
    Delete {
        where_col: usize,
        where_value: i64,
    },
}

fn index_ops() -> impl Strategy<Value = Vec<IndexOp>> {
    prop::collection::vec(
        prop_oneof![
            (0i64..6, 0u8..4, 0i64..10).prop_map(|(a, b, c)| IndexOp::Insert(a, b, c)),
            (0usize..3, 0i64..6, 0usize..3, 0i64..6, 0i64..10).prop_map(
                |(col, value, where_col, where_value, floor)| IndexOp::Update {
                    col,
                    value,
                    where_col,
                    where_value,
                    floor,
                }
            ),
            (0usize..3, 0i64..6).prop_map(|(where_col, where_value)| IndexOp::Delete {
                where_col,
                where_value,
            }),
        ],
        0..80,
    )
}

const INDEX_COLS: [&str; 3] = ["a", "b", "c"];

/// The cell value `v` takes in column `col` (`b` holds strings).
fn cell(col: usize, v: i64) -> Value {
    if col == 1 {
        Value::str(format!("s{v}"))
    } else {
        Value::Int(v)
    }
}

proptest! {
    /// Random inserts, updates, and deletes on a table with two equality
    /// indexes: every indexed-equality `select`/`count` equals a full scan
    /// of a reference model, rows come back in ascending row-id order, and
    /// no index key is left with an empty posting list.
    #[test]
    fn indexed_lookups_match_a_full_scan(ops in index_ops()) {
        use rfid_store::{ColumnType, Schema, Table};
        let mut table = Table::new(Schema::new(&[
            ("a", ColumnType::Int),
            ("b", ColumnType::Str),
            ("c", ColumnType::Int),
        ]));
        table.create_index("a").unwrap();
        table.create_index("b").unwrap();
        // Reference: every row ever inserted, `None` once deleted.
        let mut model: Vec<Option<Vec<Value>>> = Vec::new();
        for op in &ops {
            match *op {
                IndexOp::Insert(a, b, c) => {
                    let row = vec![Value::Int(a), cell(1, i64::from(b)), Value::Int(c)];
                    table.insert(row.clone()).unwrap();
                    model.push(Some(row));
                }
                IndexOp::Update { col, value, where_col, where_value, floor } => {
                    let filter = Filter::on(Cond::eq(INDEX_COLS[where_col], cell(where_col, where_value)))
                        .and(Cond::new("c", CondOp::Ge, floor));
                    let n = table
                        .update(&filter, &[(INDEX_COLS[col].to_owned(), cell(col, value))])
                        .unwrap();
                    let mut expected = 0;
                    for row in model.iter_mut().flatten() {
                        if row[where_col] == cell(where_col, where_value) && row[2].compare(&Value::Int(floor)) != Some(std::cmp::Ordering::Less) {
                            row[col] = cell(col, value);
                            expected += 1;
                        }
                    }
                    prop_assert_eq!(n, expected);
                }
                IndexOp::Delete { where_col, where_value } => {
                    let filter = Filter::on(Cond::eq(INDEX_COLS[where_col], cell(where_col, where_value)));
                    let n = table.delete(&filter).unwrap();
                    let mut expected = 0;
                    for slot in &mut model {
                        if slot.as_ref().is_some_and(|row| row[where_col] == cell(where_col, where_value)) {
                            *slot = None;
                            expected += 1;
                        }
                    }
                    prop_assert_eq!(n, expected);
                }
            }
            table.verify_indexes().unwrap();
        }
        for col in 0..2 {
            for v in 0..6 {
                let key = cell(col, v);
                let expected: Vec<Vec<Value>> = model
                    .iter()
                    .flatten()
                    .filter(|row| row[col] == key)
                    .cloned()
                    .collect();
                let filter = Filter::on(Cond::eq(INDEX_COLS[col], key.clone()));
                prop_assert_eq!(&table.select(&filter).unwrap(), &expected);
                prop_assert_eq!(table.count(&filter).unwrap(), expected.len());
                let narrowed = filter.and(Cond::new("c", CondOp::Lt, 5i64));
                let expected_narrowed = expected.iter().filter(|row| row[2].compare(&Value::Int(5)) == Some(std::cmp::Ordering::Less)).count();
                prop_assert_eq!(table.count(&narrowed).unwrap(), expected_narrowed);
                let keys = table.index_key_count(INDEX_COLS[col]).unwrap();
                let live_keys: std::collections::HashSet<&Value> =
                    model.iter().flatten().map(|row| &row[col]).collect();
                prop_assert_eq!(keys, live_keys.len());
            }
        }
        let scanned: Vec<&Vec<Value>> = table.iter().collect();
        let expected: Vec<&Vec<Value>> = model.iter().flatten().collect();
        prop_assert_eq!(scanned, expected);
    }
}
