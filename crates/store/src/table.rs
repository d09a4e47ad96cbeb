//! Tables: schemas, rows, filters, and hash indexes.
//!
//! Deliberately small — just enough relational machinery for the paper's
//! rule actions (`INSERT`, `BULK INSERT`, `UPDATE … WHERE`, `DELETE … WHERE`,
//! `SELECT`-style scans for conditions) — but with real schema checking and
//! equality indexes so the location/containment tables stay fast as the
//! simulator pushes hundreds of thousands of rows through them.

use std::borrow::Borrow;
use std::fmt;

use crate::hash::FastMap;
use crate::value::Value;

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// EPC identities.
    Epc,
    /// Strings.
    Str,
    /// Signed integers.
    Int,
    /// Timestamps; also accepts `UC` (open period end).
    Time,
}

impl ColumnType {
    fn accepts(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (ColumnType::Epc, Value::Epc(_))
                | (ColumnType::Str, Value::Str(_))
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Time, Value::Time(_) | Value::Uc)
                | (_, Value::Null)
        )
    }
}

/// A table schema: ordered, named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names (a definition bug, not input data).
    pub fn new(columns: &[(&str, ColumnType)]) -> Self {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in columns {
            assert!(seen.insert(*name), "duplicate column `{name}`");
        }
        Self {
            columns: columns.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a named column.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Column names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|(n, _)| n.as_str())
    }

    /// Declared type of the column at `idx`.
    pub fn column_type(&self, idx: usize) -> Option<ColumnType> {
        self.columns.get(idx).map(|(_, t)| *t)
    }

    fn check_row(&self, row: &Row) -> Result<(), TableError> {
        if row.len() != self.arity() {
            return Err(TableError::Arity {
                expected: self.arity(),
                got: row.len(),
            });
        }
        for ((name, ty), v) in self.columns.iter().zip(row) {
            if !ty.accepts(v) {
                return Err(TableError::Type {
                    column: name.clone(),
                    value: v.clone(),
                });
            }
        }
        Ok(())
    }
}

/// A row: one value per schema column.
pub type Row = Vec<Value>;

/// Comparison operator of a filter condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// One condition: `column op value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// Column name.
    pub column: String,
    /// Operator.
    pub op: CondOp,
    /// Right-hand value.
    pub value: Value,
}

impl Cond {
    /// Builds a condition.
    pub fn new(column: &str, op: CondOp, value: impl Into<Value>) -> Self {
        Self {
            column: column.to_owned(),
            op,
            value: value.into(),
        }
    }

    /// Shorthand for equality.
    pub fn eq(column: &str, value: impl Into<Value>) -> Self {
        Self::new(column, CondOp::Eq, value)
    }
}

/// A conjunction of conditions (`WHERE c1 AND c2 AND …`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Filter {
    /// The conjuncts; empty matches every row.
    pub conds: Vec<Cond>,
}

impl Filter {
    /// The always-true filter.
    pub fn all() -> Self {
        Self::default()
    }

    /// A single-condition filter.
    pub fn on(cond: Cond) -> Self {
        Self { conds: vec![cond] }
    }

    /// Adds a conjunct.
    pub fn and(mut self, cond: Cond) -> Self {
        self.conds.push(cond);
        self
    }
}

/// A pre-resolved `WHERE` conjunct: `(column index, op, value)`. The value
/// may be owned or borrowed.
pub type ColCond<V = Value> = (usize, CondOp, V);

/// Errors from table operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// Row width does not match the schema.
    Arity {
        /// Schema arity.
        expected: usize,
        /// Row width.
        got: usize,
    },
    /// A value does not fit its column type.
    Type {
        /// Column name.
        column: String,
        /// Offending value.
        value: Value,
    },
    /// A filter references a column the schema does not have.
    NoSuchColumn(String),
    /// An operation names a table the database does not have.
    NoSuchTable(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Arity { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            Self::Type { column, value } => {
                write!(f, "value {value} does not fit column `{column}`")
            }
            Self::NoSuchColumn(c) => write!(f, "no column `{c}`"),
            Self::NoSuchTable(t) => write!(f, "no table `{t}`"),
        }
    }
}

impl std::error::Error for TableError {}

/// The ids of the rows holding one value of an indexed column, ascending.
/// Most keys of an identity column (`object_epc`) hold exactly one row, so
/// that case is stored inline rather than in a one-element heap `Vec`.
/// Invariant: `Many` always holds at least two ids.
#[derive(Debug, Clone)]
enum Postings {
    One(usize),
    Many(Vec<usize>),
}

impl Postings {
    fn ids(&self) -> &[usize] {
        match self {
            Self::One(id) => std::slice::from_ref(id),
            Self::Many(ids) => ids,
        }
    }

    /// Adds `id`, keeping the list ascending (inserts append, so the common
    /// case is a push).
    fn add(&mut self, id: usize) {
        match self {
            Self::One(x) => {
                let x = *x;
                *self = Self::Many(if x < id { vec![x, id] } else { vec![id, x] });
            }
            Self::Many(ids) => match ids.last() {
                Some(&last) if last < id => ids.push(id),
                _ => {
                    let at = ids.partition_point(|&x| x < id);
                    ids.insert(at, id);
                }
            },
        }
    }

    /// Removes `id`; returns whether no ids are left.
    fn remove(&mut self, id: usize) -> bool {
        match self {
            Self::One(x) => *x == id,
            Self::Many(ids) => {
                if let Ok(at) = ids.binary_search(&id) {
                    ids.remove(at);
                }
                if let [only] = ids[..] {
                    *self = Self::One(only);
                }
                false
            }
        }
    }
}

/// An equality index on one column: value → ids of the live rows holding it.
#[derive(Debug, Clone)]
struct Index {
    col: usize,
    map: FastMap<Value, Postings>,
}

impl Index {
    fn add(&mut self, key: &Value, id: usize) {
        match self.map.get_mut(key) {
            Some(postings) => postings.add(id),
            None => {
                self.map.insert(key.clone(), Postings::One(id));
            }
        }
    }

    /// Removes `id` from `key`'s postings, dropping the key once empty so
    /// the index never outgrows the live rows.
    fn remove(&mut self, key: &Value, id: usize) {
        if let Some(postings) = self.map.get_mut(key) {
            if postings.remove(id) {
                self.map.remove(key);
            }
        }
    }

    fn ids(&self, key: &Value) -> &[usize] {
        self.map.get(key).map_or(&[], Postings::ids)
    }
}

/// A table: schema, row storage, and optional equality indexes.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
    /// Live-row flags (deletes are tombstoned and leave the indexes).
    live: Vec<bool>,
    live_count: usize,
    /// One equality index per indexed column, in creation order.
    indexes: Vec<Index>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
            live: Vec::new(),
            live_count: 0,
            indexes: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Adds an equality index on a column. Indexing an unknown column is an
    /// error; indexing twice is a no-op.
    pub fn create_index(&mut self, column: &str) -> Result<(), TableError> {
        let col = self.col_of(column)?;
        if self.indexes.iter().any(|index| index.col == col) {
            return Ok(());
        }
        let mut index = Index {
            col,
            map: FastMap::default(),
        };
        for (id, row) in self.rows.iter().enumerate() {
            if self.live[id] {
                index.add(&row[col], id);
            }
        }
        self.indexes.push(index);
        Ok(())
    }

    /// Number of distinct keys in the index on `column`, or `None` when the
    /// column has no index.
    pub fn index_key_count(&self, column: &str) -> Option<usize> {
        let col = self.schema.col(column)?;
        self.indexes
            .iter()
            .find(|index| index.col == col)
            .map(|index| index.map.len())
    }

    /// Checks every equality index against a full scan: each live row is
    /// listed exactly once under its current value, lists are ascending,
    /// no list is empty, and nothing else is listed. For tests.
    pub fn verify_indexes(&self) -> Result<(), String> {
        for index in &self.indexes {
            let name = &self.schema.columns[index.col].0;
            let mut listed = 0usize;
            for (key, postings) in &index.map {
                let ids = postings.ids();
                if ids.is_empty() || matches!(postings, Postings::Many(v) if v.len() < 2) {
                    return Err(format!("index `{name}`: key {key} has {} ids", ids.len()));
                }
                if ids.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("index `{name}`: key {key} lists {ids:?}"));
                }
                for &id in ids {
                    if !self.live[id] || self.rows[id][index.col] != *key {
                        return Err(format!("index `{name}`: key {key} lists stale row {id}"));
                    }
                }
                listed += ids.len();
            }
            if listed != self.live_count {
                return Err(format!(
                    "index `{name}` lists {listed} rows, table has {}",
                    self.live_count
                ));
            }
        }
        Ok(())
    }

    /// Inserts a row.
    pub fn insert(&mut self, row: Row) -> Result<(), TableError> {
        self.schema.check_row(&row)?;
        let id = self.rows.len();
        for index in &mut self.indexes {
            index.add(&row[index.col], id);
        }
        self.rows.push(row);
        self.live.push(true);
        self.live_count += 1;
        Ok(())
    }

    fn col_of(&self, column: &str) -> Result<usize, TableError> {
        self.schema
            .col(column)
            .ok_or_else(|| TableError::NoSuchColumn(column.to_owned()))
    }

    /// Resolves a by-name filter to column indexes.
    fn resolve<'f>(&self, filter: &'f Filter) -> Result<Vec<ColCond<&'f Value>>, TableError> {
        filter
            .conds
            .iter()
            .map(|cond| Ok((self.col_of(&cond.column)?, cond.op, &cond.value)))
            .collect()
    }

    /// Checks that `value` may be stored in column `col`.
    fn check_cell(&self, col: usize, value: &Value) -> Result<(), TableError> {
        let (name, ty) = self
            .schema
            .columns
            .get(col)
            .ok_or_else(|| TableError::NoSuchColumn(format!("#{col}")))?;
        if ty.accepts(value) {
            Ok(())
        } else {
            Err(TableError::Type {
                column: name.clone(),
                value: value.clone(),
            })
        }
    }

    /// Row ids matching resolved conjuncts, ascending (insertion order). An
    /// indexed equality conjunct, when there is one, drives the lookup.
    fn matching_ids<V: Borrow<Value>>(
        &self,
        conds: &[ColCond<V>],
    ) -> Result<Vec<usize>, TableError> {
        if let Some((col, ..)) = conds.iter().find(|(col, ..)| *col >= self.schema.arity()) {
            return Err(TableError::NoSuchColumn(format!("#{col}")));
        }
        let check = |id: usize| -> bool {
            self.live[id]
                && conds
                    .iter()
                    .all(|(col, op, value)| cond_holds(&self.rows[id][*col], *op, value.borrow()))
        };
        let driver = conds.iter().find_map(|(col, op, value)| {
            let index = self.indexes.iter().find(|index| index.col == *col)?;
            (*op == CondOp::Eq).then(|| index.ids(value.borrow()))
        });
        Ok(match driver {
            Some(candidates) => candidates.iter().copied().filter(|&id| check(id)).collect(),
            None => (0..self.rows.len()).filter(|&id| check(id)).collect(),
        })
    }

    /// Returns clones of the rows matching a filter, in insertion order.
    pub fn select(&self, filter: &Filter) -> Result<Vec<Row>, TableError> {
        Ok(self
            .matching_ids(&self.resolve(filter)?)?
            .into_iter()
            .map(|id| self.rows[id].clone())
            .collect())
    }

    /// Number of rows matching a filter.
    pub fn count(&self, filter: &Filter) -> Result<usize, TableError> {
        self.count_resolved(&self.resolve(filter)?)
    }

    /// [`Table::count`] over pre-resolved conjuncts.
    pub fn count_resolved<V: Borrow<Value>>(
        &self,
        conds: &[ColCond<V>],
    ) -> Result<usize, TableError> {
        Ok(self.matching_ids(conds)?.len())
    }

    /// Applies `SET column = value` assignments to matching rows. Returns
    /// the number of rows updated.
    pub fn update(
        &mut self,
        filter: &Filter,
        assignments: &[(String, Value)],
    ) -> Result<usize, TableError> {
        let mut sets = Vec::with_capacity(assignments.len());
        for (column, value) in assignments {
            let col = self.col_of(column)?;
            self.check_cell(col, value)?;
            sets.push((col, value));
        }
        let conds = self.resolve(filter)?;
        self.update_resolved(&conds, &sets)
    }

    /// [`Table::update`] over pre-resolved conjuncts and `(column, value)`
    /// assignments. Every assigned value is type-checked against its column
    /// before any row changes.
    pub fn update_resolved<V: Borrow<Value>, W: Borrow<Value>>(
        &mut self,
        conds: &[ColCond<V>],
        sets: &[(usize, W)],
    ) -> Result<usize, TableError> {
        for (col, value) in sets {
            self.check_cell(*col, value.borrow())?;
        }
        let ids = self.matching_ids(conds)?;
        for &id in &ids {
            let row = &mut self.rows[id];
            for (col, value) in sets {
                let value = value.borrow();
                if let Some(index) = self.indexes.iter_mut().find(|index| index.col == *col) {
                    index.remove(&row[*col], id);
                    index.add(value, id);
                }
                row[*col] = value.clone();
            }
        }
        Ok(ids.len())
    }

    /// Deletes matching rows (tombstoning). Returns the number deleted.
    pub fn delete(&mut self, filter: &Filter) -> Result<usize, TableError> {
        let conds = self.resolve(filter)?;
        self.delete_resolved(&conds)
    }

    /// [`Table::delete`] over pre-resolved conjuncts.
    pub fn delete_resolved<V: Borrow<Value>>(
        &mut self,
        conds: &[ColCond<V>],
    ) -> Result<usize, TableError> {
        let ids = self.matching_ids(conds)?;
        for &id in &ids {
            self.live[id] = false;
            self.live_count -= 1;
            for index in &mut self.indexes {
                index.remove(&self.rows[id][index.col], id);
            }
        }
        Ok(ids.len())
    }

    /// Iterates live rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows
            .iter()
            .zip(&self.live)
            .filter(|(_, &l)| l)
            .map(|(r, _)| r)
    }
}

fn cond_holds(cell: &Value, op: CondOp, value: &Value) -> bool {
    use std::cmp::Ordering::*;
    match (op, cell.compare(value)) {
        (CondOp::Eq, Some(Equal)) => true,
        (CondOp::Ne, Some(Less | Greater)) => true,
        // NULL/cross-type inequality: follow SQL and treat as unknown=false,
        // except Ne on genuinely different variants.
        (CondOp::Ne, None) => !matches!((cell, value), (Value::Null, _) | (_, Value::Null)),
        (CondOp::Lt, Some(Less)) => true,
        (CondOp::Le, Some(Less | Equal)) => true,
        (CondOp::Gt, Some(Greater)) => true,
        (CondOp::Ge, Some(Greater | Equal)) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::{Epc, Gid96};
    use rfid_events::Timestamp;

    fn epc(n: u64) -> Epc {
        Gid96::new(1, 1, n).unwrap().into()
    }

    fn location_table() -> Table {
        let mut t = Table::new(Schema::new(&[
            ("object_epc", ColumnType::Epc),
            ("loc_id", ColumnType::Str),
            ("tstart", ColumnType::Time),
            ("tend", ColumnType::Time),
        ]));
        t.create_index("object_epc").unwrap();
        t
    }

    fn row(n: u64, loc: &str, start: u64, end: Option<u64>) -> Row {
        vec![
            Value::Epc(epc(n)),
            Value::str(loc),
            Value::Time(Timestamp::from_secs(start)),
            end.map_or(Value::Uc, |e| Value::Time(Timestamp::from_secs(e))),
        ]
    }

    #[test]
    fn insert_and_select_by_index() {
        let mut t = location_table();
        t.insert(row(1, "warehouse", 0, Some(10))).unwrap();
        t.insert(row(1, "truck", 10, None)).unwrap();
        t.insert(row(2, "warehouse", 5, None)).unwrap();

        let rows = t
            .select(&Filter::on(Cond::eq("object_epc", epc(1))))
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn uc_predicate_selects_open_rows() {
        let mut t = location_table();
        t.insert(row(1, "warehouse", 0, Some(10))).unwrap();
        t.insert(row(1, "truck", 10, None)).unwrap();

        let open = t
            .select(&Filter::on(Cond::eq("object_epc", epc(1))).and(Cond::new(
                "tend",
                CondOp::Eq,
                Value::Uc,
            )))
            .unwrap();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0][1], Value::str("truck"));
    }

    #[test]
    fn update_closes_uc_row_and_maintains_index() {
        let mut t = location_table();
        t.insert(row(1, "warehouse", 0, None)).unwrap();
        let n = t
            .update(
                &Filter::on(Cond::eq("object_epc", epc(1))).and(Cond::new(
                    "tend",
                    CondOp::Eq,
                    Value::Uc,
                )),
                &[("tend".to_owned(), Value::Time(Timestamp::from_secs(7)))],
            )
            .unwrap();
        assert_eq!(n, 1);
        let rows = t
            .select(&Filter::on(Cond::eq("object_epc", epc(1))))
            .unwrap();
        assert_eq!(rows[0][3], Value::Time(Timestamp::from_secs(7)));
    }

    #[test]
    fn delete_tombstones() {
        let mut t = location_table();
        t.insert(row(1, "a", 0, None)).unwrap();
        t.insert(row(2, "b", 0, None)).unwrap();
        let n = t
            .delete(&Filter::on(Cond::eq("object_epc", epc(1))))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.len(), 1);
        assert!(t
            .select(&Filter::on(Cond::eq("object_epc", epc(1))))
            .unwrap()
            .is_empty());
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn range_conditions() {
        let mut t = location_table();
        t.insert(row(1, "a", 0, Some(10))).unwrap();
        t.insert(row(1, "b", 10, Some(20))).unwrap();
        t.insert(row(1, "c", 20, None)).unwrap();
        // Rows whose period covers t=15: tstart <= 15 AND tend > 15.
        let at_15 = t
            .select(
                &Filter::on(Cond::new("tstart", CondOp::Le, Timestamp::from_secs(15)))
                    .and(Cond::new("tend", CondOp::Gt, Timestamp::from_secs(15))),
            )
            .unwrap();
        assert_eq!(at_15.len(), 1);
        assert_eq!(at_15[0][1], Value::str("b"));
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = location_table();
        assert!(matches!(
            t.insert(vec![Value::Int(1)]),
            Err(TableError::Arity {
                expected: 4,
                got: 1
            })
        ));
        assert!(matches!(
            t.insert(vec![Value::Int(1), Value::str("x"), Value::Uc, Value::Uc]),
            Err(TableError::Type { .. })
        ));
        assert!(matches!(
            t.select(&Filter::on(Cond::eq("bogus", 1i64))),
            Err(TableError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn filter_without_index_scans() {
        let mut t = location_table();
        t.insert(row(1, "a", 0, None)).unwrap();
        t.insert(row(2, "a", 0, None)).unwrap();
        let rows = t.select(&Filter::on(Cond::eq("loc_id", "a"))).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn count_matches_select() {
        let mut t = location_table();
        for i in 0..10 {
            t.insert(row(i % 3, "x", i, None)).unwrap();
        }
        let f = Filter::on(Cond::eq("object_epc", epc(0)));
        assert_eq!(t.count(&f).unwrap(), t.select(&f).unwrap().len());
    }

    #[test]
    fn update_churn_does_not_grow_the_index() {
        // Rows hop between 4 locations 1,000 times; an index on `loc_id`
        // must end up with the locations still occupied, not every value
        // it ever held.
        let mut t = location_table();
        t.create_index("loc_id").unwrap();
        for i in 0..8 {
            t.insert(row(i, "loc0", 0, None)).unwrap();
        }
        for step in 0..1_000u64 {
            let serial = step % 8;
            let loc = format!("loc{}", (step / 8 + 1) % 4);
            let n = t
                .update(
                    &Filter::on(Cond::eq("object_epc", epc(serial))),
                    &[("loc_id".to_owned(), Value::str(loc))],
                )
                .unwrap();
            assert_eq!(n, 1);
        }
        let occupied: std::collections::HashSet<_> = t.iter().map(|r| r[1].clone()).collect();
        assert_eq!(t.index_key_count("loc_id"), Some(occupied.len()));
        assert_eq!(t.index_key_count("object_epc"), Some(8));
        t.verify_indexes().unwrap();
        // Moving everything to one value leaves one key.
        t.update(&Filter::all(), &[("loc_id".to_owned(), Value::str("x"))])
            .unwrap();
        assert_eq!(t.index_key_count("loc_id"), Some(1));
        t.verify_indexes().unwrap();
    }

    #[test]
    fn delete_removes_rows_from_indexes() {
        let mut t = location_table();
        for i in 0..6 {
            t.insert(row(i % 2, "a", i, None)).unwrap();
        }
        t.delete(&Filter::on(Cond::eq("object_epc", epc(1))))
            .unwrap();
        assert_eq!(t.index_key_count("object_epc"), Some(1));
        t.verify_indexes().unwrap();
        assert_eq!(t.index_key_count("loc_id"), None, "not indexed");
    }

    #[test]
    fn resolved_calls_match_by_name_calls() {
        let mut t = location_table();
        for i in 0..6 {
            t.insert(row(i % 3, "a", i, None)).unwrap();
        }
        let conds = [
            (0, CondOp::Eq, Value::Epc(epc(1))),
            (2, CondOp::Ge, Value::Time(Timestamp::from_secs(2))),
        ];
        let filter = Filter::on(Cond::eq("object_epc", epc(1))).and(Cond::new(
            "tstart",
            CondOp::Ge,
            Timestamp::from_secs(2),
        ));
        assert_eq!(t.count_resolved(&conds).unwrap(), t.count(&filter).unwrap());
        assert_eq!(
            t.update_resolved(&conds, &[(1, Value::str("b"))]).unwrap(),
            1
        );
        assert_eq!(t.select(&filter).unwrap()[0][1], Value::str("b"));
        assert!(matches!(
            t.update_resolved(&conds, &[(1, Value::Int(3))]),
            Err(TableError::Type { .. })
        ));
        assert!(matches!(
            t.count_resolved(&[(9, CondOp::Eq, Value::Null)]),
            Err(TableError::NoSuchColumn(_))
        ));
        assert_eq!(t.delete_resolved(&conds).unwrap(), 1);
        assert_eq!(t.len(), 5);
        t.verify_indexes().unwrap();
    }

    #[test]
    fn by_name_update_reports_errors_in_declaration_order() {
        let mut t = location_table();
        t.insert(row(1, "a", 0, None)).unwrap();
        // A type error in the first assignment wins over a missing column
        // in the second, and over a missing WHERE column.
        let err = t
            .update(
                &Filter::on(Cond::eq("bogus_where", 1i64)),
                &[
                    ("loc_id".to_owned(), Value::Int(1)),
                    ("bogus_set".to_owned(), Value::Int(1)),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, TableError::Type { .. }), "{err}");
        let err = t
            .update(
                &Filter::on(Cond::eq("bogus_where", 1i64)),
                &[("loc_id".to_owned(), Value::str("b"))],
            )
            .unwrap_err();
        assert_eq!(err, TableError::NoSuchColumn("bogus_where".into()));
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        let _ = Schema::new(&[("a", ColumnType::Int), ("a", ColumnType::Int)]);
    }
}
