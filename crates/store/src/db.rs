//! The database: named tables, pre-provisioned RFID schemas.
//!
//! The paper's rules write to three standard tables. [`Database::rfid`]
//! creates them with the exact columns used in §3:
//!
//! * `OBSERVATION(reader, object_epc, at)` — filtered sightings (Rule 2);
//! * `OBJECTLOCATION(object_epc, loc_id, tstart, tend)` — location history
//!   with `UC` open periods (Rule 3);
//! * `OBJECTCONTAINMENT(object_epc, parent_epc, tstart, tend)` — containment
//!   history (Rule 4).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::table::{ColumnType, Schema, Table, TableError};

/// A table's position in its [`Database`]: a handle that skips the by-name
/// lookup. Tables are never dropped, so a handle stays valid for the
/// database (and its clones) it came from; [`Database::schema_stamp`]
/// tells when a table behind it was replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(u32);

/// Source of [`Database::schema_stamp`] values, unique process-wide.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A database: a set of named tables.
#[derive(Debug, Clone)]
pub struct Database {
    /// Tables in creation order; a [`TableId`] indexes this.
    tables: Vec<(String, Table)>,
    by_name: HashMap<String, TableId>,
    stamp: u64,
}

/// A database shared across threads (the engine thread writes, application
/// threads read).
pub type SharedDatabase = Arc<RwLock<Database>>;

impl Default for Database {
    fn default() -> Self {
        Self {
            tables: Vec::new(),
            by_name: HashMap::new(),
            stamp: next_stamp(),
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// A database provisioned with the paper's standard RFID tables and
    /// their natural indexes.
    pub fn rfid() -> Self {
        let mut db = Self::new();
        db.create_table(
            "OBSERVATION",
            Schema::new(&[
                ("reader", ColumnType::Str),
                ("object_epc", ColumnType::Epc),
                ("at", ColumnType::Time),
            ]),
        );
        db.create_table(
            "OBJECTLOCATION",
            Schema::new(&[
                ("object_epc", ColumnType::Epc),
                ("loc_id", ColumnType::Str),
                ("tstart", ColumnType::Time),
                ("tend", ColumnType::Time),
            ]),
        );
        db.create_table(
            "OBJECTCONTAINMENT",
            Schema::new(&[
                ("object_epc", ColumnType::Epc),
                ("parent_epc", ColumnType::Epc),
                ("tstart", ColumnType::Time),
                ("tend", ColumnType::Time),
            ]),
        );
        db.table_mut("OBSERVATION")
            .unwrap()
            .create_index("object_epc")
            .unwrap();
        db.table_mut("OBJECTLOCATION")
            .unwrap()
            .create_index("object_epc")
            .unwrap();
        db.table_mut("OBJECTCONTAINMENT")
            .unwrap()
            .create_index("object_epc")
            .unwrap();
        db.table_mut("OBJECTCONTAINMENT")
            .unwrap()
            .create_index("parent_epc")
            .unwrap();
        db
    }

    /// Creates (or replaces) a table. A replaced table keeps its
    /// [`TableId`]; either way the [`Database::schema_stamp`] changes.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> &mut Table {
        self.stamp = next_stamp();
        let id = match self.by_name.get(name) {
            Some(&id) => {
                self.tables[id.0 as usize].1 = Table::new(schema);
                id
            }
            None => {
                let id = TableId(u32::try_from(self.tables.len()).expect("under 2^32 tables"));
                self.tables.push((name.to_owned(), Table::new(schema)));
                self.by_name.insert(name.to_owned(), id);
                id
            }
        };
        &mut self.tables[id.0 as usize].1
    }

    /// Identifies the database's table layout: it changes whenever a table
    /// is created or replaced, and two databases with equal stamps have the
    /// same tables under the same [`TableId`]s with the same schemas. A
    /// caller caching handles and column indexes re-resolves them when the
    /// stamp moves.
    pub fn schema_stamp(&self) -> u64 {
        self.stamp
    }

    /// The handle of a named table.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).copied()
    }

    /// A table by handle.
    pub fn table_at(&self, id: TableId) -> Result<&Table, TableError> {
        self.tables
            .get(id.0 as usize)
            .map(|(_, t)| t)
            .ok_or_else(|| TableError::NoSuchTable(format!("#{}", id.0)))
    }

    /// A mutable table by handle.
    pub fn table_at_mut(&mut self, id: TableId) -> Result<&mut Table, TableError> {
        self.tables
            .get_mut(id.0 as usize)
            .map(|(_, t)| t)
            .ok_or_else(|| TableError::NoSuchTable(format!("#{}", id.0)))
    }

    /// A table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.table_at(self.table_id(name)?).ok()
    }

    /// A mutable table by name.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.table_at_mut(self.table_id(name)?).ok()
    }

    /// A table by name, or an error naming it (for action execution).
    pub fn require(&self, name: &str) -> Result<&Table, TableError> {
        self.table(name)
            .ok_or_else(|| TableError::NoSuchTable(name.to_owned()))
    }

    /// A mutable table by name, or an error naming it.
    pub fn require_mut(&mut self, name: &str) -> Result<&mut Table, TableError> {
        self.table_mut(name)
            .ok_or_else(|| TableError::NoSuchTable(name.to_owned()))
    }

    /// Table names, in creation order.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|(name, _)| name.as_str())
    }

    /// Wraps into a [`SharedDatabase`].
    pub fn into_shared(self) -> SharedDatabase {
        Arc::new(RwLock::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfid_database_has_standard_tables() {
        let db = Database::rfid();
        for name in ["OBSERVATION", "OBJECTLOCATION", "OBJECTCONTAINMENT"] {
            let t = db.table(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(t.is_empty());
        }
        assert_eq!(db.table_names().count(), 3);
    }

    #[test]
    fn require_reports_missing_tables() {
        let mut db = Database::new();
        let err = db.require("NOPE").unwrap_err();
        assert_eq!(err, TableError::NoSuchTable("NOPE".into()));
        assert_eq!(err.to_string(), "no table `NOPE`");
        assert_eq!(
            db.require_mut("NOPE").unwrap_err(),
            TableError::NoSuchTable("NOPE".into())
        );
    }

    #[test]
    fn table_handles_survive_replacement_and_stamp_moves() {
        let mut db = Database::rfid();
        let id = db.table_id("OBJECTLOCATION").unwrap();
        assert!(db.table_at(id).unwrap().schema().col("loc_id").is_some());
        let before = db.schema_stamp();
        assert_eq!(db.clone().schema_stamp(), before, "clones share the layout");
        db.create_table("OBJECTLOCATION", Schema::new(&[("x", ColumnType::Int)]));
        assert_ne!(db.schema_stamp(), before);
        assert_eq!(db.table_id("OBJECTLOCATION"), Some(id));
        assert_eq!(db.table_at(id).unwrap().schema().arity(), 1);
        assert_ne!(
            Database::new().schema_stamp(),
            Database::new().schema_stamp()
        );
    }

    #[test]
    fn by_id_lookup_reports_missing_tables() {
        let mut db = Database::new();
        let other = Database::rfid();
        let id = other.table_id("OBSERVATION").unwrap();
        assert!(matches!(
            db.table_at_mut(id),
            Err(TableError::NoSuchTable(_))
        ));
    }

    #[test]
    fn shared_database_allows_concurrent_reads() {
        let shared = Database::rfid().into_shared();
        let a = shared.read();
        let b = shared.read();
        assert_eq!(a.table_names().count(), b.table_names().count());
    }
}
