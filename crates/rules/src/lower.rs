//! Load-time lowering of a rule's binding and actions (DESIGN.md §18).
//!
//! The interpreter in [`crate::bind`] / [`crate::actions`] re-walks the
//! event AST on every firing, keys each variable by name in a `HashMap`
//! (one more map per bulk row), and resolves tables and columns by name
//! per row. [`LoweredRule`] does that work once, in
//! [`crate::RuleRuntime::load`]:
//!
//! * every variable gets a **scalar slot** (bound outside any aperiodic
//!   sequence) and/or a **bulk column** (bound inside a `SEQ+`/`TSEQ+`
//!   element); a firing writes `Value`s into a [`Frame`] of reused buffers
//!   — the scalar slots plus a flat rows × columns bulk matrix;
//! * value expressions become [`Operand`]s over those slots;
//! * tables become [`TableId`] handles and `SET`/`WHERE` columns become
//!   column indexes, re-resolved whenever the database's
//!   [`Database::schema_stamp`] moves.
//!
//! Behaviour — bound values, the rows written and their order, procedure
//! calls, and every error's text — is the interpreter's, which stays as the
//! differential oracle (`tests/lowered_equivalence.rs`).

use std::collections::HashMap;

use rfid_epc::ReaderId;
use rfid_events::{Catalog, Instance, InstanceKind};
use rfid_store::{Cond, CondOp, Database, Filter, Table, TableError, TableId, Value};

use crate::actions::ActionError;
use crate::ast::{ActionAst, CompareOp, CondAst, EventAst, RuleDecl, Term, ValueExpr, WhereCond};
use crate::bind::{BindError, Bindings};
use crate::cond::eval_cond;
use crate::runtime::{Procedures, RuntimeError};

/// Where an observation pattern writes one of its variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// A literal term: nothing is bound.
    None,
    /// A scalar slot.
    Scalar(usize),
    /// A column of the current (last) bulk row.
    Bulk(usize),
    /// Bound where the interpreter drops the result (see
    /// [`PlusMode::Discard`]).
    Discard,
}

/// Where variables bound at some point of the event AST go (lowering only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Write {
    Scalar,
    Bulk,
    Discard,
}

/// What a `SEQ+`/`TSEQ+` node does with the elements of its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlusMode {
    /// One bulk row per element (an aperiodic outside any element).
    Rows,
    /// Directly inside an element: binding fails, nested aperiodics are
    /// not supported.
    Nested,
    /// Under an `OR` inside an element: the interpreter binds the elements
    /// into a scratch list it then drops, so only shape errors remain.
    Discard,
}

/// The binding program: the alias-free event AST with variables replaced
/// by write targets.
#[derive(Debug)]
enum BindOp {
    Alias(String),
    Obs {
        reader: Target,
        object: Target,
        time: Target,
    },
    /// `NOT`: an absence binds nothing.
    Skip,
    /// `AND`/`SEQ`/`TSEQ`: two constituents, bound left then right.
    Pair(Box<BindOp>, Box<BindOp>),
    /// `OR`: the left branch is tried first; a failed attempt leaves no
    /// bindings behind.
    Or(Box<BindOp>, Box<BindOp>),
    Plus {
        inner: Box<BindOp>,
        mode: PlusMode,
    },
}

/// A variable reference in a value expression: its scalar slot and bulk
/// column, either of which may be absent.
#[derive(Debug)]
struct VarRef {
    name: String,
    scalar: Option<usize>,
    bulk: Option<usize>,
}

/// A lowered value expression.
#[derive(Debug)]
enum Operand {
    Var(VarRef),
    Const(Value),
    Now,
    LocationOf(VarRef),
    GroupOf(VarRef),
    TypeOf(VarRef),
}

/// A table named by an action, with its handle in the current database.
#[derive(Debug)]
struct TableRef {
    name: String,
    id: Option<TableId>,
}

/// A `SET`/`WHERE` column, with its index in the current table schema.
#[derive(Debug)]
struct ColumnRef {
    name: String,
    index: Option<usize>,
}

#[derive(Debug)]
enum LoweredAction {
    Insert {
        table: TableRef,
        values: Vec<Operand>,
    },
    BulkInsert {
        table: TableRef,
        values: Vec<Operand>,
    },
    Update {
        table: TableRef,
        sets: Vec<(ColumnRef, Operand)>,
        wheres: Vec<(ColumnRef, CondOp, Operand)>,
    },
    Delete {
        table: TableRef,
        wheres: Vec<(ColumnRef, CondOp, Operand)>,
    },
    Call {
        name: String,
        args: Vec<Operand>,
    },
}

/// A rule's binding, condition and actions, lowered at load time.
#[derive(Debug)]
pub(crate) struct LoweredRule {
    bind: BindOp,
    scalar_names: Vec<String>,
    bulk_names: Vec<String>,
    /// `None` for `IF true`. Conditions run interpretively over bindings
    /// materialized from the frame.
    cond: Option<CondAst>,
    actions: Vec<LoweredAction>,
}

/// Per-firing scratch, reused across firings: the values one binding
/// produced and the buffers `UPDATE`/`DELETE` evaluate their operands into.
#[derive(Debug, Default)]
pub(crate) struct Frame {
    bound: Bound,
    sets: Vec<(usize, Value)>,
    conds: Vec<(usize, CondOp, Value)>,
}

/// The values of one firing's variables.
#[derive(Debug, Default)]
struct Bound {
    scalar: Vec<Option<Value>>,
    /// Bulk matrix, row-major, `width` cells per row.
    cells: Vec<Option<Value>>,
    width: usize,
    rows: usize,
}

/// Slot allocation during lowering.
#[derive(Default)]
struct Slots {
    scalar: Vec<String>,
    bulk: Vec<String>,
}

impl Slots {
    fn target(&mut self, term: &Term, write: Write) -> Target {
        let Term::Var(name) = term else {
            return Target::None;
        };
        let slot = |names: &mut Vec<String>| {
            names.iter().position(|n| n == name).unwrap_or_else(|| {
                names.push(name.clone());
                names.len() - 1
            })
        };
        match write {
            Write::Scalar => Target::Scalar(slot(&mut self.scalar)),
            Write::Bulk => Target::Bulk(slot(&mut self.bulk)),
            Write::Discard => Target::Discard,
        }
    }

    fn var(&self, name: &str) -> VarRef {
        VarRef {
            name: name.to_owned(),
            scalar: self.scalar.iter().position(|n| n == name),
            bulk: self.bulk.iter().position(|n| n == name),
        }
    }

    fn operand(&self, expr: &ValueExpr) -> Operand {
        match expr {
            ValueExpr::Var(v) => Operand::Var(self.var(v)),
            ValueExpr::Str(s) => Operand::Const(Value::str(s.clone())),
            ValueExpr::Int(i) => Operand::Const(Value::Int(*i)),
            ValueExpr::Uc => Operand::Const(Value::Uc),
            ValueExpr::Now => Operand::Now,
            ValueExpr::LocationOf(v) => Operand::LocationOf(self.var(v)),
            ValueExpr::GroupOf(v) => Operand::GroupOf(self.var(v)),
            ValueExpr::TypeOf(v) => Operand::TypeOf(self.var(v)),
        }
    }

    fn operands(&self, exprs: &[ValueExpr]) -> Vec<Operand> {
        exprs.iter().map(|e| self.operand(e)).collect()
    }

    fn wheres(&self, wheres: &[WhereCond]) -> Vec<(ColumnRef, CondOp, Operand)> {
        wheres
            .iter()
            .map(|w| (column(&w.column), cond_op(w.op), self.operand(&w.value)))
            .collect()
    }
}

fn column(name: &str) -> ColumnRef {
    ColumnRef {
        name: name.to_owned(),
        index: None,
    }
}

fn table(name: &str) -> TableRef {
    TableRef {
        name: name.to_owned(),
        id: None,
    }
}

/// The store operator of a rule-language comparison.
fn cond_op(op: CompareOp) -> CondOp {
    match op {
        CompareOp::Eq => CondOp::Eq,
        CompareOp::Ne => CondOp::Ne,
        CompareOp::Lt => CondOp::Lt,
        CompareOp::Le => CondOp::Le,
        CompareOp::Gt => CondOp::Gt,
        CompareOp::Ge => CondOp::Ge,
    }
}

/// Lowers an event AST. `write` says where variables bound here go and
/// `plus` what an aperiodic met here does.
fn lower_event(ast: &EventAst, write: Write, plus: PlusMode, slots: &mut Slots) -> BindOp {
    match ast {
        EventAst::Alias(name) => BindOp::Alias(name.clone()),
        EventAst::Observation {
            reader,
            object,
            time,
            ..
        } => BindOp::Obs {
            reader: slots.target(reader, write),
            object: slots.target(object, write),
            time: slots.target(time, write),
        },
        EventAst::Within { inner, .. } => lower_event(inner, write, plus, slots),
        EventAst::Not(_) => BindOp::Skip,
        EventAst::And(a, b)
        | EventAst::Seq(a, b)
        | EventAst::TSeq {
            first: a,
            second: b,
            ..
        } => BindOp::Pair(
            Box::new(lower_event(a, write, plus, slots)),
            Box::new(lower_event(b, write, plus, slots)),
        ),
        EventAst::Or(a, b) => {
            // Each branch gets a fresh scratch bulk list, so an aperiodic
            // directly inside an element's OR binds (and is then dropped)
            // instead of failing.
            let plus = match plus {
                PlusMode::Nested => PlusMode::Discard,
                other => other,
            };
            BindOp::Or(
                Box::new(lower_event(a, write, plus, slots)),
                Box::new(lower_event(b, write, plus, slots)),
            )
        }
        EventAst::SeqPlus(inner) | EventAst::TSeqPlus { inner, .. } => {
            let write = if plus == PlusMode::Rows {
                Write::Bulk
            } else {
                Write::Discard
            };
            BindOp::Plus {
                inner: Box::new(lower_event(inner, write, PlusMode::Nested, slots)),
                mode: plus,
            }
        }
    }
}

impl LoweredRule {
    /// Lowers a rule over its alias-free event. Handles start unresolved;
    /// call [`LoweredRule::resolve`] before the first firing.
    pub(crate) fn new(decl: &RuleDecl, event: &EventAst) -> Self {
        let mut slots = Slots::default();
        let bind = lower_event(event, Write::Scalar, PlusMode::Rows, &mut slots);
        let actions = decl
            .actions
            .iter()
            .map(|action| match action {
                ActionAst::Insert { table: t, values } => LoweredAction::Insert {
                    table: table(t),
                    values: slots.operands(values),
                },
                ActionAst::BulkInsert { table: t, values } => LoweredAction::BulkInsert {
                    table: table(t),
                    values: slots.operands(values),
                },
                ActionAst::Update {
                    table: t,
                    sets,
                    wheres,
                } => LoweredAction::Update {
                    table: table(t),
                    sets: sets
                        .iter()
                        .map(|(c, v)| (column(c), slots.operand(v)))
                        .collect(),
                    wheres: slots.wheres(wheres),
                },
                ActionAst::Delete { table: t, wheres } => LoweredAction::Delete {
                    table: table(t),
                    wheres: slots.wheres(wheres),
                },
                ActionAst::Call { name, args } => LoweredAction::Call {
                    name: name.clone(),
                    args: slots.operands(args),
                },
            })
            .collect();
        Self {
            bind,
            scalar_names: slots.scalar,
            bulk_names: slots.bulk,
            cond: (decl.condition != CondAst::True).then(|| decl.condition.clone()),
            actions,
        }
    }

    /// Resolves table handles and column indexes against `db`. A table or
    /// column `db` lacks stays unresolved, and the action reports it when
    /// it runs, as the interpreter would.
    pub(crate) fn resolve(&mut self, db: &Database) {
        fn columns<'a>(cols: impl Iterator<Item = &'a mut ColumnRef>, table: Option<&Table>) {
            for col in cols {
                col.index = table.and_then(|t| t.schema().col(&col.name));
            }
        }
        for action in &mut self.actions {
            match action {
                LoweredAction::Insert { table, .. } | LoweredAction::BulkInsert { table, .. } => {
                    table.id = db.table_id(&table.name);
                }
                LoweredAction::Update {
                    table,
                    sets,
                    wheres,
                } => {
                    table.id = db.table_id(&table.name);
                    let t = table.id.and_then(|id| db.table_at(id).ok());
                    columns(sets.iter_mut().map(|(c, _)| c), t);
                    columns(wheres.iter_mut().map(|(c, ..)| c), t);
                }
                LoweredAction::Delete { table, wheres } => {
                    table.id = db.table_id(&table.name);
                    let t = table.id.and_then(|id| db.table_at(id).ok());
                    columns(wheres.iter_mut().map(|(c, ..)| c), t);
                }
                LoweredAction::Call { .. } => {}
            }
        }
    }

    /// One firing: bind → condition → actions. Failures are appended to
    /// `errors`; a failed binding skips the rule, a failed action skips
    /// only itself.
    pub(crate) fn fire(
        &self,
        inst: &Instance,
        catalog: &Catalog,
        db: &mut Database,
        procs: &mut Procedures,
        frame: &mut Frame,
        errors: &mut Vec<RuntimeError>,
    ) {
        let bound = &mut frame.bound;
        bound.reset(self.scalar_names.len(), self.bulk_names.len());
        if let Err(e) = bound.bind(&self.bind, inst, catalog) {
            errors.push(RuntimeError::Bind(e));
            return;
        }
        if let Some(cond) = &self.cond {
            if !eval_cond(cond, &self.bindings(bound), inst, catalog, db) {
                return;
            }
        }
        for action in &self.actions {
            if let Err(e) = frame.execute(action, inst, catalog, db, procs) {
                errors.push(RuntimeError::Action(e));
            }
        }
    }

    /// A firing's values as interpreter [`Bindings`], for conditions.
    fn bindings(&self, bound: &Bound) -> Bindings {
        let named = |names: &[String], cells: &[Option<Value>]| -> HashMap<String, Value> {
            names
                .iter()
                .zip(cells)
                .filter_map(|(n, v)| Some((n.clone(), v.clone()?)))
                .collect()
        };
        Bindings {
            scalar: named(&self.scalar_names, &bound.scalar),
            bulk: (0..bound.rows)
                .map(|r| named(&self.bulk_names, bound.row(r)))
                .collect(),
        }
    }
}

impl TableRef {
    fn get<'d>(&self, db: &'d mut Database) -> Result<&'d mut Table, TableError> {
        match self.id {
            Some(id) => db.table_at_mut(id),
            None => db.require_mut(&self.name),
        }
    }
}

impl Bound {
    fn reset(&mut self, scalars: usize, width: usize) {
        self.scalar.clear();
        self.scalar.resize(scalars, None);
        self.cells.clear();
        self.width = width;
        self.rows = 0;
    }

    fn row(&self, r: usize) -> &[Option<Value>] {
        &self.cells[r * self.width..(r + 1) * self.width]
    }

    fn write(&mut self, target: Target, value: impl FnOnce() -> Value) {
        match target {
            Target::Scalar(slot) => self.scalar[slot] = Some(value()),
            Target::Bulk(col) => {
                let at = (self.rows - 1) * self.width + col;
                self.cells[at] = Some(value());
            }
            Target::None | Target::Discard => {}
        }
    }

    /// Looks a variable up like [`Bindings::get`]: scalar slot first, then
    /// the given bulk row, then the first bulk row.
    fn get(&self, var: &VarRef, row: Option<usize>) -> Option<&Value> {
        if let Some(v) = var.scalar.and_then(|s| self.scalar[s].as_ref()) {
            return Some(v);
        }
        let col = var.bulk?;
        let cell = |r: usize| self.cells[r * self.width + col].as_ref();
        row.and_then(cell)
            .or_else(|| (self.rows > 0).then(|| cell(0)).flatten())
    }

    /// Binds `op` against `inst`, mirroring [`crate::bind::bind`] case by
    /// case, error texts included.
    fn bind(&mut self, op: &BindOp, inst: &Instance, catalog: &Catalog) -> Result<(), BindError> {
        match op {
            BindOp::Alias(name) => Err(BindError(format!("unresolved alias `{name}`"))),
            BindOp::Obs {
                reader,
                object,
                time,
            } => {
                let InstanceKind::Observation(obs) = inst.kind() else {
                    return Err(BindError(format!(
                        "pattern expected an observation, instance is {inst}"
                    )));
                };
                self.write(*reader, || {
                    let name = catalog
                        .readers
                        .def(obs.reader)
                        .map(|d| d.name.to_string())
                        .unwrap_or_else(|| obs.reader.to_string());
                    Value::Str(name)
                });
                self.write(*object, || Value::Epc(obs.object));
                self.write(*time, || Value::Time(obs.at));
                Ok(())
            }
            BindOp::Skip => Ok(()),
            BindOp::Pair(a, b) => {
                let InstanceKind::Composite { children, .. } = inst.kind() else {
                    return Err(BindError(format!(
                        "binary pattern expected a composite, instance is {inst}"
                    )));
                };
                if children.len() != 2 {
                    return Err(BindError(format!(
                        "binary pattern expected 2 constituents, instance has {}",
                        children.len()
                    )));
                }
                self.bind(a, &children[0], catalog)?;
                self.bind(b, &children[1], catalog)
            }
            BindOp::Or(a, b) => {
                let child = match inst.kind() {
                    InstanceKind::Composite { children, .. } if children.len() == 1 => &children[0],
                    _ => {
                        return Err(BindError(format!(
                            "OR expected a single-child composite, got {inst}"
                        )))
                    }
                };
                let saved = (self.scalar.clone(), self.cells.clone(), self.rows);
                if self.bind(a, child, catalog).is_ok() {
                    return Ok(());
                }
                (self.scalar, self.cells, self.rows) = saved;
                self.bind(b, child, catalog)
            }
            BindOp::Plus { inner, mode } => {
                if *mode == PlusMode::Nested {
                    return Err(BindError(
                        "nested aperiodic sequences are not supported".into(),
                    ));
                }
                let InstanceKind::Composite { children, .. } = inst.kind() else {
                    return Err(BindError(format!(
                        "aperiodic pattern expected a run, instance is {inst}"
                    )));
                };
                for element in children {
                    if *mode == PlusMode::Rows {
                        self.cells.resize(self.cells.len() + self.width, None);
                        self.rows += 1;
                    }
                    self.bind(inner, element, catalog)?;
                }
                Ok(())
            }
        }
    }

    fn eval(
        &self,
        op: &Operand,
        row: Option<usize>,
        inst: &Instance,
        catalog: &Catalog,
    ) -> Result<Value, ActionError> {
        Ok(match op {
            Operand::Var(var) => self.bound(var, row)?.clone(),
            Operand::Const(v) => v.clone(),
            Operand::Now => Value::Time(inst.t_end()),
            Operand::LocationOf(var) => {
                let (name, id) = self.reader(var, row, catalog)?;
                let loc = catalog
                    .readers
                    .location_of(id)
                    .ok_or_else(|| ActionError::Unresolvable(format!("location of `{name}`")))?;
                Value::str(loc)
            }
            Operand::GroupOf(var) => {
                let (name, id) = self.reader(var, row, catalog)?;
                let group = catalog
                    .readers
                    .group_of(id)
                    .ok_or_else(|| ActionError::Unresolvable(format!("group of `{name}`")))?;
                Value::str(group)
            }
            Operand::TypeOf(var) => {
                let epc = self.bound(var, row)?.as_epc().ok_or_else(|| {
                    ActionError::Unresolvable(format!("`{}` is not an EPC", var.name))
                })?;
                let ty = catalog
                    .types
                    .type_of(epc)
                    .ok_or_else(|| ActionError::Unresolvable(format!("type of {epc}")))?;
                Value::str(ty.name())
            }
        })
    }

    /// [`Bound::get`], failing on an unbound variable.
    fn bound(&self, var: &VarRef, row: Option<usize>) -> Result<&Value, ActionError> {
        self.get(var, row)
            .ok_or_else(|| ActionError::UnboundVar(var.name.clone()))
    }

    /// The reader a variable names, for `location(r)`/`group(r)`.
    fn reader(
        &self,
        var: &VarRef,
        row: Option<usize>,
        catalog: &Catalog,
    ) -> Result<(&str, ReaderId), ActionError> {
        let name = self.bound(var, row)?.as_str().ok_or_else(|| {
            ActionError::Unresolvable(format!("`{}` is not a reader name", var.name))
        })?;
        let id = catalog
            .readers
            .id_of(name)
            .ok_or_else(|| ActionError::Unresolvable(format!("reader `{name}`")))?;
        Ok((name, id))
    }

    fn eval_row(
        &self,
        ops: &[Operand],
        row: Option<usize>,
        inst: &Instance,
        catalog: &Catalog,
    ) -> Result<Vec<Value>, ActionError> {
        ops.iter()
            .map(|op| self.eval(op, row, inst, catalog))
            .collect()
    }
}

impl Frame {
    /// Evaluates `SET` operands into `self.sets`, in declaration order.
    fn eval_sets(
        &mut self,
        sets: &[(ColumnRef, Operand)],
        inst: &Instance,
        catalog: &Catalog,
    ) -> Result<(), ActionError> {
        self.sets.clear();
        for (col, value) in sets {
            let value = self.bound.eval(value, None, inst, catalog)?;
            self.sets.push((col.index.unwrap_or(usize::MAX), value));
        }
        Ok(())
    }

    /// Evaluates `WHERE` operands into `self.conds`, in declaration order.
    fn eval_wheres(
        &mut self,
        wheres: &[(ColumnRef, CondOp, Operand)],
        inst: &Instance,
        catalog: &Catalog,
    ) -> Result<(), ActionError> {
        self.conds.clear();
        for (col, op, value) in wheres {
            let value = self.bound.eval(value, None, inst, catalog)?;
            self.conds
                .push((col.index.unwrap_or(usize::MAX), *op, value));
        }
        Ok(())
    }

    /// The by-name filter of evaluated `WHERE` operands: the fallback when
    /// a column did not resolve, so the store reports it in its own words.
    fn filter(&self, wheres: &[(ColumnRef, CondOp, Operand)]) -> Filter {
        Filter {
            conds: wheres
                .iter()
                .zip(&self.conds)
                .map(|((col, ..), (_, op, value))| Cond::new(&col.name, *op, value.clone()))
                .collect(),
        }
    }

    /// Runs one action, evaluating operands and failing in the
    /// interpreter's order ([`crate::actions::execute`]).
    fn execute(
        &mut self,
        action: &LoweredAction,
        inst: &Instance,
        catalog: &Catalog,
        db: &mut Database,
        procs: &mut Procedures,
    ) -> Result<(), ActionError> {
        let bound = &self.bound;
        match action {
            LoweredAction::Insert { table, values } => {
                let row = bound.eval_row(values, None, inst, catalog)?;
                table.get(db)?.insert(row)?;
            }
            LoweredAction::BulkInsert { table, values } => {
                for r in 0..bound.rows {
                    let row = bound.eval_row(values, Some(r), inst, catalog)?;
                    table.get(db)?.insert(row)?;
                }
            }
            LoweredAction::Update {
                table,
                sets,
                wheres,
            } => {
                self.eval_sets(sets, inst, catalog)?;
                self.eval_wheres(wheres, inst, catalog)?;
                let t = table.get(db)?;
                if resolved(sets.iter().map(|(c, _)| c)) && resolved(wheres.iter().map(|(c, ..)| c))
                {
                    t.update_resolved(&self.conds, &self.sets)?;
                } else {
                    let assignments: Vec<(String, Value)> = sets
                        .iter()
                        .zip(&self.sets)
                        .map(|((col, _), (_, value))| (col.name.clone(), value.clone()))
                        .collect();
                    t.update(&self.filter(wheres), &assignments)?;
                }
            }
            LoweredAction::Delete { table, wheres } => {
                self.eval_wheres(wheres, inst, catalog)?;
                let t = table.get(db)?;
                if resolved(wheres.iter().map(|(c, ..)| c)) {
                    t.delete_resolved(&self.conds)?;
                } else {
                    t.delete(&self.filter(wheres))?;
                }
            }
            LoweredAction::Call { name, args } => {
                let values = bound.eval_row(args, None, inst, catalog)?;
                procs.invoke(name, values);
            }
        }
        Ok(())
    }
}

/// Whether every column resolved against the current schema.
fn resolved<'a>(mut columns: impl Iterator<Item = &'a ColumnRef>) -> bool {
    columns.all(|c| c.index.is_some())
}
