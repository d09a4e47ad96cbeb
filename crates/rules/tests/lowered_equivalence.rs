//! Differential property: the runtime's lowered firing path (slot-indexed
//! binding, lowered operands, resolved table/column handles) must do
//! exactly what the interpretive reference chain — the public
//! `bind::bind` → `cond::eval_cond` → `actions::execute` — does on the
//! same detections.
//!
//! Each case generates a rule program and an observation stream, runs the
//! program through `RuleRuntime`, and runs the same detections through a
//! bare `rceda::Engine` whose sink calls the reference chain against its
//! own store. Halfway through the stream both sides create a missing table
//! and replace `OBJECTLOCATION` with a reordered schema, so cached handles
//! must be re-resolved. Afterwards every table's rows (in order), the
//! procedure log and the error texts must be identical.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use rceda::{Engine, EngineConfig};
use rfid_epc::{Epc, Gid96, ReaderId};
use rfid_events::{Catalog, Observation, Timestamp};
use rfid_rules::actions::execute;
use rfid_rules::ast::{CondAst, EventAst, RuleDecl};
use rfid_rules::bind::bind;
use rfid_rules::compile::{compile_event, resolve_aliases};
use rfid_rules::cond::eval_cond;
use rfid_rules::{parse_script, Procedures, RuleRuntime, RuntimeError};
use rfid_store::{ColumnType, Database, Row, Schema};

/// An event template exercising one binding shape, with the EPC- and
/// time-valued variables it binds.
struct Template {
    event: &'static str,
    epcs: &'static [&'static str],
    times: &'static [&'static str],
}

const fn template(
    event: &'static str,
    epcs: &'static [&'static str],
    times: &'static [&'static str],
) -> Template {
    Template { event, epcs, times }
}

const EVENTS: &[Template] = &[
    // Scalar variables.
    template("observation(r, o, t)", &["o"], &["t"]),
    // SEQ.
    template(
        "WITHIN(observation(r, o, t1); observation(r, o, t2), 5 sec)",
        &["o"],
        &["t1", "t2"],
    ),
    // AND.
    template(
        "WITHIN(observation('r1', o, t1) AND observation('r2', o, t2), 5 sec)",
        &["o"],
        &["t1", "t2"],
    ),
    // OR: `o` or `p` is left unbound.
    template(
        "observation('r1', o, t) OR observation('r2', p, t)",
        &["o", "p"],
        &["t"],
    ),
    // NOT: `t1` is never bound.
    template(
        "WITHIN(NOT observation(r, o, t1); observation(r, o, t2), 3 sec)",
        &["o"],
        &["t1", "t2"],
    ),
    // TSEQ+: bulk `o1`/`t1`, scalar `o2`/`t2`.
    template(
        "TSEQ(TSEQ+(observation('r1', o1, t1), 0.1 sec, 2 sec); \
         observation('r2', o2, t2), 0.5 sec, 10 sec)",
        &["o1", "o2"],
        &["t1", "t2"],
    ),
    // `t` bound both in the run and by the terminator: the scalar wins.
    template(
        "TSEQ(TSEQ+(observation('r1', o1, t), 0.1 sec, 2 sec); \
         observation('r2', o2, t), 0.5 sec, 10 sec)",
        &["o1", "o2"],
        &["t"],
    ),
    // SEQ+.
    template(
        "WITHIN(SEQ(SEQ+(observation('r3', o1, t1)); observation('r2', o2, t2)), 10 sec)",
        &["o1", "o2"],
        &["t1", "t2"],
    ),
    // Two runs; `a` is an EPC in the first and a time in the second, so a
    // BULK INSERT of `a` into an EPC column fails midway.
    template(
        "WITHIN(TSEQ+(observation('r1', a, t1), 0.1 sec, 2 sec); \
         TSEQ+(observation('r2', b, a), 0.1 sec, 2 sec), 10 sec)",
        &["a", "b"],
        &["t1", "a"],
    ),
    // An OR whose left branch binds `o`/`t1` before failing on a
    // right-branch instance: the partial bindings must be rolled back.
    template(
        "WITHIN(SEQ(observation('r1', o, t1); observation('r2', o, t2) AND observation('r3', o, t)) \
         OR SEQ(observation('r1', p, t1); observation('r3', p, t2)), 10 sec)",
        &["o", "p"],
        &["t", "t1", "t2"],
    ),
    // `t` bound twice with different times: the later binding wins.
    template(
        "WITHIN(observation('r1', o, t); observation('r2', p, t), 5 sec)",
        &["o", "p"],
        &["t"],
    ),
    // An OR inside each run element.
    template(
        "TSEQ(TSEQ+(observation('r1', o1, t1) OR observation('r3', o1, t1), 0.1 sec, 2 sec); \
         observation('r2', o2, t2), 0.5 sec, 10 sec)",
        &["o1", "o2"],
        &["t1", "t2"],
    ),
];

/// Variables actions draw from; `zz` is never bound.
const VARS: &[&str] = &["r", "o", "p", "t", "t1", "t2", "o1", "o2", "a", "b", "zz"];

/// Tables actions name: `NOPE` exists only after the midpoint.
const TABLES: &[(&str, &[(&str, ColumnType)])] = &[
    (
        "OBSERVATION",
        &[
            ("reader", ColumnType::Str),
            ("object_epc", ColumnType::Epc),
            ("at", ColumnType::Time),
        ],
    ),
    (
        "OBJECTLOCATION",
        &[
            ("object_epc", ColumnType::Epc),
            ("loc_id", ColumnType::Str),
            ("tstart", ColumnType::Time),
            ("tend", ColumnType::Time),
        ],
    ),
    (
        "OBJECTCONTAINMENT",
        &[
            ("object_epc", ColumnType::Epc),
            ("parent_epc", ColumnType::Epc),
            ("tstart", ColumnType::Time),
            ("tend", ColumnType::Time),
        ],
    ),
    (
        "NOPE",
        &[("object_epc", ColumnType::Epc), ("at", ColumnType::Time)],
    ),
];

const CONDITIONS: &[&str] = &[
    "type(o) = 'laptop'",
    "group(r) = 'g1'",
    "count() > 2",
    "EXISTS(OBJECTLOCATION WHERE object_epc = o)",
    "NOT (o1 = o2)",
    "interval() <= 3 sec",
];

/// Small deterministic generator (splitmix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Any value expression.
fn any_value(g: &mut Gen) -> String {
    match g.below(8) {
        0 | 1 => g.pick(VARS).to_owned(),
        2 => "'text'".to_owned(),
        3 => format!("{}", g.below(100)),
        4 => "UC".to_owned(),
        5 => "now()".to_owned(),
        6 => format!("{}({})", g.pick(&["location", "group"]), g.pick(VARS)),
        _ => format!("type({})", g.pick(VARS)),
    }
}

/// A value expression that usually fits a column of type `ty` under the
/// bindings of template `t`.
fn value_for(g: &mut Gen, t: &Template, ty: ColumnType) -> String {
    if g.chance(15) {
        return any_value(g);
    }
    match ty {
        ColumnType::Epc => g.pick(t.epcs).to_owned(),
        ColumnType::Time => match g.below(4) {
            0 => "now()".to_owned(),
            1 => "UC".to_owned(),
            _ => g.pick(t.times).to_owned(),
        },
        ColumnType::Str => match g.below(4) {
            0 => "'dock'".to_owned(),
            1 => "group(r)".to_owned(),
            2 => "location(r)".to_owned(),
            _ => "r".to_owned(),
        },
        ColumnType::Int => format!("{}", g.below(10)),
    }
}

fn where_clause(g: &mut Gen, t: &Template, cols: &[(&str, ColumnType)]) -> String {
    let n = g.below(3);
    let mut conds = Vec::new();
    for _ in 0..n {
        let (name, ty) = if g.chance(5) {
            ("bogus", ColumnType::Int)
        } else {
            cols[g.below(cols.len())]
        };
        let op = g.pick(&["=", "!=", "<", "<=", ">", ">="]);
        conds.push(format!("{name} {op} {}", value_for(g, t, ty)));
    }
    if conds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conds.join(" AND "))
    }
}

fn action(g: &mut Gen, t: &Template) -> String {
    let (table, cols) = TABLES[g.below(TABLES.len())];
    let row = |g: &mut Gen| -> String {
        let mut values: Vec<String> = cols.iter().map(|(_, ty)| value_for(g, t, *ty)).collect();
        if g.chance(5) {
            values.pop(); // arity error
        }
        values.join(", ")
    };
    match g.below(6) {
        0 => format!("INSERT INTO {table} VALUES ({})", row(g)),
        1 | 2 => format!("BULK INSERT INTO {table} VALUES ({})", row(g)),
        3 => {
            let n = 1 + g.below(2);
            let sets: Vec<String> = (0..n)
                .map(|_| {
                    let (name, ty) = if g.chance(5) {
                        ("bogus", ColumnType::Int)
                    } else {
                        cols[g.below(cols.len())]
                    };
                    format!("{name} = {}", value_for(g, t, ty))
                })
                .collect();
            format!(
                "UPDATE {table} SET {}{}",
                sets.join(", "),
                where_clause(g, t, cols)
            )
        }
        4 => format!("DELETE FROM {table}{}", where_clause(g, t, cols)),
        _ => {
            let args: Vec<String> = (0..g.below(4)).map(|_| any_value(g)).collect();
            format!("notify({})", args.join(", "))
        }
    }
}

/// A generated program; `templates` records each rule's event template.
fn program(g: &mut Gen) -> (String, Vec<usize>) {
    let mut script = String::new();
    let mut templates = Vec::new();
    for i in 0..=g.below(4) {
        let template = g.below(EVENTS.len());
        templates.push(template);
        let cond = if g.chance(20) {
            g.pick(CONDITIONS)
        } else {
            "true"
        };
        let t = &EVENTS[template];
        let actions: Vec<String> = (0..=g.below(4)).map(|_| action(g, t)).collect();
        script.push_str(&format!(
            "CREATE RULE g{i}, gen_{i} ON {} IF {cond} DO {} ",
            t.event,
            actions.join("; ")
        ));
    }
    (script, templates)
}

fn epc(serial: u64) -> Epc {
    Gid96::new(1, 1 + serial % 2, serial).unwrap().into()
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.readers.register("r1", "g1", "dock-a");
    c.readers.register("r2", "g1", "dock-b");
    c.readers.register("r3", "g2", "shelf");
    // Class 1 is typed, class 2 is not: `type(o)` fails on odd serials.
    c.types.map_class_of(epc(0), "laptop");
    c
}

/// A stream over three readers and an unregistered one, with gaps that
/// both continue and break the runs' 2 s gap bound.
fn stream(g: &mut Gen) -> Vec<Observation> {
    let mut at = 0u64;
    (0..20 + g.below(60))
        .map(|_| {
            at += [50, 300, 800, 1500, 3000][g.below(5)];
            let reader = if g.chance(4) { 99 } else { g.below(3) as u32 };
            Observation::new(
                ReaderId(reader),
                epc(g.below(8) as u64),
                Timestamp::from_millis(at),
            )
        })
        .collect()
}

/// Halfway through the stream: `NOPE` appears, and `OBJECTLOCATION` is
/// replaced by a table with its columns in another order.
fn change_schema(db: &mut Database) {
    db.create_table(
        "NOPE",
        Schema::new(&[("object_epc", ColumnType::Epc), ("at", ColumnType::Time)]),
    );
    let location = db.create_table(
        "OBJECTLOCATION",
        Schema::new(&[
            ("tend", ColumnType::Time),
            ("loc_id", ColumnType::Str),
            ("object_epc", ColumnType::Epc),
            ("tstart", ColumnType::Time),
        ]),
    );
    location.create_index("object_epc").unwrap();
}

/// What a run left behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    firings: u64,
    tables: BTreeMap<String, Vec<Row>>,
    log: Vec<(String, Vec<rfid_store::Value>)>,
    errors: Vec<String>,
}

impl Outcome {
    fn of(firings: u64, db: &Database, procs: &Procedures, errors: Vec<String>) -> Self {
        Self {
            firings,
            tables: db
                .table_names()
                .map(|name| {
                    (
                        name.to_owned(),
                        db.table(name).unwrap().iter().cloned().collect(),
                    )
                })
                .collect(),
            log: procs.log.clone(),
            errors,
        }
    }
}

const CHUNK: usize = 7;

fn run_lowered(script: &str, obs: &[Observation]) -> Outcome {
    let mut rt = RuleRuntime::new(catalog());
    rt.load(script).unwrap();
    let (head, tail) = obs.split_at(obs.len() / 2);
    for chunk in head.chunks(CHUNK) {
        rt.process_batch(chunk);
    }
    change_schema(rt.db_mut());
    for chunk in tail.chunks(CHUNK) {
        rt.process_batch(chunk);
    }
    rt.finish();
    let errors = rt.errors().iter().map(ToString::to_string).collect();
    Outcome::of(rt.stats().rule_firings, rt.db(), rt.procedures(), errors)
}

fn run_interpreted(script: &str, obs: &[Observation]) -> Outcome {
    let parsed = parse_script(script).unwrap();
    let catalog = catalog();
    let mut engine = Engine::new(catalog.clone(), EngineConfig::default());
    let mut rules: Vec<(RuleDecl, EventAst)> = Vec::new();
    for decl in parsed.rules {
        let event = resolve_aliases(&decl.event, &HashMap::new()).unwrap();
        engine
            .add_rule(&decl.name, compile_event(&event).unwrap())
            .unwrap();
        rules.push((decl, event));
    }
    let mut db = Database::rfid();
    let mut procs = Procedures::new();
    let mut errors: Vec<String> = Vec::new();
    let mut sink = |db: &mut Database, rule: rceda::RuleId, inst: &rfid_events::Instance| {
        let (decl, event) = &rules[rule.0 as usize];
        let bindings = match bind(event, inst, &catalog) {
            Ok(b) => b,
            Err(e) => {
                errors.push(RuntimeError::Bind(e).to_string());
                return;
            }
        };
        if decl.condition != CondAst::True
            && !eval_cond(&decl.condition, &bindings, inst, &catalog, db)
        {
            return;
        }
        for action in &decl.actions {
            if let Err(e) = execute(action, &bindings, inst, &catalog, db, &mut procs) {
                errors.push(RuntimeError::Action(e).to_string());
            }
        }
    };
    let (head, tail) = obs.split_at(obs.len() / 2);
    for chunk in head.chunks(CHUNK) {
        engine.process_batch(chunk, &mut |r, i| sink(&mut db, r, i));
    }
    change_schema(&mut db);
    for chunk in tail.chunks(CHUNK) {
        engine.process_batch(chunk, &mut |r, i| sink(&mut db, r, i));
    }
    engine.finish(&mut |r, i| sink(&mut db, r, i));
    Outcome::of(engine.stats().rule_firings, &db, &procs, errors)
}

/// Runs one generated case on both paths and asserts they agree. Returns
/// the program's templates and the outcome, for coverage accounting.
fn check_case(seed: u64) -> (Vec<usize>, String, Outcome) {
    let mut g = Gen(seed);
    let (script, templates) = program(&mut g);
    let obs = stream(&mut g);
    let lowered = run_lowered(&script, &obs);
    let interpreted = run_interpreted(&script, &obs);
    assert_eq!(lowered, interpreted, "seed {seed}, program:\n{script}");
    (templates, script, lowered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn lowered_firings_match_the_interpreter(seed in any::<u64>()) {
        check_case(seed);
    }
}

/// The generator reaches what the property is meant to cover: every
/// template fires on its own, procedure calls and `BULK INSERT`s succeed,
/// and every failure kind the property targets occurs.
#[test]
fn generated_cases_cover_every_feature() {
    let mut fired_templates = vec![false; EVENTS.len()];
    let mut all_errors = String::new();
    let mut logged = 0usize;
    let mut bulk_rows = 0usize;
    for seed in 0..300u64 {
        let (templates, script, outcome) = check_case(seed);
        if outcome.firings > 0 && templates.len() == 1 {
            fired_templates[templates[0]] = true;
        }
        logged += outcome.log.len();
        if script.contains("BULK INSERT INTO OBJECTCONTAINMENT") {
            bulk_rows += outcome.tables["OBJECTCONTAINMENT"].len();
        }
        for e in &outcome.errors {
            all_errors.push_str(e);
            all_errors.push('\n');
        }
    }
    for (i, fired) in fired_templates.iter().enumerate() {
        assert!(
            *fired,
            "template {i} never fired alone: {}",
            EVENTS[i].event
        );
    }
    assert!(
        logged > 0 && bulk_rows > 0,
        "log {logged}, bulk rows {bulk_rows}"
    );
    for needle in [
        "is not bound by the event",
        "no table `NOPE`",
        "does not fit column",
        "no column `bogus`",
        "cannot resolve type of",
        "cannot resolve reader `reader#99`",
        "values, schema has",
    ] {
        assert!(all_errors.contains(needle), "no error contains {needle:?}");
    }
}

fn at(reader: u32, serial: u64, millis: u64) -> Observation {
    Observation::new(
        ReaderId(reader),
        epc(serial),
        Timestamp::from_millis(millis),
    )
}

/// The precedence and failure rules, pinned on hand-made cases (and still
/// checked against the interpreter).
#[test]
fn pinned_binding_and_failure_rules() {
    use rfid_store::Value;
    let time = |ms| Value::Time(Timestamp::from_millis(ms));
    // Two runs, then a heartbeat long after so both close. `a` is item 1's
    // EPC in the first run's rows and a time in the second's.
    let obs = [at(0, 1, 0), at(0, 3, 500), at(1, 5, 1500), at(1, 7, 2000)];
    let script = format!(
        "CREATE RULE m, mid ON {} IF true \
         DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (a, a, t1, UC); notify(a, t1)",
        EVENTS[8].event
    );
    let lowered = run_lowered(&script, &obs);
    assert_eq!(lowered, run_interpreted(&script, &obs));
    assert_eq!(lowered.firings, 1);
    // The first run's rows went in before the second run's first row failed.
    let rows = &lowered.tables["OBJECTCONTAINMENT"];
    assert_eq!(rows.len(), 2, "{rows:?}");
    assert_eq!(rows[1][0], Value::Epc(epc(3)));
    assert_eq!(lowered.errors.len(), 1);
    assert!(lowered.errors[0].contains("does not fit column `object_epc`"));
    // The later action still ran; a bulk-only variable outside BULK INSERT
    // takes the first row's value.
    assert_eq!(
        lowered.log,
        vec![("notify".to_owned(), vec![Value::Epc(epc(1)), time(0)])]
    );

    // `t` is bound in every run element and by the terminator: the scalar
    // binding wins in every bulk row.
    let obs = [at(0, 1, 0), at(0, 3, 500), at(1, 9, 3000)];
    let script = format!(
        "CREATE RULE s, scalar_wins ON {} IF true \
         DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t, UC)",
        EVENTS[6].event
    );
    let lowered = run_lowered(&script, &obs);
    assert_eq!(lowered, run_interpreted(&script, &obs));
    let rows = &lowered.tables["OBJECTCONTAINMENT"];
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|row| row[2] == time(3000)), "{rows:?}");
    assert_eq!(rows[0][0], Value::Epc(epc(1)));
    assert_eq!(rows[1][0], Value::Epc(epc(3)));
}
