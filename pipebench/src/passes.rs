//! The measured passes over one workload: closed loop, open loop, and the
//! traced pass that rebuilds the runtime's firing path from public calls.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use rceda::{Engine, EngineConfig, EngineStats, RuleId};
use rfid_edge::Pipeline;
use rfid_events::{Instance, Observation, Timestamp};
use rfid_rules::actions::execute;
use rfid_rules::ast::{ActionAst, CondAst, EventAst, RuleDecl};
use rfid_rules::bind::bind;
use rfid_rules::compile::{compile_event, resolve_aliases};
use rfid_rules::cond::eval_cond;
use rfid_rules::{parse_script, Procedures, RuleRuntime};
use rfid_store::{Database, Value};

use crate::workload::Workload;

/// Observations handed to one `process_batch` call in the closed-loop and
/// traced passes (the chunk size `RuleRuntime::process_all` uses).
pub const BATCH: usize = rceda::PROCESS_ALL_BATCH;

/// What a pass produced, in a form two passes can be compared by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Rule firings the engine delivered.
    pub firings: u64,
    /// Failed bindings plus failed actions.
    pub errors: usize,
    /// Rows per store table, by table name.
    pub rows: BTreeMap<String, usize>,
    /// Hash of every table's rows, in table-name then row order.
    pub store_digest: u64,
    /// Procedure calls per procedure name.
    pub calls: BTreeMap<String, usize>,
    /// Hash of the procedure log, in call order.
    pub log_digest: u64,
    /// Objects `send_alarm` was called for.
    pub alarmed: HashSet<Value>,
}

impl Outcome {
    /// Summarises a store and a procedure log.
    pub fn of(db: &Database, procs: &Procedures, firings: u64, errors: usize) -> Self {
        let mut names: Vec<&str> = db.table_names().collect();
        names.sort_unstable();
        let mut rows = BTreeMap::new();
        let mut store = DefaultHasher::new();
        for name in names {
            let table = db.table(name).expect("listed table exists");
            rows.insert(name.to_owned(), table.len());
            name.hash(&mut store);
            for row in table.iter() {
                row.hash(&mut store);
            }
        }
        let mut calls = BTreeMap::new();
        let mut log = DefaultHasher::new();
        for entry in &procs.log {
            *calls.entry(entry.0.clone()).or_insert(0) += 1;
            entry.hash(&mut log);
        }
        let alarmed = procs
            .calls("send_alarm")
            .filter_map(|args| args.first().cloned())
            .collect();
        Self {
            firings,
            errors,
            rows,
            store_digest: store.finish(),
            calls,
            log_digest: log.finish(),
            alarmed,
        }
    }

    /// Rows of one table (0 when absent).
    pub fn rows_of(&self, table: &str) -> usize {
        self.rows.get(table).copied().unwrap_or(0)
    }

    /// Calls of one procedure (0 when never called).
    pub fn calls_of(&self, proc_name: &str) -> usize {
        self.calls.get(proc_name).copied().unwrap_or(0)
    }
}

/// The outcome of a finished `RuleRuntime`.
pub fn runtime_outcome(rt: &RuleRuntime) -> Outcome {
    Outcome::of(
        rt.db(),
        rt.procedures(),
        rt.stats().rule_firings,
        rt.errors().len(),
    )
}

/// Builds the runtime, loads the workload's script and forces the lazy
/// plan compile (`advance_to` recompiles a dirty plan and, on a fresh
/// engine at time zero, does nothing else). Returns the runtime and the
/// set-up time in seconds.
pub fn setup(w: &Workload) -> (RuleRuntime, f64) {
    let start = Instant::now();
    let mut rt = RuleRuntime::new(w.catalog.clone());
    rt.load(&w.script).expect("workload script loads");
    rt.advance_to(Timestamp::ZERO);
    (rt, start.elapsed().as_secs_f64())
}

/// Runs `chunk` through the edge pipeline into `buf`, or passes it through
/// untouched when there is no edge stage.
fn edge_filter<'a>(
    edge: &mut Option<Pipeline>,
    chunk: &'a [Observation],
    buf: &'a mut Vec<Observation>,
) -> &'a [Observation] {
    match edge {
        Some(pipeline) => {
            buf.clear();
            for &obs in chunk {
                buf.extend(pipeline.offer(obs));
            }
            buf
        }
        None => chunk,
    }
}

/// Closed loop: every chunk goes in as soon as the previous call returns.
/// Returns the wall time in seconds of edge + runtime + `finish`.
pub fn closed_loop(w: &Workload, rt: &mut RuleRuntime) -> f64 {
    let mut edge = w.edge();
    let mut buf = Vec::with_capacity(BATCH);
    let start = Instant::now();
    for chunk in w.trace.observations.chunks(BATCH) {
        rt.process_batch(edge_filter(&mut edge, chunk, &mut buf));
    }
    if let Some(pipeline) = &mut edge {
        rt.process_batch(&pipeline.flush());
    }
    rt.finish();
    start.elapsed().as_secs_f64()
}

/// A latency histogram with logarithmic buckets about 1% wide, so its
/// memory stays fixed however many observations it records.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: f64,
}

/// Buckets per factor of e: bucket `b` holds `[e^(b/B), e^((b+1)/B))` ns.
const BUCKETS_PER_E: f64 = 100.0;

impl Default for Histogram {
    fn default() -> Self {
        // e^30 ns is about three hours.
        Self {
            counts: vec![0; 30 * BUCKETS_PER_E as usize],
            total: 0,
            max: 0.0,
        }
    }
}

impl Histogram {
    /// Records a duration in seconds.
    pub fn record(&mut self, secs: f64) {
        let ns = (secs * 1e9).max(1.0);
        let bucket = ((ns.ln() * BUCKETS_PER_E) as usize).min(self.counts.len() - 1);
        self.counts[bucket] += 1;
        self.total += 1;
        self.max = self.max.max(secs);
    }

    /// The `q` quantile in seconds, interpolated by rank inside its bucket
    /// (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count > 0 && seen + count >= rank {
                let within = (rank - seen) as f64 / (count + 1) as f64;
                return ((bucket as f64 + within) / BUCKETS_PER_E).exp() / 1e9;
            }
            seen += count;
        }
        0.0
    }

    /// The largest recorded duration in seconds.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Durations recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// What one open-loop pass measured.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Per observation: due time to the return of the `process_batch`
    /// call that consumed it.
    pub latency: Histogram,
    /// Per observation: how late the generator handed it in (tick start
    /// minus due time).
    pub lag: Histogram,
    /// `process_batch` calls that carried observations.
    pub ticks: usize,
}

/// Share of the trace fed closed-loop before the open-loop clock starts, so
/// latency is measured past the start-up transient (at the start of a trace
/// every shelf tag is a first sighting).
pub const WARMUP: f64 = 0.1;

/// Open loop at `rate` observations per second: after the warm-up share,
/// observation `i` is due `i / rate` seconds after the clock starts,
/// however fast the pipeline drains. Ticks fall every `tick` seconds; each
/// hands every observation now due to `process_batch`, and a tick that
/// falls while the previous call still runs starts as soon as it returns.
/// The generator spins between ticks: a sleep's wake-up delay, which the
/// host stretches to milliseconds when it is busy, would count as latency.
pub fn open_loop(w: &Workload, rt: &mut RuleRuntime, rate: f64, tick: f64) -> OpenLoop {
    let mut out = OpenLoop::default();
    let mut edge = w.edge();
    let mut buf = Vec::with_capacity(BATCH);
    let all = &w.trace.observations;
    let (warmup, obs) = all.split_at((all.len() as f64 * WARMUP) as usize);
    for chunk in warmup.chunks(BATCH) {
        rt.process_batch(edge_filter(&mut edge, chunk, &mut buf));
    }
    let n = obs.len();
    let due = |i: usize| i as f64 / rate;
    let start = Instant::now();
    let mut next_tick = 0.0;
    let mut lo = 0;
    while lo < n {
        let now = start.elapsed().as_secs_f64();
        if now < next_tick {
            std::hint::spin_loop();
            continue;
        }
        let hi = ((now * rate) as usize + 1).min(n);
        if hi > lo {
            rt.process_batch(edge_filter(&mut edge, &obs[lo..hi], &mut buf));
            let done = start.elapsed().as_secs_f64();
            out.ticks += 1;
            for i in lo..hi {
                out.latency.record(done - due(i));
                out.lag.record(now - due(i));
            }
            lo = hi;
        }
        next_tick = ((now / tick).floor() + 1.0) * tick;
    }
    if let Some(pipeline) = &mut edge {
        rt.process_batch(&pipeline.flush());
    }
    rt.finish();
    out
}

/// Everything the traced pass measures, times in seconds.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Wall time of the whole traced pass, gauge sampling excluded.
    pub wall: f64,
    /// Time inside `Pipeline::offer`/`flush`.
    pub edge_busy: f64,
    /// Observations offered to the edge.
    pub edge_in: u64,
    /// Observations the edge passed on.
    pub edge_out: u64,
    /// Time inside `Engine::process_batch`/`finish`, sink included.
    pub rceda_span: f64,
    /// Time inside the sink (bind + condition + actions).
    pub sink: f64,
    /// Time spent sampling the engine's gauges after each batch; the clock
    /// stops for it, since `Engine::stats` walks every negation history.
    pub sampling: f64,
    /// Engine counters at the end of the pass.
    pub stats: EngineStats,
    /// Peak buffered instances over the per-batch samples.
    pub buffered_peak: u64,
    /// Peak negation-history keys over the samples.
    pub retained_keys_peak: u64,
    /// Peak join-buffer keys over the samples.
    pub join_keys_peak: u64,
    /// `bind::bind` time, including dropping the bindings.
    pub bind_busy: f64,
    /// `bind::bind` calls.
    pub bind_calls: u64,
    /// Bulk rows bound (elements of aperiodic sequences).
    pub bind_bulk_rows: u64,
    /// Failed bindings.
    pub bind_errors: u64,
    /// `cond::eval_cond` time.
    pub cond_busy: f64,
    /// `cond::eval_cond` calls (rules whose condition is not `true`).
    pub cond_calls: u64,
    /// Conditions that evaluated false.
    pub cond_rejects: u64,
    /// `actions::execute` time for `INSERT`.
    pub insert: f64,
    /// `actions::execute` time for `BULK INSERT`.
    pub bulk_insert: f64,
    /// `actions::execute` time for `UPDATE` and `DELETE`.
    pub update: f64,
    /// `actions::execute` time for procedure calls.
    pub call: f64,
    /// `actions::execute` calls.
    pub executed: u64,
    /// Failed actions.
    pub action_errors: u64,
}

impl Ledger {
    /// Time inside `actions::execute`.
    pub fn actions_busy(&self) -> f64 {
        self.insert + self.bulk_insert + self.update + self.call
    }

    /// The engine's own time: its span minus the sink's.
    pub fn rceda_self(&self) -> f64 {
        self.rceda_span - self.sink
    }

    /// Wall time not inside any span: loop and batching glue.
    pub fn unaccounted(&self) -> f64 {
        self.wall
            - (self.edge_busy
                + self.rceda_self()
                + self.bind_busy
                + self.cond_busy
                + self.actions_busy())
    }
}

/// One rule as the firing path needs it.
struct Rule {
    decl: RuleDecl,
    /// Alias-free event, for binding.
    event: EventAst,
}

/// Compiles the workload's script into a bare engine the way
/// `RuleRuntime::load` does, keeping each rule's declaration.
fn compile(w: &Workload) -> (Engine, Vec<Rule>) {
    let script = parse_script(&w.script).expect("workload script parses");
    assert!(script.drops.is_empty(), "workload scripts drop no rules");
    let mut defines: HashMap<String, EventAst> = HashMap::new();
    for d in &script.defines {
        let resolved = resolve_aliases(&d.event, &defines).expect("define resolves");
        defines.insert(d.name.clone(), resolved);
    }
    let mut engine = Engine::new(w.catalog.clone(), EngineConfig::default());
    let mut rules = Vec::with_capacity(script.rules.len());
    for decl in script.rules {
        let event = resolve_aliases(&decl.event, &defines).expect("rule event resolves");
        let expr = compile_event(&event).expect("rule event compiles");
        engine.add_rule(&decl.name, expr).expect("rule is valid");
        rules.push(Rule { decl, event });
    }
    (engine, rules)
}

/// The traced pass: a bare `rceda::Engine` whose sink calls the public
/// `bind`, `eval_cond` and `execute` in the order `RuleRuntime` fires them,
/// against its own store and procedure registry, with a span around each
/// call into a layer.
pub fn traced(w: &Workload) -> (Ledger, Outcome) {
    let (mut engine, rules) = compile(w);
    engine.advance_to(Timestamp::ZERO, &mut |_, _| {});
    let catalog = w.catalog.clone();
    let mut db = Database::rfid();
    let mut procs = Procedures::new();
    let mut l = Ledger::default();
    let mut edge = w.edge();
    let mut buf = Vec::with_capacity(BATCH);

    let mut sink_ns = 0u128;
    let mut sink = |rule: RuleId, inst: &Instance| {
        let t0 = Instant::now();
        let Some(rule) = rules.get(rule.0 as usize) else {
            return;
        };
        l.bind_calls += 1;
        let bindings = match bind(&rule.event, inst, &catalog) {
            Ok(b) => b,
            Err(_) => {
                l.bind_errors += 1;
                let t1 = Instant::now();
                l.bind_busy += (t1 - t0).as_secs_f64();
                sink_ns += (t1 - t0).as_nanos();
                return;
            }
        };
        let mut t = Instant::now();
        let mut bind_time = t - t0;
        l.bind_bulk_rows += bindings.bulk.len() as u64;
        let mut passed = true;
        if rule.decl.condition != CondAst::True {
            passed = eval_cond(&rule.decl.condition, &bindings, inst, &catalog, &db);
            let t1 = Instant::now();
            l.cond_busy += (t1 - t).as_secs_f64();
            l.cond_calls += 1;
            l.cond_rejects += u64::from(!passed);
            t = t1;
        }
        if passed {
            for action in &rule.decl.actions {
                let result = execute(action, &bindings, inst, &catalog, &mut db, &mut procs);
                let t1 = Instant::now();
                let spent = (t1 - t).as_secs_f64();
                match action {
                    ActionAst::Insert { .. } => l.insert += spent,
                    ActionAst::BulkInsert { .. } => l.bulk_insert += spent,
                    ActionAst::Update { .. } | ActionAst::Delete { .. } => l.update += spent,
                    ActionAst::Call { .. } => l.call += spent,
                }
                l.executed += 1;
                l.action_errors += u64::from(result.is_err());
                t = t1;
            }
        }
        drop(bindings);
        let end = Instant::now();
        bind_time += end - t;
        l.bind_busy += bind_time.as_secs_f64();
        sink_ns += (end - t0).as_nanos();
    };

    let mut rceda_span = Duration::ZERO;
    let mut edge_busy = Duration::ZERO;
    let mut sampling = Duration::ZERO;
    let mut peaks = [0u64; 3];
    let mut edge_in = 0u64;
    let mut edge_out = 0u64;
    let start = Instant::now();
    let mut feed =
        |engine: &mut Engine, batch: &[Observation], sink: &mut dyn FnMut(RuleId, &Instance)| {
            let t0 = Instant::now();
            engine.process_batch(batch, sink);
            let t1 = Instant::now();
            let s = engine.stats();
            peaks[0] = peaks[0].max(s.buffered_entries);
            peaks[1] = peaks[1].max(s.retained_keys);
            peaks[2] = peaks[2].max(s.join_keys);
            rceda_span += t1 - t0;
            sampling += t1.elapsed();
        };
    for chunk in w.trace.observations.chunks(BATCH) {
        let t0 = Instant::now();
        let batch = edge_filter(&mut edge, chunk, &mut buf);
        if edge.is_some() {
            edge_busy += t0.elapsed();
            edge_in += chunk.len() as u64;
            edge_out += batch.len() as u64;
        }
        feed(&mut engine, batch, &mut sink);
    }
    if let Some(pipeline) = &mut edge {
        let t0 = Instant::now();
        let rest = pipeline.flush();
        edge_busy += t0.elapsed();
        edge_out += rest.len() as u64;
        feed(&mut engine, &rest, &mut sink);
    }
    let t0 = Instant::now();
    engine.finish(&mut sink);
    rceda_span += t0.elapsed();
    let wall = start.elapsed().as_secs_f64();

    let stats = engine.stats();
    l.wall = wall - sampling.as_secs_f64();
    l.edge_busy = edge_busy.as_secs_f64();
    l.edge_in = edge_in;
    l.edge_out = edge_out;
    l.rceda_span = rceda_span.as_secs_f64();
    l.sink = sink_ns as f64 / 1e9;
    l.sampling = sampling.as_secs_f64();
    l.stats = stats;
    l.buffered_peak = peaks[0].max(stats.buffered_entries);
    l.retained_keys_peak = peaks[1].max(stats.retained_keys);
    l.join_keys_peak = peaks[2].max(stats.join_keys);
    let errors = (l.bind_errors + l.action_errors) as usize;
    let outcome = Outcome::of(&db, &procs, stats.rule_firings, errors);
    (l, outcome)
}
