//! # rfid-pipebench — the end-to-end RFID pipeline benchmark
//!
//! One run measures one workload on one thread: simulator trace → optional
//! `rfid-edge` dedup pipeline → `RuleRuntime::process_batch`/`finish`
//! (RCEDA detection, then binding, condition and actions) → `rfid-store`
//! tables. It reports the end-to-end metrics from untraced passes, or, with
//! tracing on, a per-layer ledger from a separate traced pass, and checks
//! every pass's output against the simulator's ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod passes;
pub mod workload;

use std::time::Instant;

use check::Checks;
use passes::{closed_loop, open_loop, runtime_outcome, setup, traced, Ledger, OpenLoop};
use workload::{Kind, Workload};

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub kind: Kind,
    /// Seed of the generated trace.
    pub seed: u64,
    /// Measurement budget in seconds: closed-loop passes take
    /// [`CLOSED_SHARE`] of it and open-loop passes the rest, interleaved.
    /// Each kind runs at least once; no further pass starts unless one as
    /// long as the last of its kind still fits.
    pub seconds: f64,
    /// Report the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Trace size relative to the measured size (smoke tests shrink it).
    pub scale: f64,
}

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// The result line of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Rule firings across all passes.
    pub attempted: u64,
    /// Firings that failed to bind or whose actions failed.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics when tracing.
    pub metrics: Vec<Metric>,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
}

impl Report {
    /// The single-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Share of the measurement budget given to the closed-loop passes; the
/// open-loop passes, each several times longer, get the rest.
const CLOSED_SHARE: f64 = 0.35;

/// Set-up samples taken before the passes start; each pass adds one more.
const SETUP_REPS: usize = 15;

/// Names of the two pass kinds in check messages.
const PASS_NAMES: [&str; 2] = ["closed-loop", "open-loop"];

/// Median over the open-loop passes of a per-pass time, in milliseconds:
/// a neighbour's burst that slows one pass does not move it.
fn per_open(open: &[OpenLoop], f: fn(&OpenLoop) -> f64) -> f64 {
    1e3 * median(&open.iter().map(f).collect::<Vec<_>>())
}

/// Median of unsorted samples (0 when there are none).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Runs one workload and returns its report.
pub fn run(opts: &Options) -> Report {
    let w = Workload::generate(opts.kind, opts.seed, opts.scale);
    let observations = w.trace.observations.len();
    let mut checks = Checks::default();
    let mut setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup(&w).1).collect();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Closed-loop and open-loop passes interleave, each kind taking its
    // share of the budget, so both sample the whole run; a traced pass
    // follows every closed-loop pass when tracing.
    let budget = Instant::now();
    let (rate, tick) = (opts.kind.open_loop_rate(), opts.kind.tick());
    let mut closed = Vec::new();
    let mut open: Vec<OpenLoop> = Vec::new();
    let mut ledgers: Vec<Ledger> = Vec::new();
    let mut snapshot = 0.0;
    let mut reference: Option<passes::Outcome> = None;
    let mut spent = [0.0f64; 2];
    let mut last = [0.0f64; 2];
    loop {
        let kind = usize::from(
            !closed.is_empty()
                && (open.is_empty() || spent[0] >= CLOSED_SHARE * (spent[0] + spent[1])),
        );
        if !open.is_empty() && budget.elapsed().as_secs_f64() + last[kind] > opts.seconds {
            break;
        }
        let pass = Instant::now();
        let (mut rt, setup_s) = setup(&w);
        setups.push(setup_s);
        if kind == 0 {
            closed.push(closed_loop(&w, &mut rt));
        } else {
            open.push(open_loop(&w, &mut rt, rate, tick));
        }
        let out = runtime_outcome(&rt);
        attempted += out.firings;
        failed += out.errors as u64;
        match &reference {
            None => {
                check::against_truth(&mut checks, &w, "closed-loop", &out);
                if opts.trace {
                    snapshot = persist_time(&rt, &w);
                }
                reference = Some(out);
            }
            Some(r) => check::agree(&mut checks, &w, PASS_NAMES[kind], &out, r),
        }
        drop(rt);
        if opts.trace && kind == 0 {
            let (ledger, out) = traced(&w);
            attempted += out.firings;
            failed += out.errors as u64;
            check::agree(
                &mut checks,
                &w,
                "traced",
                &out,
                reference.as_ref().expect("set"),
            );
            ledgers.push(ledger);
        }
        last[kind] = pass.elapsed().as_secs_f64();
        spent[kind] += last[kind];
    }
    let reference = reference.expect("at least one closed-loop pass");

    let throughputs: Vec<f64> = closed.iter().map(|s| observations as f64 / s).collect();
    eprintln!(
        "{} seed {}: {observations} observations, {} firings; {} closed-loop, {} open-loop \
         at {rate} obs/s, {} traced passes, {} set-ups; closed-loop obs/s per pass {:?}; \
         open-loop p99 ms per pass {:?}",
        opts.kind.name(),
        opts.seed,
        reference.firings,
        closed.len(),
        open.len(),
        ledgers.len(),
        setups.len(),
        throughputs.iter().map(|t| t.round()).collect::<Vec<_>>(),
        open.iter()
            .map(|o| (1e4 * o.latency.quantile(0.99)).round() / 10.0)
            .collect::<Vec<_>>(),
    );
    let metrics = if opts.trace {
        let wall = median(&ledgers.iter().map(|l| l.wall).collect::<Vec<_>>());
        let unaccounted = median(&ledgers.iter().map(Ledger::unaccounted).collect::<Vec<_>>());
        checks.holds(
            &format!(
                "{}: per-layer self times leave {:.2}% of the traced wall time unaccounted",
                opts.kind.name(),
                100.0 * unaccounted / wall
            ),
            unaccounted.abs() <= 0.05 * wall,
        );
        layer_metrics(&ledgers, &reference, &open, median(&closed), snapshot)
    } else {
        let rss = peak_rss_mb();
        checks.holds("peak RSS is readable from /proc/self/status", rss > 0.0);
        vec![
            Metric {
                name: "throughput_eps",
                value: median(&throughputs),
                unit: "1/s",
            },
            Metric {
                name: "latency_p50_ms",
                value: per_open(&open, |o| o.latency.quantile(0.50)),
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: median(&setups),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: rss,
                unit: "MiB",
            },
        ]
    };
    Report {
        correct: checks.passed(),
        attempted,
        failed,
        metrics,
        failures: checks.failures,
    }
}

/// The per-layer ledger: span times are medians over the traced passes,
/// counts come from the last one (they repeat exactly).
fn layer_metrics(
    ledgers: &[Ledger],
    out: &passes::Outcome,
    open: &[OpenLoop],
    closed_wall: f64,
    snapshot: f64,
) -> Vec<Metric> {
    let t = |f: fn(&Ledger) -> f64| median(&ledgers.iter().map(f).collect::<Vec<_>>());
    let last = ledgers.last().expect("at least one traced pass");
    let s = &last.stats;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let count = |name, v: u64| Metric {
        name,
        value: v as f64,
        unit: "count",
    };
    let secs = |name, value| Metric {
        name,
        value,
        unit: "s",
    };
    let wall = t(|l| l.wall);
    vec![
        secs("edge.busy_s", t(|l| l.edge_busy)),
        count("edge.in", last.edge_in),
        count("edge.out", last.edge_out),
        Metric {
            name: "edge.pass_ratio",
            value: if last.edge_in == 0 {
                1.0
            } else {
                ratio(last.edge_out, last.edge_in)
            },
            unit: "ratio",
        },
        secs("rceda.self_s", t(Ledger::rceda_self)),
        count("rceda.events", s.events),
        Metric {
            name: "rceda.matched_ratio",
            value: ratio(s.matched_events, s.events),
            unit: "ratio",
        },
        count("rceda.occurrences", s.occurrences),
        count("rceda.firings", s.rule_firings),
        Metric {
            name: "rceda.firings_per_occurrence",
            value: ratio(s.rule_firings, s.occurrences),
            unit: "ratio",
        },
        count("rceda.pseudo_fired", s.pseudo_fired),
        count("rceda.sweeps", s.sweeps),
        count("rceda.sweeps_skipped", s.sweeps_skipped),
        count("rceda.capacity_drops", s.capacity_drops),
        count("rceda.run_spills", s.run_spills),
        count("rceda.buffered_entries_peak", last.buffered_peak),
        count("rceda.retained_keys_peak", last.retained_keys_peak),
        count("rceda.join_keys_peak", last.join_keys_peak),
        secs("bind.busy_s", t(|l| l.bind_busy)),
        count("bind.calls", last.bind_calls),
        count("bind.bulk_rows", last.bind_bulk_rows),
        count("bind.errors", last.bind_errors),
        secs("cond.busy_s", t(|l| l.cond_busy)),
        count("cond.calls", last.cond_calls),
        count("cond.rejects", last.cond_rejects),
        secs("actions.busy_s", t(Ledger::actions_busy)),
        secs("actions.insert_s", t(|l| l.insert)),
        secs("actions.bulk_insert_s", t(|l| l.bulk_insert)),
        secs("actions.update_s", t(|l| l.update)),
        secs("actions.call_s", t(|l| l.call)),
        count("actions.executed", last.executed),
        count("actions.errors", last.action_errors),
        count("store.observation_rows", out.rows_of("OBSERVATION") as u64),
        count(
            "store.objectlocation_rows",
            out.rows_of("OBJECTLOCATION") as u64,
        ),
        count(
            "store.objectcontainment_rows",
            out.rows_of("OBJECTCONTAINMENT") as u64,
        ),
        secs("store.snapshot_s", snapshot),
        secs("trace.wall_s", wall),
        Metric {
            name: "trace.overhead_pct",
            value: 100.0 * (wall / closed_wall - 1.0),
            unit: "%",
        },
        Metric {
            name: "trace.unaccounted_pct",
            value: 100.0 * t(Ledger::unaccounted) / wall,
            unit: "%",
        },
        Metric {
            name: "openloop.latency_p99_ms",
            value: per_open(open, |o| o.latency.quantile(0.99)),
            unit: "ms",
        },
        Metric {
            name: "openloop.lag_p99_ms",
            value: per_open(open, |o| o.lag.quantile(0.99)),
            unit: "ms",
        },
        Metric {
            name: "openloop.lag_max_ms",
            value: per_open(open, |o| o.lag.max()),
            unit: "ms",
        },
        Metric {
            name: "openloop.batch_mean",
            value: median(
                &open
                    .iter()
                    .map(|o| o.lag.len() as f64 / o.ticks.max(1) as f64)
                    .collect::<Vec<_>>(),
            ),
            unit: "count",
        },
    ]
}

/// Times `RuleRuntime::persist` of the store into a scratch file under the
/// benchmark's own target directory, then removes the file.
fn persist_time(rt: &rfid_rules::RuleRuntime, w: &Workload) -> f64 {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/snapshots");
    std::fs::create_dir_all(&dir).expect("snapshot directory is writable");
    let path = dir.join(format!("{}-{}.snap", w.kind.name(), std::process::id()));
    let start = Instant::now();
    rt.persist(&path).expect("store snapshot is writable");
    let elapsed = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    elapsed
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
