//! Hot-path throughput gate: single-threaded events/s on the Fig. 9
//! workload, measured over several fresh-engine passes.
//!
//! This is the benchmark the compiled-plan lowering (flat node table,
//! direct-index dispatch rows, fused in-field delivery, expiry-log
//! pruning) is judged against. The pre-lowering engine — the graph walker
//! with hash-probed dispatch and rule fan-out — measured 1 515 436.4 ev/s
//! on this exact workload; that figure is pinned below and every run
//! reports its speedup against it. `scripts/bench_gate.sh` reads the JSON
//! this writes and fails the build on a >15% regression.
//!
//! The headline row feeds the trace one observation at a time through
//! `Engine::process` (a one-element batch).
//!
//! Flags:
//! * `--events N` — trace length override (CI smoke runs use a small N).
//! * `--reps N` — measured passes per row (default 5). min-of-N is the
//!   headline estimator, so more passes tighten it on a noisy box.
//! * `--batch-size N` — restrict the batch ablation to one chunk size
//!   (`0` disables it: per-observation only). The default sweeps
//!   64/256/1024/4096 through `Engine::process_batch` and reports each
//!   size's in-run speedup against the per-observation row measured in the
//!   same invocation.
//!
//! The JSON keeps the historical `scalar` names for the per-observation
//! row (`batch_scalar_eps`, `speedup_vs_scalar`).

use rceda::EngineConfig;
use rfid_bench::report::{self, JsonBuf};
use rfid_bench::{bare_engine, time_engine_batch_pass, time_engine_pass, BenchWorkload};

const EVENTS: usize = 150_000;
const REPS: usize = 5;

/// The default batch-size ablation (EXPERIMENTS.md's table); `--batch-size`
/// narrows it to one point, `--batch-size 0` drops it entirely.
const BATCH_SIZES: [usize; 4] = [64, 256, 1024, 4096];

/// Single-threaded ev/s of the pre-lowering engine (the retired graph
/// walker, commit prior to the compiled-plan refactor) on this workload,
/// same machine class, recorded in `results/BENCH_hotpath.json` at the
/// time.
const PRE_PR_BASELINE_EPS: f64 = 1_515_436.4;

/// The headline measurement: per-observation `process`.
struct Headline {
    passes: Vec<f64>,
    best_ms: f64,
    median_ms: f64,
    eps: f64,
    firings: u64,
}

/// One batch-size point of the ablation: chunked `process_batch`,
/// compared in-run against the per-observation row.
struct BatchRun {
    batch: usize,
    passes: Vec<f64>,
    best_ms: f64,
    eps: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let events = args
        .iter()
        .position(|a| a == "--events")
        .and_then(|i| args.get(i + 1))
        .map_or(EVENTS, |n| n.parse().expect("--events takes a count"));
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .map_or(REPS, |n| n.parse().expect("--reps takes a count"));
    let batch_sizes: Vec<usize> = match args
        .iter()
        .position(|a| a == "--batch-size")
        .and_then(|i| args.get(i + 1))
        .map(|n| n.parse().expect("--batch-size takes a count"))
    {
        Some(0) => Vec::new(),
        Some(n) => vec![n],
        None => BATCH_SIZES.to_vec(),
    };
    let workload = BenchWorkload::with_config(rfid_simulator::SimConfig::paper_scale());
    let trace = workload.trace(events);
    let stream = &trace.observations;

    println!("Hot-path gate — single-threaded Fig. 9 workload");
    let config = EngineConfig::default();

    // Warm-up pass: fills the allocator's caches and faults in the trace
    // so the measured passes see steady state. Each measured pass gets a
    // fresh engine — the hash-consed instance catalog is append-only and
    // would otherwise grow across replays, degrading lookups pass over
    // pass.
    let mut warm = bare_engine(&workload, config.clone());
    let rules = warm.rule_count();
    let (warm_ms, firings) = time_engine_pass(&mut warm, stream);
    eprintln!("  [process] warm-up: {warm_ms:.1} ms, {firings} firings");
    drop(warm);

    let mut passes = Vec::with_capacity(reps);
    for rep in 0..reps {
        let mut engine = bare_engine(&workload, config.clone());
        let (elapsed_ms, pass_firings) = time_engine_pass(&mut engine, stream);
        assert_eq!(pass_firings, firings, "firing count changed across replays");
        eprintln!("  [process] pass {}: {elapsed_ms:.1} ms", rep + 1);
        passes.push(elapsed_ms);
    }

    // Headline metric is the best pass: on a contended box interference
    // only ever adds time, so min-of-N is the least-noise estimator of
    // true cost (the median is still recorded in the JSON for context).
    let best_ms = passes.iter().copied().fold(f64::INFINITY, f64::min);
    let median_ms = {
        let mut sorted = passes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        sorted[sorted.len() / 2]
    };
    let headline = Headline {
        eps: report::eps(stream.len(), best_ms),
        passes,
        best_ms,
        median_ms,
        firings,
    };

    // Batch-size ablation: chunked `process_batch`, interleaved with the
    // per-observation row above in the *same invocation* so the speedup
    // ratio is in-run (same box state, same trace) rather than cross-run.
    // Firings must be byte-identical to the per-observation pass.
    let mut batch_runs = Vec::with_capacity(batch_sizes.len());
    if !batch_sizes.is_empty() {
        // Symmetric warm-up through the batch path.
        let mut warm = bare_engine(&workload, config.clone());
        let (warm_ms, _) = time_engine_batch_pass(&mut warm, stream, batch_sizes[0]);
        eprintln!("  [batch] warm-up: {warm_ms:.1} ms");
        drop(warm);
        for &batch in &batch_sizes {
            let mut passes = Vec::with_capacity(reps);
            for rep in 0..reps {
                let mut engine = bare_engine(&workload, config.clone());
                let (elapsed_ms, batch_firings) =
                    time_engine_batch_pass(&mut engine, stream, batch);
                assert_eq!(
                    batch_firings, firings,
                    "batch={batch} diverged from the per-observation firing count"
                );
                eprintln!("  [batch {batch}] pass {}: {elapsed_ms:.1} ms", rep + 1);
                passes.push(elapsed_ms);
            }
            let best_ms = passes.iter().copied().fold(f64::INFINITY, f64::min);
            let eps = report::eps(stream.len(), best_ms);
            batch_runs.push(BatchRun {
                batch,
                passes,
                best_ms,
                eps,
            });
        }
    }

    let speedup = headline.eps / PRE_PR_BASELINE_EPS;
    println!(
        "  events: {} | rules: {rules} | firings: {}",
        stream.len(),
        headline.firings
    );
    println!(
        "  [process] best of {} passes: {:.1} ms ({:.0} ev/s) | median: {:.1} ms",
        headline.passes.len(),
        headline.best_ms,
        headline.eps,
        headline.median_ms
    );
    for b in &batch_runs {
        println!(
            "  [batch {:>5}] best of {} passes: {:.1} ms ({:.0} ev/s) | vs process: {:.2}x",
            b.batch,
            b.passes.len(),
            b.best_ms,
            b.eps,
            b.eps / headline.eps
        );
    }
    if let Some(best) = batch_runs.iter().map(|b| b.eps).fold(None, f64_max) {
        println!(
            "  batch vs process (best in-run): {:.2}x",
            best / headline.eps
        );
    }
    println!("  vs. pre-lowering baseline {PRE_PR_BASELINE_EPS:.0} ev/s: {speedup:.2}x");

    write_json(stream.len(), rules, &headline, speedup, &batch_runs);
}

fn f64_max(acc: Option<f64>, v: f64) -> Option<f64> {
    Some(acc.map_or(v, |a| a.max(v)))
}

/// The headline `events_per_sec` is written first so `bench_gate.sh`'s
/// first-match parse reads it; the batch ablation rows follow (see
/// `rfid_bench::report` for the shared stamp/builder).
fn write_json(
    events: usize,
    rules: usize,
    headline: &Headline,
    speedup: f64,
    batch_runs: &[BatchRun],
) {
    let reps = headline.passes.len();
    let config = format!("events={events} reps={reps}");
    let mut json = JsonBuf::begin("fig9_hotpath", &config);
    json.u64_field("events", events as u64);
    json.u64_field("rules", rules as u64);
    json.u64_field("firings", headline.firings);
    json.f64_field("best_ms", headline.best_ms, 3);
    json.f64_field("median_ms", headline.median_ms, 3);
    json.f64_field("events_per_sec", headline.eps, 1);
    json.f64_field("pre_pr_baseline_eps", PRE_PR_BASELINE_EPS, 1);
    json.f64_field("speedup_vs_baseline", speedup, 3);
    json.begin_arr("passes_ms");
    for ms in &headline.passes {
        json.elem(&format!("{ms:.3}"));
    }
    json.end_arr();
    // Batch ablation rows: each chunk size, with the in-run speedup
    // against the per-observation row above.
    // `bench_gate.sh`'s batch section reads `batch_best_speedup_vs_scalar`.
    if !batch_runs.is_empty() {
        let best = batch_runs
            .iter()
            .map(|b| b.eps)
            .fold(f64::NEG_INFINITY, f64::max);
        json.f64_field("batch_scalar_eps", headline.eps, 1);
        json.f64_field("batch_best_speedup_vs_scalar", best / headline.eps, 3);
        json.begin_arr("batch");
        for b in batch_runs {
            json.begin_obj(None);
            json.u64_field("batch_size", b.batch as u64);
            json.begin_arr("passes_ms");
            for ms in &b.passes {
                json.elem(&format!("{ms:.3}"));
            }
            json.end_arr();
            json.f64_field("best_ms", b.best_ms, 3);
            json.f64_field("events_per_sec", b.eps, 1);
            json.f64_field("speedup_vs_scalar", b.eps / headline.eps, 3);
            json.end_obj();
        }
        json.end_arr();
    }
    report::write_results("BENCH_hotpath.json", &json.finish());
}
