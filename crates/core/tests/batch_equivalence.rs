//! Batching never changes detection: for any rule program drawn from the
//! paper's rule shapes, feeding a simulator trace one observation at a
//! time (`Engine::process`, a one-element batch) must emit exactly the
//! same multiset of rule firings — and the same detection counters — as
//! feeding it through `Engine::process_batch` in larger chunks. This is
//! the differential harness behind the vectorized path (DESIGN.md §16):
//! chunking only amortizes dispatch, pseudo-queue peeks, and sweep
//! scheduling.
//!
//! Counters that describe *sweep timing* (`sweeps`, `sweeps_skipped`,
//! `batches_processed`, the per-node prune counts, and the buffered-state
//! gauges) legitimately depend on where batch boundaries fall, so the
//! comparison pins the detection counters only: events, matched events,
//! occurrences, rule firings, pseudo events scheduled/fired, and capacity
//! drops.

use proptest::prelude::*;
use rceda::engine::{Engine, EngineConfig, RuleId};
use rceda::{EngineStats, ObserveLevel};
use rfid_events::{EventExpr, Instance, Observation, Span, Timestamp};
use rfid_simulator::{SimConfig, SupplyChain};
use std::sync::OnceLock;

/// A firing fingerprint that identifies an occurrence independently of
/// emission order: rule, instance window, and constituent observations.
type Fingerprint = (u32, Timestamp, Timestamp, Vec<Observation>);

/// The same shape pool as `bounds_equivalence`: every plan variant the
/// lowering distinguishes, so every arrival handler and every sweepable
/// store sits under the batch loop.
const SHAPES: usize = 8;
const WINDOWS: [Span; 3] = [Span::from_secs(2), Span::from_secs(5), Span::from_secs(30)];

fn shape(idx: usize, window: Span) -> EventExpr {
    let shelf = || EventExpr::observation_in_group("shelves").bind_object("o");
    match idx {
        // Self-join duplicate filter (SelfJoin edges).
        0 => EventExpr::observation()
            .bind_reader("r")
            .bind_object("o")
            .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
            .within(window),
        // In-field filtering: the twin-leaf `QueryRecord` fusion.
        1 => shelf().not().seq(shelf()).within(window),
        // AND with right-side negation (pseudo events on window close).
        2 => EventExpr::observation_in_group("pos")
            .bind_object("o")
            .and(
                EventExpr::observation_in_group("exits")
                    .bind_object("o")
                    .not(),
            )
            .within(window),
        // Keyless chronicle join (TwoSided, trivial key).
        3 => EventExpr::observation_in_group("docks")
            .seq(EventExpr::observation_in_group("pos"))
            .within(window),
        // Global timed run (TimedAperiodic + CloseRun pseudo events).
        4 => EventExpr::observation_in_group("shelves")
            .tseq_plus(Span::ZERO, Span::from_millis(1_500))
            .within(window),
        // Right-side negation wait (anchor + window close).
        5 => EventExpr::observation_in_group("docks")
            .bind_object("o")
            .seq(
                EventExpr::observation_in_group("exits")
                    .bind_object("o")
                    .not(),
            )
            .within(window),
        // Aperiodic drain (LeftAperiodicQuery / AperiodicRecorder).
        6 => EventExpr::observation_in_group("shelves")
            .seq_plus()
            .seq(EventExpr::observation_in_group("docks"))
            .within(window),
        // Keyed two-sided join across groups (Left/Right edges).
        7 => EventExpr::observation_in_group("docks")
            .bind_object("o")
            .seq(EventExpr::observation_in_group("pos").bind_object("o"))
            .within(window),
        _ => unreachable!("shape index out of pool"),
    }
}

struct Fixture {
    sim: SupplyChain,
    stream: Vec<Observation>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let sim = SupplyChain::build(SimConfig::default());
        let stream = sim.generate(2_000).observations;
        Fixture { sim, stream }
    })
}

/// Runs one configuration; `batch == 1` feeds the stream through
/// `process`, anything else chunks it through `process_batch`.
fn run(
    enforce: bool,
    observe: ObserveLevel,
    batch: usize,
    program: &[(usize, usize)],
) -> (Vec<Fingerprint>, EngineStats) {
    let fx = fixture();
    let config = EngineConfig {
        enforce_bounds: enforce,
        observe,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(fx.sim.catalog.clone(), config);
    for (pos, &(idx, w)) in program.iter().enumerate() {
        let name = format!("r{pos}");
        engine
            .add_rule(&name, shape(idx, WINDOWS[w]))
            .expect("valid rule");
    }
    let mut out = Vec::new();
    let mut sink = |rule: RuleId, inst: &Instance| {
        out.push((rule.0, inst.t_begin(), inst.t_end(), inst.observations()));
    };
    if batch == 1 {
        for &obs in &fx.stream {
            engine.process(obs, &mut sink);
        }
    } else {
        for chunk in fx.stream.chunks(batch) {
            engine.process_batch(chunk, &mut sink);
        }
    }
    engine.finish(&mut sink);
    out.sort();
    (out, engine.stats())
}

/// The counters batching must not change — everything that describes
/// *detection* rather than sweep cadence.
fn detection_counters(s: &EngineStats) -> [u64; 7] {
    [
        s.events,
        s.matched_events,
        s.occurrences,
        s.rule_firings,
        s.pseudo_scheduled,
        s.pseudo_fired,
        s.capacity_drops,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any program of up to four rules from the shape pool fires
    /// identically — with identical detection counters — whether the
    /// stream is fed per observation or in chunks, at every chunking and
    /// under both bound-enforcement modes.
    #[test]
    fn batched_execution_preserves_firings_and_counters(
        program in proptest::collection::vec((0usize..SHAPES, 0usize..WINDOWS.len()), 1..=4),
        batch in prop_oneof![Just(7usize), Just(64), Just(256), Just(2_000)],
        observe in prop_oneof![Just(ObserveLevel::Off), Just(ObserveLevel::Counters)],
    ) {
        for enforce in [true, false] {
            let (single_firings, single_stats) = run(enforce, observe, 1, &program);
            let (batch_firings, batch_stats) = run(enforce, observe, batch, &program);
            prop_assert_eq!(
                &single_firings,
                &batch_firings,
                "firing multisets diverged under enforce={} batch={}",
                enforce, batch
            );
            prop_assert_eq!(
                detection_counters(&single_stats),
                detection_counters(&batch_stats),
                "detection counters diverged under enforce={} batch={}",
                enforce, batch
            );
            let events = fixture().stream.len() as u64;
            prop_assert_eq!(single_stats.batches_processed, events, "process is a one-element batch");
            prop_assert_eq!(
                batch_stats.batches_processed,
                events.div_ceil(batch as u64),
                "every chunk goes through the batch path"
            );
        }
    }
}
