//! Bound enforcement ≡ conservative eviction: for any rule program drawn
//! from the paper's rule shapes and a realistic simulator trace, running
//! with the solved retention bounds enforced (`enforce_bounds: true`, the
//! default — eager per-node pruning at the interval solver's horizon) must
//! emit exactly the same multiset of rule firings as the conservative
//! `max_lag`-padded eviction it replaces. This is the differential harness
//! behind the solver's soundness argument (DESIGN.md §14): the solved
//! bounds only discard state that no future arrival could ever pair with,
//! so chronicle-context matching is unaffected.
//!
//! Only firings are compared, not counters: sweeps legitimately prune at
//! different clocks in the two modes, so `capacity_drops` and the gauges
//! may differ — the equivalence claim is about *what fires*, not *when
//! state dies*.

use proptest::prelude::*;
use rceda::engine::{Engine, EngineConfig, RuleId};
use rfid_events::{EventExpr, Instance, Observation, Span, Timestamp};
use rfid_simulator::{SimConfig, SupplyChain};
use std::sync::OnceLock;

/// A firing fingerprint that identifies an occurrence independently of
/// emission order: rule, instance window, and constituent observations.
type Fingerprint = (u32, Timestamp, Timestamp, Vec<Observation>);

/// The same shape pool as `plan_equivalence`: every plan variant the
/// lowering distinguishes, so every eviction site (join buffers, negation
/// histories, aperiodic stores, timed runs, waits) is exercised.
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

fn run(enforce: bool, program: &[(usize, usize)]) -> Vec<Fingerprint> {
    let fx = fixture();
    let config = EngineConfig {
        enforce_bounds: enforce,
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
    for &obs in &fx.stream {
        engine.process(obs, &mut sink);
    }
    engine.finish(&mut sink);
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any program of up to five rules drawn from the shape pool fires
    /// identically with bound enforcement on and off. Merging stays on (the engine default) so the solver also
    /// sees hash-consed nodes shared between rules with different windows.
    #[test]
    fn enforced_bounds_preserve_the_firing_multiset(
        program in proptest::collection::vec((0usize..SHAPES, 0usize..WINDOWS.len()), 1..=5)
    ) {
        let enforced = run(true, &program);
        let conservative = run(false, &program);
        prop_assert_eq!(enforced, conservative, "firing multisets diverged");
    }
}
