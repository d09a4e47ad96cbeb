//! End-to-end detection tests against the paper's own examples:
//! Fig. 4 (chronicle TSEQ+ packing), Fig. 8 (pseudo-event negation),
//! Rules 1–5, and assorted constructor semantics.
//!
//! Every fixture run is also replayed through the reference evaluator
//! (`common::reference`, the executable form of `docs/SEMANTICS.md`), which
//! must produce exactly the engine's firing multiset — so each paper
//! example below proves the reference as well as the engine.

mod common;

use std::sync::Arc;

use common::reference;

use rceda::{Engine, EngineConfig, RuleId};
use rfid_epc::{Epc, Gid96, ReaderId};
use rfid_events::{EventExpr, Instance, Observation, Span, Timestamp};

/// Test fixture: catalog with named readers and typed objects, plus helpers
/// to feed observations and collect firings.
struct Fixture {
    engine: Engine,
    readers: Vec<ReaderId>,
    rules: Vec<EventExpr>,
}

fn obj(class: u64, serial: u64) -> Epc {
    Gid96::new(1, class, serial).unwrap().into()
}

impl Fixture {
    /// Readers r1..rN in their own default groups; classes 10 = "laptop",
    /// 20 = "superuser", 30 = "item", 40 = "case".
    fn new(n_readers: u32) -> Self {
        let mut catalog = rfid_events::Catalog::new();
        let readers = (1..=n_readers)
            .map(|i| {
                catalog
                    .readers
                    .register(&format!("r{i}"), &format!("r{i}"), "loc")
            })
            .collect();
        catalog.types.map_class_of(obj(10, 0), "laptop");
        catalog.types.map_class_of(obj(20, 0), "superuser");
        catalog.types.map_class_of(obj(30, 0), "item");
        catalog.types.map_class_of(obj(40, 0), "case");
        Self {
            engine: Engine::new(catalog, EngineConfig::default()),
            readers,
            rules: Vec::new(),
        }
    }

    fn rule(&mut self, name: &str, e: EventExpr) -> RuleId {
        self.rules.push(e.clone());
        self.engine.add_rule(name, e).unwrap()
    }

    /// Feeds observations (reader index 1-based, object, seconds) and
    /// returns all firings after finishing the stream.
    fn run(&mut self, obs: &[(u32, Epc, f64)]) -> Vec<(RuleId, Arc<Instance>)> {
        let mut out = Vec::new();
        let stream: Vec<Observation> = obs
            .iter()
            .map(|&(r, o, secs)| {
                Observation::new(
                    self.readers[(r - 1) as usize],
                    o,
                    Timestamp::from_millis((secs * 1000.0).round() as u64),
                )
            })
            .collect();
        self.engine
            .process_all(stream.iter().copied(), &mut |rule, inst| {
                out.push((rule, Arc::new(inst.clone())));
            });
        let engine: Vec<reference::Firing> = out
            .iter()
            .map(|(rule, inst)| (rule.0 as usize, inst.clone()))
            .collect();
        let expected = reference::evaluate(self.engine.catalog(), &self.rules, &stream);
        assert_eq!(
            reference::fingerprints(&engine),
            reference::fingerprints(&expected),
            "engine and reference evaluator disagree"
        );
        out
    }
}

fn at(reader: &str) -> rfid_events::expr::ObservationBuilder {
    EventExpr::observation_at(reader)
}

// ---------------------------------------------------------------------------
// Fig. 8: WITHIN(E1 ∧ ¬E2, 10sec) with history {e2@2, e1@10, e1@20}.
// ---------------------------------------------------------------------------

#[test]
fn fig8_pseudo_event_walkthrough() {
    let mut fx = Fixture::new(2);
    let e = at("r1").and(at("r2").not()).within(Span::from_secs(10));
    let rule = fx.rule("fig8", e);

    let fired = fx.run(&[
        (2, obj(20, 1), 2.0),  // e2 at t=2
        (1, obj(10, 1), 10.0), // e1 at t=10 — killed by e2 in [0, 10]
        (1, obj(10, 2), 20.0), // e1 at t=20 — no e2 in [10, 30] → occurrence
    ]);

    assert_eq!(fired.len(), 1, "exactly the t=20 laptop passes");
    let (r, inst) = &fired[0];
    assert_eq!(*r, rule);
    // The occurrence is resolved by the pseudo event at t=30.
    assert_eq!(inst.t_end(), Timestamp::from_secs(30));
    let obs = inst.observations();
    assert_eq!(obs.len(), 1);
    assert_eq!(obs[0].at, Timestamp::from_secs(20));
}

#[test]
fn fig8_negative_occurrence_within_future_window_blocks() {
    let mut fx = Fixture::new(2);
    let e = at("r1").and(at("r2").not()).within(Span::from_secs(10));
    fx.rule("fig8b", e);

    // e1@10, e2@15 (inside [10, 20] future window) → blocked.
    let fired = fx.run(&[(1, obj(10, 1), 10.0), (2, obj(20, 1), 15.0)]);
    assert!(fired.is_empty());
}

// ---------------------------------------------------------------------------
// Fig. 4: E = TSEQ(TSEQ+(E1, 0s, 1s); E2, 5s, 10s) with history
// e1@{1,2,3}, e1@{5,6,7}, e2@12, e2@15 — chronicle detects
// {e1¹,e1²,e1³,e2¹²} and {e1⁵,e1⁶,e1⁷,e2¹⁵}.
// ---------------------------------------------------------------------------

#[test]
fn fig4_chronicle_detection() {
    let mut fx = Fixture::new(2);
    let e = at("r1").tseq_plus(Span::ZERO, Span::from_secs(1)).tseq(
        at("r2"),
        Span::from_secs(5),
        Span::from_secs(10),
    );
    let rule = fx.rule("fig4", e);

    let item = |s| obj(30, s);
    let case = |s| obj(40, s);
    let fired = fx.run(&[
        (1, item(1), 1.0),
        (1, item(2), 2.0),
        (1, item(3), 3.0),
        (1, item(4), 5.0), // gap 2s > 1s: closes the first run, starts the second
        (1, item(5), 6.0),
        (1, item(6), 7.0),
        (2, case(1), 12.0),
        (2, case(2), 15.0),
    ]);

    assert_eq!(fired.len(), 2, "two packing occurrences");
    assert_eq!(fired[0].0, rule);

    // First: run {1,2,3} with the case at 12 (dist = 12-3 = 9 ∈ [5,10]).
    let first: Vec<u64> = fired[0]
        .1
        .observations()
        .iter()
        .map(|o| o.at.as_millis() / 1000)
        .collect();
    assert_eq!(first, vec![1, 2, 3, 12]);

    // Second: run {5,6,7} with the case at 15 (dist = 15-7 = 8 ∈ [5,10]).
    let second: Vec<u64> = fired[1]
        .1
        .observations()
        .iter()
        .map(|o| o.at.as_millis() / 1000)
        .collect();
    assert_eq!(second, vec![5, 6, 7, 15]);
}

#[test]
fn fig4_type_level_matching_would_be_wrong() {
    // The same history but with the case read too early for the second run:
    // no instance may span the >1s gap (the paper's §4.1 argument).
    let mut fx = Fixture::new(2);
    let e = at("r1").tseq_plus(Span::ZERO, Span::from_secs(1)).tseq(
        at("r2"),
        Span::from_secs(5),
        Span::from_secs(10),
    );
    fx.rule("fig4b", e);

    let fired = fx.run(&[
        (1, obj(30, 1), 1.0),
        (1, obj(30, 2), 2.0),
        (1, obj(30, 3), 5.0),  // gap 3s: run {1,2} closed, {5} opened
        (2, obj(40, 1), 20.0), // too far from both runs
    ]);
    assert!(
        fired.is_empty(),
        "no run within distance bounds of the case"
    );
}

// ---------------------------------------------------------------------------
// Rule 1: duplicate detection — same reader, same object, within 5 s.
// ---------------------------------------------------------------------------

#[test]
fn rule1_duplicate_detection_correlates_reader_and_object() {
    let mut fx = Fixture::new(2);
    let e = EventExpr::observation()
        .bind_reader("r")
        .bind_object("o")
        .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
        .within(Span::from_secs(5));
    let rule = fx.rule("dup", e);

    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (1, obj(30, 2), 1.0),  // different object: not a duplicate of #1
        (2, obj(30, 1), 2.0),  // different reader: not a duplicate of #1
        (1, obj(30, 1), 3.0),  // duplicate of #1 (same r, same o, 3s apart)
        (1, obj(30, 1), 9.5),  // 6.5s after previous: outside the window
        (1, obj(30, 1), 12.0), // duplicate of the 9.5s read
    ]);

    assert_eq!(fired.len(), 2);
    for (r, inst) in &fired {
        assert_eq!(*r, rule);
        let obs = inst.observations();
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].reader, obs[1].reader);
        assert_eq!(obs[0].object, obs[1].object);
    }
    let pair_times: Vec<(u64, u64)> = fired
        .iter()
        .map(|(_, i)| {
            let o = i.observations();
            (o[0].at.as_millis(), o[1].at.as_millis())
        })
        .collect();
    assert_eq!(pair_times, vec![(0, 3000), (9500, 12_000)]);
}

#[test]
fn rule1_chains_duplicates() {
    // Three reads of the same tag 1s apart: (t0,t1) and (t1,t2) both flagged,
    // because the middle read is a terminator and then an initiator.
    let mut fx = Fixture::new(1);
    let e = EventExpr::observation()
        .bind_reader("r")
        .bind_object("o")
        .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
        .within(Span::from_secs(5));
    fx.rule("dup", e);

    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (1, obj(30, 1), 1.0),
        (1, obj(30, 1), 2.0),
    ]);
    assert_eq!(fired.len(), 2);
}

// ---------------------------------------------------------------------------
// Rule 2: infield filtering — first sighting within the bulk-read period.
// ---------------------------------------------------------------------------

#[test]
fn rule2_infield_fires_only_on_first_sighting() {
    let mut fx = Fixture::new(1);
    // WITHIN(¬observation(r,o,t1); observation(r,o,t2), 30sec)
    let e = EventExpr::observation()
        .bind_reader("r")
        .bind_object("o")
        .not()
        .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
        .within(Span::from_secs(30));
    let rule = fx.rule("infield", e);

    // Shelf bulk-reads the same tag every 10s; only the first read is an
    // infield event. A second tag appears at t=25.
    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (1, obj(30, 1), 10.0),
        (1, obj(30, 1), 20.0),
        (1, obj(30, 2), 25.0),
        (1, obj(30, 1), 30.0),
        (1, obj(30, 2), 35.0),
    ]);

    assert_eq!(fired.len(), 2, "one infield per tag");
    assert_eq!(fired[0].0, rule);
    let firsts: Vec<u64> = fired
        .iter()
        .map(|(_, i)| i.observations()[0].at.as_millis() / 1000)
        .collect();
    assert_eq!(firsts, vec![0, 25]);
}

#[test]
fn rule2_infield_refires_after_absence() {
    // Tag leaves the shelf for > 30s and returns: the return is a new
    // infield event.
    let mut fx = Fixture::new(1);
    let e = EventExpr::observation()
        .bind_reader("r")
        .bind_object("o")
        .not()
        .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
        .within(Span::from_secs(30));
    fx.rule("infield", e);

    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (1, obj(30, 1), 10.0),
        (1, obj(30, 1), 50.0), // 40s gap: re-appearance
    ]);
    let firsts: Vec<u64> = fired
        .iter()
        .map(|(_, i)| i.observations()[0].at.as_millis() / 1000)
        .collect();
    assert_eq!(firsts, vec![0, 50]);
}

// ---------------------------------------------------------------------------
// Outfield: observation followed by no observation of the same tag.
// ---------------------------------------------------------------------------

#[test]
fn outfield_fires_when_tag_disappears() {
    let mut fx = Fixture::new(1);
    // WITHIN(observation(r,o,t1); ¬observation(r,o,t2), 30sec)
    let e = EventExpr::observation()
        .bind_reader("r")
        .bind_object("o")
        .seq(
            EventExpr::observation()
                .bind_reader("r")
                .bind_object("o")
                .not(),
        )
        .within(Span::from_secs(30));
    let rule = fx.rule("outfield", e);

    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (1, obj(30, 1), 10.0),
        (1, obj(30, 1), 20.0),
        // tag disappears after t=20
        (1, obj(30, 2), 100.0), // unrelated tag keeps the stream alive
    ]);

    // Sightings at 0 and 10 are followed by re-reads; the read at 20 is the
    // outfield trigger. Tag 2's single read at 100 also ends the stream
    // unseen, so it produces an outfield too (at finish).
    assert_eq!(fired.len(), 2);
    assert_eq!(fired[0].0, rule);
    let leavers: Vec<u64> = fired
        .iter()
        .map(|(_, i)| i.observations()[0].at.as_millis() / 1000)
        .collect();
    assert_eq!(leavers, vec![20, 100]);
}

// ---------------------------------------------------------------------------
// Rule 5 / Example 2: asset monitoring.
// ---------------------------------------------------------------------------

#[test]
fn rule5_asset_monitoring() {
    let mut fx = Fixture::new(4);
    let e = at("r4")
        .with_type("laptop")
        .and(at("r4").with_type("superuser").not())
        .within(Span::from_secs(5));
    let rule = fx.rule("asset", e);

    let fired = fx.run(&[
        // Laptop with a superuser 2s later: authorized, no alarm.
        (4, obj(10, 1), 0.0),
        (4, obj(20, 9), 2.0),
        // Laptop alone at t=20: alarm.
        (4, obj(10, 2), 20.0),
        // Superuser at 30, laptop at 33: badge within the *past* 5s window —
        // still authorized (the AND is order-free).
        (4, obj(20, 9), 30.0),
        (4, obj(10, 3), 33.0),
    ]);

    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].0, rule);
    assert_eq!(fired[0].1.observations()[0].object, obj(10, 2));
}

// ---------------------------------------------------------------------------
// OR / AND basics.
// ---------------------------------------------------------------------------

#[test]
fn or_fires_on_either_branch() {
    let mut fx = Fixture::new(2);
    let rule = fx.rule("or", at("r1").or(at("r2")));
    let fired = fx.run(&[(1, obj(30, 1), 0.0), (2, obj(30, 2), 1.0)]);
    assert_eq!(fired.len(), 2);
    assert!(fired.iter().all(|(r, _)| *r == rule));
}

#[test]
fn and_pairs_oldest_first_chronicle() {
    let mut fx = Fixture::new(2);
    fx.rule("and", at("r1").and(at("r2")).within(Span::from_secs(100)));
    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (1, obj(30, 2), 1.0),
        (2, obj(40, 1), 2.0), // pairs with the t=0 r1
        (2, obj(40, 2), 3.0), // pairs with the t=1 r1
        (2, obj(40, 3), 4.0), // unmatched
    ]);
    assert_eq!(fired.len(), 2);
    let pairs: Vec<(u64, u64)> = fired
        .iter()
        .map(|(_, i)| {
            let o = i.observations();
            (o[0].at.as_millis() / 1000, o[1].at.as_millis() / 1000)
        })
        .collect();
    assert_eq!(pairs, vec![(0, 2), (1, 3)]);
}

#[test]
fn and_respects_within() {
    let mut fx = Fixture::new(2);
    fx.rule("and", at("r1").and(at("r2")).within(Span::from_secs(5)));
    let fired = fx.run(&[(1, obj(30, 1), 0.0), (2, obj(40, 1), 10.0)]);
    assert!(fired.is_empty(), "10s apart exceeds the 5s window");
}

#[test]
fn and_is_order_insensitive() {
    let mut fx = Fixture::new(2);
    fx.rule("and", at("r1").and(at("r2")).within(Span::from_secs(5)));
    let fired = fx.run(&[(2, obj(40, 1), 0.0), (1, obj(30, 1), 2.0)]);
    assert_eq!(fired.len(), 1, "r2-then-r1 still satisfies AND");
}

// ---------------------------------------------------------------------------
// SEQ / TSEQ semantics.
// ---------------------------------------------------------------------------

#[test]
fn seq_requires_order() {
    let mut fx = Fixture::new(2);
    fx.rule("seq", at("r1").seq(at("r2")).within(Span::from_secs(100)));
    let fired = fx.run(&[
        (2, obj(40, 1), 0.0),
        (1, obj(30, 1), 1.0),
        (2, obj(40, 2), 2.0),
    ]);
    assert_eq!(fired.len(), 1, "only r1@1 ; r2@2 is ordered");
    let times: Vec<u64> = fired[0]
        .1
        .observations()
        .iter()
        .map(|o| o.at.as_millis() / 1000)
        .collect();
    assert_eq!(times, vec![1, 2]);
}

#[test]
fn tseq_enforces_distance_bounds() {
    let mut fx = Fixture::new(2);
    fx.rule(
        "tseq",
        at("r1").tseq(at("r2"), Span::from_secs(5), Span::from_secs(10)),
    );
    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (2, obj(40, 1), 2.0), // dist 2 < 5: too close
        (2, obj(40, 2), 7.0), // dist 7 ∈ [5,10]: match
        (1, obj(30, 2), 20.0),
        (2, obj(40, 3), 35.0), // dist 15 > 10: too far
    ]);
    assert_eq!(fired.len(), 1);
    let times: Vec<u64> = fired[0]
        .1
        .observations()
        .iter()
        .map(|o| o.at.as_millis() / 1000)
        .collect();
    assert_eq!(times, vec![0, 7]);
}

#[test]
fn tseq_skips_expired_initiator_for_a_valid_one() {
    // Chronicle pairs the oldest initiator *that satisfies the constraint*.
    let mut fx = Fixture::new(2);
    fx.rule(
        "tseq",
        at("r1").tseq(at("r2"), Span::ZERO, Span::from_secs(5)),
    );
    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (1, obj(30, 2), 10.0),
        (2, obj(40, 1), 12.0), // 12s from #1 (too far), 2s from #2 (ok)
    ]);
    assert_eq!(fired.len(), 1);
    let times: Vec<u64> = fired[0]
        .1
        .observations()
        .iter()
        .map(|o| o.at.as_millis() / 1000)
        .collect();
    assert_eq!(times, vec![10, 12]);
}

// ---------------------------------------------------------------------------
// SEQ+ (untimed aperiodic) as initiator.
// ---------------------------------------------------------------------------

#[test]
fn seqplus_collects_all_occurrences_before_terminator() {
    let mut fx = Fixture::new(2);
    let e = at("r1")
        .seq_plus()
        .seq(at("r2"))
        .within(Span::from_secs(60));
    fx.rule("batch", e);

    let fired = fx.run(&[
        (1, obj(30, 1), 1.0),
        (1, obj(30, 2), 5.0),
        (1, obj(30, 3), 9.0),
        (2, obj(40, 1), 20.0),
        // Second batch.
        (1, obj(30, 4), 30.0),
        (2, obj(40, 2), 40.0),
    ]);

    assert_eq!(fired.len(), 2);
    assert_eq!(fired[0].1.observations().len(), 4, "3 items + case");
    assert_eq!(fired[1].1.observations().len(), 2, "1 item + case");
}

#[test]
fn seqplus_with_no_occurrences_does_not_fire() {
    let mut fx = Fixture::new(2);
    let e = at("r1")
        .seq_plus()
        .seq(at("r2"))
        .within(Span::from_secs(60));
    fx.rule("batch", e);
    let fired = fx.run(&[(2, obj(40, 1), 20.0)]);
    assert!(fired.is_empty());
}

// ---------------------------------------------------------------------------
// TSEQ+ closure semantics.
// ---------------------------------------------------------------------------

#[test]
fn tseqplus_closes_by_pseudo_event_at_stream_end() {
    let mut fx = Fixture::new(1);
    let e = at("r1")
        .tseq_plus(Span::ZERO, Span::from_secs(1))
        .within(Span::from_secs(100));
    let rule = fx.rule("run", e);

    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (1, obj(30, 2), 0.5),
        (1, obj(30, 3), 1.2),
    ]);
    assert_eq!(fired.len(), 1, "one maximal run, closed at t_end + 1s");
    assert_eq!(fired[0].0, rule);
    assert_eq!(fired[0].1.observations().len(), 3);
}

#[test]
fn tseqplus_sub_min_gap_discards_run() {
    let mut fx = Fixture::new(1);
    let e = at("r1")
        .tseq_plus(Span::from_millis(500), Span::from_secs(1))
        .within(Span::from_secs(100));
    fx.rule("run", e);

    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (1, obj(30, 2), 0.1), // gap 100ms < 500ms: discard, restart
        (1, obj(30, 3), 0.8), // gap 700ms: extends run {2}
    ]);
    assert_eq!(fired.len(), 1);
    let times: Vec<u64> = fired[0]
        .1
        .observations()
        .iter()
        .map(|o| o.at.as_millis())
        .collect();
    assert_eq!(
        times,
        vec![100, 800],
        "the pre-violation element was discarded"
    );
}

// ---------------------------------------------------------------------------
// Rule 4: full containment-aggregation pattern.
// ---------------------------------------------------------------------------

#[test]
fn rule4_containment_pattern() {
    let mut fx = Fixture::new(2);
    // TSEQ(TSEQ+(E1, 0.1s, 1s); E2, 10s, 20s)
    let e = at("r1")
        .tseq_plus(Span::from_millis(100), Span::from_secs(1))
        .tseq(at("r2"), Span::from_secs(10), Span::from_secs(20));
    let rule = fx.rule("containment", e);

    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (1, obj(30, 2), 0.5),
        (1, obj(30, 3), 1.0),
        (1, obj(30, 4), 1.5),
        (2, obj(40, 1), 13.0), // case 11.5s after the last item
    ]);

    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].0, rule);
    let obs = fired[0].1.observations();
    assert_eq!(obs.len(), 5, "four items and the case");
    assert_eq!(obs[4].object, obj(40, 1), "case is the final constituent");
}

#[test]
fn rule4_case_too_early_or_too_late_does_not_aggregate() {
    let mut fx = Fixture::new(2);
    let e = at("r1")
        .tseq_plus(Span::from_millis(100), Span::from_secs(1))
        .tseq(at("r2"), Span::from_secs(10), Span::from_secs(20));
    fx.rule("containment", e);

    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (1, obj(30, 2), 0.5),
        (2, obj(40, 1), 3.0),  // 2.5s after last item: < 10s
        (2, obj(40, 2), 30.0), // 29.5s after last item: > 20s
    ]);
    assert!(fired.is_empty());
}

// ---------------------------------------------------------------------------
// Overlapping complex events (the reason chronicle is required).
// ---------------------------------------------------------------------------

#[test]
fn overlapping_sequences_pair_chronologically() {
    let mut fx = Fixture::new(2);
    fx.rule("seq", at("r1").seq(at("r2")).within(Span::from_secs(100)));
    // Two interleaved occurrences: i1 i2 c1 c2.
    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (1, obj(30, 2), 1.0),
        (2, obj(40, 1), 2.0),
        (2, obj(40, 2), 3.0),
    ]);
    assert_eq!(fired.len(), 2);
    let pairs: Vec<(u64, u64)> = fired
        .iter()
        .map(|(_, i)| {
            let o = i.observations();
            (o[0].at.as_millis() / 1000, o[1].at.as_millis() / 1000)
        })
        .collect();
    assert_eq!(
        pairs,
        vec![(0, 2), (1, 3)],
        "oldest initiator ↔ oldest terminator"
    );
}

// ---------------------------------------------------------------------------
// Shared subgraphs across rules detect independently.
// ---------------------------------------------------------------------------

#[test]
fn merged_subgraph_feeds_both_rules() {
    let mut fx = Fixture::new(3);
    let shared = at("r1").seq(at("r2")).within(Span::from_secs(50));
    let r_a = fx.rule("a", shared.clone());
    let r_b = fx.rule("b", shared.seq(at("r3")).within(Span::from_secs(50)));
    assert!(
        fx.engine.graph().merged_hits() > 0,
        "the SEQ subgraph merged"
    );

    let fired = fx.run(&[
        (1, obj(30, 1), 0.0),
        (2, obj(40, 1), 1.0),
        (3, obj(30, 9), 2.0),
    ]);
    let rules: Vec<RuleId> = fired.iter().map(|(r, _)| *r).collect();
    assert!(rules.contains(&r_a));
    assert!(rules.contains(&r_b));
    assert_eq!(fired.len(), 2);
}

// ---------------------------------------------------------------------------
// Group-based primitive event types.
// ---------------------------------------------------------------------------

#[test]
fn group_patterns_match_any_group_member() {
    let mut catalog = rfid_events::Catalog::new();
    let a = catalog.readers.register("dock-1", "g1", "dock");
    let b = catalog.readers.register("dock-2", "g1", "dock");
    let c = catalog.readers.register("exit-1", "exit", "exit");
    let mut engine = Engine::new(catalog, EngineConfig::default());
    let rule = engine
        .add_rule("group", EventExpr::observation_in_group("g1").build())
        .unwrap();

    let mut fired = Vec::new();
    let t = Timestamp::from_secs(1);
    engine.process(Observation::new(a, obj(30, 1), t), &mut |r, _| {
        fired.push(r);
    });
    engine.process(
        Observation::new(b, obj(30, 2), t + Span::from_secs(1)),
        &mut |r, _| fired.push(r),
    );
    engine.process(
        Observation::new(c, obj(30, 3), t + Span::from_secs(2)),
        &mut |r, _| fired.push(r),
    );
    assert_eq!(
        fired,
        vec![rule, rule],
        "both g1 readers, not the exit reader"
    );
}

// ---------------------------------------------------------------------------
// Stats sanity.
// ---------------------------------------------------------------------------

#[test]
fn stats_track_processing() {
    let mut fx = Fixture::new(2);
    fx.rule(
        "asset",
        at("r1").and(at("r2").not()).within(Span::from_secs(5)),
    );
    let _ = fx.run(&[(1, obj(30, 1), 0.0), (1, obj(30, 2), 100.0)]);
    let stats = fx.engine.stats();
    assert_eq!(stats.events, 2);
    assert_eq!(stats.matched_events, 2);
    assert_eq!(stats.pseudo_scheduled, 2, "one negation wait per laptop");
    assert_eq!(stats.pseudo_fired, 2);
    assert_eq!(stats.rule_firings, 2);
}
