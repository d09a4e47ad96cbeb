//! Engine ≡ reference evaluator: for generated rule programs that cover
//! every constructor — OR, AND, SEQ, TSEQ, SEQ+, TSEQ+, NOT in each of its
//! three plan positions, WITHIN, and self-joins — over generated streams,
//! the engine must emit exactly the firing multiset of the brute-force
//! reference evaluator (`common::reference`, the executable form of
//! `docs/SEMANTICS.md`), with common-subgraph merging both on and off.
//!
//! The reference shares no code with the engine, so this is the suite
//! that pins *what* is detected; the batch, bounds and subsumption suites
//! pin that optimizations do not change it.
//!
//! Program shape: the two sides of an `OR` or of a two-sided join read
//! disjoint reader groups, or are the same expression (a self-join). Only
//! under those conditions does one observation yield at most one
//! occurrence per node; SEMANTICS.md §4 leaves the relative order of
//! several same-observation occurrences of one node unspecified. Negated
//! and `SEQ+` constituents may read any group, including the groups of
//! the positive side (the in-field/out-field shapes).

mod common;

use std::collections::BTreeSet;

use common::reference;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rceda::engine::{Engine, EngineConfig, RuleId};
use rfid_epc::{Epc, Gid96};
use rfid_events::{Catalog, EventExpr, Instance, Observation, Span, Timestamp};

const GROUPS: usize = 4;
const READERS_PER_GROUP: usize = 2;
const WINDOWS: [u64; 4] = [1_500, 3_000, 5_000, 8_000];
const DISTANCES: [(u64, u64); 3] = [(0, 2_000), (500, 3_000), (1_000, 5_000)];
const GAPS: [(u64, u64); 2] = [(0, 1_500), (200, 2_000)];

fn object(serial: u64) -> Epc {
    // Serials 0–1 are pallets, 2–3 cases.
    Gid96::new(1, 10 + serial / 2, serial).unwrap().into()
}

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for g in 0..GROUPS {
        for r in 0..READERS_PER_GROUP {
            catalog
                .readers
                .register(&format!("g{g}r{r}"), &format!("g{g}"), "site");
        }
    }
    catalog.types.map_class_of(object(0), "pallet");
    catalog.types.map_class_of(object(2), "case");
    catalog
}

/// Draws rule programs and streams from a seed.
struct Gen {
    rng: StdRng,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn span(&mut self, choices: &[u64]) -> Span {
        Span::from_millis(choices[self.rng.gen_range(0..choices.len())])
    }

    fn window(&mut self) -> Span {
        self.span(&WINDOWS)
    }

    fn pair(&mut self, choices: &[(u64, u64)]) -> (Span, Span) {
        let (lo, hi) = choices[self.rng.gen_range(0..choices.len())];
        (Span::from_millis(lo), Span::from_millis(hi))
    }

    /// Splits a group set into two non-empty disjoint halves.
    fn split(&mut self, groups: &[usize]) -> (Vec<usize>, Vec<usize>) {
        loop {
            let (a, b): (Vec<usize>, Vec<usize>) =
                groups.iter().partition(|_| self.rng.gen_bool(0.5));
            if !a.is_empty() && !b.is_empty() {
                return (a, b);
            }
        }
    }

    fn leaf(&mut self, groups: &[usize], bind: bool) -> EventExpr {
        let g = groups[self.rng.gen_range(0..groups.len())];
        let mut p = if self.rng.gen_bool(0.5) {
            EventExpr::observation_in_group(&format!("g{g}"))
        } else {
            let r = self.rng.gen_range(0..READERS_PER_GROUP);
            EventExpr::observation_at(&format!("g{g}r{r}"))
        };
        match self.rng.gen_range(0u32..10) {
            0..=5 => {}
            6..=8 => {
                let ty = if self.rng.gen_bool(0.5) {
                    "pallet"
                } else {
                    "case"
                };
                p = p.with_type(ty);
            }
            _ => p = p.with_object(object(self.rng.gen_range(0u64..4))),
        }
        if bind && self.rng.gen_bool(0.8) {
            p = p.bind_object("o");
        }
        p.build()
    }

    /// A spontaneous (push or, unless `push_only`, mixed) event over the
    /// reader groups `groups`.
    fn event(&mut self, groups: &[usize], depth: u32, bind: bool, push_only: bool) -> EventExpr {
        if depth == 0 {
            return self.leaf(groups, bind);
        }
        let all: Vec<usize> = (0..GROUPS).collect();
        let d = depth - 1;
        let choice = if push_only {
            self.rng.gen_range(0u32..7)
        } else {
            self.rng.gen_range(0u32..11)
        };
        match choice {
            0 => self.leaf(groups, bind),
            1 if groups.len() >= 2 => {
                let (ga, gb) = self.split(groups);
                let a = self.event(&ga, d, false, true);
                let b = self.event(&gb, d, false, true);
                a.or(b)
            }
            1 | 2 if groups.len() >= 2 => {
                let (ga, gb) = self.split(groups);
                let a = self.event(&ga, d, bind, push_only);
                let b = self.event(&gb, d, bind, push_only);
                self.two_sided(a, b)
            }
            1..=3 => {
                // Structurally identical sides: the self-join protocol.
                let x = self.event(groups, d, bind, push_only);
                let e = self.two_sided(x.clone(), x);
                e.within(self.window())
            }
            4 => {
                let x = self.event(&all, d, bind, false);
                let b = self.event(groups, d, bind, push_only);
                let e = if self.rng.gen_bool(0.5) {
                    x.not().seq(b)
                } else {
                    let (lo, hi) = self.pair(&DISTANCES);
                    x.not().tseq(b, lo, hi)
                };
                self.maybe_within(e)
            }
            5 => {
                let x = self.event(&all, d, false, false);
                let b = self.event(groups, d, bind, push_only);
                let e = if self.rng.gen_bool(0.5) {
                    x.seq_plus().seq(b)
                } else {
                    let (lo, hi) = self.pair(&DISTANCES);
                    x.seq_plus().tseq(b, lo, hi)
                };
                self.maybe_within(e)
            }
            6 => {
                let x = self.event(groups, d, bind, push_only);
                x.within(self.window())
            }
            7 => {
                let x = self.event(groups, d, false, false);
                let (lo, hi) = self.pair(&GAPS);
                x.tseq_plus(lo, hi).within(self.window())
            }
            8 => {
                let a = self.event(groups, d, bind, false);
                let x = self.event(&all, d, bind, false);
                if self.rng.gen_bool(0.5) {
                    a.seq(x.not()).within(self.window())
                } else {
                    let (lo, hi) = self.pair(&DISTANCES);
                    a.tseq(x.not(), lo, hi)
                }
            }
            _ => {
                let a = self.event(groups, d, bind, false);
                let x = self.event(&all, d, bind, false);
                let e = if self.rng.gen_bool(0.5) {
                    a.and(x.not())
                } else {
                    x.not().and(a)
                };
                e.within(self.window())
            }
        }
    }

    fn two_sided(&mut self, a: EventExpr, b: EventExpr) -> EventExpr {
        let e = match self.rng.gen_range(0u32..3) {
            0 => a.and(b),
            1 => a.seq(b),
            _ => {
                let (lo, hi) = self.pair(&DISTANCES);
                a.tseq(b, lo, hi)
            }
        };
        self.maybe_within(e)
    }

    fn maybe_within(&mut self, e: EventExpr) -> EventExpr {
        if self.rng.gen_bool(0.6) {
            e.within(self.window())
        } else {
            e
        }
    }

    /// One to four rules the engine accepts (invalid draws — e.g. a
    /// correlation the join cannot enforce — are redrawn).
    fn program(&mut self, catalog: &Catalog) -> Vec<EventExpr> {
        let all: Vec<usize> = (0..GROUPS).collect();
        let n = self.rng.gen_range(1usize..=4);
        let mut probe = Engine::new(catalog.clone(), EngineConfig::default());
        let mut rules = Vec::new();
        while rules.len() < n {
            let depth = self.rng.gen_range(1u32..=3);
            let bind = self.rng.gen_bool(0.6);
            let e = self.event(&all, depth, bind, false);
            if probe.add_rule("probe", e.clone()).is_ok() {
                rules.push(e);
            }
        }
        rules
    }

    fn stream(&mut self, catalog: &Catalog) -> Vec<Observation> {
        let readers: Vec<_> = catalog.readers.iter().map(|d| d.id).collect();
        let n = self.rng.gen_range(40u32..=120);
        let mut t: u64 = 1_000;
        (0..n)
            .map(|_| {
                if !self.rng.gen_bool(0.1) {
                    t += self.rng.gen_range(1u64..=2_200);
                }
                let reader = readers[self.rng.gen_range(0..readers.len())];
                Observation::new(
                    reader,
                    object(self.rng.gen_range(0u64..4)),
                    Timestamp::from_millis(t),
                )
            })
            .collect()
    }
}

fn run_engine(
    catalog: &Catalog,
    merge: bool,
    rules: &[EventExpr],
    stream: &[Observation],
) -> Vec<reference::Fingerprint> {
    let config = EngineConfig {
        merge_subgraphs: merge,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(catalog.clone(), config);
    for (i, e) in rules.iter().enumerate() {
        engine
            .add_rule(&format!("r{i}"), e.clone())
            .expect("valid rule");
    }
    let mut out = Vec::new();
    engine.process_all(
        stream.iter().copied(),
        &mut |rule: RuleId, inst: &Instance| {
            out.push((rule.0 as usize, std::sync::Arc::new(inst.clone())));
        },
    );
    reference::fingerprints(&out)
}

/// The constructors (and `NOT` plan positions) an expression uses.
fn constructors(e: &EventExpr, out: &mut BTreeSet<&'static str>) {
    let is_not = |x: &EventExpr| matches!(strip(x), EventExpr::Not(_));
    match e {
        EventExpr::Primitive(_) => {}
        EventExpr::Within { inner, .. } => {
            out.insert("WITHIN");
            constructors(inner, out);
        }
        EventExpr::Or(a, b) => {
            out.insert("OR");
            constructors(a, out);
            constructors(b, out);
        }
        EventExpr::Not(x) => constructors(x, out),
        EventExpr::SeqPlus(x) => {
            out.insert("SEQ+");
            constructors(x, out);
        }
        EventExpr::TSeqPlus { inner, .. } => {
            out.insert("TSEQ+");
            constructors(inner, out);
        }
        EventExpr::And(a, b)
        | EventExpr::Seq(a, b)
        | EventExpr::TSeq {
            first: a,
            second: b,
            ..
        } => {
            out.insert(match e {
                EventExpr::And(..) => "AND",
                EventExpr::Seq(..) => "SEQ",
                _ => "TSEQ",
            });
            if a == b {
                out.insert("self-join");
            }
            match (is_not(a), is_not(b), matches!(e, EventExpr::And(..))) {
                (true, _, true) | (_, true, true) => out.insert("NOT in AND"),
                (true, _, false) => out.insert("NOT as initiator"),
                (_, true, false) => out.insert("NOT as terminator"),
                _ => false,
            };
            constructors(a, out);
            constructors(b, out);
        }
    }
}

fn strip(e: &EventExpr) -> &EventExpr {
    match e {
        EventExpr::Within { inner, .. } => strip(inner),
        other => other,
    }
}

#[test]
fn generator_covers_every_constructor() {
    let catalog = catalog();
    let mut seen = BTreeSet::new();
    let mut firing_programs = 0;
    for seed in 0..200 {
        let mut gen = Gen::new(seed);
        let rules = gen.program(&catalog);
        for e in &rules {
            constructors(e, &mut seen);
        }
        let stream = gen.stream(&catalog);
        if !reference::evaluate(&catalog, &rules, &stream).is_empty() {
            firing_programs += 1;
        }
    }
    let expected = [
        "OR",
        "AND",
        "SEQ",
        "TSEQ",
        "SEQ+",
        "TSEQ+",
        "WITHIN",
        "self-join",
        "NOT as initiator",
        "NOT as terminator",
        "NOT in AND",
    ];
    for c in expected {
        assert!(seen.contains(c), "generator never drew {c}");
    }
    assert!(
        firing_programs >= 100,
        "only {firing_programs}/200 drawn programs fire at all"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The engine's firing multiset equals the reference evaluator's, with
    /// subgraph merging on (shared nodes, fused in-field deliveries,
    /// coalesced leaves) and off.
    #[test]
    fn engine_matches_reference(seed in any::<u64>()) {
        let catalog = catalog();
        let mut gen = Gen::new(seed);
        let rules = gen.program(&catalog);
        let stream = gen.stream(&catalog);
        let expected = reference::fingerprints(&reference::evaluate(&catalog, &rules, &stream));
        for merge in [true, false] {
            let got = run_engine(&catalog, merge, &rules, &stream);
            let program: Vec<String> = rules.iter().map(ToString::to_string).collect();
            prop_assert_eq!(
                &got,
                &expected,
                "engine (merge={}) disagrees with the reference on seed {}: {:#?}",
                merge,
                seed,
                program
            );
        }
    }
}
