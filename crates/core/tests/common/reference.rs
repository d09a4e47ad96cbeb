//! A brute-force reference evaluator for `docs/SEMANTICS.md`.
//!
//! This is the executable form of the semantics document, written in the
//! denotational style of Bucchi et al. (*Foundations of Complex Event
//! Processing*): the meaning of an event expression over a *finite* stream
//! is its list of occurrences, built bottom-up from the meanings of its
//! sub-expressions with plain `Vec` scans. It shares no code with the
//! engine — no event graph, no compiled plan, no keyed buffers, no solved
//! bounds, no pseudo-event queue — and imports only `rfid_events` /
//! `rfid_epc` types. Negation windows are resolved by looking ahead in the
//! inner event's complete occurrence list instead of by scheduled pseudo
//! events.
//!
//! Every occurrence carries its *detection position* (`When`), the point in
//! stream processing at which it becomes known (SEMANTICS.md §4):
//! `[t, 0, i]` for anything detected while consuming the `i`-th
//! observation (at time `t`), and `[t, 1, …]` for anything detected when a
//! window closes or a `TSEQ+` run times out at `t` — after every
//! observation at `t` and after everything the closing window's negated
//! (or the run's repeated) event detects at `t`, and ordered among one
//! node's closures by the position of the occurrence that opened the
//! window or last extended the run. Chronicle buffers are FIFO in
//! detection position; a history query sees what was detected before it,
//! and a window closing at `t` sees everything detected by `t`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rfid_epc::{Epc, ReaderId};
use rfid_events::{
    dist, interval2, Catalog, EventExpr, Instance, Observation, Span, Timestamp, Var,
};

/// Detection position; compared lexicographically.
type When = Vec<u64>;

/// One occurrence of a (sub-)event.
#[derive(Clone)]
struct Occ {
    inst: Arc<Instance>,
    when: When,
    /// The stream index of a primitive occurrence: one read delivered to
    /// both sides of a join is a single instance and never pairs with
    /// itself.
    read: Option<usize>,
}

impl Occ {
    fn derived(inst: Instance, when: When) -> Self {
        Self {
            inst: Arc::new(inst),
            when,
            read: None,
        }
    }

    fn t_begin(&self) -> Timestamp {
        self.inst.t_begin()
    }

    fn t_end(&self) -> Timestamp {
        self.inst.t_end()
    }
}

/// A bound attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    Reader(ReaderId),
    Object(Epc),
}

type Bindings = BTreeMap<Var, Val>;

/// The binary constructors.
#[derive(Debug, Clone, Copy)]
enum Bin {
    And,
    Seq,
    TSeq { min: Span, max: Span },
}

impl Bin {
    fn name(self) -> &'static str {
        match self {
            Bin::And => "AND",
            Bin::Seq => "SEQ",
            Bin::TSeq { .. } => "TSEQ",
        }
    }
}

/// A rule firing: rule index (registration order) and the occurrence.
pub type Firing = (usize, Arc<Instance>);

/// An order-independent identity of a firing: rule, instance window, and
/// the constituent observations in detection order.
pub type Fingerprint = (u32, Timestamp, Timestamp, Vec<Observation>);

/// Sorted fingerprints of a firing list — the multiset the differential
/// suites compare.
pub fn fingerprints(firings: &[Firing]) -> Vec<Fingerprint> {
    let mut out: Vec<Fingerprint> = firings
        .iter()
        .map(|(rule, inst)| {
            (
                u32::try_from(*rule).expect("rule index fits u32"),
                inst.t_begin(),
                inst.t_end(),
                inst.observations(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Every firing of every rule over a finite, time-ordered stream
/// (end-of-stream resolves all open windows and runs, as `finish()` does).
pub fn evaluate(catalog: &Catalog, rules: &[EventExpr], stream: &[Observation]) -> Vec<Firing> {
    let eval = Eval { catalog, stream };
    let mut out = Vec::new();
    for (rule, expr) in rules.iter().enumerate() {
        for occ in eval.occurrences(expr, Span::MAX) {
            out.push((rule, occ.inst));
        }
    }
    out
}

struct Eval<'a> {
    catalog: &'a Catalog,
    stream: &'a [Observation],
}

impl Eval<'_> {
    /// The occurrences of `expr` under the inherited interval bound
    /// `within`, in detection order. `WITHIN` is not an event of its own:
    /// it tightens the bound every constructor below it checks (§2).
    fn occurrences(&self, expr: &EventExpr, within: Span) -> Vec<Occ> {
        match expr {
            EventExpr::Within { inner, window } => self.occurrences(inner, (*window).min(within)),
            EventExpr::Primitive(p) => self
                .stream
                .iter()
                .enumerate()
                .filter(|(_, obs)| p.matches(obs, self.catalog))
                .map(|(i, obs)| Occ {
                    inst: Arc::new(Instance::observation(*obs)),
                    when: vec![obs.at.as_millis(), 0, i as u64],
                    read: Some(i),
                })
                .collect(),
            EventExpr::Or(a, b) => merge(self.occurrences(a, within), self.occurrences(b, within))
                .into_iter()
                .filter(|(_, o)| o.inst.interval() <= within)
                .map(|(_, o)| Occ::derived(Instance::wrap("OR", o.inst), o.when))
                .collect(),
            EventExpr::Not(_) | EventExpr::SeqPlus(_) => {
                panic!("a non-spontaneous event has no occurrences of its own: {expr}")
            }
            EventExpr::TSeqPlus {
                inner,
                min_gap,
                max_gap,
            } => timed_runs(self.occurrences(inner, within), *min_gap, *max_gap, within),
            EventExpr::And(a, b) => self.binary(Bin::And, a, b, within),
            EventExpr::Seq(a, b) => self.binary(Bin::Seq, a, b, within),
            EventExpr::TSeq {
                first,
                second,
                min_dist,
                max_dist,
            } => self.binary(
                Bin::TSeq {
                    min: *min_dist,
                    max: *max_dist,
                },
                first,
                second,
                within,
            ),
        }
    }

    /// Binary constructors, by the shape of their two sides (§2–§3).
    fn binary(&self, kind: Bin, a: &EventExpr, b: &EventExpr, within: Span) -> Vec<Occ> {
        let (ca, wa) = unwrap_within(a, within);
        let (cb, wb) = unwrap_within(b, within);
        match (ca, cb, kind) {
            (EventExpr::Not(x), _, Bin::And) => self.negation_wait(kind, 0, (x, wa), b, within),
            (_, EventExpr::Not(x), Bin::And) => self.negation_wait(kind, 1, (x, wb), a, within),
            (EventExpr::Not(x), _, _) => self.negation_query(kind, (x, wa), b, within),
            (EventExpr::SeqPlus(x), _, _) => self.run_query(kind, (x, wa), b, within),
            (_, EventExpr::Not(x), _) => self.negation_wait(kind, 1, (x, wb), a, within),
            _ if a == b => self.self_join(kind, a, within),
            _ => self.join(kind, a, b, within),
        }
    }

    /// Two-sided chronicle join: each side is a FIFO of unconsumed
    /// occurrences; an arrival pairs with the oldest compatible occurrence
    /// of the other side and both are consumed (on their side).
    fn join(&self, kind: Bin, a: &EventExpr, b: &EventExpr, within: Span) -> Vec<Occ> {
        let shared = shared_vars(&exports(a), &exports(b));
        let mut buf: [Vec<(Occ, Bindings)>; 2] = [Vec::new(), Vec::new()];
        let mut out = Vec::new();
        for (side, x) in merge(self.occurrences(a, within), self.occurrences(b, within)) {
            let bx = bindings(if side == 0 { a } else { b }, &x.inst);
            let other = &mut buf[1 - side];
            let hit = other.iter().position(|(e, be)| {
                let (l, r) = if side == 0 { (&x, e) } else { (e, &x) };
                !same_read(l, r) && agree(&shared, be, &bx) && pair_ok(kind, within, l, r)
            });
            match hit {
                Some(pos) => {
                    let (partner, _) = other.remove(pos);
                    let (first, second) = if side == 0 {
                        (x.inst, partner.inst)
                    } else {
                        (partner.inst, x.inst)
                    };
                    out.push(Occ::derived(
                        Instance::pair(kind.name(), first, second),
                        x.when,
                    ));
                }
                None => buf[side].push((x, bx)),
            }
        }
        out
    }

    /// Structurally identical sides (Rule 1): an arrival first terminates
    /// the oldest older initiator, then becomes an initiator itself.
    fn self_join(&self, kind: Bin, a: &EventExpr, within: Span) -> Vec<Occ> {
        let shared: BTreeSet<Var> = exports(a);
        let mut buf: Vec<(Occ, Bindings)> = Vec::new();
        let mut out = Vec::new();
        for x in self.occurrences(a, within) {
            let bx = bindings(a, &x.inst);
            let hit = buf
                .iter()
                .position(|(e, be)| agree(&shared, be, &bx) && pair_ok(kind, within, e, &x));
            if let Some(pos) = hit {
                let (e, _) = buf.remove(pos);
                out.push(Occ::derived(
                    Instance::pair(kind.name(), e.inst, x.inst.clone()),
                    x.when.clone(),
                ));
            }
            buf.push((x, bx));
        }
        out
    }

    /// `SEQ(¬A; B)` / `TSEQ(¬A; B)`: answered from the past at B's
    /// detection. The window ends strictly before B begins (§3 plan 1).
    fn negation_query(
        &self,
        kind: Bin,
        (x, wx): (&EventExpr, Span),
        b: &EventExpr,
        within: Span,
    ) -> Vec<Occ> {
        let shared = shared_vars(&exports(x), &exports(b));
        let history = self.history(x, wx);
        let mut out = Vec::new();
        for p in self.occurrences(b, within) {
            let (from, upper) = match kind {
                Bin::Seq => (back(p.t_end(), within), Upper::Before(p.t_begin())),
                Bin::TSeq { min, max } => (
                    p.t_end().saturating_sub(max),
                    upper_bound(p.t_end().saturating_sub(min), p.t_begin()),
                ),
                Bin::And => unreachable!("AND with a negation waits"),
            };
            let bp = bindings(b, &p.inst);
            let blocked = history.iter().any(|(r, br)| {
                r.when < p.when
                    && agree(&shared, br, &bp)
                    && from <= r.t_end()
                    && upper.admits(r.t_end())
            });
            if !blocked {
                let absence = Arc::new(Instance::absence(from.min(upper.time()), upper.time()));
                out.push(Occ::derived(
                    Instance::pair(kind.name(), absence, p.inst.clone()),
                    p.when.clone(),
                ));
            }
        }
        out
    }

    /// `SEQ(A; ¬B)`, `TSEQ(A; ¬B)` and `AND` with a negated side: the
    /// window may extend past A's detection, so it is resolved by looking
    /// ahead to its close (§3 plans 2 and 3). The occurrence is detected
    /// when the window closes, or at A's detection if that is later.
    fn negation_wait(
        &self,
        kind: Bin,
        not_side: usize,
        (x, wx): (&EventExpr, Span),
        push: &EventExpr,
        within: Span,
    ) -> Vec<Occ> {
        let shared = shared_vars(&exports(x), &exports(push));
        let history = self.history(x, wx);
        let mut out = Vec::new();
        for p in self.occurrences(push, within) {
            let epsilon = Span::from_millis(1);
            let (from, to) = match kind {
                Bin::Seq => (p.t_end() + epsilon, p.t_begin() + within),
                Bin::TSeq { min, max } => (p.t_end() + min.max(epsilon), p.t_end() + max),
                Bin::And => (back(p.t_end(), within), p.t_begin() + within),
            };
            let bp = bindings(push, &p.inst);
            // The window resolves when it closes, or at once if it closed
            // before A was detected, and sees everything detected by then.
            let close = to.max(Timestamp::from_millis(p.when[0]));
            let blocked = history.iter().any(|(r, br)| {
                r.when[0] <= close.as_millis()
                    && agree(&shared, br, &bp)
                    && from <= r.t_end()
                    && r.t_end() <= to
            });
            if blocked {
                continue;
            }
            let when = pseudo(close, &p.when);
            let absence = Arc::new(Instance::absence(from.min(to), to));
            let (l, r) = if not_side == 0 {
                (absence, p.inst.clone())
            } else {
                (p.inst.clone(), absence)
            };
            out.push(Occ::derived(Instance::pair(kind.name(), l, r), when));
        }
        out.sort_by(|a, b| a.when.cmp(&b.when));
        out
    }

    /// `SEQ(SEQ+(A); B)` / `TSEQ(SEQ+(A); B)`: B's detection drains every
    /// unconsumed A that ended in its window, strictly before B began, as
    /// one run (oldest end first). Consumption belongs to this parent.
    fn run_query(
        &self,
        kind: Bin,
        (x, wx): (&EventExpr, Span),
        b: &EventExpr,
        within: Span,
    ) -> Vec<Occ> {
        let elements = self.occurrences(x, wx);
        let mut consumed = vec![false; elements.len()];
        let mut out = Vec::new();
        for p in self.occurrences(b, within) {
            let from = back(p.t_end(), within);
            let (last_min, upper) = match kind {
                Bin::Seq => (Timestamp::ZERO, Upper::Before(p.t_begin())),
                Bin::TSeq { min, max } => (
                    p.t_end().saturating_sub(max),
                    upper_bound(p.t_end().saturating_sub(min), p.t_begin()),
                ),
                Bin::And => unreachable!("SEQ+ is never an AND constituent"),
            };
            let mut taken: Vec<usize> = (0..elements.len())
                .filter(|&i| {
                    let e = &elements[i];
                    !consumed[i] && e.when < p.when && from <= e.t_end() && upper.admits(e.t_end())
                })
                .collect();
            taken.sort_by_key(|&i| elements[i].t_end());
            for &i in &taken {
                consumed[i] = true;
            }
            let Some(&last) = taken.last() else { continue };
            if elements[last].t_end() < last_min {
                continue;
            }
            let run = Instance::composite(
                "SEQ+",
                taken.iter().map(|&i| elements[i].inst.clone()).collect(),
            );
            let occ = Instance::pair(kind.name(), Arc::new(run), p.inst.clone());
            if occ.interval() <= within {
                out.push(Occ::derived(occ, p.when.clone()));
            }
        }
        out
    }

    /// The recorded history of a negated event, with each occurrence's
    /// bindings.
    fn history(&self, x: &EventExpr, wx: Span) -> Vec<(Occ, Bindings)> {
        self.occurrences(x, wx)
            .into_iter()
            .map(|o| {
                let b = bindings(x, &o.inst);
                (o, b)
            })
            .collect()
    }
}

/// `TSEQ+`: an element extends the open run iff the gap from the previous
/// element is in `[τl, τu]` and the extended run fits `within`; a gap
/// above `τu` closes the run, anything else discards it. A run also times
/// out `τu` after its last element ends (the pseudo event) — at once if
/// that element was detected later than that — or at stream end.
fn timed_runs(inner: Vec<Occ>, min_gap: Span, max_gap: Span, within: Span) -> Vec<Occ> {
    let close = |run: &mut Vec<Occ>, when: When, out: &mut Vec<Occ>| {
        let elements: Vec<Arc<Instance>> = run.drain(..).map(|o| o.inst).collect();
        out.push(Occ::derived(Instance::composite("TSEQ+", elements), when));
    };
    let mut out = Vec::new();
    let mut run: Vec<Occ> = Vec::new();
    let mut closes_at: Option<When> = None;
    for x in inner {
        // The run times out after every element detected at its closing
        // instant.
        if closes_at.as_ref().is_some_and(|c| c[0] < x.when[0]) {
            let when = closes_at.take().expect("checked");
            close(&mut run, when, &mut out);
        }
        if let Some(last) = run.last() {
            let gap = x.t_end().signed_delta(last.t_end());
            let first_begin = run[0].t_begin().min(x.t_begin());
            let fits = x.t_end() - first_begin <= within;
            let in_gap = gap >= 0
                && (min_gap.as_millis()..=max_gap.as_millis()).contains(&gap.unsigned_abs());
            if in_gap && fits {
                // extends
            } else if gap >= 0 && gap.unsigned_abs() > max_gap.as_millis() {
                close(&mut run, x.when.clone(), &mut out);
            } else {
                run.clear();
            }
        }
        let due = x.t_end() + max_gap;
        let detected = Timestamp::from_millis(x.when[0]);
        let cause = x.when.clone();
        run.push(x);
        if due < detected {
            // A late element whose timeout has already passed: the run
            // times out right after it.
            close(&mut run, pseudo(detected, &cause), &mut out);
            closes_at = None;
        } else {
            closes_at = Some(pseudo(due, &cause));
        }
    }
    if let Some(when) = closes_at {
        close(&mut run, when, &mut out);
    }
    out
}

/// The upper end of a past-looking window: strictly before the
/// terminator's start, or (for `TSEQ` with `τl` past that start) at most
/// `t_end − τl`.
#[derive(Clone, Copy)]
enum Upper {
    Before(Timestamp),
    AtMost(Timestamp),
}

impl Upper {
    fn admits(self, t: Timestamp) -> bool {
        match self {
            Upper::Before(b) => t < b,
            Upper::AtMost(b) => t <= b,
        }
    }

    fn time(self) -> Timestamp {
        match self {
            Upper::Before(t) | Upper::AtMost(t) => t,
        }
    }
}

fn upper_bound(by_distance: Timestamp, begin: Timestamp) -> Upper {
    if by_distance >= begin {
        Upper::Before(begin)
    } else {
        Upper::AtMost(by_distance)
    }
}

/// `t − within`, or the epoch for an unbounded window.
fn back(t: Timestamp, within: Span) -> Timestamp {
    if within == Span::MAX {
        Timestamp::ZERO
    } else {
        t.saturating_sub(within)
    }
}

/// The detection position of something resolved at `t` on behalf of the
/// occurrence detected at `cause`.
fn pseudo(t: Timestamp, cause: &When) -> When {
    let mut w = vec![t.as_millis(), 1];
    w.extend_from_slice(cause);
    w
}

/// Strips `WITHIN` layers off a constituent, tightening its bound.
fn unwrap_within(e: &EventExpr, within: Span) -> (&EventExpr, Span) {
    match e {
        EventExpr::Within { inner, window } => unwrap_within(inner, (*window).min(within)),
        other => (other, within),
    }
}

/// Merges two detection-ordered lists, tagging each element with its side
/// (left first on equal positions).
fn merge(a: Vec<Occ>, b: Vec<Occ>) -> Vec<(usize, Occ)> {
    let mut out: Vec<(usize, Occ)> = a
        .into_iter()
        .map(|o| (0, o))
        .chain(b.into_iter().map(|o| (1, o)))
        .collect();
    out.sort_by(|(sa, a), (sb, b)| a.when.cmp(&b.when).then(sa.cmp(sb)));
    out
}

/// Instance-level temporal predicate of a binary constructor (§1–§2).
fn pair_ok(kind: Bin, within: Span, l: &Occ, r: &Occ) -> bool {
    if interval2(&l.inst, &r.inst) > within {
        return false;
    }
    match kind {
        Bin::And => true,
        Bin::Seq => l.t_end() <= r.t_begin(),
        Bin::TSeq { min, max } => {
            let d = dist(&l.inst, &r.inst);
            l.t_end() <= r.t_begin()
                && d >= 0
                && (min.as_millis()..=max.as_millis()).contains(&d.unsigned_abs())
        }
    }
}

fn same_read(a: &Occ, b: &Occ) -> bool {
    a.read.is_some() && a.read == b.read
}

/// Variables an expression's occurrences expose to a parent's
/// correlation: primitives export what they bind, binary constructors
/// both sides; `OR`, `NOT`, `SEQ+` and `TSEQ+` export nothing.
fn exports(e: &EventExpr) -> BTreeSet<Var> {
    match e {
        EventExpr::Primitive(p) => p
            .reader_var
            .iter()
            .chain(p.object_var.iter())
            .cloned()
            .collect(),
        EventExpr::Within { inner, .. } => exports(inner),
        EventExpr::And(a, b) | EventExpr::Seq(a, b) => {
            exports(a).union(&exports(b)).cloned().collect()
        }
        EventExpr::TSeq { first, second, .. } => {
            exports(first).union(&exports(second)).cloned().collect()
        }
        EventExpr::Or(..)
        | EventExpr::Not(_)
        | EventExpr::SeqPlus(_)
        | EventExpr::TSeqPlus { .. } => BTreeSet::new(),
    }
}

/// The correlation variables of a binary node: those both sides expose (a
/// negated side exposes its inner event's variables).
fn shared_vars(a: &BTreeSet<Var>, b: &BTreeSet<Var>) -> BTreeSet<Var> {
    a.intersection(b).cloned().collect()
}

/// The values an occurrence binds, read off the instance tree by the
/// expression's shape (the left side wins a variable both sides bind —
/// they are equal by correlation).
fn bindings(e: &EventExpr, inst: &Instance) -> Bindings {
    match e {
        EventExpr::Primitive(p) => {
            let obs = &inst.observations()[0];
            let mut out = Bindings::new();
            if let Some(v) = &p.reader_var {
                out.insert(v.clone(), Val::Reader(obs.reader));
            }
            if let Some(v) = &p.object_var {
                out.insert(v.clone(), Val::Object(obs.object));
            }
            out
        }
        EventExpr::Within { inner, .. } => bindings(inner, inst),
        EventExpr::And(a, b) | EventExpr::Seq(a, b) => both(a, b, inst),
        EventExpr::TSeq { first, second, .. } => both(first, second, inst),
        EventExpr::Or(..)
        | EventExpr::Not(_)
        | EventExpr::SeqPlus(_)
        | EventExpr::TSeqPlus { .. } => Bindings::new(),
    }
}

fn both(a: &EventExpr, b: &EventExpr, inst: &Instance) -> Bindings {
    let children = inst.children();
    let mut out = bindings(b, &children[1]);
    out.extend(bindings(a, &children[0]));
    out
}

/// Whether two binding sets agree on every correlation variable.
fn agree(shared: &BTreeSet<Var>, a: &Bindings, b: &Bindings) -> bool {
    shared.iter().all(|v| match (a.get(v), b.get(v)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    })
}
