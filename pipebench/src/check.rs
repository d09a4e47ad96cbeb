//! Output checks: every pass against the simulator's ground truth, and the
//! passes against each other.

use std::collections::{HashMap, HashSet};

use rfid_epc::ReaderId;
use rfid_simulator::Trace;
use rfid_store::Value;

use crate::passes::Outcome;
use crate::workload::{Kind, Workload, FAMILY_RULES};

/// Collects failed checks; a run is correct when none failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records a failure unless `got == want`.
    pub fn equal(&mut self, what: &str, got: usize, want: usize) {
        if got != want {
            self.failures
                .push(format!("{what}: got {got}, want {want}"));
        }
    }

    /// Records a failure unless `ok`.
    pub fn holds(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failures.push(what.to_owned());
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Checks one pass's outcome against the ground truth of its workload.
pub fn against_truth(checks: &mut Checks, w: &Workload, pass: &str, out: &Outcome) {
    let truth = &w.trace.truth;
    let what = |check: &str| format!("{} {pass}: {check}", w.kind.name());
    checks.equal(&what("errors"), out.errors, 0);
    match w.kind {
        Kind::SupplyChain | Kind::NoisyShelves => {
            let items = truth.containments.iter().map(|c| c.items.len()).sum();
            checks.equal(
                &what("OBJECTCONTAINMENT rows = packed items"),
                out.rows_of("OBJECTCONTAINMENT"),
                items,
            );
            checks.equal(
                &what("OBSERVATION rows = infields"),
                out.rows_of("OBSERVATION"),
                truth.infields.len(),
            );
            checks.equal(
                &what("OBJECTLOCATION rows = location changes + sales"),
                out.rows_of("OBJECTLOCATION"),
                truth.location_changes.len() + truth.sales.len(),
            );
            checks.equal(
                &what("send_alarm = alarms"),
                out.calls_of("send_alarm"),
                truth.alarms.len(),
            );
            alarmed_objects(
                checks,
                &what("send_alarm objects = alarmed laptops"),
                w,
                out,
            );
            // The dedup edge drops every duplicate before the engine sees it.
            let duplicates = if w.kind.has_edge() {
                0
            } else {
                truth.duplicates.len()
            };
            checks.equal(
                &what("send_duplicate_msg = duplicates"),
                out.calls_of("send_duplicate_msg"),
                duplicates,
            );
        }
        Kind::RuleScaling => {
            // The family cycles dup / asset / pack / infield rules (k % 4).
            let per_kind = |r: usize| (0..FAMILY_RULES).filter(|k| k % 4 == r).count();
            checks.equal(
                &what("store rows (family actions are calls only)"),
                out.rows.values().sum(),
                0,
            );
            checks.equal(
                &what("send_duplicate_msg = dup rules x duplicates"),
                out.calls_of("send_duplicate_msg"),
                per_kind(0) * truth.duplicates.len(),
            );
            // Wider windows may also see a later passage's badge, so the
            // count is only bounded; the narrowest window (5,016 ms, under
            // the 8 s gap to any other badge) raises every true alarm.
            let alarms = out.calls_of("send_alarm");
            checks.holds(
                &what(&format!(
                    "alarms ({alarms}) between true alarms and asset rules x true alarms"
                )),
                (truth.alarms.len()..=per_kind(1) * truth.alarms.len()).contains(&alarms),
            );
            alarmed_objects(
                checks,
                &what("send_alarm objects = alarmed laptops"),
                w,
                out,
            );
            checks.equal(
                &what("send_containment_msg = pack rules on each case's line"),
                out.calls_of("send_containment_msg"),
                family_containments(w, &w.trace),
            );
            checks.equal(
                &what("send_infield_msg = infield rules x infields"),
                out.calls_of("send_infield_msg"),
                per_kind(3) * truth.infields.len(),
            );
        }
    }
}

/// Checks that `send_alarm` named exactly the laptops that left without a
/// badge.
fn alarmed_objects(checks: &mut Checks, what: &str, w: &Workload, out: &Outcome) {
    let truth: HashSet<Value> = w
        .trace
        .truth
        .alarms
        .iter()
        .map(|&(laptop, _)| Value::Epc(laptop))
        .collect();
    checks.holds(what, out.alarmed == truth);
}

/// Expected `send_containment_msg` calls of the rule family: each packed
/// case once per family rule watching its packing line.
fn family_containments(w: &Workload, trace: &Trace) -> usize {
    // Family rule k (k % 4 == 2) watches line (k / 4) % lines.
    let lines = (0..)
        .map_while(|l| w.catalog.reader(&format!("caser{l}")))
        .collect::<Vec<ReaderId>>();
    let mut rules_on: HashMap<ReaderId, usize> = HashMap::new();
    for k in (0..FAMILY_RULES).filter(|k| k % 4 == 2) {
        *rules_on.entry(lines[(k / 4) % lines.len()]).or_insert(0) += 1;
    }
    let cases: HashSet<_> = trace
        .truth
        .containments
        .iter()
        .map(|c| (c.case, c.at))
        .collect();
    trace
        .observations
        .iter()
        .filter(|o| cases.contains(&(o.object, o.at)))
        .map(|o| rules_on.get(&o.reader).copied().unwrap_or(0))
        .sum()
}

/// Checks that a pass produced exactly what the reference pass did: firing
/// count, store contents and procedure log.
pub fn agree(checks: &mut Checks, w: &Workload, pass: &str, out: &Outcome, reference: &Outcome) {
    checks.holds(
        &format!(
            "{} {pass}: firings/store/log differ from the closed-loop pass \
             ({} vs {} firings)",
            w.kind.name(),
            out.firings,
            reference.firings
        ),
        out == reference,
    );
}
