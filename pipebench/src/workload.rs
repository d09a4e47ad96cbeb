//! The three workloads: deployment, rule program, trace and open-loop rate.

use rfid_edge::{DedupFilter, Pipeline};
use rfid_events::{Catalog, Span};
use rfid_simulator::{SimConfig, SupplyChain, Trace};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper-scale deployment, canonical 517 rules, no edge filter: actions
    /// and binding dominate.
    SupplyChain,
    /// Fig. 9b's 500-rule family on the benchmark deployment: detection
    /// dominates, actions are procedure calls only.
    RuleScaling,
    /// Shelf-dominated deployment with heavy duplicate reads behind a
    /// 5-second dedup filter, canonical rules.
    NoisyShelves,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Kind; 3] = [Kind::SupplyChain, Kind::RuleScaling, Kind::NoisyShelves];

/// Rules in the Fig. 9b family of `rule_scaling`.
pub const FAMILY_RULES: usize = 500;

/// Suppression window of the `noisy_shelves` dedup filter.
pub const DEDUP_WINDOW: Span = Span::from_secs(5);

impl Kind {
    /// Parses a workload name as the command line gives it.
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SupplyChain => "supply_chain",
            Kind::RuleScaling => "rule_scaling",
            Kind::NoisyShelves => "noisy_shelves",
        }
    }

    /// Observations in a full-size trace.
    pub fn observations(self) -> usize {
        match self {
            Kind::SupplyChain => 1_000_000,
            Kind::RuleScaling => 100_000,
            Kind::NoisyShelves => 400_000,
        }
    }

    /// Open-loop offered rate, observations per second: a fixed constant
    /// near a third of the closed-loop throughput the parent commit of the
    /// benchmark reached on a 2-core x86-64 container. Near half, bursts of
    /// detection work on `rule_scaling` queued up often enough to double
    /// the median latency of a run.
    pub fn open_loop_rate(self) -> f64 {
        match self {
            Kind::SupplyChain => 180_000.0,
            Kind::RuleScaling => 6_000.0,
            Kind::NoisyShelves => 220_000.0,
        }
    }

    /// Tick period of the open-loop generator in seconds, like a reader's
    /// report cycle. `rule_scaling` gets a longer one: a pruning sweep over
    /// its 300k buffered instances can take most of 10 ms, and a tick that
    /// overruns its period queues the next, so the 99th percentile would
    /// follow the box's speed several times over.
    pub fn tick(self) -> f64 {
        match self {
            Kind::RuleScaling => 20e-3,
            Kind::SupplyChain | Kind::NoisyShelves => 10e-3,
        }
    }

    /// Whether the trace passes through the `rfid-edge` dedup filter.
    pub fn has_edge(self) -> bool {
        self == Kind::NoisyShelves
    }

    fn config(self, seed: u64) -> SimConfig {
        let base = match self {
            Kind::SupplyChain => SimConfig::paper_scale(),
            Kind::RuleScaling => SimConfig::benchmark(),
            Kind::NoisyShelves => SimConfig {
                shelves: 2_000,
                shelf_population: 40,
                duplicate_prob: 0.3,
                ..SimConfig::default()
            },
        };
        SimConfig { seed, ..base }
    }
}

/// A generated workload: what the pipeline runs and what it must produce.
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// Reader and type catalog of the deployment.
    pub catalog: Catalog,
    /// The rule program.
    pub script: String,
    /// Observations plus the simulator's ground truth.
    pub trace: Trace,
}

impl Workload {
    /// Generates the workload from `seed`; `scale` shrinks the trace for
    /// smoke tests (1.0 is the measured size).
    pub fn generate(kind: Kind, seed: u64, scale: f64) -> Self {
        let sim = SupplyChain::build(kind.config(seed));
        let target = ((kind.observations() as f64 * scale) as usize).max(1_000);
        let trace = sim.generate(target);
        let script = match kind {
            Kind::RuleScaling => sim.rule_family(FAMILY_RULES),
            Kind::SupplyChain | Kind::NoisyShelves => sim.rule_set(),
        };
        Self {
            kind,
            catalog: sim.catalog.clone(),
            script,
            trace,
        }
    }

    /// A fresh edge pipeline, or `None` when the workload runs without one.
    pub fn edge(&self) -> Option<Pipeline> {
        self.kind
            .has_edge()
            .then(|| Pipeline::new().then(DedupFilter::new(DEDUP_WINDOW)))
    }
}
