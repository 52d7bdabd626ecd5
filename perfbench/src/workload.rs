//! The three benchmark workloads: their query catalogs, their seeded
//! inputs and how a job feeds them.
//!
//! Window and lifetime sizes are fixed in ticks and event density is
//! fixed per tick (the application-time span grows with the event
//! count), so per-event work does not grow with run length.

use cedr_core::prelude::*;
use cedr_workload::scenario::{ScenarioConfig, ScenarioTrace, SCENARIO_TYPES};
use std::time::Duration as StdDuration;

/// Operator family of a standing query (and of a plan node).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    Stateless,
    Aggregate,
    Join,
    Sequence,
    Negation,
}

impl Family {
    pub const ALL: [Family; 5] = [
        Family::Stateless,
        Family::Aggregate,
        Family::Join,
        Family::Sequence,
        Family::Negation,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Stateless => "stateless",
            Family::Aggregate => "aggregate",
            Family::Join => "join",
            Family::Sequence => "sequence",
            Family::Negation => "negation",
        }
    }

    /// The family a plan node belongs to, by its operator name.
    pub fn of_node(name: &str) -> Family {
        match name {
            "group_aggregate" => Family::Aggregate,
            "join" => Family::Join,
            "sequence" | "atleast" => Family::Sequence,
            "unless" | "cancel_when" => Family::Negation,
            _ => Family::Stateless,
        }
    }
}

/// How the generator thread paces its rounds.
#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// Closed loop: one round in flight; the next round is flushed once
    /// the engine has drained the previous one.
    Closed,
    /// Open loop: round `r` is due at `r * period` after the start,
    /// whatever the engine does. Rounds drained later than `limit` after
    /// their due time are late.
    Open {
        period: StdDuration,
        limit: StdDuration,
    },
}

/// Job size preset: `Full` is what the benchmark measures, `Quick` is a
/// small version of the same shapes for the package's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    Full,
    Quick,
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub strong: bool,
    /// Standing queries per operator family.
    pub variants: usize,
    /// Aggregate window (ticks) of variant 0; variant `v` adds `16 * v`.
    pub agg_window: u64,
    /// Sequence and negation windows (ticks).
    pub pattern_window: u64,
    pub pacing: Pacing,
    /// Take a checkpoint every this many rounds (durable shape only).
    pub checkpoint_every: Option<usize>,
    /// Scrape `Engine::metrics()` every this many rounds.
    pub scrape_every: usize,
    /// Input dials; `seed` is filled in per run.
    pub scenario: ScenarioConfig,
}

pub const NAMES: [&str; 3] = ["bulk_mix", "trickle_open", "durable_state"];

impl Workload {
    pub fn named(name: &str, profile: Profile) -> Option<Workload> {
        let quick = profile == Profile::Quick;
        let base = |events: usize| ScenarioConfig {
            events_per_producer: events,
            // One event per tick per producer, whatever the run length.
            span: events as u64,
            ..ScenarioConfig::tame(name, 0)
        };
        match name {
            "bulk_mix" => {
                let events = if quick { 1_500 } else { 8_000 };
                Some(Workload {
                    name: "bulk_mix",
                    strong: false,
                    variants: 3,
                    agg_window: 32,
                    pattern_window: 24,
                    pacing: Pacing::Closed,
                    checkpoint_every: None,
                    scrape_every: if quick { 2 } else { 8 },
                    scenario: ScenarioConfig {
                        lifetime: 24,
                        disorder: 0,
                        cti_period: 64,
                        retraction_rate: 0.0,
                        keys: 32,
                        key_skew: 0.0,
                        emission_size: 192,
                        ..base(events)
                    },
                })
            }
            "trickle_open" => {
                let events = if quick { 600 } else { 3_000 };
                Some(Workload {
                    name: "trickle_open",
                    strong: false,
                    variants: 1,
                    agg_window: 32,
                    pattern_window: 24,
                    pacing: Pacing::Open {
                        period: StdDuration::from_micros(1_000),
                        limit: StdDuration::from_millis(5),
                    },
                    checkpoint_every: None,
                    scrape_every: 50,
                    scenario: ScenarioConfig {
                        lifetime: 24,
                        disorder: 8,
                        cti_period: 4,
                        retraction_rate: 0.2,
                        keys: 8,
                        key_skew: 0.0,
                        emission_size: 6,
                        ..base(events)
                    },
                })
            }
            "durable_state" => {
                let events = if quick { 500 } else { 6_000 };
                Some(Workload {
                    name: "durable_state",
                    strong: true,
                    variants: 1,
                    agg_window: 400,
                    pattern_window: 24,
                    pacing: Pacing::Closed,
                    checkpoint_every: Some(if quick { 4 } else { 20 }),
                    scrape_every: if quick { 2 } else { 16 },
                    scenario: ScenarioConfig {
                        lifetime: 24,
                        disorder: 16,
                        cti_period: 16,
                        retraction_rate: 0.0,
                        keys: 16,
                        key_skew: 1.5,
                        emission_size: 48,
                        ..base(events)
                    },
                })
            }
            _ => None,
        }
    }

    pub fn spec(&self) -> ConsistencySpec {
        if self.strong {
            ConsistencySpec::strong()
        } else {
            ConsistencySpec::middle()
        }
    }

    /// Generate this workload's input for `seed` (before any clock runs).
    pub fn inputs(&self, seed: u64) -> Inputs {
        let trace = ScenarioConfig {
            seed,
            ..self.scenario.clone()
        }
        .generate();
        Inputs::new(trace)
    }

    /// Register the event types and the query catalog; returns each
    /// query with its family and the total time spent in `register_plan`.
    pub fn register(
        &self,
        engine: &mut Engine,
    ) -> Result<(Vec<(Family, QueryId)>, StdDuration), EngineError> {
        for ty in SCENARIO_TYPES {
            engine.register_event_type(ty, vec![("key", FieldType::Int), ("seq", FieldType::Int)]);
        }
        let spec = self.spec();
        let key_eq = || Pred::cmp(Scalar::Of(0, 0), CmpOp::Eq, Scalar::Of(1, 0));
        let ty = |i: usize| SCENARIO_TYPES[i % SCENARIO_TYPES.len()];
        let mut out = Vec::new();
        let mut register_time = StdDuration::ZERO;
        for v in 0..self.variants {
            for family in Family::ALL {
                let plan = match family {
                    Family::Stateless => PlanBuilder::source(ty(v))
                        .select(Pred::cmp(
                            Scalar::Field(0),
                            CmpOp::Ge,
                            Scalar::lit(v as i64),
                        ))
                        .project(
                            vec![Scalar::Field(0), Scalar::Field(1)],
                            vec!["key".into(), "seq".into()],
                        ),
                    Family::Aggregate => {
                        let agg = match v % 3 {
                            0 => AggFunc::Count,
                            1 => AggFunc::Sum(Scalar::Field(1)),
                            _ => AggFunc::Avg(Scalar::Field(1)),
                        };
                        PlanBuilder::source(ty(v))
                            .window(dur(self.agg_window + 16 * v as u64))
                            .group_aggregate(vec![Scalar::Field(0)], agg)
                    }
                    Family::Join => {
                        PlanBuilder::source(ty(v)).join(PlanBuilder::source(ty(v + 1)), key_eq())
                    }
                    Family::Sequence => PlanBuilder::sequence(
                        vec![PlanBuilder::source(ty(v)), PlanBuilder::source(ty(v + 1))],
                        dur(self.pattern_window),
                        key_eq(),
                    ),
                    Family::Negation => PlanBuilder::source(ty(v)).unless(
                        PlanBuilder::source(ty(v + 2)),
                        dur(self.pattern_window),
                        key_eq(),
                    ),
                }
                .into_plan();
                let name = format!("{}_{v}", family.name());
                let t0 = std::time::Instant::now();
                let q = engine.register_plan(&name, plan, spec)?;
                register_time += t0.elapsed();
                out.push((family, q));
            }
        }
        Ok((out, register_time))
    }
}

/// A generated input plus the per-round facts a job needs.
pub struct Inputs {
    pub trace: ScenarioTrace,
    /// Harness rounds (the longest producer schedule).
    pub rounds: usize,
    /// Data messages (inserts + retractions) admitted by the end of
    /// round `r`, cumulative; `cum_events[rounds]` is the total.
    pub cum_events: Vec<u64>,
}

impl Inputs {
    fn new(trace: ScenarioTrace) -> Inputs {
        let rounds = trace.rounds();
        let mut cum_events = vec![0u64; rounds + 1];
        for r in 0..rounds {
            let in_round: u64 = trace
                .scripts
                .iter()
                .filter_map(|s| s.emissions.get(r).and_then(|e| e.as_ref()))
                .map(|b| b.iter().filter(|m| m.is_data()).count() as u64)
                .sum();
            cum_events[r + 1] = cum_events[r] + in_round;
        }
        Inputs {
            trace,
            rounds,
            cum_events,
        }
    }

    pub fn events(&self) -> u64 {
        self.cum_events[self.rounds]
    }

    pub fn producers(&self) -> usize {
        self.trace.scripts.len()
    }

    /// Producer `p`'s emission for round `r`, if it has one.
    pub fn emission(&self, p: usize, r: usize) -> Option<&MessageBatch> {
        self.trace.scripts[p]
            .emissions
            .get(r)
            .and_then(|e| e.as_ref())
    }

    /// Number of rounds producer `p` emits in.
    pub fn producer_rounds(&self, p: usize) -> usize {
        self.trace.scripts[p].emissions.len()
    }

    pub fn event_type(&self, p: usize) -> &'static str {
        self.trace.scripts[p].event_type
    }
}
