//! Quick-profile runs of every workload, untraced and traced.
//!
//! Each run must print every metric `BENCHMARK.json` names, by name and
//! with its unit, report no failed operation, and keep every per-layer
//! count alive on the workload meant to exercise it.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["bulk_mix", "trickle_open", "durable_state"];

/// Per-layer metrics that must be non-zero on the named workload.
const LIVE: &[(&str, &[&str])] = &[
    (
        "bulk_mix",
        &[
            "lang.register_ms",
            "ingest.flush_ms",
            "pump.self_ms",
            "pump.calls",
            "pump.rounds",
            "drain.ms",
            "drain.us_per_round",
            "drain.worker_busy_frac",
            "runtime.stateless.delivered",
            "runtime.stateless.batches",
            "runtime.stateless.mean_batch",
            "runtime.aggregate.delivered",
            "runtime.aggregate.batches",
            "runtime.aggregate.mean_batch",
            "runtime.aggregate.state_peak",
            "runtime.aggregate.refreshes_per_event",
            "runtime.join.delivered",
            "runtime.join.batches",
            "runtime.join.mean_batch",
            "runtime.join.state_peak",
            "runtime.join.probe_batches",
            "runtime.sequence.delivered",
            "runtime.sequence.batches",
            "runtime.sequence.mean_batch",
            "runtime.sequence.state_peak",
            "runtime.negation.delivered",
            "runtime.negation.batches",
            "runtime.negation.mean_batch",
            "runtime.negation.state_peak",
            "runtime.stateless.fused_stages",
            "collect.deltas",
            "collect.deltas_per_event",
            "subscribe.poll_ms",
            "subscribe.lag_max",
            "obs.snapshot_us_p50",
            "engine.seal_ms",
            "trace.snapshot_ms",
            "trace.residual_frac",
            "workload.achieved_eps",
        ],
    ),
    (
        "trickle_open",
        &[
            "pump.self_ms",
            "pump.idle_ms",
            "collect.retractions",
            "workload.gen_lag_ms_max",
            "workload.achieved_eps",
            "obs.snapshot_us_p50",
        ],
    ),
    (
        "durable_state",
        &[
            "checkpoint.ms_total",
            "checkpoint.count",
            "checkpoint.share",
            "runtime.blocked_ticks",
            "runtime.held_peak",
            "runtime.stateless.state_peak",
            "runtime.aggregate.refreshes_per_event",
        ],
    ),
];

#[test]
fn every_workload_prints_every_metric_with_no_failure() {
    let spec = parse(&std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).unwrap());
    for workload in WORKLOADS {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let run = run_quick(workload, 7, trace);
            let result = parse(run.lines().last().expect("output"));
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}:\n{run}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::num),
                Some(0.0),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Json::num).unwrap() >= 1.0);
            assert!(
                run.contains("metric failed_frac 0 ratio"),
                "{workload}:\n{run}"
            );
            let printed = result.get("metrics").and_then(Json::obj).expect("metrics");
            let named = spec.get(section).and_then(Json::arr).expect(section);
            assert_eq!(
                printed.len(),
                named.len(),
                "{workload} trace={trace}: metric count"
            );
            for m in named {
                let m = m.obj().unwrap();
                let name = m["name"].str().unwrap();
                let unit = m["unit"].str().unwrap();
                let got = printed
                    .get(name)
                    .and_then(Json::obj)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(got["unit"].str(), Some(unit), "{workload}: unit of {name}");
                let v = got["value"]
                    .num()
                    .unwrap_or_else(|| panic!("{name} not a number"));
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                if section == "end_to_end" {
                    assert!(v > 0.0, "{workload}: end-to-end {name} = {v}");
                }
                // The human-readable line names the metric with its unit.
                let label = if section == "end_to_end" {
                    "metric"
                } else {
                    "layer"
                };
                assert!(
                    run.lines()
                        .any(|l| l.starts_with(&format!("{label} {name} "))
                            && l.contains(&format!(" {unit} n="))),
                    "{workload}: no printed line for {name} in {unit}"
                );
            }
            if trace == 1 {
                assert!(run.contains("reconcile ("), "{workload}: no reconciliation");
                let live = LIVE.iter().find(|(w, _)| *w == workload).unwrap().1;
                for name in live {
                    let v = printed[*name].obj().unwrap()["value"].num().unwrap();
                    assert!(v > 0.0, "{workload}: per-layer {name} is dead ({v})");
                }
            }
        }
    }
}

#[test]
fn every_live_metric_is_a_named_per_layer_metric() {
    let spec = parse(&std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).unwrap());
    let names: Vec<&str> = spec["per_layer"]
        .arr()
        .unwrap()
        .iter()
        .map(|m| m.obj().unwrap()["name"].str().unwrap())
        .collect();
    for (_, live) in LIVE {
        for name in *live {
            assert!(names.contains(name), "{name} is not in BENCHMARK.json");
        }
    }
}

#[test]
fn deterministic_counts_repeat_across_processes_of_one_seed() {
    let digest = |seed: u64| {
        run_quick("durable_state", seed, 0)
            .lines()
            .find_map(|l| {
                l.strip_prefix("steady deterministic counts: digest ")
                    .map(|rest| rest.split_whitespace().next().unwrap().to_string())
            })
            .expect("digest line")
    };
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "bulk_mix", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cedr-perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success());
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}

fn manifest_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn run_quick(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cedr-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--profile",
            "quick",
        ])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Just enough JSON for the benchmark's own output and manifest.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn arr(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
    fn obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
    fn get(&self, key: &str) -> Option<&Json> {
        self.obj().and_then(|o| o.get(key))
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or_else(|| panic!("no key {key}"))
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input in {text}");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }
    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut o = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(o);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    o.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(o);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let t = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(t.parse().unwrap_or_else(|_| panic!("number {t:?}")))
            }
        }
    }
    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()));
        self.i += w.len();
        v
    }
}
