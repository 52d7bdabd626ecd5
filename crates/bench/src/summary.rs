//! Uniform machine-readable bench summaries.
//!
//! Every Criterion harness in `benches/` emits a `BENCH_<name>.json` at
//! the repository root through [`BenchSummary`], so all four files share
//! one schema and the CI regression gate (`src/bin/bench_regression.rs`)
//! parses them with one loader:
//!
//! ```json
//! {
//!   "bench": "stateful",
//!   "cores": 1,
//!   "seed": 24269,
//!   "ratios": { "agg_batch_vs_per_message_1w": 5.1, ... },
//!   "info":   { "events": 3000.0, "per_message_1w_seconds": 0.41, ... }
//! }
//! ```
//!
//! **`ratios` is the contract**: every column in it is a *speedup ratio*
//! (batched vs per-message, resolve-once vs per-call lookup, …) that CI
//! gates against the committed baseline. Ratios compare two modes
//! measured back to back on the same machine, so they survive the noisy
//! absolute timings of a 1-core CI runner; wall-clock numbers and
//! machine-dependent scaling columns belong in `info`, which is recorded
//! but never gated.

use std::fmt::Write as _;
use std::path::Path;

/// Is the quick profile requested (CI sets `CEDR_BENCH_QUICK=1`)?
pub fn quick_profile() -> bool {
    std::env::var("CEDR_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Repetitions for best-of timing loops: `default` normally, 2 under the
/// quick profile (one warm-up rep is always extra).
pub fn summary_reps(default: u32) -> u32 {
    if quick_profile() {
        default.min(2)
    } else {
        default
    }
}

/// One bench's machine-readable summary; see the module docs for the
/// schema and the `ratios` vs `info` contract.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSummary {
    /// Bench name (matches the `BENCH_<name>.json` file).
    pub bench: String,
    /// `available_parallelism` of the measuring machine — scaling columns
    /// are only meaningful when this is comfortably above 1.
    pub cores: usize,
    /// Workload seed (0 for formula-deterministic workloads).
    pub seed: u64,
    /// Gated speedup columns, in emission order.
    pub ratios: Vec<(String, f64)>,
    /// Ungated context: timings, workload sizes, machine-dependent scaling.
    pub info: Vec<(String, f64)>,
}

impl BenchSummary {
    /// A summary for `bench`, stamped with this machine's core count.
    pub fn new(bench: &str, seed: u64) -> Self {
        BenchSummary {
            bench: bench.to_string(),
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            seed,
            ratios: Vec::new(),
            info: Vec::new(),
        }
    }

    /// Record a gated speedup column.
    pub fn ratio(&mut self, name: &str, value: f64) -> &mut Self {
        self.ratios.push((name.to_string(), value));
        self
    }

    /// Record an ungated context column.
    pub fn info(&mut self, name: &str, value: f64) -> &mut Self {
        self.info.push((name.to_string(), value));
        self
    }

    /// Serialise in the uniform schema (stable field order).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"bench\": \"{}\",\n  \"cores\": {},\n  \"seed\": {},\n",
            self.bench, self.cores, self.seed
        );
        s.push_str("  \"ratios\": {");
        Self::write_map(&mut s, &self.ratios, 3);
        s.push_str("},\n  \"info\": {");
        Self::write_map(&mut s, &self.info, 6);
        s.push_str("}\n}\n");
        s
    }

    fn write_map(s: &mut String, entries: &[(String, f64)], precision: usize) {
        for (i, (k, v)) in entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    \"{k}\": {v:.precision$}");
        }
        if !entries.is_empty() {
            s.push_str("\n  ");
        }
    }

    /// Write `to_json` to `path`.
    pub fn write(&self, path: impl AsRef<Path>) {
        let path = path.as_ref();
        let json = self.to_json();
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}:\n{json}", path.display());
    }

    /// Load a summary previously emitted by [`BenchSummary::write`] (or
    /// any JSON object with the same four fields).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
    }

    /// Parse the uniform schema. A deliberately small JSON-object reader:
    /// strings, numbers and one level of nested objects — exactly what
    /// the schema uses; anything else is an error.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let mut out = BenchSummary {
            bench: String::new(),
            cores: 0,
            seed: 0,
            ratios: Vec::new(),
            info: Vec::new(),
        };
        p.expect(b'{')?;
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            match key.as_str() {
                "bench" => out.bench = p.string()?,
                "cores" => out.cores = p.number()? as usize,
                "seed" => out.seed = p.number()? as u64,
                "ratios" => out.ratios = p.object()?,
                "info" => out.info = p.object()?,
                other => return Err(format!("unknown field {other:?}")),
            }
            if !p.comma_or_close(b'}')? {
                break;
            }
        }
        if out.bench.is_empty() {
            return Err("missing \"bench\" field".into());
        }
        Ok(out)
    }
}

/// Byte-walking parser for the summary subset of JSON.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(c), self.i))
        }
    }

    /// `true` if a comma follows (more entries), `false` on `close`.
    fn comma_or_close(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(b',') => {
                self.i += 1;
                Ok(true)
            }
            Some(c) if *c == close => {
                self.i += 1;
                Ok(false)
            }
            _ => Err(format!("expected ',' or closer at byte {}", self.i)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        while let Some(&c) = self.b.get(self.i) {
            if c == b'"' {
                let s = std::str::from_utf8(&self.b[start..self.i])
                    .map_err(|e| e.to_string())?
                    .to_string();
                self.i += 1;
                return Ok(s);
            }
            if c == b'\\' {
                return Err("escapes are not part of the summary schema".into());
            }
            self.i += 1;
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.i;
        while let Some(&c) = self.b.get(self.i) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.b[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn object(&mut self) -> Result<Vec<(String, f64)>, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(out);
        }
        loop {
            let k = self.string()?;
            self.expect(b':')?;
            out.push((k, self.number()?));
            if !self.comma_or_close(b'}')? {
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_json() {
        let mut s = BenchSummary::new("demo", 42);
        s.ratio("a_vs_b", 1.5).ratio("c_vs_d", 0.987);
        s.info("events", 4000.0);
        let parsed = BenchSummary::parse(&s.to_json()).expect("parses");
        assert_eq!(parsed.bench, "demo");
        assert_eq!(parsed.seed, 42);
        assert_eq!(parsed.cores, s.cores);
        assert_eq!(parsed.ratios.len(), 2);
        assert_eq!(parsed.ratios[0].0, "a_vs_b");
        assert!((parsed.ratios[0].1 - 1.5).abs() < 1e-9);
        assert_eq!(parsed.info, vec![("events".to_string(), 4000.0)]);
    }

    #[test]
    fn empty_maps_round_trip() {
        let s = BenchSummary::new("empty", 0);
        let parsed = BenchSummary::parse(&s.to_json()).expect("parses");
        assert!(parsed.ratios.is_empty() && parsed.info.is_empty());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(BenchSummary::parse("").is_err());
        assert!(BenchSummary::parse("{\"bench\": 3}").is_err());
        assert!(BenchSummary::parse("{\"ratios\": {\"x\": \"y\"}}").is_err());
    }
}
