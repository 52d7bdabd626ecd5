//! CEDR benchmark: seeded standing-query workloads driven through the
//! engine's public surface, with end-to-end metrics from an untraced run
//! and per-layer attribution from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! print every metric with its unit and sample count, the run manifest
//! and the steadiness evidence. See `perfbench/README.md`.

mod job;
mod trace;
mod workload;

use job::{Job, JobOpts};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Family, Pacing, Profile, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    profile: Profile,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        profile: Profile::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--profile" => {
                args.profile = match value()?.as_str() {
                    "full" => Profile::Full,
                    "quick" => Profile::Quick,
                    other => return Err(format!("--profile takes full or quick, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--profile full|quick]\nerror: {e}", workload::NAMES.join("|"));
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::named(&args.workload, args.profile) else {
        eprintln!(
            "unknown workload {:?}; expected one of {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    match run(&args, &w) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark error: {e}");
            std::process::exit(1);
        }
    }
}

/// Untimed set-ups before the first timed one.
const SETUP_WARMUP: usize = 20;
/// Set-ups timed on their own before every job, on top of the job's own,
/// so the set-up median samples the whole run.
const SETUPS_PER_JOB: usize = 8;

/// Time `n` set-ups (each dropped right away) into `out`.
fn time_setups(
    w: &Workload,
    inputs: &workload::Inputs,
    n: usize,
    out: &mut Vec<f64>,
) -> Result<(), cedr_core::engine::EngineError> {
    for _ in 0..n {
        let (prepared, sources, d) = job::set_up(w, inputs, 2)?;
        drop(sources);
        drop(prepared);
        out.push(d.as_secs_f64());
    }
    Ok(())
}

fn run(args: &Args, w: &Workload) -> Result<bool, Box<dyn std::error::Error>> {
    let inputs = w.inputs(args.seed);
    let mut setups: Vec<f64> = Vec::new();
    time_setups(w, &inputs, SETUP_WARMUP, &mut Vec::new())?;

    // Jobs alternate between the two kinds of each mode, swapping which
    // goes first every pair, until the measuring time is spent.
    let kinds: [(usize, bool); 2] = if args.trace {
        [(2, false), (2, true)]
    } else {
        [(2, false), (1, false)]
    };
    let min_pairs = if args.profile == Profile::Quick { 1 } else { 2 };
    let budget = Duration::from_secs_f64(args.seconds);
    // Untimed 2-worker jobs first: on a shared machine the second core
    // takes some seconds of load before parallel rounds run at speed.
    // Memory is read after the first of them, a whole job with its
    // restore check, before allocator fragmentation from later jobs can
    // add to it.
    let warm_start = Instant::now();
    let mut peak_rss_mb = None;
    let mut warm: Vec<Job> = Vec::new();
    while warm.is_empty() || warm_start.elapsed() < budget / 4 {
        let opts = JobOpts {
            threads: 2,
            traced: false,
            verify_restore: true,
        };
        warm.push(job::run(w, &inputs, &opts)?);
        if warm.len() == 1 {
            peak_rss_mb = peak_rss_bytes().map(|b| b as f64 / 1e6);
        }
    }
    let start = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    let mut pairs = 0;
    while pairs < min_pairs || start.elapsed() < budget {
        let order = if pairs % 2 == 0 {
            [kinds[0], kinds[1]]
        } else {
            [kinds[1], kinds[0]]
        };
        for (threads, traced) in order {
            let opts = JobOpts {
                threads,
                traced,
                verify_restore: threads == 2 && !traced,
            };
            time_setups(w, &inputs, SETUPS_PER_JOB, &mut setups)?;
            jobs.push(job::run(w, &inputs, &opts)?);
        }
        pairs += 1;
    }
    let measured = start.elapsed();

    // Correctness: every job, warm-up included, against the serial
    // reference, restored runs against their uninterrupted job, and the
    // deterministic counts across jobs.
    let reference = job::reference(w, &inputs)?;
    let checked: Vec<&Job> = warm.iter().chain(&jobs).collect();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut problems: Vec<String> = Vec::new();
    for (i, j) in checked.iter().enumerate() {
        attempted += j.attempted + reference.len() as u64;
        failed += j.failed;
        problems.extend(j.errors.iter().map(|e| format!("job {i}: {e}")));
        let bad = job::mismatches(&j.prints, &reference) as u64;
        if bad > 0 {
            problems.push(format!("job {i}: {bad} queries differ from the reference"));
        }
        failed += bad;
        if j.restore.is_some() {
            attempted += reference.len() as u64;
            failed += j.restore_mismatches as u64;
            if j.restore_mismatches > 0 {
                problems.push(format!(
                    "job {i}: {} restored queries differ from the uninterrupted run",
                    j.restore_mismatches
                ));
            }
        }
    }
    let mut det_first: BTreeMap<(usize, bool), &job::Det> = BTreeMap::new();
    let mut det_repeats = true;
    for (i, j) in checked.iter().enumerate() {
        let key = (j.threads, j.verified);
        attempted += 1;
        match det_first.get(&key) {
            None => {
                det_first.insert(key, &j.det);
            }
            Some(first) => {
                if let Some(diff) = first.first_difference(&j.det) {
                    det_repeats = false;
                    failed += 1;
                    problems.push(format!("job {i}: deterministic count changed: {diff}"));
                }
            }
        }
    }
    let correct = failed == 0;

    let main_jobs: Vec<&Job> = jobs
        .iter()
        .filter(|j| j.threads == 2 && !j.traced)
        .collect();
    let last = main_jobs.last().expect("at least one 2-worker job");

    print_manifest(args, w, &inputs, &jobs, warm.len(), measured);
    for p in &problems {
        println!("FAILED {p}");
    }

    // Steadiness evidence.
    for threads in [2usize, 1] {
        let ratios: Vec<f64> = jobs
            .iter()
            .filter(|j| j.threads == threads && !j.traced)
            .filter_map(|j| j.halves.map(|(a, b)| b / a))
            .collect();
        if !ratios.is_empty() {
            println!(
                "steady halves workers={threads}: second-half/first-half events/s median {:.3} over {} jobs (min {:.3}, max {:.3})",
                median(&ratios),
                ratios.len(),
                ratios.iter().cloned().fold(f64::INFINITY, f64::min),
                ratios.iter().cloned().fold(0.0, f64::max),
            );
        }
    }
    for threads in [2usize, 1] {
        let runs: Vec<String> = jobs
            .iter()
            .filter(|j| j.threads == threads)
            .map(|j| {
                let ms: Vec<f64> = j.latencies.iter().map(|&n| n as f64 / 1e6).collect();
                format!(
                    "{:.0}/{:.3}/{:.3}{}",
                    j.events as f64 / j.wall.as_secs_f64(),
                    quantile(&ms, 0.5),
                    quantile(&ms, 0.99),
                    if j.traced { "(traced)" } else { "" }
                )
            })
            .collect();
        if !runs.is_empty() {
            println!(
                "jobs workers={threads}: events/s / latency p50 ms / p99 ms, in run order [{}]",
                runs.join(" ")
            );
        }
    }
    if matches!(w.pacing, Pacing::Open { .. }) {
        print_backlog(last);
    }
    // The first job is a verified 2-worker warm-up job in both modes, so
    // its digest can be compared across runs of one seed.
    println!(
        "steady deterministic counts: digest {:016x} ({} counters) repeat across {} jobs: {}",
        checked[0].det.digest(),
        checked[0].det.0.len(),
        checked.len(),
        if det_repeats { "yes" } else { "NO" }
    );

    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if args.trace {
        per_layer(&jobs, &inputs, &mut metrics);
        if let Some(traced) = jobs.iter().rev().find(|j| j.traced) {
            let path = spans_path(&args.workload, args.seed);
            match trace::write_spans(&path, &traced.spans) {
                Ok(()) => println!(
                    "spans: {} spans of the last traced job written to {}",
                    traced.spans.len(),
                    path.display()
                ),
                Err(e) => println!("spans: not written ({e})"),
            }
        }
    } else {
        end_to_end(&jobs, &main_jobs, &setups, peak_rss_mb, w, &mut metrics);
    }
    println!(
        "metric failed_frac {failed_frac} ratio n={attempted} (failed {failed} of {attempted} operations)"
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

fn end_to_end(
    jobs: &[Job],
    main_jobs: &[&Job],
    setups: &[f64],
    peak_rss_mb: Option<f64>,
    w: &Workload,
    out: &mut Vec<(String, f64, &'static str)>,
) {
    let mut put = |name: &str, v: f64, unit: &'static str, n: usize, note: &str| {
        println!("metric {name} {v} {unit} n={n}{note}");
        out.push((name.to_string(), v, unit));
    };
    let mut setup_all: Vec<f64> = setups.to_vec();
    setup_all.extend(jobs.iter().map(|j| j.setup.as_secs_f64()));
    put(
        "setup_s",
        median(&setup_all),
        "s",
        setup_all.len(),
        " (median set-up)",
    );
    let eps = |threads: usize| -> Vec<f64> {
        jobs.iter()
            .filter(|j| j.threads == threads && !j.traced)
            .map(|j| j.events as f64 / j.wall.as_secs_f64())
            .collect()
    };
    let (eps2, eps1) = (eps(2), eps(1));
    put(
        "throughput_eps",
        median(&eps2),
        "events/s",
        eps2.len(),
        " (median over jobs, 2 workers)",
    );
    put(
        "throughput_eps_1w",
        median(&eps1),
        "events/s",
        eps1.len(),
        " (median over jobs, 1 worker)",
    );
    // Round latencies pooled over every 2-worker job. Only the median is
    // gated: on a shared 2-core machine the p95 and p99 of one seed move
    // by a third or more between runs, with the host's steal time.
    let lat: Vec<f64> = main_jobs
        .iter()
        .flat_map(|j| j.latencies.iter().map(|&n| n as f64 / 1e6))
        .collect();
    let n = lat.len();
    for (name, q, gated) in [
        ("latency_p50_ms", 0.50, true),
        ("latency_p95_ms", 0.95, false),
        ("latency_p99_ms", 0.99, false),
    ] {
        let beyond = ((1.0 - q) * n as f64).floor() as usize;
        let note = format!(
            " (rounds at 2 workers, {} jobs; {beyond} beyond)",
            main_jobs.len()
        );
        if gated {
            put(name, quantile(&lat, q), "ms", n, &note);
        } else {
            println!("metric {name} {} ms n={n}{note}", quantile(&lat, q));
        }
    }
    let ckpt: Vec<f64> = main_jobs
        .iter()
        .flat_map(|j| j.checkpoints.iter().map(|&n| n as f64 / 1e6))
        .collect();
    let ckpt_kind = if w.checkpoint_every.is_some() {
        " (periodic checkpoints, ingestion paused)"
    } else {
        " (one checkpoint of the final state per job)"
    };
    put(
        "checkpoint_ms_p50",
        median(&ckpt),
        "ms",
        ckpt.len(),
        ckpt_kind,
    );
    let restores: Vec<f64> = main_jobs
        .iter()
        .filter_map(|j| j.restore.map(|n| n as f64 / 1e6))
        .collect();
    put(
        "restore_ms",
        median(&restores),
        "ms",
        restores.len(),
        " (last image into a fresh engine)",
    );
    let image = main_jobs
        .iter()
        .rev()
        .find_map(|j| j.image_bytes.last())
        .copied()
        .unwrap_or(0);
    put(
        "image_mb",
        image as f64 / 1e6,
        "MB",
        1,
        &format!(" ({image} bytes, last image)"),
    );
    put(
        "peak_rss_mb",
        peak_rss_mb.unwrap_or(0.0),
        "MB",
        1,
        " (VmHWM after the first warm-up job)",
    );
    if let Pacing::Open { limit, .. } = w.pacing {
        let late: usize = main_jobs.iter().map(|j| j.late).sum();
        println!(
            "metric late_frac {} ratio n={n} ({late} rounds drained more than {} ms after due)",
            late as f64 / n.max(1) as f64,
            limit.as_secs_f64() * 1e3
        );
    }
}

fn per_layer(jobs: &[Job], inputs: &workload::Inputs, out: &mut Vec<(String, f64, &'static str)>) {
    let traced: Vec<&Job> = jobs.iter().filter(|j| j.traced).collect();
    let layers: Vec<&job::Layers> = traced.iter().filter_map(|j| j.layers.as_ref()).collect();
    let last = traced.last().expect("at least one traced job");
    let ms = |f: &dyn Fn(&job::Layers) -> u64| -> f64 {
        median(&layers.iter().map(|l| f(l) as f64 / 1e6).collect::<Vec<_>>())
    };
    let med = |f: &dyn Fn(&job::Layers) -> f64| -> f64 {
        median(&layers.iter().map(|l| f(l)).collect::<Vec<_>>())
    };
    let events = inputs.events() as f64;
    let rounds = last.det.get("pump.rounds").max(1) as f64;
    let workers = last.threads as f64;
    let mut put = |name: String, v: f64, unit: &'static str| {
        println!("layer {name} {v} {unit} n={}", layers.len());
        out.push((name, v, unit));
    };
    put("lang.register_ms".into(), ms(&|l| l.register), "ms");
    put("ingest.flush_ms".into(), ms(&|l| l.flush), "ms");
    put(
        "ingest.channel_block_ms".into(),
        ms(&|l| l.channel_block),
        "ms",
    );
    put(
        "pump.self_ms".into(),
        ms(&|l| l.pump.saturating_sub(l.drain)),
        "ms",
    );
    put("pump.calls".into(), med(&|l| l.pump_calls as f64), "count");
    put("pump.rounds".into(), rounds, "count");
    put(
        "pump.stall_peak".into(),
        layers.iter().map(|l| l.stall_peak).max().unwrap_or(0) as f64,
        "count",
    );
    put(
        "pump.buffered_peak".into(),
        layers.iter().map(|l| l.buffered_peak).max().unwrap_or(0) as f64,
        "count",
    );
    put("pump.idle_ms".into(), ms(&|l| l.idle), "ms");
    put("drain.ms".into(), ms(&|l| l.drain), "ms");
    put(
        "drain.us_per_round".into(),
        ms(&|l| l.drain) * 1e3 / rounds,
        "us",
    );
    put(
        "drain.worker_busy_frac".into(),
        med(&|l| l.shard_drain as f64 / (l.drain_all.max(1) as f64 * workers)),
        "ratio",
    );
    let rt = &last.runtime;
    for f in Family::ALL {
        let (delivered, batches, state_peak) = rt.families[f as usize];
        let name = f.name();
        put(
            format!("runtime.{name}.delivered"),
            delivered as f64,
            "count",
        );
        put(format!("runtime.{name}.batches"), batches as f64, "count");
        put(
            format!("runtime.{name}.mean_batch"),
            delivered as f64 / batches.max(1) as f64,
            "count",
        );
        put(
            format!("runtime.{name}.state_peak"),
            state_peak as f64,
            "count",
        );
    }
    put(
        "runtime.aggregate.refreshes_per_event".into(),
        rt.group_refreshes as f64 / events,
        "ratio",
    );
    put(
        "runtime.join.probe_batches".into(),
        rt.probe_batches as f64,
        "count",
    );
    put(
        "runtime.stateless.fused_stages".into(),
        rt.fused_stages as f64,
        "count",
    );
    put(
        "runtime.blocked_ticks".into(),
        rt.blocked_ticks as f64,
        "count",
    );
    put("runtime.held_peak".into(), rt.held_peak as f64, "count");
    put("collect.deltas".into(), rt.deltas as f64, "count");
    put("collect.retractions".into(), rt.retractions as f64, "count");
    put(
        "collect.deltas_per_event".into(),
        rt.deltas as f64 / events,
        "ratio",
    );
    put("subscribe.poll_ms".into(), ms(&|l| l.poll), "ms");
    put(
        "subscribe.lag_max".into(),
        layers.iter().map(|l| l.lag_max).max().unwrap_or(0) as f64,
        "count",
    );
    put("checkpoint.ms_total".into(), ms(&|l| l.checkpoint), "ms");
    put(
        "checkpoint.count".into(),
        last.layers.as_ref().map_or(0, |l| l.checkpoints) as f64,
        "count",
    );
    put(
        "checkpoint.share".into(),
        med(&|l| l.checkpoint as f64 / l.wall.max(1) as f64),
        "ratio",
    );
    let scrapes: Vec<f64> = layers
        .iter()
        .flat_map(|l| l.scrape_samples.iter().map(|&n| n as f64 / 1e3))
        .collect();
    put("obs.snapshot_us_p50".into(), median(&scrapes), "us");
    put("engine.seal_ms".into(), ms(&|l| l.seal), "ms");
    put("trace.snapshot_ms".into(), ms(&|l| l.trace_snapshot), "ms");
    put(
        "workload.gen_lag_ms_max".into(),
        ms(&|l| l.gen_lag_max),
        "ms",
    );
    put(
        "workload.achieved_eps".into(),
        med(&|l| events / (l.gen_active.max(1) as f64 / 1e9)),
        "events/s",
    );
    put(
        "trace.residual_frac".into(),
        med(&|l| l.residual as f64 / l.wall.max(1) as f64),
        "ratio",
    );
    let wall = |traced_kind: bool| {
        median(
            &jobs
                .iter()
                .filter(|j| j.traced == traced_kind)
                .map(|j| j.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    put(
        "trace.overhead_frac".into(),
        wall(true) / wall(false) - 1.0,
        "ratio",
    );
    if let Some(l) = last.layers.as_ref() {
        let parts = [
            ("pump.self", l.pump.saturating_sub(l.drain)),
            ("drain", l.drain),
            ("subscribe.poll", l.poll),
            ("obs.snapshot", l.scrape),
            ("checkpoint", l.checkpoint),
            ("engine.seal", l.seal),
            ("pump.idle", l.idle),
            ("trace.snapshot", l.trace_snapshot),
            ("residual", l.residual),
        ];
        let sum: u64 = parts.iter().map(|(_, v)| v).sum();
        let shown: Vec<String> = parts
            .iter()
            .map(|(n, v)| format!("{n} {:.3}", *v as f64 / 1e6))
            .collect();
        println!(
            "reconcile (last traced job, engine thread, ms): wall {:.3} = {} (sum {:.3})",
            l.wall as f64 / 1e6,
            shown.join(" + "),
            sum as f64 / 1e6,
        );
    }
}

fn print_backlog(j: &Job) {
    let total = j.wall.as_nanos() as u64;
    let quarter = |t: u64| ((t * 4) / total.max(1)).min(3) as usize;
    let mut buffered = [0u64; 4];
    let mut pending = [0u64; 4];
    for &(t, b, p) in &j.backlog {
        let q = quarter(t);
        buffered[q] = buffered[q].max(b);
        pending[q] = pending[q].max(p);
    }
    let mut lag = [0u64; 4];
    let n = j.gen_lag.len().max(1);
    for (i, &l) in j.gen_lag.iter().enumerate() {
        let q = (i * 4 / n).min(3);
        lag[q] = lag[q].max(l);
    }
    let fmt_ms = |v: [u64; 4]| {
        v.iter()
            .map(|n| format!("{:.3}", *n as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "steady backlog by quarter of the last job: resequencer buffered max {:?}, due-but-undrained rounds max {:?}, generator lag max ms [{}]",
        buffered,
        pending,
        fmt_ms(lag)
    );
}

fn print_manifest(
    args: &Args,
    w: &Workload,
    inputs: &workload::Inputs,
    jobs: &[Job],
    warm_jobs: usize,
    measured: Duration,
) {
    let c = &w.scenario;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cfg = job::config(2);
    let pacing = match w.pacing {
        Pacing::Closed => "\"closed\", \"rounds_in_flight\": 1".to_string(),
        Pacing::Open { period, limit } => format!(
            "\"open\", \"period_us\": {}, \"latency_limit_ms\": {}",
            period.as_micros(),
            limit.as_secs_f64() * 1e3
        ),
    };
    let count = |threads: usize, traced: bool| {
        jobs.iter()
            .filter(|j| j.threads == threads && j.traced == traced)
            .count()
    };
    println!(
        "manifest {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"profile\": \"{:?}\", \"cores\": {cores}, \"workers\": [2, 1], \"fuse\": {}, \"compile_kernels\": {}, \"channel_depth\": {}, \"ingress_capacity\": {}, \"resequencer_capacity\": {}, \"consistency\": \"{}\", \"queries\": {}, \"pacing\": {pacing}, \"checkpoint_every_rounds\": {}, \"scrape_every_rounds\": {}, \"producers\": {}, \"events_per_producer\": {}, \"span_ticks\": {}, \"lifetime_ticks\": {}, \"agg_window_ticks\": {}, \"pattern_window_ticks\": {}, \"disorder_ticks\": {}, \"cti_period\": {}, \"retraction_rate\": {}, \"keys\": {}, \"key_skew\": {}, \"emission_size\": {}, \"events_per_job\": {}, \"rounds_per_job\": {}, \"jobs_2w\": {}, \"jobs_1w\": {}, \"jobs_traced\": {}, \"jobs_warmup\": {}, \"measured_s\": {:.3}, \"timed_s\": {:.3}, \"git_rev\": \"{}\"}}",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.profile,
        cfg.fuse,
        cfg.compile_kernels,
        cfg.channel_depth,
        cfg.ingress_capacity,
        cfg.resequencer_capacity,
        if w.strong { "strong" } else { "middle" },
        w.variants * Family::ALL.len(),
        w.checkpoint_every.map_or("null".to_string(), |k| k.to_string()),
        w.scrape_every,
        c.producers,
        c.events_per_producer,
        c.span,
        c.lifetime,
        w.agg_window,
        w.pattern_window,
        c.disorder,
        c.cti_period,
        c.retraction_rate,
        c.keys,
        c.key_skew,
        c.emission_size,
        inputs.events(),
        inputs.rounds,
        count(2, false),
        count(1, false),
        count(2, true),
        warm_jobs,
        measured.as_secs_f64(),
        jobs.iter().map(|j| j.wall.as_secs_f64()).sum::<f64>(),
        git_rev()
    );
}

/// Median (mean of the two middle values for an even count); 0 if empty.
fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v`; 0 if empty.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&Path::new(".git").join(reference)) {
        return rev;
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where traced runs write their spans: inside the benchmark's package.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.tsv"))
}
