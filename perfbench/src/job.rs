//! One job: a fixed input driven through a fresh engine, end to end.
//!
//! The calling thread is the engine thread: it pumps the channel ingress,
//! polls every subscription after each admitting pump, scrapes
//! `Engine::metrics()` on a cadence and, for the durable shape, takes
//! checkpoints. One generator thread feeds the engine through one
//! manual-flush `ChannelSource` per producer, paced closed- or open-loop.
//! Everything the job reads goes through the engine's public surface.

use crate::trace::{self, Span, Tracer, ROOT};
use crate::workload::{Family, Inputs, Pacing, Workload};
use cedr_core::prelude::*;
use cedr_durable::Persist;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The engine configuration every job uses: `threads` workers, default
/// bounds, fusion and compiled kernels on, trace ring off. The last three
/// are the only fields the constructor reads from the environment; they
/// are set here, so no `CEDR_*` variable changes what is measured.
pub fn config(threads: usize) -> EngineConfig {
    EngineConfig::threaded(threads)
        .with_fuse(true)
        .with_compile_kernels(true)
        .with_trace_capacity(0)
}

/// An engine with the workload's queries registered and subscribed.
pub struct Prepared {
    pub engine: Engine,
    pub queries: Vec<(Family, QueryId)>,
    pub subs: Vec<Subscription>,
    pub register: Duration,
}

pub fn prepare(w: &Workload, threads: usize) -> Result<Prepared, EngineError> {
    let mut engine = Engine::with_config(config(threads));
    let (queries, register) = w.register(&mut engine)?;
    let subs = queries
        .iter()
        .map(|(_, q)| engine.subscribe(*q))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Prepared {
        engine,
        queries,
        subs,
        register,
    })
}

/// Open a manual-flush channel source, in producer order, for every
/// producer that still emits at or after round `from`.
pub fn open_sources(
    engine: &mut Engine,
    inputs: &Inputs,
    from: usize,
) -> Result<Vec<Option<ChannelSource>>, EngineError> {
    (0..inputs.producers())
        .map(|p| {
            if inputs.producer_rounds(p) > from {
                Ok(Some(
                    engine.channel_source(inputs.event_type(p))?.manual_flush(),
                ))
            } else {
                Ok(None)
            }
        })
        .collect()
}

/// The benchmark's set-up: engine construction, query registration,
/// subscriptions and source handles. Returns the set-up ready to run.
pub fn set_up(
    w: &Workload,
    inputs: &Inputs,
    threads: usize,
) -> Result<(Prepared, Vec<Option<ChannelSource>>, Duration), EngineError> {
    let t0 = Instant::now();
    let mut prepared = prepare(w, threads)?;
    let sources = open_sources(&mut prepared.engine, inputs, 0)?;
    Ok((prepared, sources, t0.elapsed()))
}

/// Output of one query, reduced to what two runs must agree on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryPrint {
    pub stamped_len: usize,
    pub stamped_hash: u64,
    pub deltas_len: usize,
    pub deltas_hash: u64,
    pub max_cti: Option<u64>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Hash every query's stamped tape and delta log through the durable
/// codec's byte encoding (exact: raw float bits, raw time points).
pub fn fingerprint(engine: &Engine, queries: &[(Family, QueryId)]) -> Vec<QueryPrint> {
    let mut buf = Vec::new();
    queries
        .iter()
        .map(|(_, q)| {
            let c = engine.collector(*q);
            let (mut hs, mut hd) = (FNV_OFFSET, FNV_OFFSET);
            for s in c.stamped() {
                buf.clear();
                s.encode(&mut buf);
                fnv(&mut hs, &buf);
            }
            for d in c.delta_log() {
                buf.clear();
                d.encode(&mut buf);
                fnv(&mut hd, &buf);
            }
            QueryPrint {
                stamped_len: c.stamped().len(),
                stamped_hash: hs,
                deltas_len: c.delta_log().len(),
                deltas_hash: hd,
                max_cti: c.max_cti().map(|t| t.0),
            }
        })
        .collect()
}

/// Number of queries whose prints differ.
pub fn mismatches(a: &[QueryPrint], b: &[QueryPrint]) -> usize {
    if a.len() != b.len() {
        return a.len().max(b.len());
    }
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Counts that are a pure function of the input: named, in a fixed order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Det(pub Vec<(String, u64)>);

impl Det {
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (name, v) in &self.0 {
            fnv(&mut h, name.as_bytes());
            fnv(&mut h, &v.to_le_bytes());
        }
        h
    }

    /// The first counter on which two sets differ.
    pub fn first_difference(&self, other: &Det) -> Option<String> {
        if self.0.len() != other.0.len() {
            return Some(format!("{} vs {} counters", self.0.len(), other.0.len()));
        }
        self.0
            .iter()
            .zip(&other.0)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("{}={} vs {}={}", a.0, a.1, b.0, b.1))
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

fn deterministic_counts(
    engine: &Engine,
    queries: &[(Family, QueryId)],
    image_bytes: &[u64],
) -> Det {
    let snap = engine.metrics();
    let mut out = Vec::new();
    let rounds = snap
        .counters
        .channel
        .as_ref()
        .map(|c| c.rounds_admitted)
        .unwrap_or(0);
    out.push(("pump.rounds".to_string(), rounds));
    for (_, q) in queries {
        let name = engine.query_name(*q).to_string();
        let st = engine.collector(*q).stats();
        out.push((format!("{name}.inserts"), st.inserts as u64));
        out.push((format!("{name}.retractions"), st.retractions as u64));
        out.push((
            format!("{name}.deltas"),
            engine.collector(*q).delta_log().len() as u64,
        ));
        for (i, (node, s)) in engine.node_stats(*q).iter().enumerate() {
            for (field, v) in [
                ("arrivals", s.arrivals as u64),
                ("delivered", s.delivered as u64),
                ("batches", s.batches as u64),
                ("state_peak", s.state_peak as u64),
                ("held_peak", s.held_peak as u64),
                ("blocked_ticks", s.blocked_ticks),
                ("group_refreshes", s.group_refreshes as u64),
                ("probe_batches", s.probe_batches as u64),
                ("fused_stages", s.fused_stages as u64),
                ("out_inserts", s.out_inserts as u64),
                ("out_retractions", s.out_retractions as u64),
            ] {
                out.push((format!("{name}.{i}:{node}.{field}"), v));
            }
        }
    }
    for (i, b) in image_bytes.iter().enumerate() {
        out.push((format!("image.{i}.bytes"), *b));
    }
    Det(out)
}

/// Operator counts of one engine, summed per family over plan nodes.
#[derive(Clone, Debug, Default)]
pub struct Runtime {
    /// Per family: delivered, batches, state_peak.
    pub families: [(u64, u64, u64); 5],
    pub group_refreshes: u64,
    pub probe_batches: u64,
    pub fused_stages: u64,
    pub blocked_ticks: u64,
    pub held_peak: u64,
    pub deltas: u64,
    pub retractions: u64,
}

fn runtime_counts(engine: &Engine, queries: &[(Family, QueryId)]) -> Runtime {
    let mut rt = Runtime::default();
    for (_, q) in queries {
        for (node, s) in engine.node_stats(*q) {
            let f = Family::of_node(node) as usize;
            rt.families[f].0 += s.delivered as u64;
            rt.families[f].1 += s.batches as u64;
            rt.families[f].2 += s.state_peak as u64;
            rt.group_refreshes += s.group_refreshes as u64;
            rt.probe_batches += s.probe_batches as u64;
            rt.fused_stages += s.fused_stages as u64;
            rt.blocked_ticks += s.blocked_ticks;
            rt.held_peak = rt.held_peak.max(s.held_peak as u64);
        }
        let c = engine.collector(*q);
        rt.deltas += c.delta_log().len() as u64;
        rt.retractions += c.stats().retractions as u64;
    }
    rt
}

/// Per-layer totals of one traced job (nanoseconds unless named
/// otherwise). Engine-thread layers add up to `wall` with `residual`.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub wall: u64,
    pub register: u64,
    pub flush: u64,
    pub channel_block: u64,
    /// Admitting `pump` calls, end to end (drains included).
    pub pump: u64,
    pub pump_calls: u64,
    /// `pump` calls that admitted nothing, with the yields between them.
    pub idle: u64,
    /// Round drains run inside admitting pumps.
    pub drain: u64,
    /// Every round drain the engine ran (pump, poll and seal alike).
    pub drain_all: u64,
    pub shard_drain: u64,
    pub poll: u64,
    pub lag_max: u64,
    pub scrape: u64,
    pub scrape_samples: Vec<u64>,
    pub checkpoint: u64,
    pub checkpoints: u64,
    pub seal: u64,
    /// The traced job's own `metrics()` reads around polls and the seal.
    pub trace_snapshot: u64,
    pub residual: u64,
    pub gen_lag_max: u64,
    /// Generator thread: first flush start to last flush end.
    pub gen_active: u64,
    pub stall_peak: u64,
    pub buffered_peak: u64,
}

/// What a job reports.
#[derive(Default)]
pub struct Job {
    pub threads: usize,
    pub traced: bool,
    pub verified: bool,
    pub setup: Duration,
    /// Engine-thread time from the start to the last drained delta after
    /// the seal.
    pub wall: Duration,
    pub events: u64,
    /// Events/s over the first and the second half of the rounds.
    pub halves: Option<(f64, f64)>,
    /// One per round: due (open loop) or flush (closed loop) time until
    /// the poll that drained the round.
    pub latencies: Vec<u64>,
    pub late: usize,
    pub checkpoints: Vec<u64>,
    pub image_bytes: Vec<u64>,
    pub restore: Option<u64>,
    pub prints: Vec<QueryPrint>,
    /// Queries whose restored output differs from the uninterrupted run.
    pub restore_mismatches: usize,
    pub det: Det,
    pub runtime: Runtime,
    pub gen_lag: Vec<u64>,
    /// Per admitting pump: (ns since start, resequencer buffered batches,
    /// due rounds not yet drained).
    pub backlog: Vec<(u64, u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub layers: Option<Layers>,
    pub spans: Vec<Span>,
}

/// Hand-off between the engine thread and the generator thread.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Rounds the engine has drained and released to the generator.
    released: usize,
    /// Rounds the generator has fully flushed (disconnects included).
    submitted: usize,
    abort: bool,
}

impl Gate {
    fn update(&self, f: impl FnOnce(&mut GateState)) {
        f(&mut self.state.lock().expect("gate lock poisoned"));
        self.cv.notify_all();
    }

    /// Block until `ready` holds; false if the job was aborted.
    fn wait(&self, ready: impl Fn(&GateState) -> bool) -> bool {
        let mut s = self.state.lock().expect("gate lock poisoned");
        while !ready(&s) && !s.abort {
            s = self.cv.wait(s).expect("gate lock poisoned");
        }
        !s.abort
    }
}

struct GenOut {
    flushes: u64,
    lag: Vec<u64>,
    first: u64,
    last: u64,
    spans: Vec<Span>,
}

fn generate(
    inputs: &Inputs,
    mut sources: Vec<Option<ChannelSource>>,
    pacing: Pacing,
    gate: &Gate,
    issued: &[AtomicU64],
    origin: Instant,
    traced: bool,
) -> GenOut {
    let mut tr = Tracer::new(traced, origin, "generator", 1 << 30);
    let root = tr.push("gen", ROOT, 0, tr.now(), 0);
    let mut out = GenOut {
        flushes: 0,
        lag: Vec::new(),
        first: 0,
        last: 0,
        spans: Vec::new(),
    };
    for (r, slot) in issued.iter().enumerate() {
        let s = tr.now();
        let stamp = match pacing {
            Pacing::Closed => {
                // Round `r` goes out once rounds `0..r` are drained (and a
                // checkpoint due after them is taken).
                if !gate.wait(|g| g.released >= r) {
                    break;
                }
                origin.elapsed().as_nanos() as u64
            }
            Pacing::Open { period, .. } => {
                let due = period * r as u32;
                let now = origin.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let due = due.as_nanos() as u64;
                out.lag
                    .push((origin.elapsed().as_nanos() as u64).saturating_sub(due));
                due
            }
        };
        tr.close("gen.wait", root, r, s);
        slot.store(stamp, Ordering::Release);
        let s = tr.now();
        let flush_start = origin.elapsed().as_nanos() as u64;
        if r == 0 {
            out.first = flush_start;
        }
        for (p, src) in sources.iter_mut().enumerate() {
            if let (Some(batch), Some(src)) = (inputs.emission(p, r), src.as_mut()) {
                src.stage_batch(batch);
                src.flush();
                out.flushes += 1;
            }
        }
        // A producer whose script is done disconnects right away, so
        // later rounds are admitted without it.
        for (p, src) in sources.iter_mut().enumerate() {
            if inputs.producer_rounds(p) == r + 1 {
                *src = None;
            }
        }
        out.last = origin.elapsed().as_nanos() as u64;
        tr.close("ingest.flush", root, r, s);
        gate.update(|g| g.submitted = r + 1);
    }
    drop(sources);
    if tr.on() {
        tr.spans[0].end = tr.now();
    }
    out.spans = tr.spans;
    out
}

/// Counts of drained deltas, by kind (the consumer's work).
#[derive(Default)]
struct Consumed {
    inserts: u64,
    retractions: u64,
    ctis: u64,
}

struct Poller<'a> {
    traced: bool,
    root: u32,
    consumed: Consumed,
    lag_max: u64,
    /// Round-drain time spent inside polls and the seal (traced only).
    drains_outside_pump: u64,
    subs: &'a mut [Subscription],
}

impl Poller<'_> {
    fn drain_total(&self, engine: &Engine, tr: &mut Tracer, round: usize) -> u64 {
        let s = tr.now();
        let v = engine.metrics().timings.round_drain.sum();
        tr.close("trace.snapshot", self.root, round, s);
        v
    }

    /// Poll every subscription once and consume what it returns.
    fn poll_all(&mut self, engine: &mut Engine, tr: &mut Tracer, round: usize) {
        let before = if self.traced {
            self.drain_total(engine, tr, round)
        } else {
            0
        };
        for sub in self.subs.iter_mut() {
            if self.traced {
                self.lag_max = self.lag_max.max(sub.pending(engine) as u64);
            }
            let s = tr.now();
            for d in sub.poll(engine) {
                match d {
                    OutputDelta::Insert { .. } => self.consumed.inserts += 1,
                    OutputDelta::Retract { .. } => self.consumed.retractions += 1,
                    OutputDelta::Cti { .. } => self.consumed.ctis += 1,
                }
            }
            tr.close("subscribe.poll", self.root, round, s);
        }
        if self.traced {
            let after = self.drain_total(engine, tr, round);
            self.drains_outside_pump += after - before;
        }
    }
}

pub struct JobOpts {
    pub threads: usize,
    pub traced: bool,
    /// Take (or reuse) the last checkpoint, restore it into a fresh
    /// engine, finish the input there and compare the outputs.
    pub verify_restore: bool,
}

/// Run one job. Set-up errors are returned; errors while running are
/// counted in the job.
pub fn run(w: &Workload, inputs: &Inputs, opts: &JobOpts) -> Result<Job, EngineError> {
    let (prepared, sources, setup) = set_up(w, inputs, opts.threads)?;
    let Prepared {
        mut engine,
        queries,
        mut subs,
        register,
    } = prepared;
    let rounds = inputs.rounds;
    let mut job = Job {
        threads: opts.threads,
        traced: opts.traced,
        verified: opts.verify_restore,
        setup,
        events: inputs.events(),
        ..Job::default()
    };
    let gate = Gate {
        state: Mutex::new(GateState::default()),
        cv: Condvar::new(),
    };
    let issued: Vec<AtomicU64> = (0..rounds).map(|_| AtomicU64::new(0)).collect();
    let mut layers = Layers {
        register: register.as_nanos() as u64,
        ..Layers::default()
    };
    let mut last_image: Option<(usize, Vec<u8>)> = None;
    let mut half_mark: Option<(u64, u64)> = None;
    let mut scrapes = 0usize;

    let origin = Instant::now();
    let mut tr = Tracer::new(opts.traced, origin, "engine", 0);
    let root = tr.push("job", ROOT, 0, 0, 0);
    let mut poller = Poller {
        traced: opts.traced,
        root,
        consumed: Consumed::default(),
        lag_max: 0,
        drains_outside_pump: 0,
        subs: &mut subs,
    };
    let gen = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            generate(
                inputs,
                sources,
                w.pacing,
                &gate,
                &issued,
                origin,
                opts.traced,
            )
        });
        let mut admitted = 0usize;
        let mut idle_since: Option<u64> = None;
        loop {
            let s = tr.now();
            let progress = match engine.pump() {
                Ok(p) => p,
                Err(e) => {
                    job.attempted += 1;
                    job.failed += 1;
                    job.errors.push(format!("pump: {e}"));
                    gate.update(|g| g.abort = true);
                    break;
                }
            };
            layers.stall_peak = layers.stall_peak.max(progress.rounds_stalled);
            layers.buffered_peak = layers.buffered_peak.max(progress.buffered_batches as u64);
            if progress.rounds == 0 {
                if admitted >= rounds && progress.open_producers == 0 {
                    break;
                }
                idle_since.get_or_insert(s);
                // Sleep rather than spin: on two cores a spinning engine
                // thread takes the core the generator and drain workers need.
                std::thread::sleep(Duration::from_micros(20));
                continue;
            }
            if let Some(i) = idle_since.take() {
                tr.push("pump.idle", root, admitted, i, s);
            }
            job.attempted += 1;
            layers.pump_calls += 1;
            tr.close("pump", root, admitted, s);
            let prev = admitted;
            admitted += progress.rounds as usize;
            poller.poll_all(&mut engine, &mut tr, admitted);

            let now = origin.elapsed().as_nanos() as u64;
            for slot in &issued[prev..admitted.min(rounds)] {
                let lat = now.saturating_sub(slot.load(Ordering::Acquire));
                if let Pacing::Open { limit, .. } = w.pacing {
                    if lat > limit.as_nanos() as u64 {
                        job.late += 1;
                    }
                }
                job.latencies.push(lat);
            }
            if half_mark.is_none() && admitted * 2 >= rounds {
                half_mark = Some((now, inputs.cum_events[admitted.min(rounds)]));
            }
            let due = match w.pacing {
                Pacing::Open { period, .. } => {
                    ((now / period.as_nanos() as u64) as usize + 1).min(rounds)
                }
                Pacing::Closed => admitted,
            };
            job.backlog.push((
                now,
                progress.buffered_batches as u64,
                due.saturating_sub(admitted) as u64,
            ));
            if let Some(k) = w.checkpoint_every {
                if admitted.is_multiple_of(k) && admitted < rounds {
                    // The image must not depend on how far the generator
                    // got with disconnecting finished producers.
                    gate.wait(|g| g.submitted >= admitted);
                    let s = tr.now();
                    let t0 = Instant::now();
                    job.attempted += 1;
                    match engine.checkpoint_to_vec() {
                        Ok(image) => {
                            job.checkpoints.push(t0.elapsed().as_nanos() as u64);
                            job.image_bytes.push(image.len() as u64);
                            last_image = Some((admitted, image));
                        }
                        Err(e) => {
                            job.failed += 1;
                            job.errors.push(format!("checkpoint: {e}"));
                        }
                    }
                    tr.close("checkpoint", root, admitted, s);
                }
            }
            if admitted / w.scrape_every > scrapes {
                scrapes = admitted / w.scrape_every;
                let s = tr.now();
                let t0 = Instant::now();
                black_box(engine.metrics());
                layers.scrape_samples.push(t0.elapsed().as_nanos() as u64);
                tr.close("obs.snapshot", root, admitted, s);
            }
            gate.update(|g| g.released = admitted);
        }
        if let Some(i) = idle_since.take() {
            let now = tr.now();
            tr.push("pump.idle", root, admitted, i, now);
        }
        generator.join().expect("generator thread panicked")
    });

    // The seal releases whatever Strong queries still hold; its output
    // is part of the job.
    let before = if opts.traced {
        poller.drain_total(&engine, &mut tr, rounds)
    } else {
        0
    };
    let seal_start = tr.now();
    engine.seal();
    tr.close("engine.seal", root, rounds, seal_start);
    if opts.traced {
        let after = poller.drain_total(&engine, &mut tr, rounds);
        poller.drains_outside_pump += after - before;
    }
    poller.poll_all(&mut engine, &mut tr, rounds);
    job.wall = origin.elapsed();
    black_box((
        poller.consumed.inserts,
        poller.consumed.retractions,
        poller.consumed.ctis,
    ));
    job.attempted += gen.flushes;
    if let Some((t, events)) = half_mark {
        let total = job.wall.as_nanos() as u64;
        let first = events as f64 / (t.max(1) as f64 / 1e9);
        let second = (job.events - events) as f64 / (total.saturating_sub(t).max(1) as f64 / 1e9);
        job.halves = Some((first, second));
    }
    job.gen_lag = gen.lag;

    // Everything below is outside the timed job.
    let drained_ok = poller
        .subs
        .iter()
        .zip(&queries)
        .all(|(sub, (_, q))| sub.position() == engine.collector(*q).delta_log().len());
    if !drained_ok {
        job.failed += 1;
        job.errors
            .push("a subscription did not drain its whole delta log".to_string());
    }
    job.prints = fingerprint(&engine, &queries);
    job.runtime = runtime_counts(&engine, &queries);

    if opts.traced {
        let wall = job.wall.as_nanos() as u64;
        tr.spans[0].end = wall;
        let snap = engine.metrics();
        layers.wall = wall;
        layers.drain_all = snap.timings.round_drain.sum();
        layers.drain = layers.drain_all.saturating_sub(poller.drains_outside_pump);
        layers.shard_drain = snap.timings.shard_drain.sum();
        layers.channel_block = snap.timings.channel_block.sum();
        layers.pump = tr.total("pump");
        layers.idle = tr.total("pump.idle");
        layers.poll = tr.total("subscribe.poll");
        layers.lag_max = poller.lag_max;
        layers.scrape = tr.total("obs.snapshot");
        layers.checkpoint = tr.total("checkpoint");
        layers.checkpoints = job.checkpoints.len() as u64;
        layers.seal = tr.total("engine.seal");
        layers.trace_snapshot = tr.total("trace.snapshot");
        layers.residual = trace::self_time(&tr.spans, root);
        layers.flush = gen
            .spans
            .iter()
            .filter(|s| s.name == "ingest.flush")
            .map(Span::nanos)
            .sum();
        layers.gen_lag_max = job.gen_lag.iter().copied().max().unwrap_or(0);
        layers.gen_active = gen.last.saturating_sub(gen.first);
        job.spans = tr.spans;
        job.spans.extend(gen.spans);
        job.layers = Some(layers);
    }

    if opts.verify_restore {
        let (round, image) = match last_image {
            Some(img) => img,
            None => {
                // No periodic checkpoints: image the final state.
                job.attempted += 1;
                let t0 = Instant::now();
                match engine.checkpoint_to_vec() {
                    Ok(image) => {
                        job.checkpoints.push(t0.elapsed().as_nanos() as u64);
                        job.image_bytes.push(image.len() as u64);
                        (rounds, image)
                    }
                    Err(e) => {
                        job.failed += 1;
                        job.errors.push(format!("checkpoint: {e}"));
                        job.det = deterministic_counts(&engine, &queries, &job.image_bytes);
                        return Ok(job);
                    }
                }
            }
        };
        job.det = deterministic_counts(&engine, &queries, &job.image_bytes);
        drop(engine);
        restore_and_finish(w, inputs, opts.threads, round, &image, &mut job)?;
    } else {
        job.det = deterministic_counts(&engine, &queries, &job.image_bytes);
    }
    Ok(job)
}

/// Restore `image` (taken after `round` rounds) into a fresh engine,
/// feed it the rest of the input and compare its output with the job's.
fn restore_and_finish(
    w: &Workload,
    inputs: &Inputs,
    threads: usize,
    round: usize,
    image: &[u8],
    job: &mut Job,
) -> Result<(), EngineError> {
    let Prepared {
        mut engine,
        queries,
        ..
    } = prepare(w, threads)?;
    job.attempted += 1;
    let t0 = Instant::now();
    if let Err(e) = engine.restore_from_slice(image) {
        job.failed += 1;
        job.errors.push(format!("restore: {e}"));
        return Ok(());
    }
    job.restore = Some(t0.elapsed().as_nanos() as u64);
    if round < inputs.rounds {
        let mut sources = open_sources(&mut engine, inputs, round)?;
        for r in round..inputs.rounds {
            for (p, src) in sources.iter_mut().enumerate() {
                if let (Some(batch), Some(src)) = (inputs.emission(p, r), src.as_mut()) {
                    src.stage_batch(batch);
                    src.flush();
                }
                if inputs.producer_rounds(p) == r + 1 {
                    *src = None;
                }
            }
            job.attempted += 1;
            if let Err(e) = engine.pump() {
                job.failed += 1;
                job.errors.push(format!("pump after restore: {e}"));
                return Ok(());
            }
        }
        drop(sources);
        job.attempted += 1;
        if let Err(e) = engine.run_pipelined() {
            job.failed += 1;
            job.errors.push(format!("pump after restore: {e}"));
            return Ok(());
        }
        engine.seal();
    }
    let restored = fingerprint(&engine, &queries);
    job.restore_mismatches = mismatches(&restored, &job.prints);
    Ok(())
}

/// The untimed reference: a 1-worker engine fed serially through
/// borrowed `SourceHandle`s, one flush per emission and one quiescence
/// pass per round (the pump's canonical schedule, with no channel).
pub fn reference(w: &Workload, inputs: &Inputs) -> Result<Vec<QueryPrint>, EngineError> {
    let Prepared {
        mut engine,
        queries,
        mut subs,
        ..
    } = prepare(w, 1)?;
    for r in 0..inputs.rounds {
        for p in 0..inputs.producers() {
            if let Some(batch) = inputs.emission(p, r) {
                let mut h = engine.source(inputs.event_type(p))?.manual_flush();
                h.stage_batch(batch);
                h.flush();
            }
        }
        for sub in subs.iter_mut() {
            black_box(sub.poll(&mut engine).len());
        }
    }
    engine.seal();
    for sub in subs.iter_mut() {
        black_box(sub.poll(&mut engine).len());
    }
    Ok(fingerprint(&engine, &queries))
}
