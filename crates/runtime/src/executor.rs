//! The batch-at-a-time dataflow executor: "a set of composable operators
//! that can be combined to form a pipelined query execution plan"
//! (Section 5).
//!
//! Plans are DAGs of [`OperatorShell`]s fed by named external sources.
//! Execution is deterministic and scheduled a **batch at a time** rather
//! than a message at a time: every node owns an input queue of
//! `(port, message)` pairs; producers enqueue (an `Arc` refcount bump per
//! subscriber — events are never deep-copied on fan-out) and
//! [`Dataflow::run_to_quiescence`] drains nodes in topological order,
//! handing each node its queued messages as maximal same-port runs via
//! [`OperatorShell::push_batch`]. Draining upstream nodes before
//! downstream ones means a node sees everything its producers emitted this
//! round in one batch, amortising shell and module overhead across the run
//! (see `OpStats::mean_batch_len`). Per-node FIFO order is identical to
//! the historical message-at-a-time cascade, so operator semantics are
//! unchanged.
//!
//! # Scheduling
//!
//! Because nodes may only reference earlier nodes, a quiescence pass is a
//! single sweep in ascending node-id order, driven by a **ready queue** —
//! an ordered worklist of dirty nodes, seeded with the staged sources and
//! extended as producers emit — so a pass costs O(dirty·log) instead of
//! rescanning every node per step. A dataflow is always drained on one
//! thread: parallelism lives one layer up, where the engine shards whole
//! queries (each its own dataflow) across workers, so every shell sees
//! the same input order at every worker count. Weak consistency's
//! forgetting horizon therefore moves only with *caller-side batch
//! splitting*, as documented at [`Dataflow::enqueue_source_batch`].
//!
//! Sink outputs are folded into [`cedr_streams::Collector`]s so the
//! temporal equivalence machinery applies to query results directly. A
//! collector absorbs each output run into its history tables **and** its
//! append-only [`OutputDelta`](cedr_streams::OutputDelta) log — the
//! change stream that engine-level subscriptions drain incrementally, in
//! the same order at every worker count.

use crate::consistency::ConsistencySpec;
use crate::operator::{OperatorModule, OperatorShell};
use crate::stats::OpStats;
use cedr_obs::{ObsHub, TraceEvent};
use cedr_streams::{Collector, Message, MessageBatch};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Identifies an operator node in a dataflow.
pub type NodeId = usize;

/// A connection endpoint feeding an operator input port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Port {
    /// External source `i`.
    Source(usize),
    /// Output of node `id`.
    Node(NodeId),
}

/// Builds a dataflow DAG.
pub struct DataflowBuilder {
    n_sources: usize,
    shells: Vec<OperatorShell>,
    inputs: Vec<Vec<Port>>,
}

impl DataflowBuilder {
    pub fn new(n_sources: usize) -> Self {
        DataflowBuilder {
            n_sources,
            shells: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// Add an operator node; `inputs[i]` feeds the module's port `i`.
    /// Nodes may only reference earlier nodes (enforcing acyclicity).
    pub fn add_node(
        &mut self,
        module: Box<dyn OperatorModule>,
        spec: ConsistencySpec,
        inputs: Vec<Port>,
    ) -> NodeId {
        assert_eq!(
            inputs.len(),
            module.arity(),
            "operator {} expects {} inputs",
            module.name(),
            module.arity()
        );
        for p in &inputs {
            match p {
                Port::Source(s) => assert!(*s < self.n_sources, "unknown source {s}"),
                Port::Node(n) => assert!(*n < self.shells.len(), "forward edge to node {n}"),
            }
        }
        let id = self.shells.len();
        self.shells.push(OperatorShell::new(module, spec));
        self.inputs.push(inputs);
        id
    }

    /// Finish the graph; `watched` nodes get output collectors.
    pub fn build(self, watched: &[NodeId]) -> Dataflow {
        let mut source_subs: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); self.n_sources];
        let mut node_subs: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); self.shells.len()];
        for (node, inputs) in self.inputs.iter().enumerate() {
            for (port, src) in inputs.iter().enumerate() {
                match src {
                    Port::Source(s) => source_subs[*s].push((node, port)),
                    Port::Node(n) => node_subs[*n].push((node, port)),
                }
            }
        }
        let collectors = watched
            .iter()
            .map(|&n| {
                assert!(n < self.shells.len(), "cannot watch unknown node {n}");
                (n, Collector::new())
            })
            .collect();
        let queues = vec![VecDeque::new(); self.shells.len()];
        Dataflow {
            nodes: self.shells,
            source_subs,
            node_subs,
            collectors,
            queues,
            tick: 0,
            obs: None,
        }
    }
}

/// An executable dataflow with per-node input queues and a batch-at-a-time
/// scheduler (see the module docs).
pub struct Dataflow {
    nodes: Vec<OperatorShell>,
    source_subs: Vec<Vec<(NodeId, usize)>>,
    node_subs: Vec<Vec<(NodeId, usize)>>,
    collectors: HashMap<NodeId, Collector>,
    /// Per-node FIFO of `(port, message)` awaiting delivery.
    queues: Vec<VecDeque<(usize, Message)>>,
    tick: u64,
    /// Observability hub + the query index this dataflow traces under.
    /// Never serialized (`state_snapshot` excludes it) and never read by
    /// scheduling decisions, so it cannot perturb bit-identity.
    obs: Option<(Arc<ObsHub>, u16)>,
}

impl Dataflow {
    /// Attach an observability hub; `query` labels this dataflow's trace
    /// events and timings. Observation only — delivery order, operator
    /// state and statistics are unchanged with or without a hub.
    pub fn set_obs(&mut self, hub: Arc<ObsHub>, query: u16) {
        self.obs = Some((hub, query));
    }

    /// Enqueue one source message to its subscribers without running the
    /// scheduler. Each subscriber receives an `Arc`-shared clone.
    pub fn enqueue_source(&mut self, source: usize, msg: Message) {
        self.tick += 1;
        for &(node, port) in &self.source_subs[source] {
            self.queues[node].push_back((port, msg.clone()));
        }
    }

    /// Enqueue a whole batch to one source's subscribers without running
    /// the scheduler.
    ///
    /// # Tick semantics
    ///
    /// The CEDR tick is an *ingestion-round* counter, not a message
    /// counter: staging a batch advances it **once**, however many
    /// messages the batch carries, while the per-message
    /// [`Dataflow::enqueue_source`] advances it per call. Blocking
    /// durations ([`OpStats::blocked_ticks`]) therefore measure how many
    /// ingestion rounds a message waited in an alignment buffer —
    /// comparable across batch sizes — and never affect *what* is
    /// delivered: release decisions are driven by syncs and CTIs
    /// (occurrence time), not by the tick.
    pub fn enqueue_source_batch(&mut self, source: usize, batch: &MessageBatch) {
        if batch.is_empty() {
            return;
        }
        self.tick += 1;
        for m in batch {
            for &(node, port) in &self.source_subs[source] {
                self.queues[node].push_back((port, m.clone()));
            }
        }
    }

    /// One **pumped ingestion round**: stage every `(source, batch)` pair
    /// of the round in order — each batch advancing the tick once, as in
    /// [`Dataflow::enqueue_source_batch`] — then run a single quiescence
    /// pass over the union.
    ///
    /// This is the scheduler entry point for round-at-a-time drivers (the
    /// engine's ingress drain and channel pump): because the pass
    /// structure is fixed — one pass per round, however the round was
    /// assembled — a round-admitting caller that feeds identical rounds
    /// in identical order gets bit-identical execution, regardless of the
    /// thread timing that produced those rounds. An empty round still
    /// runs the (no-op) pass.
    pub fn run_round<'a>(&mut self, round: impl IntoIterator<Item = (usize, &'a MessageBatch)>) {
        for (source, batch) in round {
            self.enqueue_source_batch(source, batch);
        }
        self.run_to_quiescence();
    }

    /// Drain all node queues until the graph is quiet. The sweep is driven
    /// by a ready queue: an ordered worklist of nodes with pending input.
    /// Edges only point forward, so popping the smallest dirty node
    /// processes every producer before its consumers — by the time a node
    /// runs it holds everything upstream emitted this round — without the
    /// historical O(nodes) rescan per step.
    ///
    /// Each node receives its drained input as **maximal same-port runs**
    /// in arrival order (messages move into each run — no re-clone); a
    /// run's outputs are absorbed into the node's collector (history
    /// tables, stamped tape and subscription delta log advance together)
    /// and fanned out to its consumers' queues.
    pub fn run_to_quiescence(&mut self) {
        let now = self.tick;
        let Dataflow {
            nodes,
            node_subs,
            collectors,
            queues,
            obs,
            ..
        } = self;
        let mut ready: BTreeSet<NodeId> = (0..nodes.len())
            .filter(|&n| !queues[n].is_empty())
            .collect();
        while let Some(node) = ready.pop_first() {
            let drained: Vec<(usize, Message)> = queues[node].drain(..).collect();
            let mut input = drained.into_iter().peekable();
            let mut collector = collectors.get_mut(&node);
            while let Some((port, first)) = input.next() {
                let mut run = vec![first];
                while input.peek().is_some_and(|(p, _)| *p == port) {
                    run.push(input.next().expect("peeked").1);
                }
                if let Some((hub, query)) = obs {
                    hub.trace(|| TraceEvent::OperatorRun {
                        query: *query,
                        node: node as u16,
                        batch_len: run.len().min(u32::MAX as usize) as u32,
                    });
                }
                let outs = nodes[node].push_batch(port, &run, now);
                if outs.is_empty() {
                    continue;
                }
                let outs = MessageBatch::from(outs);
                if let Some(c) = collector.as_deref_mut() {
                    c.absorb_batch(&outs);
                }
                for &(next, next_port) in &node_subs[node] {
                    for o in &outs {
                        queues[next].push_back((next_port, o.clone()));
                    }
                    ready.insert(next);
                }
            }
        }
    }

    /// Feed one message into external source `source`, cascading it through
    /// the graph to quiescence.
    pub fn push_source(&mut self, source: usize, msg: Message) {
        self.enqueue_source(source, msg);
        self.run_to_quiescence();
    }

    /// Feed a whole batch into external source `source`, then run the graph
    /// to quiescence. All of the batch is enqueued up front, so every node
    /// on the path processes it in amortised runs rather than one cascade
    /// per message.
    pub fn push_source_batch(&mut self, source: usize, batch: &MessageBatch) {
        self.enqueue_source_batch(source, batch);
        self.run_to_quiescence();
    }

    /// Feed a whole stream into one source, one cascade per message (the
    /// historical fine-grained mode; prefer [`Dataflow::push_source_batch`]
    /// when the caller already holds a run of messages).
    pub fn run_stream(&mut self, source: usize, msgs: impl IntoIterator<Item = Message>) {
        for m in msgs {
            self.push_source(source, m);
        }
    }

    /// Interleave several per-source streams round-robin (a simple model of
    /// concurrent providers).
    pub fn run_interleaved(&mut self, streams: Vec<Vec<Message>>) {
        let mut iters: Vec<std::vec::IntoIter<Message>> =
            streams.into_iter().map(|s| s.into_iter()).collect();
        loop {
            let mut progressed = false;
            for (src, it) in iters.iter_mut().enumerate() {
                if let Some(m) = it.next() {
                    self.push_source(src, m);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// The collector attached to a watched node.
    pub fn collector(&self, node: NodeId) -> &Collector {
        self.collectors
            .get(&node)
            .expect("node is not watched; pass it to build()")
    }

    /// Per-node runtime statistics.
    pub fn stats(&self, node: NodeId) -> &OpStats {
        self.nodes[node].stats()
    }

    /// Plan-wide totals.
    pub fn total_stats(&self) -> OpStats {
        let mut total = OpStats::default();
        for n in &self.nodes {
            total.absorb(n.stats());
        }
        total
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn node_name(&self, node: NodeId) -> &'static str {
        self.nodes[node].name()
    }

    /// Current CEDR tick (arrival counter).
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Serialize the dataflow's full runtime state at a quiescent round
    /// boundary: the tick, every shell's state (module blob included),
    /// and every collector. Topology (`source_subs` / `node_subs`) is
    /// plan-derived and re-created by
    /// re-registering the query, so it is not part of the image. Fails if
    /// any node queue still holds undelivered messages — the caller must
    /// run to quiescence first.
    pub fn state_snapshot(&self, out: &mut Vec<u8>) -> Result<(), cedr_durable::CodecError> {
        use cedr_durable::Persist;
        if let Some(node) = self.queues.iter().position(|q| !q.is_empty()) {
            return Err(cedr_durable::CodecError::new(format!(
                "node {node} has undelivered queued messages; not at a quiescent boundary"
            )));
        }
        self.tick.encode(out);
        (self.nodes.len() as u64).encode(out);
        for (node, shell) in self.nodes.iter().enumerate() {
            let mut blob = Vec::new();
            shell
                .state_snapshot(&mut blob)
                .map_err(|e| e.in_section(&format!("node {node}")))?;
            blob.encode(out);
        }
        let mut watched: Vec<NodeId> = self.collectors.keys().copied().collect();
        watched.sort_unstable();
        (watched.len() as u64).encode(out);
        for node in watched {
            (node as u64).encode(out);
            self.collectors[&node].to_parts().encode(out);
        }
        Ok(())
    }

    /// Restore state captured by [`Dataflow::state_snapshot`] into a
    /// freshly built dataflow of the *same plan*. Node count and watched
    /// set must match the image exactly.
    pub fn state_restore(
        &mut self,
        r: &mut cedr_durable::Reader<'_>,
    ) -> Result<(), cedr_durable::CodecError> {
        use cedr_durable::Persist;
        self.tick = u64::decode(r)?;
        let n = u64::decode(r)? as usize;
        if n != self.nodes.len() {
            return Err(cedr_durable::CodecError::new(format!(
                "plan has {} nodes, image has {n}",
                self.nodes.len()
            )));
        }
        for (node, shell) in self.nodes.iter_mut().enumerate() {
            let blob = Vec::<u8>::decode(r)?;
            let mut br = cedr_durable::Reader::new(&blob);
            shell
                .state_restore(&mut br)
                .and_then(|()| br.expect_exhausted())
                .map_err(|e| e.in_section(&format!("node {node}")))?;
        }
        let watched = u64::decode(r)? as usize;
        if watched != self.collectors.len() {
            return Err(cedr_durable::CodecError::new(format!(
                "plan watches {} nodes, image has {watched}",
                self.collectors.len()
            )));
        }
        for _ in 0..watched {
            let node = u64::decode(r)? as NodeId;
            let parts = cedr_streams::CollectorParts::decode(r)?;
            match self.collectors.get_mut(&node) {
                Some(c) => *c = Collector::from_parts(parts),
                None => {
                    return Err(cedr_durable::CodecError::new(format!(
                        "image watches node {node}, which the plan does not"
                    )))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::GroupAggregateOp;
    use crate::sequence::SequenceOp;
    use crate::stateless::{AlterLifetimeOp, SelectOp};
    use cedr_algebra::expr::{CmpOp, Pred, Scalar};
    use cedr_algebra::relational::AggFunc;
    use cedr_streams::StreamBuilder;
    use cedr_temporal::time::{dur, t};
    use cedr_temporal::{Interval, Payload, TimePoint, Value};

    #[test]
    fn linear_pipeline_select_window_count() {
        // σ(value ≥ 0) → W_5 → count.
        let mut b = DataflowBuilder::new(1);
        let sel = b.add_node(
            Box::new(SelectOp::new(Pred::cmp(
                Scalar::Field(0),
                CmpOp::Ge,
                Scalar::lit(0i64),
            ))),
            ConsistencySpec::middle(),
            vec![Port::Source(0)],
        );
        let win = b.add_node(
            Box::new(AlterLifetimeOp::window(dur(5))),
            ConsistencySpec::middle(),
            vec![Port::Node(sel)],
        );
        let cnt = b.add_node(
            Box::new(GroupAggregateOp::global(AggFunc::Count)),
            ConsistencySpec::middle(),
            vec![Port::Node(win)],
        );
        let mut df = b.build(&[cnt]);

        let mut sb = StreamBuilder::new();
        for i in 0..10u64 {
            sb.insert(
                Interval::from(t(i)),
                Payload::from_values(vec![Value::Int(i as i64)]),
            );
        }
        df.run_stream(0, sb.build_ordered(Some(dur(1)), true));

        let net = df.collector(cnt).net_table();
        assert!(!net.is_empty());
        // With W_5 over points at 0..10, count at time 4 is 5 (events 0..4).
        let snap = net.snapshot_at(t(4));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].payload.get(0), Some(&Value::Int(5)));
        // The final CTI must have propagated through all three operators.
        assert_eq!(df.collector(cnt).max_cti(), Some(TimePoint::INFINITY));
    }

    #[test]
    fn fan_out_to_two_consumers() {
        let mut b = DataflowBuilder::new(1);
        let sel = b.add_node(
            Box::new(SelectOp::new(Pred::True)),
            ConsistencySpec::middle(),
            vec![Port::Source(0)],
        );
        let w1 = b.add_node(
            Box::new(AlterLifetimeOp::window(dur(2))),
            ConsistencySpec::middle(),
            vec![Port::Node(sel)],
        );
        let w2 = b.add_node(
            Box::new(AlterLifetimeOp::window(dur(4))),
            ConsistencySpec::middle(),
            vec![Port::Node(sel)],
        );
        let mut df = b.build(&[w1, w2]);
        let mut sb = StreamBuilder::new();
        sb.insert(Interval::from(t(0)), Payload::empty());
        df.run_stream(0, sb.build_ordered(None, true));
        assert_eq!(
            df.collector(w1).net_table().rows[0].interval,
            Interval::new(t(0), t(2))
        );
        assert_eq!(
            df.collector(w2).net_table().rows[0].interval,
            Interval::new(t(0), t(4))
        );
    }

    #[test]
    fn two_sources_feed_a_sequence() {
        let mut b = DataflowBuilder::new(2);
        let seq = b.add_node(
            Box::new(SequenceOp::new(2, dur(10), Pred::True)),
            ConsistencySpec::middle(),
            vec![Port::Source(0), Port::Source(1)],
        );
        let mut df = b.build(&[seq]);

        let mut a = StreamBuilder::with_id_base(0);
        a.insert_at(t(1), Payload::empty());
        let mut c = StreamBuilder::with_id_base(1000);
        c.insert_at(t(4), Payload::empty());
        df.run_interleaved(vec![
            a.build_ordered(None, true),
            c.build_ordered(None, true),
        ]);
        assert_eq!(df.collector(seq).stats().inserts, 1);
        assert_eq!(df.collector(seq).max_cti(), Some(TimePoint::INFINITY));
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_is_rejected() {
        let mut b = DataflowBuilder::new(1);
        b.add_node(
            Box::new(SequenceOp::new(2, dur(10), Pred::True)),
            ConsistencySpec::middle(),
            vec![Port::Source(0)], // needs 2
        );
    }

    #[test]
    fn total_stats_aggregate_across_nodes() {
        let mut b = DataflowBuilder::new(1);
        let s1 = b.add_node(
            Box::new(SelectOp::new(Pred::True)),
            ConsistencySpec::middle(),
            vec![Port::Source(0)],
        );
        let _s2 = b.add_node(
            Box::new(SelectOp::new(Pred::True)),
            ConsistencySpec::middle(),
            vec![Port::Node(s1)],
        );
        let mut df = b.build(&[]);
        let mut sb = StreamBuilder::new();
        sb.insert_at(t(0), Payload::empty());
        df.run_stream(0, sb.build_ordered(None, false));
        let total = df.total_stats();
        assert_eq!(total.arrivals, 2, "both nodes saw the event");
        assert_eq!(total.out_inserts, 2);
    }
}
