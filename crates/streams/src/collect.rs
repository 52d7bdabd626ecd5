//! Collecting a physical stream back into history tables.
//!
//! The collector stamps every message with CEDR time and maintains the
//! tritemporal history table of Section 4 (valid time doubling as occurrence
//! time in the merged unitemporal regime), so the paper's canonicalisation,
//! equivalence and sync-point machinery applies verbatim to runtime outputs.

use crate::delta::OutputDelta;
use crate::message::{Message, Stamped};
use cedr_temporal::{
    ChainKey, HistoryRow, HistoryTable, Interval, TimePoint, UniTemporalRow, UniTemporalTable,
};
use std::collections::HashMap;

/// Aggregate statistics of a collected stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    pub inserts: usize,
    pub retractions: usize,
    pub full_removals: usize,
    pub ctis: usize,
    /// Total output size in the Figure-8 sense: inserts + retractions.
    pub data_messages: usize,
}

/// Folds messages into a history table, statistics, and an incremental
/// **delta log** — the consumable changelog cursored by subscriptions.
#[derive(Clone, Debug, Default)]
pub struct Collector {
    history: HistoryTable,
    stamped: Vec<Stamped>,
    /// Append-only changelog mirroring `stamped`: one [`OutputDelta`] per
    /// ingested message, in arrival order. Events are `Arc`-shared with
    /// the stamped tape, so the log costs no payload copies. Sink nodes
    /// feed it through [`Collector::push`] alongside the stamped tape,
    /// which is what makes subscription drains bit-identical to
    /// `stamped()` at every thread count.
    deltas: Vec<OutputDelta>,
    stats: StreamStats,
    /// Current lifetime per chain, for retraction chaining.
    current_end: HashMap<u64, TimePoint>,
    clock: crate::clock::CedrClock,
    max_cti: Option<TimePoint>,
}

impl Collector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one message.
    pub fn push(&mut self, msg: Message) {
        let cs = self.clock.stamp();
        match &msg {
            Message::Insert(e) => {
                self.stats.inserts += 1;
                self.stats.data_messages += 1;
                self.current_end.insert(e.id.0, e.interval.end);
                self.history.push(HistoryRow {
                    id: e.id,
                    valid: e.interval,
                    occurrence: e.interval,
                    cedr: Interval::from(cs),
                    k: ChainKey(e.id.0),
                    payload: e.payload.clone(),
                });
                self.deltas.push(OutputDelta::Insert {
                    cedr_time: cs,
                    event: e.clone(),
                });
            }
            Message::Retract(r) => {
                self.stats.retractions += 1;
                self.stats.data_messages += 1;
                if r.is_full_removal() {
                    self.stats.full_removals += 1;
                }
                self.current_end.insert(r.event.id.0, r.new_end);
                let shortened = Interval::new(r.event.interval.start, r.new_end);
                self.history.push(HistoryRow {
                    id: r.event.id,
                    valid: shortened,
                    occurrence: shortened,
                    cedr: Interval::from(cs),
                    k: ChainKey(r.event.id.0),
                    payload: r.event.payload.clone(),
                });
                self.deltas.push(OutputDelta::Retract {
                    cedr_time: cs,
                    event: r.event.clone(),
                    new_end: r.new_end,
                });
            }
            Message::Cti(t) => {
                self.stats.ctis += 1;
                self.max_cti = Some(self.max_cti.map_or(*t, |m| TimePoint::max_of(m, *t)));
                self.deltas.push(OutputDelta::Cti {
                    cedr_time: cs,
                    guarantee: *t,
                });
            }
        }
        self.stamped.push(Stamped::new(cs, msg));
    }

    /// Ingest a whole stream.
    pub fn push_all(&mut self, msgs: impl IntoIterator<Item = Message>) {
        for m in msgs {
            self.push(m);
        }
    }

    /// Ingest every message of a batch. Events stay shared with the batch
    /// (`Arc` clones); only history-table rows copy payloads out.
    pub fn absorb_batch(&mut self, batch: &crate::batch::MessageBatch) {
        for m in batch {
            self.push(m.clone());
        }
    }

    /// The tritemporal history table accumulated so far.
    pub fn history(&self) -> &HistoryTable {
        &self.history
    }

    /// The net logical content: the reduced table as a unitemporal table
    /// (each chain collapsed to its final lifetime, removals dropped).
    pub fn net_table(&self) -> UniTemporalTable {
        self.history
            .reduce()
            .rows
            .into_iter()
            .map(|r| UniTemporalRow::new(r.id, r.occurrence, r.payload))
            .collect()
    }

    /// All stamped messages in arrival order.
    pub fn stamped(&self) -> &[Stamped] {
        &self.stamped
    }

    /// The append-only output changelog, in arrival order — one
    /// [`OutputDelta`] per message ever pushed, mirroring
    /// [`Collector::stamped`] entry for entry. Subscriptions cursor into
    /// this slice; see [`Collector::deltas_from`].
    pub fn delta_log(&self) -> &[OutputDelta] {
        &self.deltas
    }

    /// The changelog suffix starting at `cursor` (clamped to the log
    /// length): everything appended since a consumer last read up to
    /// `cursor`. Incremental consumption is `deltas_from(cursor)` + advance
    /// the cursor by the returned length — no state is re-read and nothing
    /// is copied.
    pub fn deltas_from(&self, cursor: usize) -> &[OutputDelta] {
        &self.deltas[cursor.min(self.deltas.len())..]
    }

    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// The highest CTI observed (output progress guarantee).
    pub fn max_cti(&self) -> Option<TimePoint> {
        self.max_cti
    }

    /// Decompose into plain checkpointable parts. `current_end` is sorted
    /// by chain key so the decomposition (and any image built from it) is
    /// deterministic regardless of hash-map iteration order.
    pub fn to_parts(&self) -> CollectorParts {
        let mut current_end: Vec<(u64, TimePoint)> =
            self.current_end.iter().map(|(&k, &v)| (k, v)).collect();
        current_end.sort_unstable_by_key(|&(k, _)| k);
        CollectorParts {
            history: self.history.clone(),
            stamped: self.stamped.clone(),
            deltas: self.deltas.clone(),
            stats: self.stats.clone(),
            current_end,
            clock_ticks: self.clock.ticks(),
            max_cti: self.max_cti,
        }
    }

    /// Rebuild a collector from checkpointed parts. Inverse of
    /// [`Collector::to_parts`].
    pub fn from_parts(parts: CollectorParts) -> Collector {
        Collector {
            history: parts.history,
            stamped: parts.stamped,
            deltas: parts.deltas,
            stats: parts.stats,
            current_end: parts.current_end.into_iter().collect(),
            clock: crate::clock::CedrClock::from_ticks(parts.clock_ticks),
            max_cti: parts.max_cti,
        }
    }
}

/// A [`Collector`] decomposed into plain data for checkpointing: every
/// private field surfaced as an owned, deterministic value (maps as sorted
/// vectors, the clock as its raw tick counter).
#[derive(Clone, Debug, PartialEq)]
pub struct CollectorParts {
    pub history: HistoryTable,
    pub stamped: Vec<Stamped>,
    pub deltas: Vec<OutputDelta>,
    pub stats: StreamStats,
    /// `(chain key, current lifetime end)`, sorted by chain key.
    pub current_end: Vec<(u64, TimePoint)>,
    pub clock_ticks: u64,
    pub max_cti: Option<TimePoint>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Retraction;
    use crate::source::StreamBuilder;
    use cedr_temporal::interval::iv;
    use cedr_temporal::time::t;
    use cedr_temporal::{EquivalenceOptions, Event, EventId, Payload};

    #[test]
    fn collects_inserts_and_retractions_into_chains() {
        let mut b = StreamBuilder::new();
        let e = b.insert(iv(1, 10), Payload::empty());
        b.retract(e, t(4));
        let mut c = Collector::new();
        c.push_all(b.build_ordered(None, true));
        assert_eq!(c.stats().inserts, 1);
        assert_eq!(c.stats().retractions, 1);
        assert_eq!(c.stats().ctis, 1);
        let net = c.net_table();
        assert_eq!(net.len(), 1);
        assert_eq!(net.rows[0].interval, iv(1, 4));
    }

    #[test]
    fn full_removals_vanish_from_net_content() {
        let mut c = Collector::new();
        let e = Event::primitive(EventId(9), iv(2, 8), Payload::empty());
        c.push(Message::insert_event(e.clone()));
        c.push(Message::Retract(Retraction::new(e, t(2))));
        assert_eq!(c.stats().full_removals, 1);
        assert!(c.net_table().is_empty());
    }

    #[test]
    fn scrambled_and_ordered_streams_are_logically_equivalent() {
        use crate::disorder::{scramble, DisorderConfig};
        let mut b = StreamBuilder::new();
        for i in 0..40 {
            let e = b.insert(iv(i, i + 10), Payload::empty());
            if i % 4 == 0 {
                b.retract(e, t(i + 5));
            }
        }
        let ordered = b.build_ordered(Some(cedr_temporal::time::dur(4)), true);
        let scrambled = scramble(&ordered, &DisorderConfig::heavy(13, 25, 6));

        let mut c1 = Collector::new();
        c1.push_all(ordered);
        let mut c2 = Collector::new();
        c2.push_all(scrambled);

        assert!(cedr_temporal::logically_equivalent(
            c1.history(),
            c2.history(),
            EquivalenceOptions::definition1(),
        ));
    }

    #[test]
    fn delta_log_mirrors_stamped_entry_for_entry() {
        let mut b = StreamBuilder::new();
        let e = b.insert(iv(1, 10), Payload::empty());
        b.retract(e, t(4));
        let mut c = Collector::new();
        c.push_all(b.build_ordered(None, true));
        assert_eq!(c.delta_log().len(), c.stamped().len());
        for (d, s) in c.delta_log().iter().zip(c.stamped()) {
            assert_eq!(d.cedr_time(), s.cedr_time);
            assert_eq!(d.sync(), s.message.sync());
            assert_eq!(d.is_data(), s.message.is_data());
        }
        // Cursors: a suffix read picks up exactly what a full read holds.
        let mid = c.delta_log().len() / 2;
        assert_eq!(c.deltas_from(mid), &c.delta_log()[mid..]);
        assert!(c.deltas_from(c.delta_log().len() + 10).is_empty());
    }

    #[test]
    fn cedr_time_stamps_are_sequential() {
        let mut c = Collector::new();
        c.push(Message::Cti(t(1)));
        c.push(Message::Cti(t(2)));
        assert_eq!(c.stamped()[0].cedr_time, t(0));
        assert_eq!(c.stamped()[1].cedr_time, t(1));
        assert_eq!(c.max_cti(), Some(t(2)));
    }
}
