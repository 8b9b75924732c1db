//! Event tracing.
//!
//! Every rank can record what it does — sends, receives, exchanges, local
//! computation steps — together with the simulated interval over which the
//! action ran. Traces are how the test-suite and the figure generators
//! reproduce the paper's step-by-step value tables (Figures 4, 5 and 6)
//! and how the ASCII timeline of Figure 1/3 is rendered.
//!
//! Beyond rendering, traces carry enough structure for *analysis*:
//!
//! * every event records its **span** (`start`, `time`] — the clock before
//!   and after the action — so per-rank busy/idle time is derivable;
//! * every [`Recv`](EventKind::Recv) and [`Exchange`](EventKind::Exchange)
//!   records the **sender's clock at send start** (`sent_at`), the causal
//!   link that [`crate::profile::critical_path`] walks backwards to
//!   attribute a run's makespan to an exact chain of messages and
//!   computation steps;
//! * [`Stage`](EventKind::Stage) markers let an executor label which
//!   program stage each span belongs to, feeding the per-stage breakdown
//!   of [`crate::profile::ProfileReport`].

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A message of `words` words left for rank `to`.
    Send {
        /// Destination rank.
        to: usize,
        /// Message size in words.
        words: u64,
    },
    /// A message of `words` words arrived from rank `from`.
    Recv {
        /// Source rank.
        from: usize,
        /// Message size in words.
        words: u64,
        /// The sender's clock when it started the send — the causal
        /// dependency this receive waited on.
        sent_at: f64,
    },
    /// A simultaneous exchange with `partner` (both directions, one cost).
    Exchange {
        /// Partner rank.
        partner: usize,
        /// Words charged: the larger of the two directions.
        words: u64,
        /// Words this rank sent (its own outgoing direction).
        out_words: u64,
        /// The partner's clock when it entered the exchange.
        sent_at: f64,
    },
    /// A transmission attempt to `to` that the fault plan dropped: the
    /// sender paid the transfer plus the ack timeout, then retransmitted.
    /// The span covers the wasted attempt; the eventual successful `Send`
    /// follows as its own event.
    Retry {
        /// Destination rank of the dropped message.
        to: usize,
        /// Message size in words.
        words: u64,
        /// Which attempt this was (1-based; attempt 1 is the first drop).
        attempt: u32,
    },
    /// `ops` units of local computation, with a free-form label
    /// (e.g. the collective stage it belongs to).
    Compute {
        /// Number of unit operations.
        ops: f64,
        /// Human-readable stage label.
        label: String,
    },
    /// A barrier completed.
    Barrier,
    /// A free-form marker, used by tests to record intermediate values
    /// (the per-step tuples of Figures 4–6).
    Mark {
        /// Marker text.
        note: String,
    },
    /// End-of-stage boundary injected by an executor: everything this rank
    /// did since the previous `Stage` marker belongs to stage `index`.
    Stage {
        /// Stage position in the program.
        index: usize,
        /// The stage's display label.
        label: String,
    },
}

impl EventKind {
    /// Is this a zero-cost annotation (no simulated time passes)?
    pub fn is_annotation(&self) -> bool {
        matches!(self, EventKind::Mark { .. } | EventKind::Stage { .. })
    }

    /// Does this event occupy the network (vs local computation)?
    /// Retries count: a dropped transmission holds the link (and the
    /// sender's clock) exactly like a delivered one.
    pub fn is_comm(&self) -> bool {
        matches!(
            self,
            EventKind::Send { .. }
                | EventKind::Recv { .. }
                | EventKind::Exchange { .. }
                | EventKind::Retry { .. }
        )
    }
}

/// One trace record: the rank it happened on, the simulated span over
/// which it ran, and the action.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Rank the event belongs to.
    pub rank: usize,
    /// Simulated time at which the action started. For a receive or an
    /// exchange this is the *rendezvous* point `max(own clock, sender's
    /// send start)` — any earlier waiting shows up as a gap between the
    /// previous event's end and this start.
    pub start: f64,
    /// Simulated time at which the action completed.
    pub time: f64,
    /// The action.
    pub kind: EventKind,
}

impl Event {
    /// The span's length (`time - start`).
    #[inline]
    pub fn duration(&self) -> f64 {
        self.time - self.start
    }
}

/// A per-rank event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<Event>,
    enabled: bool,
}

impl Trace {
    /// A trace that records events.
    pub fn enabled() -> Self {
        Trace {
            events: Vec::new(),
            enabled: true,
        }
    }

    /// A trace that drops everything (zero overhead beyond a branch).
    pub fn disabled() -> Self {
        Trace {
            events: Vec::new(),
            enabled: false,
        }
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event spanning `start..=time` (no-op when disabled).
    pub fn record(&mut self, rank: usize, start: f64, time: f64, kind: EventKind) {
        if self.enabled {
            debug_assert!(time >= start, "event must not end before it starts");
            self.events.push(Event {
                rank,
                start,
                time,
                kind,
            });
        }
    }

    /// Record a zero-duration event at `time`.
    pub fn record_instant(&mut self, rank: usize, time: f64, kind: EventKind) {
        self.record(rank, time, time, kind);
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The `Mark` notes in order — the hook tests use to compare against
    /// the paper's figures.
    pub fn marks(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Mark { note } => Some(note.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Merge another trace (e.g. from another rank) into this one,
    /// keeping events sorted by completion time (stable for equal times).
    pub fn merge(&mut self, other: Trace) {
        self.events.extend(other.events);
        self.events.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    /// Merge many traces (one per rank) with a single sort: concatenate
    /// in order, then sort stably by completion time once. Byte-identical
    /// to folding [`merge`](Self::merge) over the traces in the same
    /// order — a stable sort keeps equal-keyed events in concatenation
    /// order, and re-sorting an already sorted prefix plus a suffix
    /// reduces to exactly that — but avoids re-sorting `p` times per run,
    /// and skips the sort (and its scratch buffer) when the concatenation
    /// is already in order.
    pub fn merge_many(traces: impl IntoIterator<Item = Trace>) -> Trace {
        let mut events = Vec::new();
        for t in traces {
            events.extend(t.events);
        }
        if !events.is_sorted_by(|a, b| a.time <= b.time) {
            events.sort_by(|a, b| {
                a.time
                    .partial_cmp(&b.time)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        Trace {
            events,
            enabled: true,
        }
    }

    /// Renders a compact ASCII timeline: one row per rank, one column per
    /// distinct event time, `*` where the rank acted. A lightweight
    /// regeneration of the paper's Figure 1 style run-time diagrams.
    /// Annotation events ([`EventKind::Stage`]) are not rendered; marks
    /// keep their historical `.` glyph.
    pub fn ascii_timeline(&self, ranks: usize) -> String {
        let rendered: Vec<&Event> = self
            .events
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::Stage { .. }))
            .collect();
        let mut times: Vec<f64> = rendered.iter().map(|e| e.time).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times.dedup();
        let col = |t: f64| times.iter().position(|&x| x == t).unwrap();
        let mut grid = vec![vec![b' '; times.len()]; ranks];
        for e in &rendered {
            if e.rank < ranks {
                let c = match e.kind {
                    EventKind::Send { .. } => b'>',
                    EventKind::Recv { .. } => b'<',
                    EventKind::Exchange { .. } => b'x',
                    EventKind::Retry { .. } => b'!',
                    EventKind::Compute { .. } => b'*',
                    EventKind::Barrier => b'|',
                    EventKind::Mark { .. } => b'.',
                    EventKind::Stage { .. } => unreachable!("filtered above"),
                };
                grid[e.rank][col(e.time)] = c;
            }
        }
        let mut out = String::new();
        for (rank, row) in grid.into_iter().enumerate() {
            out.push_str(&format!("P{rank:<3} "));
            out.push_str(std::str::from_utf8(&row).unwrap());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(0, 0.0, 1.0, EventKind::Barrier);
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.record(0, 0.0, 1.0, EventKind::Send { to: 1, words: 4 });
        t.record(
            0,
            1.0,
            2.0,
            EventKind::Compute {
                ops: 3.0,
                label: "scan".into(),
            },
        );
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].time, 1.0);
        assert_eq!(t.events()[1].start, 1.0);
        assert_eq!(t.events()[1].duration(), 1.0);
    }

    #[test]
    fn marks_are_extracted() {
        let mut t = Trace::enabled();
        t.record_instant(
            0,
            0.0,
            EventKind::Mark {
                note: "(2,2)".into(),
            },
        );
        t.record(0, 0.0, 1.0, EventKind::Barrier);
        t.record_instant(
            1,
            2.0,
            EventKind::Mark {
                note: "(9,14)".into(),
            },
        );
        assert_eq!(t.marks(), vec!["(2,2)", "(9,14)"]);
    }

    #[test]
    fn merge_sorts_by_time() {
        let mut a = Trace::enabled();
        a.record(0, 0.0, 5.0, EventKind::Barrier);
        let mut b = Trace::enabled();
        b.record(1, 0.0, 2.0, EventKind::Barrier);
        a.merge(b);
        assert_eq!(a.events()[0].rank, 1);
        assert_eq!(a.events()[1].rank, 0);
    }

    #[test]
    fn ascii_timeline_has_one_row_per_rank() {
        let mut t = Trace::enabled();
        t.record(0, 0.0, 0.0, EventKind::Send { to: 1, words: 1 });
        t.record(
            1,
            0.0,
            1.0,
            EventKind::Recv {
                from: 0,
                words: 1,
                sent_at: 0.0,
            },
        );
        let s = t.ascii_timeline(2);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('>'));
        assert!(lines[1].contains('<'));
    }

    #[test]
    fn stage_markers_do_not_disturb_the_timeline() {
        let mut plain = Trace::enabled();
        plain.record(0, 0.0, 1.0, EventKind::Send { to: 1, words: 1 });
        let mut staged = plain.clone();
        staged.record_instant(
            0,
            1.0,
            EventKind::Stage {
                index: 0,
                label: "send".into(),
            },
        );
        assert_eq!(plain.ascii_timeline(1), staged.ascii_timeline(1));
    }

    #[test]
    fn annotation_and_comm_classification() {
        assert!(EventKind::Mark {
            note: String::new()
        }
        .is_annotation());
        assert!(EventKind::Stage {
            index: 0,
            label: String::new()
        }
        .is_annotation());
        assert!(!EventKind::Barrier.is_annotation());
        assert!(EventKind::Send { to: 0, words: 1 }.is_comm());
        assert!(EventKind::Retry {
            to: 0,
            words: 1,
            attempt: 1
        }
        .is_comm());
        assert!(!EventKind::Retry {
            to: 0,
            words: 1,
            attempt: 1
        }
        .is_annotation());
        assert!(!EventKind::Barrier.is_comm());
        assert!(!EventKind::Compute {
            ops: 1.0,
            label: String::new()
        }
        .is_comm());
    }
}
