//! Communication schedules, read off traced runs of the lowerings.
//!
//! Every collective in this crate is an ordinary async Rust function whose
//! communication pattern is a pure function of `(p, m)` — the payloads
//! decide *values*, never *who talks to whom*. This module obtains the
//! exact per-rank sequence of [`SchedOp`]s (sends, receives, pairwise
//! exchanges, barriers) of a lowering by running its `*_async` function on
//! the discrete-event engine with a free clock and tracing on, and reading
//! the communication events off the trace ([`trace_schedule`]). The code
//! that is verified is the code that runs: there is no second copy of any
//! lowering's control flow to keep in line with it. Payloads carry only
//! their length — unit values for the fixed-size collectives, [`Units`]
//! for the segmenting ones — so a run costs O(messages) however large `m`
//! is.
//!
//! The extracted [`Schedule`] is the input to the static verifier in
//! `collopt-analysis`, which proves deadlock-freedom, message-match
//! completeness and round optimality. The [`shipped_variants`] registry
//! enumerates every lowering with its applicability predicate and
//! closed-form expected round count; the [`planted_variants`] registry
//! enumerates deliberately broken lowerings that serve as ground truth for
//! the verifier's reject path. Their schedules are hand-written: the
//! runnable twins in [`planted`] deadlock, so they cannot be traced.

use std::future::Future;
use std::pin::Pin;

use collopt_machine::topology::{binomial_bcast_rank_plan, ceil_log2, floor_log2};
use collopt_machine::{ClockParams, Ctx, EventKind, Machine, Trace};

use crate::alltoall::{alltoall_async, reduce_scatter_async};
use crate::balanced::{
    allreduce_balanced_async, reduce_balanced_async, scan_balanced_async, BalancedOp, PairedOp,
};
use crate::bcast::{bcast_binomial_async, bcast_linear_async};
use crate::comcast::{comcast_bcast_repeat_async, comcast_cost_optimal_async, RepeatOp};
use crate::gather::{
    allgather_async, barrier_async, gather_binomial_async, scatter_binomial_async,
};
use crate::op::{Combine, Splittable, Units};
use crate::pipelined::bcast_pipelined_async;
use crate::reduce::{
    allreduce_async, allreduce_butterfly_async, allreduce_commutative_async, reduce_binomial_async,
};
use crate::reduce_scatter::{
    allreduce_balanced_halving_async, allreduce_rabenseifner_async, allreduce_ring_async,
    reduce_scatter_halving_async, reduce_scatter_ring_async,
};
use crate::scan::{exscan_async, scan_butterfly_async};
use crate::variants::{allgather_ring_async, bcast_scatter_allgather_async, scan_sklansky_async};

/// One abstract communication action of a single rank, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedOp {
    /// Post a message of `words` words to rank `to` (non-blocking).
    Send {
        /// Destination rank.
        to: usize,
        /// Message size in words.
        words: u64,
    },
    /// Block until a message from rank `from` arrives.
    Recv {
        /// Source rank.
        from: usize,
    },
    /// Pairwise exchange with `peer`: on the machine this desugars to a
    /// send of `words` words followed by a receive on the same channel
    /// pair, completing in a single rendezvous round.
    Exchange {
        /// Partner rank.
        peer: usize,
        /// Outgoing message size in words.
        words: u64,
    },
    /// Full-machine clock barrier ([`Ctx::barrier`]): every rank must
    /// reach it.
    Barrier,
}

/// The complete communication schedule of one collective at one `(p, m)`:
/// `ranks[r]` is rank `r`'s action sequence in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of ranks.
    pub p: usize,
    /// Per-rank op sequences.
    pub ranks: Vec<Vec<SchedOp>>,
}

impl Schedule {
    /// An empty schedule over `p` ranks.
    pub fn new(p: usize) -> Self {
        Schedule {
            p,
            ranks: vec![Vec::new(); p],
        }
    }

    /// Each rank's sends, receives, exchanges and clock barriers, read
    /// off a run's trace in program order (an exchange keeps this rank's
    /// own outgoing size).
    pub fn from_trace(p: usize, trace: &Trace) -> Self {
        let mut s = Schedule::new(p);
        for ev in trace.events() {
            let op = match ev.kind {
                EventKind::Send { to, words } => SchedOp::Send { to, words },
                EventKind::Recv { from, .. } => SchedOp::Recv { from },
                EventKind::Exchange {
                    partner, out_words, ..
                } => SchedOp::Exchange {
                    peer: partner,
                    words: out_words,
                },
                EventKind::Barrier => SchedOp::Barrier,
                _ => continue,
            };
            s.ranks[ev.rank].push(op);
        }
        s
    }

    /// Total number of point-to-point messages (each exchange counts as
    /// one message per direction, matching the machine's channel model).
    pub fn message_count(&self) -> u64 {
        self.ranks
            .iter()
            .flatten()
            .map(|op| match op {
                SchedOp::Send { .. } | SchedOp::Exchange { .. } => 1,
                _ => 0,
            })
            .sum()
    }

    /// Total words put on the wire (exchanges count their outgoing side;
    /// the incoming side is the partner's own exchange).
    pub fn total_words(&self) -> u64 {
        self.ranks
            .iter()
            .flatten()
            .map(|op| match op {
                SchedOp::Send { words, .. } | SchedOp::Exchange { words, .. } => *words,
                _ => 0,
            })
            .sum()
    }
}

/// The collective family a schedule implements — the key into the round
/// lower-bound table of `collopt-cost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// One root's block to all ranks.
    Bcast,
    /// All ranks' blocks combined to one root.
    Reduce,
    /// All ranks' blocks combined, result everywhere.
    AllReduce,
    /// Inclusive prefix combination.
    Scan,
    /// Exclusive prefix combination.
    ExScan,
    /// All blocks concatenated at the root.
    Gather,
    /// The root's blocks distributed, one per rank.
    Scatter,
    /// All blocks concatenated everywhere.
    AllGather,
    /// Combined blocks, segment `i` at rank `i`.
    ReduceScatter,
    /// Personalized block from every rank to every rank.
    AllToAll,
    /// Pure synchronization.
    Barrier,
    /// The paper's compute-after-broadcast pattern.
    Comcast,
}

/// A lowering in the verification registry: how to obtain its schedule
/// and what round count its cost closed form promises.
#[derive(Clone, Copy)]
pub struct Variant {
    /// Stable lowercase name (matches the implementing function).
    pub name: &'static str,
    /// Collective family, for the lower-bound oracle.
    pub kind: CollectiveKind,
    /// Whether the lowering supports this `(p, m)` point (e.g. the
    /// butterfly needs a power of two).
    pub applicable: fn(p: usize, m: u64) -> bool,
    /// The schedule at `(p, m)`. For a shipped lowering this runs its
    /// `*_async` function through [`trace_schedule`]; for a planted one
    /// it is written out by hand.
    pub extract: fn(p: usize, m: u64) -> Schedule,
    /// Closed-form critical-path round count the cost model promises;
    /// the verifier errors if the measured count exceeds it.
    pub expected_rounds: fn(p: usize, m: u64) -> u64,
}

impl std::fmt::Debug for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Variant")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

/// A deliberately broken lowering used as ground truth for the
/// verifier's reject path: `expected_code` is the lint code the static
/// checker must raise, and the runnable twin in [`planted`] demonstrates
/// the same defect dynamically (DES deadlock).
#[derive(Debug, Clone, Copy)]
pub struct PlantedVariant {
    /// The broken lowering's extractor and metadata.
    pub variant: Variant,
    /// The lint code the verifier must emit (`"COL008"` / `"COL009"`).
    pub expected_code: &'static str,
}

/// Run an SPMD body on `p` ranks of the discrete-event engine, with a
/// free clock and tracing on, and read its schedule off the trace
/// ([`Schedule::from_trace`]).
///
/// # Panics
/// Panics if the body deadlocks or panics.
pub fn trace_schedule(
    p: usize,
    body: impl for<'a> Fn(&'a mut Ctx) -> Pin<Box<dyn Future<Output = ()> + 'a>>,
) -> Schedule {
    let run = Machine::new(p, ClockParams::free())
        .with_tracing()
        .run_des(body);
    Schedule::from_trace(p, &run.trace)
}

/// A registry extractor: run `$body`, one awaitable call of a lowering
/// with `$ctx` the rank's context and `$m` the block size, through
/// [`trace_schedule`].
macro_rules! traced {
    (|$ctx:ident, $m:ident| $body:expr) => {
        |p: usize, $m: u64| {
            trace_schedule(p, move |$ctx| {
                Box::pin(async move {
                    $body.await;
                })
            })
        }
    };
}

/// The root's payload: `Some(v)` on rank 0, `None` elsewhere.
fn root<T>(ctx: &Ctx, v: T) -> Option<T> {
    (ctx.rank() == 0).then_some(v)
}

/// An `m`-unit block that carries only its length.
fn block(m: u64) -> Units {
    Units(usize::try_from(m).expect("block length fits in usize"))
}

// Operators over the length-only payloads. They are declared commutative
// so the ring and fold-excess lowerings accept them, and carry the wire
// factors of the paper's fused operators (`op_sr` pairs, `op_ss`
// triples), which is all a schedule can observe of them. They charge no
// compute, so on the free clock every event of a traced run sits at time
// 0 and the trace needs no re-sorting.

const UNIT_OP: Combine<'static, ()> = Combine {
    f: &|_, _| (),
    ops_per_word: 0.0,
    commutative: true,
};

const UNITS_OP: Combine<'static, Units> = Combine {
    f: &|a, _| *a,
    ops_per_word: 0.0,
    commutative: true,
};

const UNIT_SR: BalancedOp<'static, ()> = BalancedOp {
    combine: &|_, _| (),
    solo: &|_| (),
    ops_combine: 0.0,
    ops_solo: 0.0,
    words_factor: 2,
};

const UNITS_SR: BalancedOp<'static, Units> = BalancedOp {
    combine: &|a, _| *a,
    solo: &|a| *a,
    ops_combine: 0.0,
    ops_solo: 0.0,
    words_factor: 2,
};

const UNIT_SS: PairedOp<'static, ()> = PairedOp {
    combine: &|_, _| ((), ()),
    solo: &|_| (),
    ops_lower: 0.0,
    ops_upper: 0.0,
    ops_solo: 0.0,
    words_factor: 3,
};

const UNIT_REPEAT: RepeatOp<'static, ()> = RepeatOp {
    e: &|_| (),
    o: &|_| (),
    ops_e: 0.0,
    ops_o: 0.0,
};

/// Segment count the registry pins for the pipelined broadcast: the
/// model-optimal `S*` at the default lint machine (`ts = 100`, `tw = 2`).
pub fn pipelined_segments(p: usize, m: u64) -> u64 {
    crate::pipelined::optimal_segments(p, m, 100.0, 2.0)
}

// ---------------------------------------------------------------------------
// Expected-round closed forms (critical-path communication rounds on the
// half-duplex store-and-forward machine; see DESIGN.md §14).
// ---------------------------------------------------------------------------

fn any_p(_p: usize, _m: u64) -> bool {
    true
}

fn pow2_only(p: usize, _m: u64) -> bool {
    p.is_power_of_two()
}

fn r_log(p: usize, _m: u64) -> u64 {
    ceil_log2(p) as u64
}

fn r_2log(p: usize, _m: u64) -> u64 {
    2 * ceil_log2(p) as u64
}

fn r_linear(p: usize, _m: u64) -> u64 {
    p.saturating_sub(1) as u64
}

fn r_ring(p: usize, _m: u64) -> u64 {
    // p − 1 steps; for p > 2 each step is a send and a store-and-forward
    // receive (two rounds), for p = 2 a single exchange.
    match p {
        0 | 1 => 0,
        2 => 1,
        _ => 2 * (p as u64 - 1),
    }
}

fn r_double_ring(p: usize, m: u64) -> u64 {
    2 * r_ring(p, m)
}

fn r_allreduce_generic(p: usize, m: u64) -> u64 {
    if p.is_power_of_two() {
        r_log(p, m)
    } else {
        r_2log(p, m)
    }
}

fn r_allreduce_commutative(p: usize, m: u64) -> u64 {
    if p.is_power_of_two() {
        r_log(p, m)
    } else {
        floor_log2(p) as u64 + 2
    }
}

fn r_rabenseifner(p: usize, m: u64) -> u64 {
    if p.is_power_of_two() {
        r_2log(p, m)
    } else {
        r_double_ring(p, m)
    }
}

fn r_exscan(p: usize, m: u64) -> u64 {
    match p {
        0 | 1 => 0,
        2 => 2,
        _ => r_log(p, m) + 2,
    }
}

fn r_barrier_dissemination(p: usize, m: u64) -> u64 {
    // Each send+recv round costs two store-and-forward rounds; the final
    // round of a power of two collapses to a single exchange.
    match p {
        0 | 1 => 0,
        _ if p.is_power_of_two() => 2 * r_log(p, m) - 1,
        _ => 2 * r_log(p, m),
    }
}

fn r_alltoall(p: usize, _m: u64) -> u64 {
    // p − 1 shift rounds; the self-paired middle round of an even p is a
    // single exchange instead of a send + receive.
    match p {
        0 | 1 => 0,
        _ if p.is_multiple_of(2) => 2 * p as u64 - 3,
        _ => 2 * (p as u64 - 1),
    }
}

fn r_vdg(p: usize, m: u64) -> u64 {
    // Scatter start-ups, then the ring's 2(p − 1) forwarding rounds.
    match p {
        0 | 1 => 0,
        2 => 2,
        _ => r_log(p, m) + 2 * (p as u64 - 1),
    }
}

fn r_pipelined(p: usize, m: u64) -> u64 {
    let s = pipelined_segments(p, m);
    match p {
        0 | 1 => 0,
        2 => s,
        _ => (p as u64 - 1) + 2 * (s - 1),
    }
}

/// Every shipped lowering with its traced extractor, applicability
/// predicate and promised round count.
pub fn shipped_variants() -> Vec<Variant> {
    use CollectiveKind as K;
    vec![
        Variant {
            name: "bcast_binomial",
            kind: K::Bcast,
            applicable: any_p,
            extract: traced!(|ctx, m| bcast_binomial_async(ctx, 0, root(ctx, ()), m)),
            expected_rounds: r_log,
        },
        Variant {
            name: "bcast_linear",
            kind: K::Bcast,
            applicable: any_p,
            extract: traced!(|ctx, m| bcast_linear_async(ctx, 0, root(ctx, ()), m)),
            expected_rounds: r_linear,
        },
        Variant {
            name: "bcast_pipelined",
            kind: K::Bcast,
            applicable: any_p,
            extract: traced!(|ctx, m| bcast_pipelined_async(
                ctx,
                0,
                root(ctx, block(m)),
                1,
                pipelined_segments(ctx.size(), m)
            )),
            expected_rounds: r_pipelined,
        },
        Variant {
            name: "bcast_scatter_allgather",
            kind: K::Bcast,
            applicable: any_p,
            extract: traced!(|ctx, m| bcast_scatter_allgather_async(ctx, root(ctx, block(m)), 1)),
            expected_rounds: r_vdg,
        },
        Variant {
            name: "gather_binomial",
            kind: K::Gather,
            applicable: any_p,
            extract: traced!(|ctx, m| gather_binomial_async(ctx, (), m)),
            expected_rounds: r_log,
        },
        Variant {
            name: "scatter_binomial",
            kind: K::Scatter,
            applicable: any_p,
            extract: traced!(|ctx, m| scatter_binomial_async(
                ctx,
                root(ctx, vec![(); ctx.size()]),
                m
            )),
            expected_rounds: r_log,
        },
        Variant {
            name: "allgather_binomial",
            kind: K::AllGather,
            applicable: any_p,
            extract: traced!(|ctx, m| allgather_async(ctx, (), m)),
            expected_rounds: r_2log,
        },
        Variant {
            name: "allgather_ring",
            kind: K::AllGather,
            applicable: any_p,
            extract: traced!(|ctx, m| allgather_ring_async(ctx, (), m)),
            expected_rounds: r_ring,
        },
        Variant {
            name: "barrier_dissemination",
            kind: K::Barrier,
            applicable: any_p,
            extract: traced!(|ctx, _m| barrier_async(ctx)),
            expected_rounds: r_barrier_dissemination,
        },
        Variant {
            name: "reduce_binomial",
            kind: K::Reduce,
            applicable: any_p,
            extract: traced!(|ctx, m| reduce_binomial_async(ctx, 0, (), m, &UNIT_OP)),
            expected_rounds: r_log,
        },
        Variant {
            name: "reduce_balanced",
            kind: K::Reduce,
            applicable: any_p,
            extract: traced!(|ctx, m| reduce_balanced_async(ctx, (), m, &UNIT_SR)),
            expected_rounds: r_log,
        },
        Variant {
            name: "allreduce_butterfly",
            kind: K::AllReduce,
            applicable: pow2_only,
            extract: traced!(|ctx, m| allreduce_butterfly_async(ctx, (), m, &UNIT_OP)),
            expected_rounds: r_log,
        },
        Variant {
            name: "allreduce",
            kind: K::AllReduce,
            applicable: any_p,
            extract: traced!(|ctx, m| allreduce_async(ctx, (), m, &UNIT_OP)),
            expected_rounds: r_allreduce_generic,
        },
        Variant {
            name: "allreduce_commutative",
            kind: K::AllReduce,
            applicable: any_p,
            extract: traced!(|ctx, m| allreduce_commutative_async(ctx, (), m, &UNIT_OP)),
            expected_rounds: r_allreduce_commutative,
        },
        Variant {
            name: "allreduce_rabenseifner",
            kind: K::AllReduce,
            applicable: any_p,
            extract: traced!(|ctx, m| allreduce_rabenseifner_async(ctx, block(m), 1, &UNITS_OP)),
            expected_rounds: r_rabenseifner,
        },
        Variant {
            name: "allreduce_ring",
            kind: K::AllReduce,
            applicable: any_p,
            extract: traced!(|ctx, m| allreduce_ring_async(ctx, block(m), 1, &UNITS_OP)),
            expected_rounds: r_double_ring,
        },
        Variant {
            name: "allreduce_balanced",
            kind: K::AllReduce,
            applicable: any_p,
            extract: traced!(|ctx, m| allreduce_balanced_async(ctx, (), m, &UNIT_SR)),
            expected_rounds: r_allreduce_generic,
        },
        Variant {
            name: "allreduce_balanced_halving",
            kind: K::AllReduce,
            applicable: pow2_only,
            extract: traced!(|ctx, m| allreduce_balanced_halving_async(
                ctx,
                block(m),
                1,
                &UNITS_SR
            )),
            expected_rounds: r_2log,
        },
        Variant {
            name: "reduce_scatter_halving",
            kind: K::ReduceScatter,
            applicable: pow2_only,
            extract: traced!(|ctx, m| reduce_scatter_halving_async(ctx, block(m), 1, &UNITS_OP)),
            expected_rounds: r_log,
        },
        Variant {
            name: "reduce_scatter_ring",
            kind: K::ReduceScatter,
            applicable: any_p,
            extract: traced!(|ctx, m| reduce_scatter_ring_async(ctx, block(m), 1, &UNITS_OP)),
            expected_rounds: r_ring,
        },
        Variant {
            name: "reduce_scatter_binomial",
            kind: K::ReduceScatter,
            applicable: any_p,
            extract: traced!(|ctx, m| reduce_scatter_async(ctx, vec![(); ctx.size()], m, &UNIT_OP)),
            expected_rounds: r_2log,
        },
        Variant {
            name: "scan_butterfly",
            kind: K::Scan,
            applicable: any_p,
            extract: traced!(|ctx, m| scan_butterfly_async(ctx, (), m, &UNIT_OP)),
            expected_rounds: r_log,
        },
        Variant {
            name: "scan_balanced",
            kind: K::Scan,
            applicable: any_p,
            extract: traced!(|ctx, m| scan_balanced_async(ctx, (), m, &UNIT_SS)),
            expected_rounds: r_log,
        },
        Variant {
            name: "scan_sklansky",
            kind: K::Scan,
            applicable: any_p,
            extract: traced!(|ctx, m| scan_sklansky_async(ctx, (), m, &UNIT_OP)),
            expected_rounds: r_linear,
        },
        Variant {
            name: "exscan",
            kind: K::ExScan,
            applicable: any_p,
            extract: traced!(|ctx, m| exscan_async(ctx, (), m, &UNIT_OP)),
            expected_rounds: r_exscan,
        },
        Variant {
            name: "comcast_bcast_repeat",
            kind: K::Comcast,
            applicable: any_p,
            extract: traced!(|ctx, m| comcast_bcast_repeat_async(
                ctx,
                0,
                root(ctx, ()),
                m,
                &|_| (),
                &|_| (),
                &UNIT_REPEAT
            )),
            expected_rounds: r_log,
        },
        Variant {
            name: "comcast_cost_optimal",
            kind: K::Comcast,
            applicable: any_p,
            extract: traced!(|ctx, m| comcast_cost_optimal_async(
                ctx,
                0,
                root(ctx, ()),
                m,
                &|_| (),
                &|_| (),
                &UNIT_REPEAT,
                2
            )),
            expected_rounds: r_log,
        },
        Variant {
            name: "alltoall",
            kind: K::AllToAll,
            applicable: any_p,
            extract: traced!(|ctx, m| alltoall_async(ctx, vec![(); ctx.size()], m)),
            expected_rounds: r_alltoall,
        },
    ]
}

// ---------------------------------------------------------------------------
// Planted-bug lowerings: hand-written schedules + runnable twins.
// ---------------------------------------------------------------------------

/// Planted bug 1: the ring reduce-scatter with send and receive swapped
/// — every rank posts its receive first, so the ring never moves.
fn x_planted_swapped_ring(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    let lens = block(m).split_into(p);
    for rank in 0..p {
        let next = (rank + 1) % p;
        let prev = (rank + p - 1) % p;
        for step in 0..p - 1 {
            let send_idx = (rank + p - 1 - step) % p;
            s.ranks[rank].push(SchedOp::Recv { from: prev });
            s.ranks[rank].push(SchedOp::Send {
                to: next,
                words: lens[send_idx].unit_len() as u64,
            });
        }
    }
    s
}

/// Planted bug 2: every rank except 0 enters the clock barrier.
fn x_planted_dropped_barrier(p: usize, _m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    for rank in 1..p {
        s.ranks[rank].push(SchedOp::Barrier);
    }
    s
}

/// Planted bug 3: a binomial broadcast whose sends all land one rank too
/// high (where a higher rank exists).
fn x_planted_off_by_one_bcast(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    for rank in 0..p {
        let plan = binomial_bcast_rank_plan(p, 0, rank);
        if let Some((_, src)) = plan.recv {
            s.ranks[rank].push(SchedOp::Recv { from: src });
        }
        for (_, dst) in plan.sends {
            let dst = if dst + 1 < p { dst + 1 } else { dst };
            s.ranks[rank].push(SchedOp::Send { to: dst, words: m });
        }
    }
    s
}

/// The planted-bug registry: each entry is statically rejectable with
/// `expected_code` and dynamically deadlocks (see [`planted`]).
pub fn planted_variants() -> Vec<PlantedVariant> {
    vec![
        PlantedVariant {
            variant: Variant {
                name: "planted_swapped_ring_reduce_scatter",
                kind: CollectiveKind::ReduceScatter,
                applicable: |p, _| p >= 3,
                extract: x_planted_swapped_ring,
                expected_rounds: r_ring,
            },
            expected_code: "COL008",
        },
        PlantedVariant {
            variant: Variant {
                name: "planted_dropped_barrier",
                kind: CollectiveKind::Barrier,
                applicable: |p, _| p >= 2,
                extract: x_planted_dropped_barrier,
                expected_rounds: |_, _| 0,
            },
            expected_code: "COL008",
        },
        PlantedVariant {
            variant: Variant {
                name: "planted_off_by_one_bcast",
                kind: CollectiveKind::Bcast,
                applicable: |p, _| p >= 3,
                extract: x_planted_off_by_one_bcast,
                expected_rounds: r_log,
            },
            expected_code: "COL009",
        },
    ]
}

/// Runnable twins of the planted-bug schedules — real lowerings with the
/// same defects, used to demonstrate that what the static verifier
/// rejects also fails dynamically (the DES engine detects the deadlock
/// and panics; the thread engines would hang).
pub mod planted {
    use super::*;
    use crate::op::Splittable;

    /// The ring reduce-scatter of
    /// [`crate::reduce_scatter::reduce_scatter_ring`] with the receive
    /// posted *before* the send: for `p ≥ 3` every rank blocks on its
    /// predecessor before anything is on the wire — a classic wait-for
    /// cycle.
    pub async fn swapped_ring_reduce_scatter_async(ctx: &mut Ctx, block: Vec<i64>) -> Vec<i64> {
        let p = ctx.size();
        assert!(p >= 3, "the planted ring needs at least three ranks");
        let rank = ctx.rank();
        let next = (rank + 1) % p;
        let prev = (rank + p - 1) % p;
        let mut segs: Vec<Vec<i64>> = block.split_into(p);
        for step in 0..p - 1 {
            let send_idx = (rank + p - 1 - step) % p;
            let recv_idx = (rank + p - 2 - step) % p;
            let words = segs[send_idx].len() as u64;
            // BUG (planted): receive before send — the ring never moves.
            let got: Vec<i64> = ctx.recv_async(prev).await;
            ctx.send(next, segs[send_idx].clone(), words);
            segs[recv_idx] = got
                .iter()
                .zip(&segs[recv_idx])
                .map(|(a, b)| a + b)
                .collect();
        }
        segs[rank].clone()
    }

    /// A computation phase that skips the clock barrier on rank 0 only:
    /// every other rank waits forever at a barrier rank 0 never reaches.
    pub async fn dropped_barrier_async(ctx: &mut Ctx) -> usize {
        if ctx.rank() != 0 {
            // BUG (planted): rank 0 took an early-out path around this.
            ctx.barrier_async().await;
        }
        ctx.rank()
    }

    /// The binomial broadcast of [`crate::bcast::bcast_binomial`] with
    /// every send landing one rank too high: the skipped ranks block on
    /// a message that goes elsewhere.
    pub async fn off_by_one_bcast_async(
        ctx: &mut Ctx,
        value: Option<Vec<i64>>,
        words: u64,
    ) -> Vec<i64> {
        let p = ctx.size();
        assert!(p >= 3, "the planted broadcast needs at least three ranks");
        let plan = binomial_bcast_rank_plan(p, 0, ctx.rank());
        let v: Vec<i64> = match (plan.recv, value) {
            (None, Some(v)) => v,
            (Some((_, src)), None) => ctx.recv_async(src).await,
            _ => panic!("exactly the root supplies the broadcast value"),
        };
        for (_, dst) in plan.sends {
            // BUG (planted): off-by-one destination.
            let dst = if dst + 1 < p { dst + 1 } else { dst };
            ctx.send(dst, v.clone(), words);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extraction is a pure function of `(p, m)`.
    #[test]
    fn extraction_is_deterministic() {
        for v in shipped_variants() {
            for (p, m) in [(5usize, 17u64), (8, 32), (13, 7)] {
                if (v.applicable)(p, m) {
                    assert_eq!((v.extract)(p, m), (v.extract)(p, m), "{}", v.name);
                }
            }
        }
    }

    /// Each side of an asymmetric exchange keeps its own outgoing size,
    /// not the larger direction the clock charges.
    #[test]
    fn exchanges_record_their_own_outgoing_words() {
        let s = trace_schedule(2, |ctx| {
            Box::pin(async move {
                let words = 3 + 4 * ctx.rank() as u64;
                ctx.exchange_async(1 - ctx.rank(), (), words).await;
            })
        });
        assert_eq!(s.ranks[0], vec![SchedOp::Exchange { peer: 1, words: 3 }]);
        assert_eq!(s.ranks[1], vec![SchedOp::Exchange { peer: 0, words: 7 }]);
        assert_eq!(s.total_words(), 10);
    }

    // The registry runs every lowering on length-only payloads and
    // operators that compute nothing. The tests below pin that
    // substitution: the registry's schedule must equal the trace of the
    // same lowering run on real data with real operators, on the thread
    // engine.

    fn assert_payload_free<T: Send>(
        name: &str,
        p: usize,
        m: u64,
        run: impl Fn(&mut Ctx) -> T + Sync,
    ) {
        let v = shipped_variants()
            .into_iter()
            .find(|v| v.name == name)
            .expect("registered lowering");
        let traced = Machine::new(p, ClockParams::free()).with_tracing().run(run);
        assert_eq!(
            (v.extract)(p, m),
            Schedule::from_trace(p, &traced.trace),
            "{name} at p={p} m={m}: length-only schedule (left) differs from a run on data"
        );
    }

    fn add(a: &i64, b: &i64) -> i64 {
        a + b
    }

    #[allow(clippy::ptr_arg)]
    fn add_blocks(a: &Vec<i64>, b: &Vec<i64>) -> Vec<i64> {
        a.iter().zip(b).map(|(x, y)| x + y).collect()
    }

    fn data(m: u64) -> Vec<i64> {
        (0..m as i64).collect()
    }

    #[test]
    fn bcast_binomial_schedule_matches_trace() {
        for p in [2usize, 3, 6, 8] {
            assert_payload_free("bcast_binomial", p, 5, |ctx| {
                crate::bcast::bcast_binomial(ctx, 0, root(ctx, data(5)), 5)
            });
        }
    }

    #[test]
    fn gather_and_scatter_schedules_match_trace() {
        for p in [2usize, 5, 8, 11] {
            assert_payload_free("gather_binomial", p, 3, |ctx| {
                crate::gather::gather_binomial(ctx, ctx.rank(), 3)
            });
            assert_payload_free("scatter_binomial", p, 3, |ctx| {
                let blocks = root(ctx, (0..ctx.size()).collect::<Vec<_>>());
                crate::gather::scatter_binomial(ctx, blocks, 3)
            });
        }
    }

    #[test]
    fn reduce_and_allreduce_schedules_match_trace() {
        for p in [2usize, 4, 6, 8, 13] {
            let op = Combine::new(&add);
            assert_payload_free("reduce_binomial", p, 2, |ctx| {
                crate::reduce::reduce_binomial(ctx, 0, ctx.rank() as i64, 2, &op)
            });
            assert_payload_free("allreduce", p, 2, |ctx| {
                crate::reduce::allreduce(ctx, ctx.rank() as i64, 2, &op)
            });
            assert_payload_free("allreduce_commutative", p, 2, |ctx| {
                crate::reduce::allreduce_commutative(ctx, ctx.rank() as i64, 2, &op)
            });
        }
    }

    #[test]
    fn segmenting_allreduce_schedules_match_trace() {
        // Divisible and non-divisible block lengths, including m < p.
        let op = Combine::new(&add_blocks).assume_commutative();
        for (p, m) in [(4usize, 8u64), (8, 21), (4, 3), (6, 14), (5, 2)] {
            if p.is_power_of_two() {
                assert_payload_free("reduce_scatter_halving", p, m, |ctx| {
                    crate::reduce_scatter::reduce_scatter_halving(ctx, data(m), 1, &op)
                });
            }
            assert_payload_free("allreduce_rabenseifner", p, m, |ctx| {
                crate::reduce_scatter::allreduce_rabenseifner(ctx, data(m), 1, &op)
            });
            assert_payload_free("reduce_scatter_ring", p, m, |ctx| {
                crate::reduce_scatter::reduce_scatter_ring(ctx, data(m), 1, &op)
            });
        }
    }

    #[test]
    fn scan_family_schedules_match_trace() {
        let op = Combine::new(&add);
        for p in [2usize, 4, 6, 8, 11] {
            assert_payload_free("scan_butterfly", p, 1, |ctx| {
                crate::scan::scan_butterfly(ctx, ctx.rank() as i64, 1, &op)
            });
            assert_payload_free("exscan", p, 1, |ctx| {
                crate::scan::exscan(ctx, ctx.rank() as i64, 1, &op)
            });
            assert_payload_free("scan_sklansky", p, 1, |ctx| {
                crate::variants::scan_sklansky(ctx, ctx.rank() as i64, 1, &op)
            });
        }
    }

    #[test]
    fn ring_and_vdg_schedules_match_trace() {
        for (p, m) in [(2usize, 4u64), (3, 7), (6, 25), (8, 8)] {
            assert_payload_free("allgather_ring", p, m, |ctx| {
                crate::variants::allgather_ring(ctx, ctx.rank(), m)
            });
            assert_payload_free("bcast_scatter_allgather", p, m, |ctx| {
                crate::variants::bcast_scatter_allgather(ctx, root(ctx, data(m)), 1)
            });
        }
    }

    #[test]
    fn balanced_and_comcast_schedules_match_trace() {
        let sr = BalancedOp {
            combine: &|a: &(i64, i64), b: &(i64, i64)| (a.0 + b.0 + a.1, 2 * (a.1 + b.1)),
            solo: &|x: &(i64, i64)| (x.0, 2 * x.1),
            ops_combine: 4.0,
            ops_solo: 1.0,
            words_factor: 2,
        };
        let repeat = RepeatOp {
            e: &|s: &(i64, i64)| (s.0, 2 * s.1),
            o: &|s: &(i64, i64)| (s.0 + s.1, 2 * s.1),
            ops_e: 1.0,
            ops_o: 2.0,
        };
        for p in [2usize, 4, 6, 9] {
            assert_payload_free("reduce_balanced", p, 1, |ctx| {
                let x = ctx.rank() as i64;
                crate::balanced::reduce_balanced(ctx, (x, x), 1, &sr)
            });
            assert_payload_free("comcast_cost_optimal", p, 1, |ctx| {
                let (inject, project) = (|b: &i64| (*b, *b), |s: &(i64, i64)| s.0);
                let seed = root(ctx, 2i64);
                crate::comcast::comcast_cost_optimal(ctx, 0, seed, 1, &inject, &project, &repeat, 2)
            });
        }
    }

    #[test]
    fn alltoall_and_barrier_schedules_match_trace() {
        for p in [2usize, 4, 5, 8] {
            assert_payload_free("alltoall", p, 2, |ctx| {
                let blocks: Vec<usize> = (0..ctx.size()).collect();
                crate::alltoall::alltoall(ctx, blocks, 2)
            });
            assert_payload_free("barrier_dissemination", p, 2, crate::gather::barrier);
        }
    }

    #[test]
    fn pipelined_schedule_matches_trace() {
        // p = 8, m = 4097 streams 14 ragged segments.
        for (p, m) in [(2usize, 10u64), (6, 37), (8, 4097)] {
            assert_payload_free("bcast_pipelined", p, m, |ctx| {
                let segments = pipelined_segments(ctx.size(), m);
                crate::pipelined::bcast_pipelined(ctx, 0, root(ctx, data(m)), 1, segments)
            });
        }
    }

    #[test]
    fn planted_registry_entries_are_extractable() {
        for pv in planted_variants() {
            assert!((pv.variant.applicable)(4, 8), "{}", pv.variant.name);
            let s = (pv.variant.extract)(4, 8);
            assert_eq!(s.p, 4);
            assert!(
                pv.expected_code == "COL008" || pv.expected_code == "COL009",
                "{}",
                pv.variant.name
            );
        }
    }
}
