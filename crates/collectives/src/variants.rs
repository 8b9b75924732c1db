//! Alternative collective algorithms and model-driven selection.
//!
//! The paper's reference \[17\] (van de Geijn, *On global combine
//! operations*) is the classic source for large-message collective
//! algorithms; this module implements the main ones next to the binomial
//! and butterfly defaults, plus a selector that picks per call using the
//! same `ts`/`tw` calculus the optimization rules use — performance-
//! directed programming applied one level below the algebraic rules:
//!
//! * [`allgather_ring`] — bandwidth-optimal ring allgather:
//!   `(p−1)·(ts + m·tw)` total, each link carrying each block once;
//! * [`bcast_scatter_allgather`] — van de Geijn's large-message
//!   broadcast: scatter the block (`≈ log p·ts + m·tw` with halving
//!   segments), then ring-allgather the pieces. On this machine's
//!   half-duplex store-and-forward nodes one ring step costs
//!   `2(ts + (m/p)·tw)` (send and receive serialize on a rank's clock),
//!   so the allgather phase is `≈ 2(p−1)(ts + (m/p)·tw)` — still
//!   `≈ 3m·tw` total volume versus the binomial tree's `log p · m·tw`,
//!   a win once `log p > 3`, at the price of `p`-proportional start-ups;
//! * [`scan_sklansky`] — minimum-depth fan-based inclusive scan
//!   (`⌈log₂ p⌉` rounds; half the ranks idle per round but the combining
//!   work per rank is one application per round, vs two for the
//!   butterfly);
//! * [`bcast_auto`] — evaluates the analytic cost of binomial, chain
//!   pipeline and scatter+allgather for the actual `(p, m, ts, tw)` and
//!   runs the predicted winner;
//! * [`allreduce_auto`] / [`reduce_auto`] — the same idea for the
//!   reduction family of [`reduce_scatter`](mod@crate::reduce_scatter):
//!   [`choose_allreduce`] compares the butterfly
//!   (`log p (ts + m(tw + c))`), Rabenseifner's halving+doubling pair
//!   (`2 log p·ts + m(1−1/p)(2tw + c)`, power-of-two `p`), the ring
//!   (commutative operators, any `p`) and the reduce+bcast fallback; the
//!   butterfly wins small blocks and large `ts`, Rabenseifner wins once
//!   `m > log p·ts / (log p(tw+c) − (1−1/p)(2tw+c))` — e.g. `m ≳ 110`
//!   words on the Parsytec-like machine at `p = 16`. All formulas live
//!   in [`allreduce_model_cost`] / [`reduce_model_cost`] so callers can
//!   report predicted-vs-measured makespans.

use collopt_machine::topology::{butterfly_rounds, ceil_log2};
use collopt_machine::{drive, ClockParams, Ctx};

use crate::bcast::bcast_binomial_async;
use crate::gather::{gather_binomial_async, scatter_binomial_async};
use crate::op::{Combine, Splittable};
use crate::pipelined::{bcast_pipelined_async, chain_cost, optimal_segments};
use crate::reduce::{allreduce_async, allreduce_butterfly_async, reduce_binomial_async};
use crate::reduce_scatter::{
    allreduce_rabenseifner_async, allreduce_ring_async, reduce_scatter_halving_async,
};

/// Ring allgather: rank `r` starts with its own block; in step `k` it
/// sends the block it received in step `k−1` to `r+1` and receives a new
/// one from `r−1`. After `p−1` steps everyone holds all blocks, in rank
/// order. `words` is the size of one block.
pub fn allgather_ring<T: Clone + Send + 'static>(ctx: &mut Ctx, value: T, words: u64) -> Vec<T> {
    drive(allgather_ring_async(ctx, value, words))
}

/// Engine-agnostic form of [`allgather_ring`].
pub async fn allgather_ring_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: T,
    words: u64,
) -> Vec<T> {
    let p = ctx.size();
    let rank = ctx.rank();
    let mut out: Vec<Option<T>> = vec![None; p];
    out[rank] = Some(value.clone());
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    let mut carry = value;
    for step in 0..p.saturating_sub(1) {
        let incoming: T = if next == prev && p == 2 {
            // Two ranks: a single pairwise exchange.
            ctx.exchange_async(next, carry.clone(), words).await
        } else {
            ctx.send(next, carry, words);
            ctx.recv_async(prev).await
        };
        // The block received in step k originated at rank r - k - 1.
        let origin = (rank + p - step - 1) % p;
        out[origin] = Some(incoming.clone());
        carry = incoming;
    }
    out.into_iter()
        .map(|o| o.expect("ring delivers every block"))
        .collect()
}

/// Van de Geijn broadcast: scatter the root's block into `p` pieces, then
/// ring-allgather the pieces. `words_per_unit` sizes the cost charges.
/// Efficient for large blocks; for tiny ones the extra start-ups lose to
/// the binomial tree (see [`bcast_auto`]).
pub fn bcast_scatter_allgather<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: Option<S>,
    words_per_unit: u64,
) -> S {
    drive(bcast_scatter_allgather_async(ctx, value, words_per_unit))
}

/// Engine-agnostic form of [`bcast_scatter_allgather`].
pub async fn bcast_scatter_allgather_async<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: Option<S>,
    words_per_unit: u64,
) -> S {
    let p = ctx.size();
    if p == 1 {
        return value.expect("root must supply the block");
    }
    // Split the root's block into p nearly-equal pieces.
    let pieces: Option<Vec<S>> = value.map(|data| data.split_into(p));
    let mine = scatter_binomial_async(ctx, pieces, words_per_unit).await;
    let w = (mine.unit_len() as u64 * words_per_unit).max(1);
    S::concat(allgather_ring_async(ctx, mine, w).await)
}

/// Sklansky-style inclusive scan: in round `j`, the ranks whose bit `j`
/// is set receive the prefix of their `2^j`-aligned left neighbour block
/// and fold it in. `⌈log₂ p⌉` rounds, one combine per receiving rank per
/// round (the butterfly pays two).
pub fn scan_sklansky<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: T,
    words: u64,
    op: &Combine<'_, T>,
) -> T {
    drive(scan_sklansky_async(ctx, value, words, op))
}

/// Engine-agnostic form of [`scan_sklansky`].
pub async fn scan_sklansky_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: T,
    words: u64,
    op: &Combine<'_, T>,
) -> T {
    let p = ctx.size();
    let rank = ctx.rank();
    let mut acc = value;
    for round in 0..butterfly_rounds(p) {
        let bit = 1usize << round;
        if rank & bit != 0 {
            // Receive the full prefix of the left half-block from its
            // last member.
            let src = (rank & !(bit * 2 - 1)) | (bit - 1);
            let got: T = ctx.recv_async(src).await;
            acc = op.apply(&got, &acc);
            ctx.charge(words as f64 * op.ops_per_word, "sklansky:combine");
        } else if (rank | (bit - 1)) == rank {
            // rank ends a complete left half-block: send its prefix to
            // every member of the right half-block that exists.
            for dst in (rank + 1)..=(rank + bit).min(p - 1) {
                ctx.send(dst, acc.clone(), words);
            }
        }
    }
    acc
}

/// Which broadcast algorithm [`bcast_auto`] predicts to win.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastChoice {
    /// Binomial tree: `log p (ts + m tw)`.
    Binomial,
    /// Chain pipeline with the optimal segment count.
    ChainPipeline,
    /// Van de Geijn scatter + ring allgather.
    ScatterAllgather,
}

/// Predict the cheapest broadcast algorithm for `(p, m)` under `params`.
pub fn choose_bcast(p: usize, words: u64, params: &ClockParams) -> BcastChoice {
    if p <= 2 {
        return BcastChoice::Binomial;
    }
    let (ts, tw) = (params.ts, params.tw);
    let m = words as f64;
    let logp = ceil_log2(p) as f64;
    let binomial = logp * (ts + m * tw);
    let segments = optimal_segments(p, words, ts, tw);
    let chain = chain_cost(p, words, segments, ts, tw);
    // Scatter + ring allgather. The two phases overlap: ranks that
    // receive their piece early enter the ring early, so the composed
    // critical path is the ring's 2(p−1) store-and-forward steps of
    // m/p-word messages plus the scatter's log p start-ups (validated
    // against the machine to <0.1% in the variants tests).
    let ring = 2.0 * (p as f64 - 1.0) * (ts + (m / p as f64) * tw);
    let vdg = logp * ts + ring;
    let best = binomial.min(chain).min(vdg);
    if best == binomial {
        BcastChoice::Binomial
    } else if best == chain {
        BcastChoice::ChainPipeline
    } else {
        BcastChoice::ScatterAllgather
    }
}

/// Cost-model-driven broadcast: run whichever algorithm [`choose_bcast`]
/// predicts to be fastest for this machine and block size.
pub fn bcast_auto<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: Option<Vec<T>>,
    words_per_elem: u64,
) -> Vec<T> {
    drive(bcast_auto_async(ctx, value, words_per_elem))
}

/// Engine-agnostic form of [`bcast_auto`].
pub async fn bcast_auto_async<T: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: Option<Vec<T>>,
    words_per_elem: u64,
) -> Vec<T> {
    let p = ctx.size();
    // All ranks must agree on the choice without communicating: derive it
    // from the machine parameters and the (SPMD-uniform) block size. The
    // root's length is what matters; non-roots must be told. To keep the
    // collective self-contained we use a tiny pre-broadcast of the length
    // (1 word), which is negligible against any real block.
    let len = bcast_binomial_async(ctx, 0, value.as_ref().map(|v| v.len() as u64), 1).await;
    let params = ctx.params();
    match choose_bcast(p, len.max(1) * words_per_elem, &params) {
        BcastChoice::Binomial => {
            bcast_binomial_async(ctx, 0, value, len.max(1) * words_per_elem).await
        }
        BcastChoice::ChainPipeline => {
            let segments = optimal_segments(p, len * words_per_elem, params.ts, params.tw);
            bcast_pipelined_async(ctx, 0, value, words_per_elem, segments).await
        }
        BcastChoice::ScatterAllgather => {
            bcast_scatter_allgather_async(ctx, value, words_per_elem).await
        }
    }
}

/// Which allreduce algorithm [`allreduce_auto`] predicts to win.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceChoice {
    /// Butterfly: `log p (ts + m(tw + c))`. Latency-optimal; best for
    /// small blocks.
    Butterfly,
    /// Rabenseifner (recursive-halving reduce-scatter + recursive-
    /// doubling allgather): `2 log p·ts + m(1−1/p)(2tw + c)`.
    /// Bandwidth-optimal for power-of-two `p`; best for large blocks.
    Rabenseifner,
    /// Ring reduce-scatter + ring allgather; needs a commutative
    /// operator, works for any `p`.
    Ring,
    /// Binomial reduce to rank 0 + binomial broadcast — the order-safe
    /// fallback for non-power-of-two `p`.
    ReduceBcast,
}

impl AllreduceChoice {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AllreduceChoice::Butterfly => "butterfly",
            AllreduceChoice::Rabenseifner => "rabenseifner",
            AllreduceChoice::Ring => "ring",
            AllreduceChoice::ReduceBcast => "reduce_bcast",
        }
    }
}

/// Analytic makespan of one allreduce algorithm at `(p, m, ts, tw, c)` —
/// the exact formulas the makespan tests in
/// [`reduce_scatter`](mod@crate::reduce_scatter) verify against the machine.
/// Infeasible combinations (butterfly or Rabenseifner's halving pair on a
/// non-power-of-two `p`) cost infinity. Exact when `p` divides `m`
/// (and, for [`Ring`](AllreduceChoice::Ring), `p > 2`; the selector
/// never offers the ring below three ranks).
pub fn allreduce_model_cost(
    choice: AllreduceChoice,
    p: usize,
    words: u64,
    ops_per_word: f64,
    params: &ClockParams,
) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let (ts, tw) = (params.ts, params.tw);
    let m = words as f64;
    let c = ops_per_word;
    let logp = ceil_log2(p) as f64;
    let frac = 1.0 - 1.0 / p as f64;
    let seg = m / p as f64;
    match choice {
        AllreduceChoice::Butterfly if p.is_power_of_two() => logp * (ts + m * (tw + c)),
        AllreduceChoice::Rabenseifner if p.is_power_of_two() => {
            2.0 * logp * ts + m * frac * (2.0 * tw + c)
        }
        AllreduceChoice::Butterfly | AllreduceChoice::Rabenseifner => f64::INFINITY,
        AllreduceChoice::Ring => {
            // Half-duplex store-and-forward ring: each of the p−1 steps
            // of either phase costs a send AND a receive on every rank.
            let step = 2.0 * (ts + seg * tw);
            (p as f64 - 1.0) * (step + seg * c) + (p as f64 - 1.0) * step
        }
        AllreduceChoice::ReduceBcast => logp * (ts + m * (tw + c)) + logp * (ts + m * tw),
    }
}

/// Predict the cheapest allreduce algorithm for `(p, m)` under `params`.
/// `commutative` gates the ring (it folds operands in cyclic order).
pub fn choose_allreduce(
    p: usize,
    words: u64,
    ops_per_word: f64,
    commutative: bool,
    params: &ClockParams,
) -> AllreduceChoice {
    let mut candidates: Vec<AllreduceChoice> = Vec::new();
    if p.is_power_of_two() {
        candidates.push(AllreduceChoice::Butterfly);
        candidates.push(AllreduceChoice::Rabenseifner);
    } else {
        candidates.push(AllreduceChoice::ReduceBcast);
    }
    if commutative && p > 2 {
        candidates.push(AllreduceChoice::Ring);
    }
    // Stable argmin: ties keep the earlier (lower start-up) candidate.
    candidates
        .into_iter()
        .min_by(|a, b| {
            allreduce_model_cost(*a, p, words, ops_per_word, params)
                .total_cmp(&allreduce_model_cost(*b, p, words, ops_per_word, params))
        })
        .expect("candidate list is never empty")
}

/// Cost-model-driven allreduce: run whichever algorithm
/// [`choose_allreduce`] predicts to be fastest for this machine, block
/// size and operator. Unlike [`bcast_auto`] no length pre-broadcast is
/// needed: allreduce combines blocks elementwise, so every rank already
/// holds a block of the (SPMD-uniform) common length and all ranks reach
/// the same choice independently.
pub fn allreduce_auto<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: S,
    words_per_unit: u64,
    op: &Combine<'_, S>,
) -> S {
    drive(allreduce_auto_async(ctx, value, words_per_unit, op))
}

/// Engine-agnostic form of [`allreduce_auto`].
pub async fn allreduce_auto_async<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: S,
    words_per_unit: u64,
    op: &Combine<'_, S>,
) -> S {
    let p = ctx.size();
    if p == 1 {
        return value;
    }
    let words = (value.unit_len() as u64 * words_per_unit).max(1);
    let params = ctx.params();
    match choose_allreduce(p, words, op.ops_per_word, op.commutative, &params) {
        AllreduceChoice::Butterfly => allreduce_butterfly_async(ctx, value, words, op).await,
        AllreduceChoice::Rabenseifner => {
            allreduce_rabenseifner_async(ctx, value, words_per_unit, op).await
        }
        AllreduceChoice::Ring => allreduce_ring_async(ctx, value, words_per_unit, op).await,
        AllreduceChoice::ReduceBcast => allreduce_async(ctx, value, words, op).await,
    }
}

/// Which reduce-to-root algorithm [`reduce_auto`] predicts to win.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceChoice {
    /// Binomial tree: `log p (ts + m(tw + c))`.
    Binomial,
    /// Recursive-halving reduce-scatter + binomial gather of the reduced
    /// segments: `2 log p·ts + m(1−1/p)(2tw + c)`. Power-of-two `p`
    /// only; order-safe for any associative operator.
    ScatterGather,
}

/// Analytic makespan of one reduce algorithm; exact when `p | m`.
pub fn reduce_model_cost(
    choice: ReduceChoice,
    p: usize,
    words: u64,
    ops_per_word: f64,
    params: &ClockParams,
) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let (ts, tw) = (params.ts, params.tw);
    let m = words as f64;
    let c = ops_per_word;
    let logp = ceil_log2(p) as f64;
    let frac = 1.0 - 1.0 / p as f64;
    match choice {
        ReduceChoice::Binomial => logp * (ts + m * (tw + c)),
        ReduceChoice::ScatterGather if p.is_power_of_two() => {
            // Halving reduce-scatter + gather: the gather's critical path
            // is rank 0 receiving 2^j segments in round j, i.e.
            // log p·ts + (p−1)(m/p)·tw = log p·ts + m(1−1/p)·tw.
            (logp * ts + m * frac * (tw + c)) + (logp * ts + m * frac * tw)
        }
        ReduceChoice::ScatterGather => f64::INFINITY,
    }
}

/// Predict the cheapest reduce-to-root algorithm for `(p, m)`.
pub fn choose_reduce(
    p: usize,
    words: u64,
    ops_per_word: f64,
    params: &ClockParams,
) -> ReduceChoice {
    let binomial = reduce_model_cost(ReduceChoice::Binomial, p, words, ops_per_word, params);
    let rsg = reduce_model_cost(ReduceChoice::ScatterGather, p, words, ops_per_word, params);
    if rsg < binomial {
        ReduceChoice::ScatterGather
    } else {
        ReduceChoice::Binomial
    }
}

/// Cost-model-driven reduction to rank 0: `Some(result)` on rank 0,
/// `None` elsewhere. For large blocks on a power-of-two machine the
/// reduce-scatter + gather route halves the bandwidth term of the
/// binomial tree while staying order-safe for non-commutative operators.
pub fn reduce_auto<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: S,
    words_per_unit: u64,
    op: &Combine<'_, S>,
) -> Option<S> {
    drive(reduce_auto_async(ctx, value, words_per_unit, op))
}

/// Engine-agnostic form of [`reduce_auto`].
pub async fn reduce_auto_async<S: Splittable + Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: S,
    words_per_unit: u64,
    op: &Combine<'_, S>,
) -> Option<S> {
    let p = ctx.size();
    let words = (value.unit_len() as u64 * words_per_unit).max(1);
    match choose_reduce(p, words, op.ops_per_word, &ctx.params()) {
        ReduceChoice::Binomial => reduce_binomial_async(ctx, 0, value, words, op).await,
        ReduceChoice::ScatterGather => {
            let seg = reduce_scatter_halving_async(ctx, value, words_per_unit, op).await;
            let seg_words = (seg.unit_len() as u64 * words_per_unit).max(1);
            gather_binomial_async(ctx, seg, seg_words)
                .await
                .map(S::concat)
        }
    }
}

/// Should the fused balanced allreduce (rule SR-Reduction's RHS) run as
/// halving/doubling instead of the balanced butterfly? Compares
/// `log p (ts + m(wf·tw + c))` against `2 log p·ts + m(1−1/p)(2·wf·tw + c)`;
/// the halving pair needs a power of two.
pub fn balanced_halving_wins(
    p: usize,
    words: u64,
    words_factor: u64,
    ops_combine: f64,
    params: &ClockParams,
) -> bool {
    if p <= 1 || !p.is_power_of_two() {
        return false;
    }
    let (ts, tw) = (params.ts, params.tw);
    let m = words as f64;
    let wf = words_factor as f64;
    let logp = ceil_log2(p) as f64;
    let frac = 1.0 - 1.0 / p as f64;
    let butterfly = logp * (ts + m * (wf * tw + ops_combine));
    let halving = 2.0 * logp * ts + m * frac * (2.0 * wf * tw + ops_combine);
    halving < butterfly
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcast::bcast_binomial;
    use crate::reduce::allreduce_butterfly;
    use crate::reference::ref_scan;
    use crate::scan::scan_butterfly;
    use collopt_machine::Machine;
    use std::sync::Arc;

    #[test]
    fn ring_allgather_is_correct_for_all_sizes() {
        for p in 1..=13usize {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(|ctx| allgather_ring(ctx, ctx.rank() * 3, 1));
            let expected: Vec<usize> = (0..p).map(|r| r * 3).collect();
            for (rank, r) in run.results.iter().enumerate() {
                assert_eq!(r, &expected, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn scatter_allgather_bcast_is_correct() {
        for p in 1..=12usize {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(move |ctx| {
                let value = (ctx.rank() == 0).then(|| (0..25i64).collect::<Vec<i64>>());
                bcast_scatter_allgather(ctx, value, 1)
            });
            let expected: Vec<i64> = (0..25).collect();
            for (rank, r) in run.results.iter().enumerate() {
                assert_eq!(r, &expected, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn scatter_allgather_beats_binomial_for_large_blocks() {
        let (p, mw) = (16usize, 32_000usize);
        let clock = ClockParams::parsytec_like();
        let machine = Machine::new(p, clock);
        let tree = machine.run(move |ctx| {
            let v = (ctx.rank() == 0).then(|| vec![1u8; mw]);
            bcast_binomial(ctx, 0, v, mw as u64).len()
        });
        let vdg = machine.run(move |ctx| {
            let v = (ctx.rank() == 0).then(|| vec![1u8; mw]);
            bcast_scatter_allgather(ctx, v, 1).len()
        });
        assert!(
            vdg.makespan < tree.makespan,
            "van de Geijn {} must beat binomial {} at m={mw}",
            vdg.makespan,
            tree.makespan
        );
    }

    #[test]
    fn binomial_beats_scatter_allgather_for_tiny_blocks() {
        let (p, mw) = (16usize, 4usize);
        let clock = ClockParams::parsytec_like();
        let machine = Machine::new(p, clock);
        let tree = machine.run(move |ctx| {
            let v = (ctx.rank() == 0).then(|| vec![1u8; mw]);
            bcast_binomial(ctx, 0, v, mw as u64).len()
        });
        let vdg = machine.run(move |ctx| {
            let v = (ctx.rank() == 0).then(|| vec![1u8; mw]);
            bcast_scatter_allgather(ctx, v, 1).len()
        });
        assert!(tree.makespan < vdg.makespan);
    }

    #[test]
    fn sklansky_scan_matches_reference() {
        for p in 1..=17usize {
            let inputs: Vec<i64> = (0..p as i64).map(|i| 2 * i - 3).collect();
            let shared = Arc::new(inputs.clone());
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(move |ctx| {
                let add = |a: &i64, b: &i64| a + b;
                scan_sklansky(ctx, shared[ctx.rank()], 1, &Combine::new(&add))
            });
            assert_eq!(run.results, ref_scan(|a, b| a + b, &inputs), "p={p}");
        }
    }

    #[test]
    fn sklansky_preserves_order_for_nonabelian_op() {
        for p in [2usize, 5, 8, 11] {
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(|ctx| {
                let cat = |a: &String, b: &String| format!("{a}{b}");
                scan_sklansky(ctx, ctx.rank().to_string(), 1, &Combine::new(&cat))
            });
            for (rank, r) in run.results.iter().enumerate() {
                let expected: String = (0..=rank).map(|i| i.to_string()).collect();
                assert_eq!(r, &expected, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn sklansky_charges_less_compute_than_butterfly() {
        let p = 16usize;
        let clock = ClockParams::free();
        let machine = Machine::new(p, clock);
        let butterfly = machine.run(|ctx| {
            let add = |a: &i64, b: &i64| a + b;
            scan_butterfly(ctx, 1i64, 1, &Combine::new(&add))
        });
        let sklansky = machine.run(|ctx| {
            let add = |a: &i64, b: &i64| a + b;
            scan_sklansky(ctx, 1i64, 1, &Combine::new(&add))
        });
        assert_eq!(butterfly.results, sklansky.results);
        let bf: f64 = butterfly.compute_ops.iter().sum();
        let sk: f64 = sklansky.compute_ops.iter().sum();
        assert!(sk < bf, "sklansky {sk} ops must undercut butterfly {bf}");
    }

    #[test]
    fn vdg_cost_model_matches_the_machine() {
        // The composed scatter+ring model: log p·ts + 2(p−1)(ts + (m/p)tw).
        let clock = ClockParams::parsytec_like();
        for (p, mw) in [(16usize, 32_000usize), (16, 8000), (8, 4000)] {
            let machine = Machine::new(p, clock);
            let run = machine.run(move |ctx| {
                let v = (ctx.rank() == 0).then(|| vec![1u8; mw]);
                bcast_scatter_allgather(ctx, v, 1).len()
            });
            let logp = ceil_log2(p) as f64;
            let predicted = logp * clock.ts
                + 2.0 * (p as f64 - 1.0) * (clock.ts + (mw as f64 / p as f64) * clock.tw);
            let err = (run.makespan - predicted).abs() / predicted;
            assert!(
                err < 0.01,
                "p={p} m={mw}: measured {} vs model {predicted}",
                run.makespan
            );
        }
    }

    #[test]
    fn auto_bcast_picks_the_winner_per_regime() {
        let params = ClockParams::parsytec_like();
        // Tiny block: binomial.
        assert_eq!(choose_bcast(16, 4, &params), BcastChoice::Binomial);
        // Huge block: a bandwidth-friendly algorithm (chain or vdG, both
        // move ~2m·tw or less; the model decides).
        let big = choose_bcast(16, 64_000, &params);
        assert_ne!(big, BcastChoice::Binomial);
    }

    #[test]
    fn auto_bcast_is_correct_and_never_worse_than_the_alternatives() {
        let clock = ClockParams::parsytec_like();
        for (p, mw) in [(8usize, 8usize), (8, 2000), (16, 32_000)] {
            let machine = Machine::new(p, clock);
            let auto = machine.run(move |ctx| {
                let v = (ctx.rank() == 0).then(|| (0..mw as i64).collect::<Vec<i64>>());
                bcast_auto(ctx, v, 1)
            });
            let expected: Vec<i64> = (0..mw as i64).collect();
            assert!(auto.results.iter().all(|r| r == &expected), "p={p} m={mw}");

            // Compare against both fixed strategies (+ the tiny length
            // pre-broadcast the auto version pays).
            let tree = machine.run(move |ctx| {
                let v = (ctx.rank() == 0).then(|| vec![0i64; mw]);
                bcast_binomial(ctx, 0, v, mw as u64).len()
            });
            let vdg = machine.run(move |ctx| {
                let v = (ctx.rank() == 0).then(|| vec![0i64; mw]);
                bcast_scatter_allgather(ctx, v, 1).len()
            });
            let preamble = collopt_machine::topology::ceil_log2(p) as f64 * (clock.ts + clock.tw);
            assert!(
                auto.makespan <= tree.makespan.min(vdg.makespan) + preamble + 1.0,
                "p={p} m={mw}: auto {} vs tree {} vdg {}",
                auto.makespan,
                tree.makespan,
                vdg.makespan
            );
        }
    }

    #[allow(clippy::ptr_arg)]
    fn add_blocks(a: &Vec<i64>, b: &Vec<i64>) -> Vec<i64> {
        a.iter().zip(b).map(|(x, y)| x + y).collect()
    }

    #[test]
    fn auto_allreduce_picks_the_winner_per_regime() {
        let parsytec = ClockParams::parsytec_like();
        // Small blocks: the butterfly's log p start-ups win.
        assert_eq!(
            choose_allreduce(16, 4, 1.0, false, &parsytec),
            AllreduceChoice::Butterfly
        );
        // Large blocks: Rabenseifner's bandwidth term wins.
        assert_eq!(
            choose_allreduce(16, 32_768, 1.0, false, &parsytec),
            AllreduceChoice::Rabenseifner
        );
        // Cheap start-ups shift the crossover far left: Rabenseifner
        // already wins modest blocks.
        let low_ts = ClockParams::new(4.0, 0.5);
        assert_eq!(
            choose_allreduce(16, 64, 1.0, false, &low_ts),
            AllreduceChoice::Rabenseifner
        );
        // Non-power-of-two, non-commutative: only the fallback is sound.
        assert_eq!(
            choose_allreduce(6, 32_768, 1.0, false, &parsytec),
            AllreduceChoice::ReduceBcast
        );
        // Non-power-of-two + commutative + large block: the ring's
        // bandwidth optimality beats reduce+bcast's log p volume.
        assert_eq!(
            choose_allreduce(12, 32_768, 1.0, true, &parsytec),
            AllreduceChoice::Ring
        );
    }

    #[test]
    fn auto_allreduce_is_correct_for_every_size() {
        for p in 1..=12usize {
            for mw in [3usize, 40] {
                let machine = Machine::new(p, ClockParams::parsytec_like());
                let run = machine.run(move |ctx| {
                    let block: Vec<i64> = (0..mw as i64).map(|e| ctx.rank() as i64 + e).collect();
                    let op = Combine::new(&add_blocks).assume_commutative();
                    allreduce_auto(ctx, block, 1, &op)
                });
                let expected: Vec<i64> = (0..mw as i64)
                    .map(|e| (0..p as i64).map(|r| r + e).sum())
                    .collect();
                for (rank, got) in run.results.iter().enumerate() {
                    assert_eq!(got, &expected, "p={p} m={mw} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn auto_allreduce_measured_makespan_tracks_the_model_within_10_percent() {
        // The acceptance sweep: for every (p, m) point, run the algorithm
        // the selector picked and compare the measured simulated makespan
        // against the analytic prediction for that same algorithm.
        for params in [ClockParams::parsytec_like(), ClockParams::new(4.0, 0.5)] {
            for p in [4usize, 5, 6, 8, 12, 16] {
                for mult in [1u64, 64, 512] {
                    let mw = p as u64 * mult;
                    let choice = choose_allreduce(p, mw, 1.0, true, &params);
                    let predicted = allreduce_model_cost(choice, p, mw, 1.0, &params);
                    let machine = Machine::new(p, params);
                    let run = machine.run(move |ctx| {
                        let block: Vec<i64> =
                            (0..mw as i64).map(|e| ctx.rank() as i64 + e).collect();
                        let op = Combine::new(&add_blocks).assume_commutative();
                        allreduce_auto(ctx, block, 1, &op)
                    });
                    let err = (run.makespan - predicted).abs() / predicted;
                    assert!(
                        err <= 0.10,
                        "p={p} m={mw} {}: measured {} vs predicted {predicted} (err {err:.3})",
                        choice.name(),
                        run.makespan
                    );
                }
            }
        }
    }

    #[test]
    fn auto_allreduce_never_loses_to_the_fixed_butterfly() {
        let params = ClockParams::parsytec_like();
        for mw in [8usize, 1024, 16_384] {
            let machine = Machine::new(8, params);
            let auto = machine.run(move |ctx| {
                let block: Vec<i64> = (0..mw as i64).collect();
                allreduce_auto(ctx, block, 1, &Combine::new(&add_blocks))
            });
            let fixed = machine.run(move |ctx| {
                let block: Vec<i64> = (0..mw as i64).collect();
                allreduce_butterfly(ctx, block, mw as u64, &Combine::new(&add_blocks))
            });
            assert_eq!(auto.results, fixed.results);
            assert!(
                auto.makespan <= fixed.makespan + 1e-9,
                "m={mw}: auto {} vs butterfly {}",
                auto.makespan,
                fixed.makespan
            );
        }
    }

    #[test]
    fn auto_reduce_routes_large_blocks_through_reduce_scatter() {
        let params = ClockParams::parsytec_like();
        assert_eq!(choose_reduce(16, 4, 1.0, &params), ReduceChoice::Binomial);
        assert_eq!(
            choose_reduce(16, 32_768, 1.0, &params),
            ReduceChoice::ScatterGather
        );
        // Non-powers of two always take the binomial tree.
        assert_eq!(
            choose_reduce(12, 32_768, 1.0, &params),
            ReduceChoice::Binomial
        );

        // Correctness on both routes, including a non-commutative
        // operator on the scatter+gather route.
        for p in [4usize, 6, 8] {
            for mw in [4usize, 4096] {
                let machine = Machine::new(p, params);
                let run = machine.run(move |ctx| {
                    let letter = char::from(b'a' + ctx.rank() as u8).to_string();
                    let cat = |a: &Vec<String>, b: &Vec<String>| -> Vec<String> {
                        a.iter().zip(b).map(|(x, y)| format!("{x}{y}")).collect()
                    };
                    reduce_auto(ctx, vec![letter; mw], 1, &Combine::new(&cat))
                });
                let word: String = (0..p).map(|r| char::from(b'a' + r as u8)).collect();
                assert!(
                    run.results[0]
                        .as_ref()
                        .is_some_and(|v| v.len() == mw && v.iter().all(|s| s == &word)),
                    "p={p} m={mw}"
                );
                assert!(run.results[1..].iter().all(Option::is_none));
            }
        }
    }

    #[test]
    fn auto_reduce_makespan_tracks_the_model_within_10_percent() {
        for params in [ClockParams::parsytec_like(), ClockParams::new(4.0, 0.5)] {
            for p in [4usize, 8, 16] {
                for mult in [1u64, 64, 512] {
                    let mw = p as u64 * mult;
                    let choice = choose_reduce(p, mw, 1.0, &params);
                    let predicted = reduce_model_cost(choice, p, mw, 1.0, &params);
                    let machine = Machine::new(p, params);
                    let run = machine.run(move |ctx| {
                        let block: Vec<i64> =
                            (0..mw as i64).map(|e| ctx.rank() as i64 + e).collect();
                        reduce_auto(ctx, block, 1, &Combine::new(&add_blocks))
                    });
                    let err = (run.makespan - predicted).abs() / predicted;
                    assert!(
                        err <= 0.10,
                        "p={p} m={mw} {choice:?}: measured {} vs predicted {predicted}",
                        run.makespan
                    );
                }
            }
        }
    }

    #[test]
    fn balanced_halving_chooser_flips_with_block_size() {
        let params = ClockParams::parsytec_like();
        // op_sr's parameters: 2 words on the wire and 4 ops per word.
        assert!(!balanced_halving_wins(16, 4, 2, 4.0, &params));
        assert!(balanced_halving_wins(16, 16_384, 2, 4.0, &params));
        assert!(!balanced_halving_wins(12, 16_384, 2, 4.0, &params));
    }
}
