//! The paper's *special* collectives (Section 3.2–3.3): balanced reduction
//! and balanced scan for operators that are **not associative** — the fused
//! operators `op_sr` and `op_ss` produced by rules SR-Reduction and
//! SS-Scan.
//!
//! A non-associative operator cannot be combined in arbitrary tree shapes;
//! correctness of `op_sr`/`op_ss` depends on every combine step joining a
//! group with a *complete* (power-of-two-sized) sibling group. Two
//! structures guarantee this for any processor count:
//!
//! * [`reduce_balanced`] walks the paper's virtual **balanced tree**
//!   ([`BalancedTree`](collopt_machine::topology::BalancedTree)): all
//!   leaves at depth `⌈log₂ p⌉`, the right subtree
//!   of every binary node complete, and *unary* nodes (empty left subtree)
//!   where a special one-argument variant of the operator applies —
//!   `op_sr((), (t,u)) = (t, u⊕u)` in the paper. This is Figure 4.
//! * [`scan_balanced`] runs a **butterfly** in which each exchange step
//!   applies a *paired* operator producing new values for both partners,
//!   and ranks without a partner (only possible when `p` is not a power of
//!   two) apply a solo variant. This is Figure 5.

use collopt_machine::topology::{
    balanced_rank_schedule, butterfly_partner, butterfly_rounds, RankAction,
};
use collopt_machine::{drive, Ctx};

use crate::bcast::bcast_binomial_async;

/// Operator descriptor for the balanced reduction: a binary combine for
/// binary tree nodes, a solo variant for unary nodes, and explicit cost
/// declarations.
pub struct BalancedOp<'a, Q> {
    /// Binary combine `op(left, right)`; `left` always covers the
    /// lower-ranked processors.
    pub combine: &'a (dyn Fn(&Q, &Q) -> Q + Sync),
    /// Unary variant applied at nodes whose left subtree is empty
    /// (the paper's `op((), x)` case).
    pub solo: &'a (dyn Fn(&Q) -> Q + Sync),
    /// Base operations per block word for one binary combine
    /// (4 for the paper's `op_sr`).
    pub ops_combine: f64,
    /// Base operations per block word for the solo variant.
    pub ops_solo: f64,
    /// Words on the wire per block word (2 for the pairs of `op_sr`).
    pub words_factor: u64,
}

impl<Q> std::fmt::Debug for BalancedOp<'_, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BalancedOp")
            .field("ops_combine", &self.ops_combine)
            .field("ops_solo", &self.ops_solo)
            .field("words_factor", &self.words_factor)
            .finish_non_exhaustive()
    }
}

/// Balanced-tree reduction to rank 0 (the paper's root convention).
///
/// Returns `Some(result)` on rank 0 and `None` elsewhere. The combine
/// order follows the balanced tree exactly, so the operator need not be
/// associative — only compatible with the tree's complete-right-subtree
/// invariant, as `op_sr` is.
pub fn reduce_balanced<Q: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: Q,
    words: u64,
    op: &BalancedOp<'_, Q>,
) -> Option<Q> {
    drive(reduce_balanced_async(ctx, value, words, op))
}

/// Engine-agnostic form of [`reduce_balanced`].
pub async fn reduce_balanced_async<Q: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: Q,
    words: u64,
    op: &BalancedOp<'_, Q>,
) -> Option<Q> {
    let mut acc = value;
    for (_, action) in balanced_rank_schedule(ctx.size(), ctx.rank()) {
        match action {
            RankAction::RecvCombine { from } => {
                let got: Q = ctx.recv_async(from).await;
                acc = (op.combine)(&acc, &got);
                ctx.charge(words as f64 * op.ops_combine, "reduce_balanced:combine");
            }
            RankAction::SendTo { to } => {
                ctx.send(to, acc, words * op.words_factor);
                return None;
            }
            RankAction::ApplyUnary => {
                acc = (op.solo)(&acc);
                ctx.charge(words as f64 * op.ops_solo, "reduce_balanced:solo");
            }
        }
    }
    debug_assert_eq!(ctx.rank(), 0, "only the root retains a value");
    Some(acc)
}

/// Balanced allreduce: every rank gets the root's result.
///
/// For a power-of-two `p` the balanced tree "extends to a butterfly"
/// (paper, Figure 4 caption): each exchange phase both partners combine
/// `op(lower, upper)` and obtain identical values, completing in `log p`
/// phases. For other `p` the butterfly's sibling groups are not all
/// complete — which the non-associative operators cannot tolerate — so the
/// implementation falls back to a balanced reduction followed by a
/// broadcast.
pub fn allreduce_balanced<Q: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: Q,
    words: u64,
    op: &BalancedOp<'_, Q>,
) -> Q {
    drive(allreduce_balanced_async(ctx, value, words, op))
}

/// Engine-agnostic form of [`allreduce_balanced`].
pub async fn allreduce_balanced_async<Q: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: Q,
    words: u64,
    op: &BalancedOp<'_, Q>,
) -> Q {
    let p = ctx.size();
    if p.is_power_of_two() {
        let mut acc = value;
        for round in 0..butterfly_rounds(p) {
            let partner = ctx.rank() ^ (1usize << round);
            let got: Q = ctx
                .exchange_async(partner, acc.clone(), words * op.words_factor)
                .await;
            acc = if partner > ctx.rank() {
                (op.combine)(&acc, &got)
            } else {
                (op.combine)(&got, &acc)
            };
            ctx.charge(words as f64 * op.ops_combine, "allreduce_balanced:combine");
        }
        acc
    } else {
        let reduced = reduce_balanced_async(ctx, value, words, op).await;
        bcast_binomial_async(ctx, 0, reduced, words * op.words_factor).await
    }
}

/// Operator descriptor for the balanced scan: one *paired* combine that
/// yields the new values of both butterfly partners at once, plus a solo
/// variant for ranks without a partner.
pub struct PairedOp<'a, Q> {
    /// `combine(lower, upper) = (new_lower, new_upper)`.
    pub combine: &'a (dyn Fn(&Q, &Q) -> (Q, Q) + Sync),
    /// Applied by a rank with no partner in a phase (the paper's
    /// `op_ss(x, ()) = ((s, _, _, _), ())` case: keep what is needed).
    pub solo: &'a (dyn Fn(&Q) -> Q + Sync),
    /// Base operations per word charged on the lower partner
    /// (5 for `op_ss`: the shared `ttu`, `uu`, `uuuu`, `vv`).
    pub ops_lower: f64,
    /// Base operations per word charged on the upper partner
    /// (8 for `op_ss` — the paper's "twelve to eight" reduction).
    pub ops_upper: f64,
    /// Base operations per word for the solo variant.
    pub ops_solo: f64,
    /// Words on the wire per block word, **per direction** (3 for `op_ss`:
    /// the `s` component never crosses the link).
    pub words_factor: u64,
}

impl<Q> std::fmt::Debug for PairedOp<'_, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairedOp")
            .field("ops_lower", &self.ops_lower)
            .field("ops_upper", &self.ops_upper)
            .field("ops_solo", &self.ops_solo)
            .field("words_factor", &self.words_factor)
            .finish_non_exhaustive()
    }
}

/// Balanced butterfly scan (Figure 5): `⌈log₂ p⌉` exchange phases; in
/// phase `j`, rank `r` and `r XOR 2^j` exchange states and apply the paired
/// operator; a rank whose partner does not exist applies the solo variant.
///
/// Optionally records each phase's state in the trace via [`Ctx::mark`]
/// when `trace_states` is true and a formatter is supplied — used by the
/// tests that reproduce Figure 5 verbatim.
pub fn scan_balanced<Q: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: Q,
    words: u64,
    op: &PairedOp<'_, Q>,
) -> Q {
    scan_balanced_traced(ctx, value, words, op, None::<fn(&Q) -> String>)
}

/// Engine-agnostic form of [`scan_balanced`].
pub async fn scan_balanced_async<Q: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: Q,
    words: u64,
    op: &PairedOp<'_, Q>,
) -> Q {
    scan_balanced_traced_async(ctx, value, words, op, None::<fn(&Q) -> String>).await
}

/// [`scan_balanced`] with an optional per-phase state formatter for traces.
pub fn scan_balanced_traced<Q: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: Q,
    words: u64,
    op: &PairedOp<'_, Q>,
    fmt: Option<impl Fn(&Q) -> String>,
) -> Q {
    drive(scan_balanced_traced_async(ctx, value, words, op, fmt))
}

/// Engine-agnostic form of [`scan_balanced_traced`].
pub async fn scan_balanced_traced_async<Q: Clone + Send + 'static>(
    ctx: &mut Ctx,
    value: Q,
    words: u64,
    op: &PairedOp<'_, Q>,
    fmt: Option<impl Fn(&Q) -> String>,
) -> Q {
    let p = ctx.size();
    let mut state = value;
    if let Some(f) = &fmt {
        ctx.mark(format!("phase0:{}", f(&state)));
    }
    for round in 0..butterfly_rounds(p) {
        match butterfly_partner(ctx.rank(), round, p) {
            Some(partner) => {
                let got: Q = ctx
                    .exchange_async(partner, state.clone(), words * op.words_factor)
                    .await;
                if ctx.rank() < partner {
                    let (lower, _) = (op.combine)(&state, &got);
                    state = lower;
                    ctx.charge(words as f64 * op.ops_lower, "scan_balanced:lower");
                } else {
                    let (_, upper) = (op.combine)(&got, &state);
                    state = upper;
                    ctx.charge(words as f64 * op.ops_upper, "scan_balanced:upper");
                }
            }
            None => {
                state = (op.solo)(&state);
                ctx.charge(words as f64 * op.ops_solo, "scan_balanced:solo");
            }
        }
        if let Some(f) = &fmt {
            ctx.mark(format!("phase{}:{}", round + 1, f(&state)));
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use collopt_machine::{ClockParams, Machine};
    use std::sync::Arc;

    /// The paper's `op_sr` with ⊕ = + (rule SR-Reduction):
    /// `op_sr((t1,u1),(t2,u2)) = (t1+t2+u1, uu+uu)` with `uu = u1+u2`;
    /// `op_sr((), (t,u)) = (t, u+u)`.
    fn op_sr(a: &(i64, i64), b: &(i64, i64)) -> (i64, i64) {
        let uu = a.1 + b.1;
        (a.0 + b.0 + a.1, uu + uu)
    }
    fn op_sr_solo(x: &(i64, i64)) -> (i64, i64) {
        (x.0, x.1 + x.1)
    }

    fn sr_balanced_op<'a>() -> BalancedOp<'a, (i64, i64)> {
        BalancedOp {
            combine: &op_sr,
            solo: &op_sr_solo,
            ops_combine: 4.0,
            ops_solo: 1.0,
            words_factor: 2,
        }
    }

    /// reduce(scan(xs)) computed sequentially: the value SR-Reduction's
    /// balanced tree must reproduce.
    fn sum_of_prefix_sums(xs: &[i64]) -> i64 {
        let mut acc = 0;
        let mut prefix = 0;
        for &x in xs {
            prefix += x;
            acc += prefix;
        }
        acc
    }

    #[test]
    fn figure4_exact_final_value() {
        // Figure 4: input [2,5,9,1,2,6] with + yields (86, 200) at root.
        let inputs = Arc::new(vec![2i64, 5, 9, 1, 2, 6]);
        let m = Machine::new(6, ClockParams::free());
        let run = m.run(move |ctx| {
            let x = inputs[ctx.rank()];
            reduce_balanced(ctx, (x, x), 1, &sr_balanced_op())
        });
        assert_eq!(run.results[0], Some((86, 200)));
        assert!(run.results[1..].iter().all(Option::is_none));
    }

    #[test]
    fn balanced_reduce_computes_reduce_of_scan_for_all_sizes() {
        for p in 1..=40usize {
            let inputs: Vec<i64> = (0..p as i64).map(|i| (i * 7 + 3) % 11 - 5).collect();
            let expected = sum_of_prefix_sums(&inputs);
            let shared = Arc::new(inputs);
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(move |ctx| {
                let x = shared[ctx.rank()];
                reduce_balanced(ctx, (x, x), 1, &sr_balanced_op())
            });
            assert_eq!(run.results[0].unwrap().0, expected, "p={p}");
        }
    }

    #[test]
    fn balanced_reduce_u_component_is_two_to_depth_times_sum() {
        // Invariant behind op_sr: at the root, u = 2^depth · Σ x_i.
        for p in [3usize, 6, 9, 16, 21] {
            let inputs: Vec<i64> = (1..=p as i64).collect();
            let sum: i64 = inputs.iter().sum();
            let depth = collopt_machine::topology::ceil_log2(p);
            let shared = Arc::new(inputs);
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(move |ctx| {
                let x = shared[ctx.rank()];
                reduce_balanced(ctx, (x, x), 1, &sr_balanced_op())
            });
            assert_eq!(run.results[0].unwrap().1, (1i64 << depth) * sum, "p={p}");
        }
    }

    #[test]
    fn balanced_reduce_makespan_matches_table1_sr_row() {
        // Table 1, SR-Reduction "after": log p · (ts + m·(2tw + 4)).
        let params = ClockParams::new(100.0, 2.0);
        for (p, mw) in [(8usize, 10u64), (64, 32)] {
            let m = Machine::new(p, params);
            let run = m.run(move |ctx| {
                let x = ctx.rank() as i64;
                reduce_balanced(ctx, (x, x), mw, &sr_balanced_op())
            });
            let logp = collopt_machine::topology::ceil_log2(p) as f64;
            let expected = logp * (params.ts + mw as f64 * (2.0 * params.tw + 4.0));
            // The critical path of the tree reduction: rank 0 receives and
            // combines at every level.
            assert_eq!(run.makespan, expected, "p={p} m={mw}");
        }
    }

    #[test]
    fn allreduce_balanced_gives_everyone_the_root_value() {
        for p in [2usize, 4, 6, 8, 12, 16] {
            let inputs: Vec<i64> = (0..p as i64).map(|i| i + 1).collect();
            let expected = sum_of_prefix_sums(&inputs);
            let shared = Arc::new(inputs);
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(move |ctx| {
                let x = shared[ctx.rank()];
                allreduce_balanced(ctx, (x, x), 1, &sr_balanced_op())
            });
            for (rank, r) in run.results.iter().enumerate() {
                assert_eq!(r.0, expected, "p={p} rank={rank}");
            }
        }
    }

    /// Plain butterfly scan expressed as a paired operator, to check
    /// `scan_balanced` against ordinary prefix sums: the state is
    /// (prefix, aggregate).
    fn scan_pair(a: &(i64, i64), b: &(i64, i64)) -> ((i64, i64), (i64, i64)) {
        let agg = a.1 + b.1;
        ((a.0, agg), (a.1 + b.0, agg))
    }
    fn scan_solo(x: &(i64, i64)) -> (i64, i64) {
        *x
    }

    #[test]
    fn scan_balanced_computes_prefix_sums_for_all_sizes() {
        for p in 1..=33usize {
            let inputs: Vec<i64> = (0..p as i64).map(|i| 3 * i - 4).collect();
            let shared = Arc::new(inputs.clone());
            let m = Machine::new(p, ClockParams::free());
            let run = m.run(move |ctx| {
                let x = shared[ctx.rank()];
                let op = PairedOp {
                    combine: &scan_pair,
                    solo: &scan_solo,
                    ops_lower: 1.0,
                    ops_upper: 2.0,
                    ops_solo: 0.0,
                    words_factor: 1,
                };
                scan_balanced(ctx, (x, x), 1, &op).0
            });
            let expected = crate::reference::ref_scan(|a, b| a + b, &inputs);
            assert_eq!(run.results, expected, "p={p}");
        }
    }

    #[test]
    fn scan_balanced_traced_records_phases() {
        let m = Machine::new(4, ClockParams::free()).with_tracing();
        let run = m.run(|ctx| {
            let x = (ctx.rank() + 1) as i64;
            let op = PairedOp {
                combine: &scan_pair,
                solo: &scan_solo,
                ops_lower: 1.0,
                ops_upper: 2.0,
                ops_solo: 0.0,
                words_factor: 1,
            };
            scan_balanced_traced(ctx, (x, x), 1, &op, Some(|q: &(i64, i64)| format!("{q:?}")))
        });
        // 4 ranks × 3 marks each (phase0..phase2).
        assert_eq!(run.trace.marks().len(), 12);
        assert!(run.trace.marks().iter().any(|s| s.starts_with("phase0:")));
        assert!(run.trace.marks().iter().any(|s| s.starts_with("phase2:")));
    }

    #[test]
    fn single_rank_balanced_ops_are_identity_like() {
        let m = Machine::new(1, ClockParams::free());
        let run = m.run(|ctx| reduce_balanced(ctx, (5i64, 5i64), 1, &sr_balanced_op()));
        assert_eq!(run.results[0], Some((5, 5)));
        let run = m.run(|ctx| {
            let op = PairedOp {
                combine: &scan_pair,
                solo: &scan_solo,
                ops_lower: 1.0,
                ops_upper: 2.0,
                ops_solo: 0.0,
                words_factor: 1,
            };
            scan_balanced(ctx, (7i64, 7i64), 1, &op)
        });
        assert_eq!(run.results[0], (7, 7));
    }
}
