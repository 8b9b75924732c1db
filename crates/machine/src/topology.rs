//! Rank arithmetic for collective-operation algorithms.
//!
//! Three communication structures cover everything the paper uses:
//!
//! * **binomial trees** — the classic broadcast/reduce tree rooted at a
//!   rank, `⌈log₂ p⌉` rounds, one new processor informed per informed
//!   processor per round;
//! * **butterflies** (hypercube exchanges) — `⌈log₂ p⌉` rounds in which
//!   rank `r` exchanges with `r XOR 2^j`; the implementation the paper's
//!   cost model (Section 4.1) assumes for broadcast, reduction and scan;
//! * the paper's **virtual balanced tree** (Section 3.2) — the unique tree
//!   for any number of leaves `n` such that (a) all leaves have the same
//!   depth `⌈log₂ n⌉` and (b) the right subtree of every node with a
//!   non-empty left subtree is complete. Nodes whose left subtree is empty
//!   are *unary* nodes; the balanced reduction applies a special unary
//!   variant of its operator there (`op_sr((), (t,u)) = (t, u⊕u)` in rule
//!   SR-Reduction).

/// Returns `⌈log₂ n⌉`, i.e. the number of butterfly rounds for `n` ranks.
///
/// By convention `ceil_log2(0) == 0` and `ceil_log2(1) == 0`.
#[inline]
pub fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        (n - 1).ilog2() + 1
    }
}

/// Returns `⌊log₂ n⌋`. Panics on `n == 0`.
#[inline]
pub fn floor_log2(n: usize) -> u32 {
    n.ilog2()
}

/// Is `n` a power of two? (`0` is not.)
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n.is_power_of_two()
}

/// The butterfly partner of `rank` in round `round` (0-based), i.e.
/// `rank XOR 2^round`, or `None` if the partner is outside `0..size`.
///
/// With `size` not a power of two, some ranks have no partner in some
/// rounds; the balanced collectives of the paper handle this with the unary
/// operator variants (see [`BalancedTree`] and the `()` cases of rules
/// SR-Reduction and SS-Scan).
#[inline]
pub fn butterfly_partner(rank: usize, round: u32, size: usize) -> Option<usize> {
    let partner = rank ^ (1usize << round);
    (partner < size).then_some(partner)
}

/// Number of butterfly rounds for `size` ranks.
#[inline]
pub fn butterfly_rounds(size: usize) -> u32 {
    ceil_log2(size)
}

/// A step of a binomial-tree schedule: in round `round`, `from` sends to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStep {
    /// Round index, 0-based.
    pub round: u32,
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
}

/// The binomial broadcast schedule for `size` ranks rooted at `root`.
///
/// Ranks are renumbered relative to the root (`v = (rank - root) mod size`),
/// which reduces the schedule to the root-0 case. In round `j`
/// (0-based), every informed virtual rank `v < 2^j` sends to `v + 2^j` if
/// that rank exists. The whole broadcast takes `⌈log₂ size⌉` rounds, which
/// matches the paper's `T_bcast = log p · (ts + m·tw)` (eq. 15).
pub fn binomial_bcast_schedule(size: usize, root: usize) -> Vec<TreeStep> {
    assert!(root < size, "root {root} out of range for size {size}");
    let mut steps = Vec::new();
    for round in 0..ceil_log2(size) {
        let stride = 1usize << round;
        for v in 0..stride {
            let dst = v + stride;
            if dst < size {
                steps.push(TreeStep {
                    round,
                    from: (v + root) % size,
                    to: (dst + root) % size,
                });
            }
        }
    }
    steps
}

/// For a given `rank`, the incoming edge (round, source) and outgoing edges
/// (round, destination) of the binomial broadcast rooted at `root`.
///
/// This is the per-rank view a thread needs to participate without scanning
/// the global schedule.
pub fn binomial_bcast_rank_plan(size: usize, root: usize, rank: usize) -> BinomialPlan {
    assert!(rank < size && root < size);
    let v = (rank + size - root) % size;
    let recv_round = if v == 0 { None } else { Some(floor_log2(v)) };
    let recv_from = recv_round.map(|j| {
        let src_v = v - (1usize << j);
        (src_v + root) % size
    });
    let mut sends = Vec::new();
    let first_active = match recv_round {
        None => 0,
        Some(j) => j + 1,
    };
    for round in first_active..ceil_log2(size) {
        let dst_v = v + (1usize << round);
        if dst_v < size && v < (1usize << round) {
            sends.push((round, (dst_v + root) % size));
        }
    }
    BinomialPlan {
        recv: recv_round.map(|r| (r, recv_from.unwrap())),
        sends,
    }
}

/// Per-rank view of a binomial broadcast: at most one receive, then a list
/// of sends in increasing round order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinomialPlan {
    /// `(round, source)` of the single receive, `None` for the root.
    pub recv: Option<(u32, usize)>,
    /// `(round, destination)` pairs, in increasing round order.
    pub sends: Vec<(u32, usize)>,
}

/// A node of the paper's virtual balanced tree (Section 3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BalancedNode {
    /// A leaf holding the value of one processor.
    Leaf(usize),
    /// A node whose left subtree is empty; the balanced reduction applies
    /// the unary operator variant here.
    Unary(Box<BalancedNode>),
    /// An inner node with a (possibly incomplete) left subtree and a
    /// *complete* right subtree.
    Binary(Box<BalancedNode>, Box<BalancedNode>),
}

impl BalancedNode {
    /// Leftmost leaf rank of the subtree — the *representative* processor
    /// that holds the subtree's partial result during a balanced reduction.
    pub fn representative(&self) -> usize {
        match self {
            BalancedNode::Leaf(r) => *r,
            BalancedNode::Unary(c) => c.representative(),
            BalancedNode::Binary(l, _) => l.representative(),
        }
    }

    /// Number of leaves in the subtree.
    pub fn leaf_count(&self) -> usize {
        match self {
            BalancedNode::Leaf(_) => 1,
            BalancedNode::Unary(c) => c.leaf_count(),
            BalancedNode::Binary(l, r) => l.leaf_count() + r.leaf_count(),
        }
    }

    /// Height of the subtree (leaves have height 0).
    pub fn height(&self) -> u32 {
        match self {
            BalancedNode::Leaf(_) => 0,
            BalancedNode::Unary(c) => c.height() + 1,
            BalancedNode::Binary(_, r) => r.height() + 1,
        }
    }

    /// Is the subtree complete (every node binary, `2^height` leaves)?
    pub fn is_complete(&self) -> bool {
        match self {
            BalancedNode::Leaf(_) => true,
            BalancedNode::Unary(_) => false,
            BalancedNode::Binary(l, r) => {
                l.is_complete() && r.is_complete() && l.height() == r.height()
            }
        }
    }
}

/// One action of the balanced-tree reduction schedule, executed bottom-up
/// level by level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancedStep {
    /// `right_rep` sends its partial value to `left_rep`, which combines
    /// `op(left, right)` (left argument is the lower-ranked group).
    Combine {
        /// Tree level (1 = just above the leaves).
        level: u32,
        /// Representative of the left subtree; receives and combines.
        left_rep: usize,
        /// Representative of the right subtree; sends its value.
        right_rep: usize,
    },
    /// The representative applies the unary operator variant locally
    /// (a node with an empty left subtree).
    Unary {
        /// Tree level.
        level: u32,
        /// The representative rank.
        rep: usize,
    },
}

/// The paper's virtual balanced tree over `n` leaves (processors `0..n`).
///
/// Construction (unique per the paper's two conditions): with
/// `d = ⌈log₂ n⌉` and `half = 2^(d-1)`,
///
/// * if `n > half`, the root is binary: the *right* subtree is the complete
///   tree of depth `d-1` over the **last** `half` leaves and the left
///   subtree is the balanced tree of depth `d-1` over the first `n - half`
///   leaves;
/// * otherwise the root is unary over the balanced tree of depth `d-1` for
///   all `n` leaves.
///
/// For `n = 6` this yields exactly the shape of the paper's Figure 4:
/// `Binary(Unary(Binary(0,1)), Binary(Binary(2,3), Binary(4,5)))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalancedTree {
    root: BalancedNode,
    leaves: usize,
}

impl BalancedTree {
    /// Builds the unique balanced tree over `n ≥ 1` leaves.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a balanced tree needs at least one leaf");
        let depth = ceil_log2(n);
        BalancedTree {
            root: Self::build(0, n, depth),
            leaves: n,
        }
    }

    fn build(first: usize, n: usize, depth: u32) -> BalancedNode {
        if depth == 0 {
            debug_assert_eq!(n, 1);
            return BalancedNode::Leaf(first);
        }
        let half = 1usize << (depth - 1);
        if n > half {
            let left = Self::build(first, n - half, depth - 1);
            let right = Self::build(first + n - half, half, depth - 1);
            debug_assert!(right.is_complete());
            BalancedNode::Binary(Box::new(left), Box::new(right))
        } else {
            BalancedNode::Unary(Box::new(Self::build(first, n, depth - 1)))
        }
    }

    /// The root node.
    pub fn root(&self) -> &BalancedNode {
        &self.root
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// Depth of the tree (= `⌈log₂ n⌉`; every leaf sits at this depth).
    pub fn depth(&self) -> u32 {
        ceil_log2(self.leaves)
    }

    /// The bottom-up reduction schedule, grouped by level: `schedule()[j]`
    /// holds the steps of level `j+1` (the level just above the leaves is
    /// level 1). Steps within one level are independent and execute in
    /// parallel; there are exactly `depth()` levels, matching the
    /// `log p` factor of the paper's cost estimates.
    pub fn schedule(&self) -> Vec<Vec<BalancedStep>> {
        let mut levels: Vec<Vec<BalancedStep>> = vec![Vec::new(); self.depth() as usize];
        Self::collect(&self.root, self.depth(), &mut levels);
        levels
    }

    fn collect(node: &BalancedNode, level: u32, levels: &mut Vec<Vec<BalancedStep>>) {
        match node {
            BalancedNode::Leaf(_) => {}
            BalancedNode::Unary(c) => {
                Self::collect(c, level - 1, levels);
                levels[(level - 1) as usize].push(BalancedStep::Unary {
                    level,
                    rep: c.representative(),
                });
            }
            BalancedNode::Binary(l, r) => {
                Self::collect(l, level - 1, levels);
                Self::collect(r, level - 1, levels);
                levels[(level - 1) as usize].push(BalancedStep::Combine {
                    level,
                    left_rep: l.representative(),
                    right_rep: r.representative(),
                });
            }
        }
    }

    /// Per-rank schedule: the actions rank `rank` participates in, level by
    /// level. Entries are `(level, action)` where the action is from this
    /// rank's point of view.
    pub fn rank_schedule(&self, rank: usize) -> Vec<(u32, RankAction)> {
        let mut out = Vec::new();
        for level in self.schedule() {
            for step in level {
                match step {
                    BalancedStep::Combine {
                        level,
                        left_rep,
                        right_rep,
                    } => {
                        if left_rep == rank {
                            out.push((level, RankAction::RecvCombine { from: right_rep }));
                        } else if right_rep == rank {
                            out.push((level, RankAction::SendTo { to: left_rep }));
                        }
                    }
                    BalancedStep::Unary { level, rep } => {
                        if rep == rank {
                            out.push((level, RankAction::ApplyUnary));
                        }
                    }
                }
            }
        }
        out
    }
}

/// [`BalancedTree::rank_schedule`] without building the tree: the actions
/// of `rank` in the balanced tree over `n` leaves, bottom-up. Follows the
/// construction's descent from the root to `rank`'s leaf, so it costs
/// O(log n) per rank instead of the O(n) nodes of the whole tree.
pub fn balanced_rank_schedule(n: usize, rank: usize) -> Vec<(u32, RankAction)> {
    assert!(
        rank < n,
        "rank {rank} outside a balanced tree of {n} leaves"
    );
    let mut out = Vec::new();
    let (mut first, mut len) = (0usize, n);
    for level in (1..=ceil_log2(n)).rev() {
        let half = 1usize << (level - 1);
        if len > half {
            // Binary node: the left subtree's representative is `first`,
            // the right subtree's is `first + len - half`.
            let right = first + len - half;
            if rank == first {
                out.push((level, RankAction::RecvCombine { from: right }));
            } else if rank == right {
                out.push((level, RankAction::SendTo { to: first }));
            }
            if rank >= right {
                first = right;
                len = half;
            } else {
                len -= half;
            }
        } else if rank == first {
            out.push((level, RankAction::ApplyUnary));
        }
    }
    out.reverse();
    out
}

/// A per-rank action in the balanced-tree reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankAction {
    /// Receive the right subtree's value from `from` and combine.
    RecvCombine {
        /// Sending rank (the right subtree's representative).
        from: usize,
    },
    /// Send own partial value to `to` (the left subtree's representative)
    /// and drop out of the reduction.
    SendTo {
        /// Receiving rank.
        to: usize,
    },
    /// Apply the unary operator variant locally.
    ApplyUnary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_basics() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(6), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    fn floor_log2_basics() {
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(4), 2);
        assert_eq!(floor_log2(63), 5);
        assert_eq!(floor_log2(64), 6);
    }

    #[test]
    fn butterfly_partner_in_range() {
        assert_eq!(butterfly_partner(0, 0, 6), Some(1));
        assert_eq!(butterfly_partner(1, 0, 6), Some(0));
        assert_eq!(butterfly_partner(0, 1, 6), Some(2));
        assert_eq!(butterfly_partner(4, 1, 6), None); // 4^2 = 6, out of range
        assert_eq!(butterfly_partner(5, 1, 6), None); // 5^2 = 7
        assert_eq!(butterfly_partner(2, 2, 6), None); // 2^4 = 6
        assert_eq!(butterfly_partner(0, 2, 6), Some(4));
        assert_eq!(butterfly_partner(1, 2, 6), Some(5));
    }

    #[test]
    fn butterfly_partner_is_involution() {
        for size in 1..20 {
            for round in 0..butterfly_rounds(size) {
                for rank in 0..size {
                    if let Some(p) = butterfly_partner(rank, round, size) {
                        assert_eq!(butterfly_partner(p, round, size), Some(rank));
                        assert_ne!(p, rank);
                    }
                }
            }
        }
    }

    #[test]
    fn binomial_schedule_informs_everyone_once() {
        for size in 1..33 {
            for root in [0, size / 2, size - 1] {
                let steps = binomial_bcast_schedule(size, root);
                let mut informed = vec![false; size];
                informed[root] = true;
                let mut last_round = 0;
                for s in &steps {
                    assert!(s.round >= last_round, "rounds must be non-decreasing");
                    last_round = s.round;
                    assert!(informed[s.from], "sender {} not yet informed", s.from);
                    assert!(!informed[s.to], "receiver {} informed twice", s.to);
                    informed[s.to] = true;
                }
                assert!(informed.iter().all(|&b| b), "size={size} root={root}");
                assert_eq!(steps.len(), size - 1);
            }
        }
    }

    #[test]
    fn binomial_rank_plan_matches_global_schedule() {
        for size in 1..20 {
            for root in 0..size {
                let steps = binomial_bcast_schedule(size, root);
                for rank in 0..size {
                    let plan = binomial_bcast_rank_plan(size, root, rank);
                    let expected_recv = steps
                        .iter()
                        .find(|s| s.to == rank)
                        .map(|s| (s.round, s.from));
                    assert_eq!(
                        plan.recv, expected_recv,
                        "size={size} root={root} rank={rank}"
                    );
                    let expected_sends: Vec<(u32, usize)> = steps
                        .iter()
                        .filter(|s| s.from == rank)
                        .map(|s| (s.round, s.to))
                        .collect();
                    assert_eq!(
                        plan.sends, expected_sends,
                        "size={size} root={root} rank={rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn balanced_tree_six_matches_figure4_shape() {
        // Figure 4: procs 0,1 pair at level 1, a unary node above them at
        // level 2, procs 2..5 form a complete subtree, root combines both.
        let t = BalancedTree::new(6);
        assert_eq!(t.depth(), 3);
        let levels = t.schedule();
        assert_eq!(levels.len(), 3);
        assert_eq!(
            levels[0],
            vec![
                BalancedStep::Combine {
                    level: 1,
                    left_rep: 0,
                    right_rep: 1
                },
                BalancedStep::Combine {
                    level: 1,
                    left_rep: 2,
                    right_rep: 3
                },
                BalancedStep::Combine {
                    level: 1,
                    left_rep: 4,
                    right_rep: 5
                },
            ]
        );
        assert_eq!(
            levels[1],
            vec![
                BalancedStep::Unary { level: 2, rep: 0 },
                BalancedStep::Combine {
                    level: 2,
                    left_rep: 2,
                    right_rep: 4
                },
            ]
        );
        assert_eq!(
            levels[2],
            vec![BalancedStep::Combine {
                level: 3,
                left_rep: 0,
                right_rep: 2
            }]
        );
    }

    #[test]
    fn balanced_tree_invariants_hold_for_all_sizes() {
        for n in 1..200 {
            let t = BalancedTree::new(n);
            assert_eq!(t.root().leaf_count(), n);
            assert_eq!(t.root().height(), ceil_log2(n));
            assert_eq!(t.root().representative(), 0);
            check_invariants(t.root());
            // Leaves are 0..n in order.
            let mut leaves = Vec::new();
            collect_leaves(t.root(), &mut leaves);
            assert_eq!(leaves, (0..n).collect::<Vec<_>>());
        }
    }

    fn check_invariants(node: &BalancedNode) {
        match node {
            BalancedNode::Leaf(_) => {}
            BalancedNode::Unary(c) => check_invariants(c),
            BalancedNode::Binary(l, r) => {
                // Paper condition: right subtree complete whenever the left
                // subtree is non-empty (binary node => left non-empty).
                assert!(
                    r.is_complete(),
                    "right subtree of a binary node must be complete"
                );
                assert_eq!(l.height(), r.height(), "leaves must share a depth");
                check_invariants(l);
                check_invariants(r);
            }
        }
    }

    fn collect_leaves(node: &BalancedNode, out: &mut Vec<usize>) {
        match node {
            BalancedNode::Leaf(r) => out.push(*r),
            BalancedNode::Unary(c) => collect_leaves(c, out),
            BalancedNode::Binary(l, r) => {
                collect_leaves(l, out);
                collect_leaves(r, out);
            }
        }
    }

    #[test]
    fn balanced_tree_power_of_two_is_complete() {
        for k in 0..7 {
            let t = BalancedTree::new(1 << k);
            assert!(t.root().is_complete());
        }
    }

    #[test]
    fn rank_schedule_partitions_global_schedule() {
        for n in 1..40 {
            let t = BalancedTree::new(n);
            let mut combines = 0usize;
            let mut unaries = 0usize;
            for level in t.schedule() {
                for s in level {
                    match s {
                        BalancedStep::Combine { .. } => combines += 1,
                        BalancedStep::Unary { .. } => unaries += 1,
                    }
                }
            }
            // Every binary node is one combine; n leaves => n-1 combines.
            assert_eq!(combines, n - 1);
            let mut per_rank = 0usize;
            for rank in 0..n {
                for (_, a) in t.rank_schedule(rank) {
                    match a {
                        RankAction::RecvCombine { .. } | RankAction::SendTo { .. } => per_rank += 1,
                        RankAction::ApplyUnary => {}
                    }
                }
            }
            // Each combine appears twice from the rank perspective.
            assert_eq!(per_rank, 2 * combines);
            let unary_ranks: usize = (0..n)
                .map(|r| {
                    t.rank_schedule(r)
                        .iter()
                        .filter(|(_, a)| matches!(a, RankAction::ApplyUnary))
                        .count()
                })
                .sum();
            assert_eq!(unary_ranks, unaries);
        }
    }

    #[test]
    fn direct_rank_schedule_matches_the_tree_walk() {
        for n in (1..=256).chain([511, 512, 513, 1000, 1023]) {
            let t = BalancedTree::new(n);
            for rank in 0..n {
                assert_eq!(
                    balanced_rank_schedule(n, rank),
                    t.rank_schedule(rank),
                    "n={n} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn once_a_rank_sends_it_never_acts_again() {
        for n in 1..60 {
            let t = BalancedTree::new(n);
            for rank in 0..n {
                let sched = t.rank_schedule(rank);
                if let Some(pos) = sched
                    .iter()
                    .position(|(_, a)| matches!(a, RankAction::SendTo { .. }))
                {
                    assert_eq!(
                        pos,
                        sched.len() - 1,
                        "rank {rank} acted after sending (n={n})"
                    );
                }
            }
        }
    }
}
