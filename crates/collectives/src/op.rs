//! Operator descriptors carried into collectives.
//!
//! The paper charges local computation at one unit per base-operation per
//! word. A collective cannot know how many base operations one application
//! of a user operator performs — `+` on a block is one per word, the fused
//! `op_sr2` is three per word — so the descriptor carries the charge
//! explicitly alongside the combine function.

/// A binary combine operator on blocks of type `T`, with its computational
/// cost declared in base operations per block word.
pub struct Combine<'a, T> {
    /// The combine function. Must be associative for the standard
    /// collectives (`reduce`, `allreduce`, `scan`) to be well-defined.
    pub f: &'a (dyn Fn(&T, &T) -> T + Sync),
    /// Base operations charged per word of the block for one application.
    pub ops_per_word: f64,
    /// Declared commutative. Gates the operand-reordering algorithms
    /// (ring reduce-scatter, fold-excess allreduce); a false declaration
    /// makes those algorithms produce wrong results, so it is an explicit
    /// opt-in, never inferred.
    pub commutative: bool,
}

impl<'a, T> Combine<'a, T> {
    /// A combine with the default charge of one base operation per word
    /// (a plain scalar operator like `+` applied elementwise).
    pub fn new(f: &'a (dyn Fn(&T, &T) -> T + Sync)) -> Self {
        Combine {
            f,
            ops_per_word: 1.0,
            commutative: false,
        }
    }

    /// A combine with an explicit per-word charge (fused tuple operators).
    pub fn with_cost(f: &'a (dyn Fn(&T, &T) -> T + Sync), ops_per_word: f64) -> Self {
        assert!(ops_per_word >= 0.0);
        Combine {
            f,
            ops_per_word,
            commutative: false,
        }
    }

    /// Declare the operator commutative, unlocking the algorithms that
    /// combine operands out of rank order.
    pub fn assume_commutative(mut self) -> Self {
        self.commutative = true;
        self
    }

    /// Apply the operator.
    #[inline]
    pub fn apply(&self, a: &T, b: &T) -> T {
        (self.f)(a, b)
    }
}

impl<T> std::fmt::Debug for Combine<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Combine")
            .field("ops_per_word", &self.ops_per_word)
            .field("commutative", &self.commutative)
            .finish_non_exhaustive()
    }
}

/// A block value that can be cut into contiguous segments and reassembled
/// — the mechanism behind every segmenting algorithm in this crate
/// (reduce-scatter, Rabenseifner allreduce, the pipelined chain
/// broadcast, van de Geijn's scatter+allgather).
///
/// The contract, checked by the collectives that rely on it:
///
/// * [`split_into(n)`](Splittable::split_into) returns exactly `n` parts
///   (possibly empty ones when the block is shorter than `n`), with
///   nearly equal lengths — part `i` gets `len/n` units plus one extra
///   when `i < len % n` — so that two SPMD peers splitting equal-length
///   blocks agree on every part length without communicating;
/// * [`concat`](Splittable::concat) of the parts, in order, restores the
///   original block;
/// * `unit_len` is additive under both.
pub trait Splittable: Sized {
    /// Block length in combinable units (elements for a `Vec`).
    fn unit_len(&self) -> usize;

    /// Cut into exactly `parts` contiguous, nearly equal segments.
    fn split_into(&self, parts: usize) -> Vec<Self>;

    /// Reassemble segments (in order) into one block.
    fn concat(parts: Vec<Self>) -> Self;
}

/// The split rule of [`Splittable::split_into`]: the lengths of `n` units
/// cut into `parts` nearly equal parts, where part `i` gets `n / parts`
/// units plus one extra when `i < n % parts`.
///
/// # Panics
/// Panics if `parts` is zero.
pub fn part_lens(n: usize, parts: usize) -> impl Iterator<Item = usize> {
    assert!(parts > 0, "cannot split into zero parts");
    let (base, extra) = (n / parts, n % parts);
    (0..parts).map(move |i| base + usize::from(i < extra))
}

impl<T: Clone> Splittable for Vec<T> {
    fn unit_len(&self) -> usize {
        self.len()
    }

    fn split_into(&self, parts: usize) -> Vec<Self> {
        let mut out = Vec::with_capacity(parts);
        let mut at = 0;
        for len in part_lens(self.len(), parts) {
            out.push(self[at..at + len].to_vec());
            at += len;
        }
        debug_assert_eq!(at, self.len());
        out
    }

    fn concat(parts: Vec<Self>) -> Self {
        parts.into_iter().flatten().collect()
    }
}

/// A block that is nothing but its length in units. Schedule extraction
/// runs the segmenting collectives on it: splits, messages and
/// reassembly then cost O(1) each, however long the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Units(pub usize);

impl Splittable for Units {
    fn unit_len(&self) -> usize {
        self.0
    }

    fn split_into(&self, parts: usize) -> Vec<Self> {
        part_lens(self.0, parts).map(Units).collect()
    }

    fn concat(parts: Vec<Self>) -> Self {
        Units(parts.iter().map(|u| u.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cost_is_one_op_per_word() {
        let add = |a: &i64, b: &i64| a + b;
        let c = Combine::new(&add);
        assert_eq!(c.ops_per_word, 1.0);
        assert_eq!(c.apply(&2, &3), 5);
    }

    #[test]
    fn explicit_cost_is_kept() {
        let f = |a: &(i64, i64), b: &(i64, i64)| (a.0 + b.0, a.1 * b.1);
        let c = Combine::with_cost(&f, 2.0);
        assert_eq!(c.ops_per_word, 2.0);
        assert_eq!(c.apply(&(1, 2), &(3, 4)), (4, 8));
    }

    #[test]
    #[should_panic]
    fn negative_cost_rejected() {
        let add = |a: &i64, b: &i64| a + b;
        let _ = Combine::with_cost(&add, -1.0);
    }

    #[test]
    fn commutativity_is_an_explicit_opt_in() {
        let add = |a: &i64, b: &i64| a + b;
        assert!(!Combine::new(&add).commutative);
        assert!(Combine::new(&add).assume_commutative().commutative);
        assert!(!Combine::with_cost(&add, 2.0).commutative);
    }

    #[test]
    fn split_concat_roundtrips_for_every_part_count() {
        for n in 0..17usize {
            let block: Vec<i64> = (0..n as i64).collect();
            for parts in 1..=9 {
                let segs = block.split_into(parts);
                assert_eq!(segs.len(), parts, "n={n} parts={parts}");
                // Nearly equal: lengths differ by at most one, longer
                // segments first.
                let lens: Vec<usize> = segs.iter().map(Vec::len).collect();
                assert!(lens.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
                assert_eq!(Vec::concat(segs), block, "n={n} parts={parts}");
                // A length-only block splits into the same lengths.
                let units = Units(n).split_into(parts);
                let unit_lens: Vec<usize> = units.iter().map(Units::unit_len).collect();
                assert_eq!(unit_lens, lens, "n={n} parts={parts}");
                assert_eq!(Units::concat(units), Units(n));
            }
        }
    }

    #[test]
    fn split_lengths_are_spmd_deterministic() {
        // Two peers splitting equal-length blocks agree on every part
        // length without communicating.
        let a: Vec<u8> = vec![0; 11];
        let b: Vec<u32> = vec![9; 11];
        let la: Vec<usize> = a.split_into(4).iter().map(Vec::len).collect();
        let lb: Vec<usize> = b.split_into(4).iter().map(Vec::len).collect();
        assert_eq!(la, lb);
        assert_eq!(la, vec![3, 3, 3, 2]);
    }
}
