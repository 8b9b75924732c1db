//! The three workloads: seeded request streams over a frozen corpus.
//!
//! Request `i` of a stream is a pure function of `(workload, seed, i)`,
//! so the TCP load phase (where two connections pull indices from a
//! shared counter) and the in-process replay see the very same lines.

use collopt_machine::Rng;

/// `gen_serve`'s eight-pipeline `HOT_POOL`, the resubmitted hot set.
pub const HOT_POOL: [&str; 8] = [
    "map f ; scan(mul) ; reduce(add) ; map g ; bcast",
    "scan(add) ; reduce(add)",
    "scan(mul) ; reduce(add)",
    "bcast ; scan(add) ; scan(add) ; reduce(max)",
    "scatter ; map work ; gather",
    "allreduce(add) ; bcast",
    "map prep ; reduce(add) ; map post",
    "scan(max) ; reduce(min)",
];

/// `examples/pipelines/{clean,lints}/*.pipeline` not already in
/// [`HOT_POOL`], frozen here so that editing the examples never changes
/// what the benchmark measures.
pub const EXAMPLES: [&str; 6] = [
    "scan(add) ; map dump ; reduce(max)", // clean/scan_hint
    "scatter ; map work@4 ; gather",      // clean/scatter_work_gather
    "reduce(add) ; scan(add)",            // lints/distribution_mismatch
    "scan(fmul) ; reduce(fadd)",          // lints/float_fusion
    "gather ; scatter",                   // lints/gather_scatter_roundtrip
    "allreduce(add)",                     // lints/ragged_segments
];

/// Processor counts `cold_optimize` draws from.
pub const COLD_P: [usize; 4] = [16, 64, 256, 1024];
/// Processor counts of the hot set.
pub const HOT_P: [usize; 2] = [64, 256];
/// Processor counts `simulate_mix` draws from.
pub const SIM_P: [usize; 4] = [64, 128, 256, 512];
/// Block sizes (words) `simulate_mix` draws from, inclusive.
pub const SIM_M: (usize, usize) = (8, 64);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request a cache miss; lint on, simulate off.
    ColdOptimize,
    /// Every timed request a hit on a pre-warmed 16-key hot set.
    HotServe,
    /// Every request a miss with `simulate: true`, lint off, DES engine.
    SimulateMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_optimize" => Some(Workload::ColdOptimize),
            "hot_serve" => Some(Workload::HotServe),
            "simulate_mix" => Some(Workload::SimulateMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdOptimize => "cold_optimize",
            Workload::HotServe => "hot_serve",
            Workload::SimulateMix => "simulate_mix",
        }
    }

    /// Every timed request should miss the cache (else hit it).
    pub fn expects_misses(self) -> bool {
        self != Workload::HotServe
    }

    /// A one-line description for the run header.
    pub fn config(self) -> String {
        match self {
            Workload::ColdOptimize => format!(
                "{} corpus pipelines, p in {COLD_P:?}, m in {{16,32,64}}, distinct ts per \
                 request, lint on, simulate off",
                corpus().len()
            ),
            Workload::HotServe => format!(
                "{} HOT_POOL pipelines x p in {HOT_P:?} = {} keys, warmed before timing",
                HOT_POOL.len(),
                hot_set().len()
            ),
            Workload::SimulateMix => format!(
                "{} gather/scatter-free pipelines, p in {SIM_P:?}, m in {}..={}, distinct ts \
                 per request, simulate on (des), lint off",
                simulate_subset().len(),
                SIM_M.0,
                SIM_M.1
            ),
        }
    }
}

/// The `cold_optimize` corpus: [`HOT_POOL`] then [`EXAMPLES`].
pub fn corpus() -> Vec<&'static str> {
    HOT_POOL.iter().chain(EXAMPLES.iter()).copied().collect()
}

/// Pipelines `simulate_mix` draws from: the corpus minus every pipeline
/// with a `gather` or `scatter` stage. Each of them replies `ok` at every
/// `(p, m)` point of the workload; `--confirm-simulate-subset` re-checks
/// this.
pub fn simulate_subset() -> Vec<&'static str> {
    corpus()
        .into_iter()
        .filter(|p| !p.contains("gather") && !p.contains("scatter"))
        .collect()
}

/// The hot set as `(pipeline, p)` pairs, in warm-up order.
pub fn hot_set() -> Vec<(&'static str, usize)> {
    HOT_POOL
        .iter()
        .flat_map(|&pipe| HOT_P.iter().map(move |&p| (pipe, p)))
        .collect()
}

/// An optimize request line.
pub fn optimize_line(
    id: u64,
    pipeline: &str,
    p: usize,
    ts: f64,
    m: usize,
    lint: bool,
    simulate: bool,
) -> String {
    format!(
        "{{\"id\":{id},\"pipeline\":\"{pipeline}\",\"p\":{p},\"ts\":{ts},\"tw\":2,\"m\":{m},\
         \"options\":{{\"lint\":{lint},\"simulate\":{simulate},\"engine\":\"des\"}}}}"
    )
}

/// The line a hot-set warm-up sends for `(pipeline, p)`.
pub fn hot_line(id: u64, pipeline: &str, p: usize) -> String {
    optimize_line(id, pipeline, p, 200.0, 32, true, false)
}

/// A generator seeded from `(seed, i)` alone, independent of the order
/// in which indices are drawn.
fn rng_for(seed: u64, i: u64) -> Rng {
    Rng::new(seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A `ts` distinct for every request index: a seeded base plus `i/16`,
/// an exact binary fraction, so every line is a distinct cache key.
fn distinct_ts(seed: u64, i: u64) -> f64 {
    let base = 100.0 + (seed % 97) as f64;
    base + i as f64 / 16.0
}

/// Request `i` of `workload`'s stream under `seed`.
pub fn request_line(workload: Workload, seed: u64, i: u64) -> String {
    let mut rng = rng_for(seed, i);
    match workload {
        Workload::ColdOptimize => {
            let corpus = corpus();
            let pipe = corpus[rng.below(corpus.len() as u64) as usize];
            let p = COLD_P[rng.below(COLD_P.len() as u64) as usize];
            let m = [16, 32, 64][rng.below(3) as usize];
            optimize_line(i, pipe, p, distinct_ts(seed, i), m, true, false)
        }
        Workload::HotServe => {
            let hot = hot_set();
            let (pipe, p) = hot[rng.below(hot.len() as u64) as usize];
            hot_line(i, pipe, p)
        }
        Workload::SimulateMix => {
            let subset = simulate_subset();
            let pipe = subset[rng.below(subset.len() as u64) as usize];
            let p = SIM_P[rng.below(SIM_P.len() as u64) as usize];
            let m = rng.range_usize(SIM_M.0, SIM_M.1 + 1);
            optimize_line(i, pipe, p, distinct_ts(seed, i), m, false, true)
        }
    }
}

/// Whether request `i` belongs to the seeded output-check sample.
pub fn in_sample(seed: u64, i: u64) -> bool {
    rng_for(seed ^ 0x5A_4D_50_1E, i).below(SAMPLE_EVERY) == 0
}

/// One request in this many lands in the output-check sample.
const SAMPLE_EVERY: u64 = 64;
