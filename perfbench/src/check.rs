//! Output checks on a seeded sample of replies: the TCP bytes against the
//! in-process service, and the optimized program against the submitted
//! one under the reference evaluator.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use collopt_core::op::value_close_with;
use collopt_core::parser::parse_pipeline;
use collopt_core::rewrite::Rewriter;
use collopt_core::semantics::eval_program;
use collopt_core::term::Stage;
use collopt_core::value::Value;
use collopt_core::FLOAT_RTOL;
use collopt_cost::MachineParams;
use collopt_machine::Json;
use collopt_serve::{canonicalize, parse_request, Op, Request, Service, DEFAULT_CACHE_CAPACITY};

use crate::workload::{request_line, Workload};

/// Most sampled replies checked per run, which bounds the check's time.
const MAX_CHECKED: usize = 32;

/// The service's synthetic simulation input: `m` words per rank, small
/// positive ints.
pub fn synthetic_inputs(p: usize, m: f64) -> Vec<Value> {
    let words = m.clamp(1.0, 1e6) as usize;
    (0..p)
        .map(|r| Value::int_list((0..words).map(|j| ((r * 7 + j) % 5 + 1) as i64)))
        .collect()
}

/// Check up to [`MAX_CHECKED`] sampled replies, lowest request index
/// first. Returns how many were checked and what failed.
pub fn check_sample(
    workload: Workload,
    seed: u64,
    sampled: &HashMap<u64, String>,
) -> (usize, Vec<String>) {
    let service = Service::new(DEFAULT_CACHE_CAPACITY);
    let mut ids: Vec<u64> = sampled.keys().copied().collect();
    ids.sort_unstable();
    ids.truncate(MAX_CHECKED);
    let mut failures = Vec::new();
    for &i in &ids {
        let line = request_line(workload, seed, i);
        let reply = &sampled[&i];
        if service.handle_line(&line).text != *reply {
            failures.push(format!("request {i}: TCP reply differs from handle_line"));
        }
        if let Err(e) = check_semantics(&line, reply) {
            failures.push(format!("request {i}: {e}"));
        }
    }
    (ids.len(), failures)
}

/// The reply's optimized program is the one the rewriter derives, and it
/// evaluates to the submitted pipeline's values on the synthetic input,
/// on every rank — or on rank 0 alone when a rank-0 rule fired.
fn check_semantics(line: &str, reply: &str) -> Result<(), String> {
    let Ok(Request {
        op: Op::Optimize(req),
        ..
    }) = parse_request(line)
    else {
        return Err(format!("not an optimize request: {line}"));
    };
    let submitted = parse_pipeline(&req.pipeline).map_err(|e| e.render(&req.pipeline))?;
    let (canonical, _) = canonicalize(&req.pipeline)?;
    let params = MachineParams::new(req.p, req.ts, req.tw);
    let result = Rewriter::cost_guided(params, req.m)
        .allow_rank0_rules(!req.all_ranks)
        .optimize_optimal(&canonical, &params, req.m);

    let doc = Json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    let claimed = doc
        .get("result")
        .and_then(|r| r.get("optimized"))
        .and_then(|o| o.get("program"))
        .and_then(Json::as_str);
    let derived = result.program.to_string();
    if claimed != Some(derived.as_str()) {
        return Err(format!(
            "reply claims {claimed:?}, the rewriter derives {derived:?}"
        ));
    }

    // `scatter` is defined only on a rank-0 block of one element per
    // processor, so such pipelines are checked on p-word blocks.
    let scatters = submitted
        .stages()
        .iter()
        .any(|s| matches!(s, Stage::Scatter));
    let words = if scatters { req.p as f64 } else { req.m };
    let inputs = synthetic_inputs(req.p, words);
    let (want, got) = catch_unwind(AssertUnwindSafe(|| {
        (
            eval_program(&submitted, &inputs),
            eval_program(&result.program, &inputs),
        )
    }))
    .map_err(|_| format!("the reference evaluator panicked on `{}`", req.pipeline))?;
    let ranks = if result.steps.iter().any(|s| s.rank0_only) {
        1
    } else {
        want.len()
    };
    match (0..ranks).find(|&r| !same_value(&want[r], &got[r])) {
        Some(r) => Err(format!(
            "`{}` and `{derived}` differ on rank {r}",
            req.pipeline
        )),
        None => Ok(()),
    }
}

/// `value_close` (floats within [`FLOAT_RTOL`]) that also counts two
/// equal infinities, or two NaNs, as the same value: float pipelines at
/// large `p` overflow on the synthetic input, and an overflow the
/// optimized program reproduces is not a divergence.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x.is_nan() && y.is_nan()) || value_close_with(a, b, FLOAT_RTOL)
        }
        (Value::List(xs), Value::List(ys)) => same_values(xs, ys),
        (Value::Tuple(xs), Value::Tuple(ys)) => same_values(xs, ys),
        _ => value_close_with(a, b, FLOAT_RTOL),
    }
}

fn same_values(xs: &[Value], ys: &[Value]) -> bool {
    xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_value(x, y))
}
