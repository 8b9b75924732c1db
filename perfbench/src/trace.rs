//! In-process replay of a workload's request stream, timed layer by
//! layer from the benchmark's side of each layer's public functions.
//!
//! Every line is replayed twice, back to back:
//!
//! * **untraced** — `Service::handle_line` on a fresh service, one timer
//!   per call: the request path exactly as `collopt serve` runs it,
//!   minus TCP.
//! * **traced** — the same path decomposed into its layers (request
//!   parsing, canonicalization, cache, saturation, lint, audit,
//!   simulation, rendering), each call timed on its own. It mirrors
//!   `collopt_serve::service`'s cold path step by step, and the sampled
//!   replies of both passes must be byte-identical, which proves the
//!   decomposition still matches the program.
//!
//! The tracing overhead is the traced time over the untraced time.

use std::collections::BTreeSet;
use std::time::Instant;

use collopt_analysis::{audit_operator, domain_of_builtin, lint_program, LintConfig};
use collopt_core::exec::{execute_with, ExecConfig};
use collopt_core::report::optimize_result_json;
use collopt_core::rewrite::Rewriter;
use collopt_core::term::{Program, Stage};
use collopt_core::BinOp;
use collopt_cost::MachineParams;
use collopt_machine::{ClockParams, Json};
use collopt_serve::request::ok_response;
use collopt_serve::{
    canonicalize, parse_request, Cache, Op, OptimizeRequest, Request, Service,
    DEFAULT_CACHE_CAPACITY,
};

use crate::stats::median;
use crate::workload::{hot_line, hot_set, in_sample, request_line, Workload};

/// Every per-call sample a replay collects, in seconds or counts.
#[derive(Default)]
pub struct Layers {
    /// Lines replayed.
    pub lines: u64,
    /// Untraced `Service::handle_line` seconds per line.
    pub handle_line: Vec<f64>,
    /// Replies of the untraced pass that were not `ok`.
    pub failed: u64,
    pub parse: Vec<f64>,
    pub canonicalize: Vec<f64>,
    pub cache_hit: Vec<f64>,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub saturate: Vec<f64>,
    pub egraph_nodes: Vec<f64>,
    pub rule_applications: Vec<f64>,
    pub render: Vec<f64>,
    pub lint: Vec<f64>,
    pub audit: Vec<f64>,
    pub diagnostics: u64,
    pub exec: Vec<f64>,
    pub exec_messages: Vec<f64>,
    /// Summed wall time of the traced calls, one span per line.
    pub traced_s: f64,
    /// Sampled lines whose traced reply differs from `handle_line`'s.
    pub sampled: u64,
    pub mismatches: Vec<u64>,
}

/// Replay `workload`'s stream for `budget_s` seconds. Each line goes
/// first through `Service::handle_line` on one fresh service (untraced),
/// then through the decomposed path on a cache of its own (traced), so
/// both passes see the same warm state.
pub fn replay(workload: Workload, seed: u64, budget_s: f64) -> Layers {
    let service = Service::new(DEFAULT_CACHE_CAPACITY);
    let cache = Cache::new(DEFAULT_CACHE_CAPACITY);
    if workload == Workload::HotServe {
        let mut warm = Layers::default();
        for (k, (pipe, p)) in hot_set().into_iter().enumerate() {
            let line = hot_line(k as u64, pipe, p);
            service.handle_line(&line);
            traced_line(&cache, &line, &mut warm);
        }
    }
    let before = cache.stats();
    let mut l = Layers::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < budget_s {
        let i = l.lines;
        let line = request_line(workload, seed, i);
        let t = Instant::now();
        let reply = service.handle_line(&line).text;
        l.handle_line.push(secs(t));
        let t = Instant::now();
        let traced = traced_line(&cache, &line, &mut l);
        l.traced_s += secs(t);
        if !reply.contains("\"ok\":true") {
            l.failed += 1;
        }
        if in_sample(seed, i) {
            l.sampled += 1;
            if traced != reply {
                l.mismatches.push(i);
            }
        }
        l.lines += 1;
    }
    let after = cache.stats();
    l.hits = after.hits - before.hits;
    l.misses = after.misses - before.misses;
    l.evictions = after.evictions - before.evictions;
    l
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One request through the decomposed serve path; returns the reply line.
fn traced_line(cache: &Cache, line: &str, l: &mut Layers) -> String {
    let t = Instant::now();
    let parsed = parse_request(line);
    l.parse.push(secs(t));
    let Ok(Request {
        id,
        op: Op::Optimize(req),
    }) = parsed
    else {
        return format!("unexpected request {line}");
    };
    let t = Instant::now();
    let canonical = canonicalize(&req.pipeline);
    l.canonicalize.push(secs(t));
    let Ok((canonical, rendered)) = canonical else {
        return format!("pipeline does not parse: {line}");
    };
    let key = cache_key(&rendered, &req);
    let mut missed = false;
    let t = Instant::now();
    let body = cache.get_or_insert_with(&key, || {
        missed = true;
        cold_body(&canonical, &req, l)
    });
    if !missed {
        l.cache_hit.push(secs(t));
    }
    ok_response(&id, &body)
}

/// A key with the same distinctions as the service's own: canonical
/// pipeline, machine parameters by bit pattern, and every option.
/// `collopt_serve::cache_key` would canonicalize the pipeline a second
/// time, which on a cache hit costs as much as the hit itself.
fn cache_key(canonical: &str, req: &OptimizeRequest) -> String {
    format!(
        "{canonical}|{}|{:x}|{:x}|{:x}|{}|{}|{}|{}",
        req.p,
        req.ts.to_bits(),
        req.tw.to_bits(),
        req.m.to_bits(),
        req.all_ranks,
        req.lint,
        req.simulate,
        req.engine.name(),
    )
}

/// The service's cold path — saturate, render, lint, simulate — with
/// every layer call timed.
fn cold_body(canonical: &Program, req: &OptimizeRequest, l: &mut Layers) -> String {
    let params = MachineParams::new(req.p, req.ts, req.tw);
    let rewriter = Rewriter::cost_guided(params, req.m).allow_rank0_rules(!req.all_ranks);
    let t = Instant::now();
    let outcome = rewriter.saturate(canonical, &params, req.m);
    l.saturate.push(secs(t));
    l.egraph_nodes.push(outcome.stats.nodes as f64);
    l.rule_applications
        .push(outcome.stats.rule_applications as f64);
    let result = outcome.result;

    let t = Instant::now();
    let mut doc = optimize_result_json(canonical, &result, &params, req.m);
    let mut render_s = secs(t);

    let lint = if req.lint {
        let cfg = LintConfig {
            params,
            block: req.m,
            ..LintConfig::default()
        };
        let t = Instant::now();
        let report = lint_program(canonical, None, &cfg);
        let json = Json::parse(&report.render_json()).expect("lint JSON round-trips");
        l.lint.push(secs(t));
        l.diagnostics += report.diagnostics.len() as u64;
        for (op, peers) in operator_audits(canonical) {
            let domain = domain_of_builtin(op.name()).expect("audited ops are built-in");
            let t = Instant::now();
            std::hint::black_box(audit_operator(&op, domain, &peers, &cfg.audit));
            l.audit.push(secs(t));
        }
        json
    } else {
        Json::Null
    };

    let simulation = if req.simulate {
        let inputs = crate::check::synthetic_inputs(req.p, req.m);
        let clock = ClockParams::new(req.ts, req.tw);
        let config = ExecConfig {
            engine: Some(req.engine),
            ..ExecConfig::default()
        };
        let mut run = |prog: &Program| {
            let t = Instant::now();
            let outcome = execute_with(prog, &inputs, clock, config);
            l.exec.push(secs(t));
            l.exec_messages.push(outcome.total_messages as f64);
            outcome.makespan
        };
        let original = run(canonical);
        let optimized = run(&result.program);
        Json::Obj(vec![
            ("engine".into(), Json::Str(req.engine.name().into())),
            ("original_makespan".into(), Json::Num(original)),
            ("optimized_makespan".into(), Json::Num(optimized)),
        ])
    } else {
        Json::Null
    };

    let t = Instant::now();
    let Json::Obj(ref mut fields) = doc else {
        unreachable!("optimize_result_json returns an object")
    };
    fields.push(("lint".into(), lint));
    fields.push(("simulation".into(), simulation));
    let body = doc.render();
    render_s += secs(t);
    l.render.push(render_s);
    body
}

/// The `audit_operator` calls lint's operator pass makes: one per
/// distinct built-in operator, probing distributivity against the
/// pipeline's other operators of the same domain.
fn operator_audits(prog: &Program) -> Vec<(BinOp, Vec<BinOp>)> {
    let ops: Vec<&BinOp> = prog
        .stages()
        .iter()
        .filter_map(|s| match s {
            Stage::Scan(op) | Stage::Reduce(op) | Stage::AllReduce(op) => Some(op),
            _ => None,
        })
        .collect();
    let mut seen = BTreeSet::new();
    let mut calls = Vec::new();
    for op in &ops {
        if !seen.insert(op.name()) {
            continue;
        }
        let Some(domain) = domain_of_builtin(op.name()) else {
            continue;
        };
        let mut peer_seen = BTreeSet::new();
        let peers = ops
            .iter()
            .filter(|p| domain_of_builtin(p.name()) == Some(domain) && peer_seen.insert(p.name()))
            .map(|p| (*p).clone())
            .collect();
        calls.push(((*op).clone(), peers));
    }
    calls
}

/// Per-layer metrics of one traced run, as `(name, value, unit)`.
/// `tcp_p50_s` is the TCP phase's median latency and `peak_rss_mb` the
/// server's peak resident set size after it.
pub fn layer_metrics(
    l: &Layers,
    tcp_p50_s: f64,
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let us = |xs: &[f64]| median(xs) * 1e6;
    let handle_line_us = us(&l.handle_line);
    let handle_line_s: f64 = l.handle_line.iter().sum();
    // Share of untraced handle_line time a layer's calls took.
    let share = |xs: &[f64]| (xs.iter().sum::<f64>() / handle_line_s.max(1e-12)).max(0.0);
    let exec_s: f64 = l.exec.iter().sum();
    let messages: f64 = l.exec_messages.iter().sum();
    let diagnostics_per_lint = if l.lint.is_empty() {
        0.0
    } else {
        l.diagnostics as f64 / l.lint.len() as f64
    };
    vec![
        ("request.parse_us", us(&l.parse), "us"),
        ("service.canonicalize_us", us(&l.canonicalize), "us"),
        ("service.handle_line_us", handle_line_us, "us"),
        ("cache.hits", l.hits as f64, "count"),
        ("cache.misses", l.misses as f64, "count"),
        ("cache.evictions", l.evictions as f64, "count"),
        ("cache.hit_us", us(&l.cache_hit), "us"),
        ("server.overhead_us", tcp_p50_s * 1e6 - handle_line_us, "us"),
        ("server.peak_rss_mb", peak_rss_mb, "MiB"),
        ("rewrite.saturate_us", us(&l.saturate), "us"),
        ("rewrite.egraph_nodes", median(&l.egraph_nodes), "count"),
        (
            "rewrite.rule_applications",
            median(&l.rule_applications),
            "count",
        ),
        ("report.render_us", us(&l.render), "us"),
        ("lint.us", us(&l.lint), "us"),
        ("lint.audit_us", us(&l.audit), "us"),
        ("lint.diagnostics", diagnostics_per_lint, "count"),
        ("lint.calls", l.lint.len() as f64, "count"),
        ("lint.share", share(&l.lint), "ratio"),
        ("exec.sim_us", us(&l.exec), "us"),
        ("exec.messages", median(&l.exec_messages), "count"),
        (
            "exec.msgs_per_s",
            if exec_s > 0.0 { messages / exec_s } else { 0.0 },
            "1/s",
        ),
        ("exec.calls", l.exec.len() as f64, "count"),
        ("exec.share", share(&l.exec), "ratio"),
        ("trace.replayed", l.lines as f64, "count"),
        (
            "trace.overhead_ratio",
            l.traced_s / handle_line_s.max(1e-12),
            "ratio",
        ),
    ]
}
