//! `gen_serve` — load generator and gate for the serve front end.
//!
//! Two phases, both deterministic in everything but wall-clock time:
//!
//! 1. **In-process gates.** For every hot-set pipeline: one cold
//!    request (full saturation + lint + render), then a burst of hot
//!    requests. Gates, hard (non-zero exit):
//!    * every hot response is byte-identical to its cold response;
//!    * the *minimum* hot-set speedup (cold µs / median hot µs) is
//!      ≥ 10× — the cache must beat cold saturation by an order of
//!      magnitude;
//!    * replaying a mixed request log through fresh services with 1
//!      and 4 worker threads yields identical byte streams (the worker
//!      count and what runs concurrently must not leak into results).
//! 2. **TCP load.** A loopback server (its worker pool sized by
//!    `SWEEP_WORKERS` or the CPU count) plus `SERVE_CLIENTS` closed-loop
//!    client threads issuing `SERVE_REQS` requests: `SERVE_SKEW`% drawn
//!    from the `SERVE_HOT`-sized hot set, the rest cache-cold (distinct
//!    machine shapes). Records sustained req/s, p50/p99 latency, and
//!    the cache hit rate into `results/BENCH_serve.json`; also checks
//!    a TCP response byte-matches the in-process service.
//!
//! Knobs: `SERVE_REQS` (default 2000), `SERVE_CLIENTS` (4),
//! `SERVE_HOT` (8), `SERVE_SKEW` (90), `SERVE_SEED`, `SERVE_HOT_REPS`
//! (200). `COLLOPT_SERVE_FLOOR` — when set (req/s), exit non-zero if
//! sustained throughput falls below it.
//!
//! Run with `cargo run --release -p collopt-serve --bin gen_serve`.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use collopt_bench::harness::{env_floor, env_u64, env_usize};
use collopt_bench::sweep_driver::par_map_with;
use collopt_machine::{Json, Rng};
use collopt_serve::{Server, ServerConfig, Service, DEFAULT_CACHE_CAPACITY};

/// Representative pipelines a compiler workload would resubmit: the
/// examples corpus plus the paper's running examples.
const HOT_POOL: &[&str] = &[
    "map f ; scan(mul) ; reduce(add) ; map g ; bcast",
    "scan(add) ; reduce(add)",
    "scan(mul) ; reduce(add)",
    "bcast ; scan(add) ; scan(add) ; reduce(max)",
    "scatter ; map work ; gather",
    "allreduce(add) ; bcast",
    "map prep ; reduce(add) ; map post",
    "scan(max) ; reduce(min)",
];

fn optimize_line(id: u64, pipeline: &str, p: usize) -> String {
    format!("{{\"id\":{id},\"pipeline\":\"{pipeline}\",\"p\":{p}}}")
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let reqs = env_u64("SERVE_REQS", 2000);
    let clients = env_usize("SERVE_CLIENTS", 4).max(1);
    let hot_n = env_usize("SERVE_HOT", HOT_POOL.len()).clamp(1, HOT_POOL.len());
    let skew = env_u64("SERVE_SKEW", 90).min(100);
    let seed = env_u64("SERVE_SEED", 0x5E12E);
    let hot_reps = env_usize("SERVE_HOT_REPS", 200).max(1);
    let hot_set = &HOT_POOL[..hot_n];

    println!("# gen_serve: reqs={reqs} clients={clients} hot={hot_n} skew={skew}% seed={seed:#x}");

    // ---- Phase 1: in-process cache gates -------------------------------
    let service = Service::new(DEFAULT_CACHE_CAPACITY);
    let mut hot_rows = Vec::new();
    let mut min_speedup = f64::INFINITY;
    let mut identical = true;
    for (i, pipeline) in hot_set.iter().enumerate() {
        let line = optimize_line(i as u64, pipeline, 64);
        let t0 = Instant::now();
        let cold = service.handle_line(&line);
        let cold_us = t0.elapsed().as_secs_f64() * 1e6;
        let mut hot_us: Vec<f64> = Vec::with_capacity(hot_reps);
        let mut last = None;
        for _ in 0..hot_reps {
            let t = Instant::now();
            let hot = service.handle_line(&line);
            hot_us.push(t.elapsed().as_secs_f64() * 1e6);
            last = Some(hot.text);
        }
        hot_us.sort_by(|a, b| a.total_cmp(b));
        let hot_med = hot_us[hot_us.len() / 2];
        let speedup = cold_us / hot_med.max(1e-3);
        min_speedup = min_speedup.min(speedup);
        if last.as_deref() != Some(cold.text.as_str()) {
            identical = false;
            eprintln!("FAIL: hot response differs from cold for '{pipeline}'");
        }
        println!(
            "# hot[{i}] cold {cold_us:8.1}us  hot(med) {hot_med:7.2}us  \
             speedup {speedup:8.1}x  {pipeline}"
        );
        hot_rows.push(format!(
            "    {{\"pipeline\": \"{pipeline}\", \"cold_us\": {cold_us:.1}, \
             \"hot_med_us\": {hot_med:.2}, \"speedup\": {speedup:.1}}}"
        ));
    }

    // Determinism: one mixed log, replayed on fresh services with
    // different worker counts, must produce identical byte streams.
    let mut log: Vec<String> = Vec::new();
    let mut rng = Rng::new(seed ^ 0xD15);
    for id in 0..64u64 {
        let pipeline = HOT_POOL[rng.below(HOT_POOL.len() as u64) as usize];
        let p = [8usize, 64, 64, 256][rng.below(4) as usize];
        log.push(optimize_line(id, pipeline, p));
    }
    let run_log = |workers: usize| -> Vec<String> {
        let fresh = Service::new(DEFAULT_CACHE_CAPACITY);
        par_map_with(log.clone(), workers, |l| fresh.handle_line(&l).text)
    };
    let workers_invariant = run_log(1) == run_log(4);
    if !workers_invariant {
        eprintln!("FAIL: responses depend on the dispatch worker count");
    }
    println!(
        "# determinism: 1-worker and 4-worker replays {}",
        if workers_invariant {
            "byte-identical"
        } else {
            "DIFFER"
        }
    );

    // ---- Phase 2: TCP load ---------------------------------------------
    let tcp_service = Arc::new(Service::new(DEFAULT_CACHE_CAPACITY));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&tcp_service),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let server_thread = thread::spawn(move || server.run());

    // One TCP response must byte-match the in-process service (same
    // line, fresh local service so both are cold paths).
    let probe = optimize_line(7777, HOT_POOL[0], 64);
    let via_tcp = collopt_serve::submit(addr, &probe).expect("probe response");
    let local = Service::new(4).handle_line(&probe).text;
    let tcp_matches_inprocess = via_tcp == local;
    if !tcp_matches_inprocess {
        eprintln!("FAIL: TCP response differs from the in-process service");
    }

    let per_client = (reqs as usize).div_ceil(clients);
    let t_load = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let hot: Vec<String> = hot_set.iter().map(|s| s.to_string()).collect();
        handles.push(thread::spawn(move || -> Vec<u64> {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
            let mut reader = BufReader::new(stream);
            let mut rng = Rng::new(seed.wrapping_add(c as u64 * 0x9E37));
            let mut latencies = Vec::with_capacity(per_client);
            let mut response = String::new();
            for i in 0..per_client {
                let id = (c * per_client + i) as u64;
                let line = if rng.below(100) < skew {
                    optimize_line(id, &hot[rng.below(hot.len() as u64) as usize], 64)
                } else {
                    // Cache-cold: a distinct machine shape per request.
                    let p = 3 + (id as usize % 1000) * 2 + c;
                    optimize_line(id, "scan(add) ; reduce(add)", p)
                };
                let t = Instant::now();
                writeln!(writer, "{line}").expect("send");
                writer.flush().expect("flush");
                response.clear();
                reader.read_line(&mut response).expect("recv");
                latencies.push(t.elapsed().as_nanos() as u64);
                assert!(
                    response.contains("\"ok\":true"),
                    "request failed: {response}"
                );
            }
            latencies
        }));
    }
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let wall_s = t_load.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let total = latencies.len();
    let req_per_s = total as f64 / wall_s;
    let p50_us = percentile(&latencies, 0.50) as f64 / 1e3;
    let p99_us = percentile(&latencies, 0.99) as f64 / 1e3;

    let stats_line = collopt_serve::submit(addr, "{\"id\":0,\"op\":\"stats\"}").expect("stats");
    let stats = Json::parse(&stats_line).expect("stats JSON");
    let cache = stats
        .get("result")
        .and_then(|r| r.get("cache"))
        .expect("cache stats");
    let hits = cache.get("hits").and_then(|x| x.as_f64()).unwrap_or(0.0);
    let misses = cache.get("misses").and_then(|x| x.as_f64()).unwrap_or(0.0);
    let hit_rate = cache
        .get("hit_rate")
        .and_then(|x| x.as_f64())
        .unwrap_or(0.0);

    let bye = collopt_serve::submit(addr, "{\"id\":0,\"op\":\"shutdown\"}").expect("shutdown");
    assert!(bye.contains("bye"), "unexpected shutdown reply: {bye}");
    server_thread
        .join()
        .expect("server thread")
        .expect("server run");

    println!(
        "# load: {total} reqs in {wall_s:.2}s = {req_per_s:.0} req/s, \
         p50 {p50_us:.0}us p99 {p99_us:.0}us, hit rate {:.1}%",
        hit_rate * 100.0
    );

    // ---- Artifact -------------------------------------------------------
    std::fs::create_dir_all("results").expect("mkdir results");
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"generated_by\": \"gen_serve\",\n  \
         \"config\": {{\"reqs\": {reqs}, \"clients\": {clients}, \"hot_set\": {hot_n}, \
         \"skew_percent\": {skew}, \"seed\": {seed}}},\n  \
         \"hot_set\": [\n{}\n  ],\n  \
         \"min_speedup\": {min_speedup:.1},\n  \"speedup_floor\": 10.0,\n  \
         \"identity\": {{\"cold_hot_identical\": {identical}, \
         \"workers_invariant\": {workers_invariant}, \
         \"tcp_matches_inprocess\": {tcp_matches_inprocess}}},\n  \
         \"load\": {{\"requests\": {total}, \"wall_s\": {wall_s:.3}, \
         \"req_per_s\": {req_per_s:.1}, \"p50_us\": {p50_us:.1}, \"p99_us\": {p99_us:.1}, \
         \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \
         \"hit_rate\": {hit_rate:.4}}}}}\n}}\n",
        hot_rows.join(",\n")
    );
    std::fs::write("results/BENCH_serve.json", json).expect("write results/BENCH_serve.json");
    println!("# wrote results/BENCH_serve.json");

    // ---- Gates ----------------------------------------------------------
    let mut failed = !identical || !workers_invariant || !tcp_matches_inprocess;
    if min_speedup < 10.0 {
        eprintln!("FAIL: min cache-hit speedup {min_speedup:.1}x below the 10x floor");
        failed = true;
    }
    // The hot-set mix must actually hit: with skew% hot requests the
    // rate should comfortably clear half the skew.
    let expected = skew as f64 / 100.0 * 0.5;
    if hit_rate < expected {
        eprintln!(
            "FAIL: cache hit rate {:.1}% below sanity floor {:.1}%",
            hit_rate * 100.0,
            expected * 100.0
        );
        failed = true;
    }
    if let Some(floor) = env_floor("COLLOPT_SERVE_FLOOR") {
        if req_per_s < floor {
            eprintln!("FAIL: {req_per_s:.0} req/s below floor {floor:.0} req/s");
            failed = true;
        } else {
            println!("# throughput floor {floor:.0} req/s satisfied ({req_per_s:.0} req/s)");
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("# all serve gates passed (min speedup {min_speedup:.1}x)");
}
