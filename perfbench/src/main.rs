//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_optimize|hot_serve|simulate_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds the release `collopt` binary,
//! starts `collopt serve` on a loopback ephemeral port and drives it
//! closed-loop from two connections with the workload's seeded request
//! stream.
//!
//! * `--trace 0` prints the end-to-end metrics: set-up time, throughput,
//!   latency median and p99, and server CPU per request. It also prints
//!   the error rate and the server's peak RSS, which are not gated.
//! * `--trace 1` runs a short TCP phase, then replays the same stream
//!   in-process and prints the per-layer metrics (see `trace.rs`).
//!
//! Both modes check outputs and print, as the last line of standard
//! output, one JSON object: `{"correct", "attempted", "failed",
//! "metrics": {name: {"value", "unit"}}}`. A failed set-up exits
//! non-zero without printing it.
//!
//! `--confirm-simulate-subset` re-derives the `simulate_mix` pipeline
//! list: it runs every corpus pipeline at every `(p, m)` point of that
//! workload in-process and reports which reply `ok` everywhere.
//!
//! See `perfbench/README.md` for the workloads and what each metric
//! should move.

mod check;
mod server;
mod stats;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use collopt_serve::Service;

use server::{closed_loop, Conn, LoadResult, ServerProc};
use stats::{beyond, median, percentile};
use workload::{
    corpus, hot_line, hot_set, in_sample, optimize_line, request_line, simulate_subset, Workload,
    SIM_M, SIM_P,
};

/// Closed-loop connections: one per core of the 2-core reference host.
const CLIENTS: usize = 2;
/// Server start-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Shares of `--seconds` the traced run spends on its TCP phase and on
/// the in-process replay.
const TRACE_TCP_SHARE: f64 = 0.3;
const TRACE_REPLAY_SHARE: f64 = 0.7;

type Metric = (&'static str, f64, &'static str);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--confirm-simulate-subset" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() {
    let code = match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run() -> Result<(), String> {
    let Some(args) = parse_args()? else {
        return confirm_simulate_subset();
    };
    let binary = build_server()?;
    if args.trace {
        per_layer(&args, &binary)
    } else {
        end_to_end(&args, &binary)
    }
}

/// Build the release `collopt` binary from the repository root and
/// return its path.
fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "--bin",
            "collopt",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building collopt failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    Ok(target.join("release").join("collopt"))
}

/// Start a server; for `hot_serve`, also warm its hot set.
fn start(workload: Workload, binary: &std::path::Path) -> Result<ServerProc, String> {
    let server = ServerProc::spawn(binary)?;
    if workload == Workload::HotServe {
        let mut conn = Conn::open(server.addr)?;
        for (k, (pipe, p)) in hot_set().into_iter().enumerate() {
            let reply = conn.call(&hot_line(k as u64, pipe, p))?;
            if !reply.contains("\"ok\":true") {
                return Err(format!("warm-up of {pipe} at p={p} failed: {reply}"));
            }
        }
    }
    Ok(server)
}

fn load(args: &Args, server: &ServerProc, seconds: f64) -> LoadResult {
    let (workload, seed) = (args.workload, args.seed);
    closed_loop(
        server.addr,
        CLIENTS,
        seconds,
        &|i| request_line(workload, seed, i),
        &|i| in_sample(seed, i),
    )
}

fn end_to_end(args: &Args, binary: &std::path::Path) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let t = Instant::now();
        server = Some(start(args.workload, binary)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("SETUPS > 0");

    let before = server.cache_counters()?;
    let cpu_before = server.cpu_seconds()?;
    let load = load(args, &server, args.seconds);
    let cpu_s = server.cpu_seconds()? - cpu_before;
    let after = server.cache_counters();
    // Unreadable once the server has died; the failures already show it.
    let rss_mb = server.memory_mb("VmHWM").unwrap_or(f64::NAN);
    drop(server);

    for e in &load.errors {
        eprintln!("perfbench: failed {e}");
    }
    let mut correct = true;
    let attempted = load.attempted;
    match after {
        Ok(after) => {
            let (hits, misses) = (after.0 - before.0, after.1 - before.1);
            let evictions = after.2 - before.2;
            let (name, count, other) = if args.workload.expects_misses() {
                ("miss", misses, hits)
            } else {
                ("hit", hits, misses)
            };
            let ok = count == attempted && other == 0;
            correct &= ok;
            println!(
                "cache: {name} ratio = {count}/{attempted} = {:.4} (hits {hits}, misses {misses}, \
                 evictions {evictions}) {}",
                count as f64 / attempted.max(1) as f64,
                if ok { "ok" } else { "MISMATCH" }
            );
        }
        Err(e) => {
            correct = false;
            println!("cache: stats unavailable after the timed phase: {e}");
        }
    }
    let (checked, failures) = check::check_sample(args.workload, args.seed, &load.sampled);
    correct &= failures.is_empty();
    for f in &failures {
        println!("check FAILED: {f}");
    }
    println!(
        "check: {checked} sampled replies byte-equal to handle_line and evaluator-equivalent: {}",
        if failures.is_empty() { "ok" } else { "FAILED" }
    );

    let n = load.latencies.len();
    if beyond(n, 0.99) < 10 {
        println!(
            "warning: only {} samples beyond p99 (n={n})",
            beyond(n, 0.99)
        );
    }
    let metrics: Vec<Metric> = vec![
        ("setup_s", median(&setup_s), "s"),
        ("req_per_s", n as f64 / load.wall_s, "1/s"),
        ("latency_p50_ms", median(&load.latencies) * 1e3, "ms"),
        (
            "latency_p99_ms",
            percentile(&load.latencies, 0.99) * 1e3,
            "ms",
        ),
        (
            "server_cpu_ms_per_req",
            cpu_s * 1e3 / attempted.max(1) as f64,
            "ms",
        ),
    ];
    for (name, value, unit) in &metrics {
        println!("{name} = {value:.6} {unit}");
    }
    println!("server_rss_mb = {rss_mb:.6} MiB (peak VmHWM; printed, not gated)");
    println!(
        "error_rate = {}/{attempted} = {:.6}",
        load.failed,
        load.failed as f64 / attempted.max(1) as f64
    );
    print_header(
        args,
        &format!(
            "\"setups\":{SETUPS},\"timed_requests\":{attempted},\"latency_samples\":{n},\
             \"beyond_p99\":{},\"checked_replies\":{checked}",
            beyond(n, 0.99)
        ),
    );
    print_result(correct, attempted, load.failed, &metrics);
    Ok(())
}

fn per_layer(args: &Args, binary: &std::path::Path) -> Result<(), String> {
    let server = start(args.workload, binary)?;
    let tcp = load(args, &server, args.seconds * TRACE_TCP_SHARE);
    let rss_mb = server.memory_mb("VmHWM").unwrap_or(f64::NAN);
    drop(server);
    let tcp_p50 = median(&tcp.latencies);

    let layers = trace::replay(args.workload, args.seed, args.seconds * TRACE_REPLAY_SHARE);
    let metrics = trace::layer_metrics(&layers, tcp_p50, rss_mb);
    for (name, value, unit) in &metrics {
        println!("{name} = {value:.6} {unit}");
    }
    let correct = layers.mismatches.is_empty();
    println!(
        "check: {} sampled traced replies byte-equal to handle_line: {}",
        layers.sampled,
        if correct { "ok" } else { "FAILED" }
    );
    print_header(
        args,
        &format!(
            "\"tcp_requests\":{},\"tcp_latency_samples\":{},\"replayed_lines\":{},\
             \"untraced_s\":{},\"traced_s\":{}",
            tcp.attempted,
            tcp.latencies.len(),
            layers.lines,
            layers.handle_line.iter().sum::<f64>(),
            layers.traced_s
        ),
    );
    print_result(
        correct,
        tcp.attempted + layers.lines,
        tcp.failed + layers.failed,
        &metrics,
    );
    Ok(())
}

/// The run header: code revision, host, build and workload settings,
/// and the run's sample counts.
fn print_header(args: &Args, samples: &str) {
    // Only a checkout's own `.git`: git would otherwise search the
    // parent directories and could report an unrelated repository.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "header: {{\"git_rev\":\"{rev}\",\"nproc\":{nproc},\"build_profile\":\"{profile}\",\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"clients\":{CLIENTS},\
         \"config\":\"{}\",\"samples\":{{{samples}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        args.workload.config(),
    );
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
}

/// Run every corpus pipeline at every `simulate_mix` point in-process and
/// report which reply `ok` everywhere; fail if a pipeline of
/// [`simulate_subset`] does not.
fn confirm_simulate_subset() -> Result<(), String> {
    std::panic::set_hook(Box::new(|_| {}));
    let mut all_ok = Vec::new();
    for pipe in corpus() {
        let (mut ok, mut total) = (0, 0);
        for &p in &SIM_P {
            for m in SIM_M.0..=SIM_M.1 {
                let line = optimize_line(0, pipe, p, 200.0, m, false, true);
                total += 1;
                let replied = catch_unwind(AssertUnwindSafe(|| {
                    Service::new(1)
                        .handle_line(&line)
                        .text
                        .contains("\"ok\":true")
                }));
                ok += usize::from(replied.unwrap_or(false));
            }
        }
        println!("{ok:>4}/{total} ok  {pipe}");
        if ok == total {
            all_ok.push(pipe);
        }
    }
    let _ = std::panic::take_hook();
    let missing: Vec<_> = simulate_subset()
        .into_iter()
        .filter(|p| !all_ok.contains(p))
        .collect();
    if missing.is_empty() {
        println!("every simulate_mix pipeline replies ok at every point");
        Ok(())
    } else {
        Err(format!("not ok at every point: {missing:?}"))
    }
}
