//! The `collopt serve` child process and the TCP load generator.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Longest wait for one reply before it counts as failed. Far above any
/// healthy reply (tens of ms), so only a hung server trips it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Linux reports process CPU time in `USER_HZ` ticks, 100 per second on
/// every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// A running `collopt serve` child, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// Forwards the server's stderr (panic messages) to ours.
    stderr: Option<thread::JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn `binary serve` on an ephemeral loopback port and wait for
    /// its first `ping` to be answered.
    pub fn spawn(binary: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut banner = String::new();
        let read = stderr.read_line(&mut banner);
        let addr = read
            .ok()
            .and_then(|_| banner.split("listening on ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let forward = thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                eprintln!("[collopt serve] {line}");
            }
        });
        let mut server = ServerProc {
            child,
            stderr: Some(forward),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        server.addr = addr.ok_or_else(|| format!("no listening address in {banner:?}"))?;
        let mut conn = Conn::open(server.addr)?;
        let pong = conn.call("{\"id\":0,\"op\":\"ping\"}")?;
        if !pong.contains("\"pong\":true") {
            return Err(format!("unexpected ping reply {pong}"));
        }
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU seconds the server has used so far, from
    /// `/proc/<pid>/stat` (fields 14 and 15, all threads).
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name start at field 3.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (tick(11), tick(12)) {
            (Some(u), Some(s)) => Ok((u + s) / USER_HZ),
            _ => Err(format!("malformed {path}")),
        }
    }

    /// A memory field of `/proc/<pid>/status` in MiB, e.g. `VmHWM` (peak
    /// resident set size).
    pub fn memory_mb(&self, field: &str) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no {field} in {path}"))
    }

    /// The server's cache counters `(hits, misses, evictions)`.
    pub fn cache_counters(&self) -> Result<(u64, u64, u64), String> {
        let reply = Conn::open(self.addr)?.call("{\"id\":0,\"op\":\"stats\"}")?;
        let doc = collopt_machine::Json::parse(&reply).map_err(|e| format!("stats: {e}"))?;
        let cache = doc.get("result").and_then(|r| r.get("cache"));
        let count = |k: &str| {
            cache
                .and_then(|c| c.get(k))
                .and_then(|x| x.as_f64())
                .map(|x| x as u64)
                .ok_or_else(|| format!("stats reply without cache.{k}: {reply}"))
        };
        Ok((count("hits")?, count("misses")?, count("evictions")?))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(forward) = self.stderr.take() {
            let _ = forward.join();
        }
    }
}

/// One client connection with a per-reply timeout.
pub struct Conn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        let writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
            reply: String::new(),
        })
    }

    /// Send one line and read one reply line. A timeout, a closed
    /// connection or a write error is an `Err`.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.writer, "{line}")
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("write: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(self.reply.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// What a closed-loop load phase observed.
pub struct LoadResult {
    /// Latencies of `ok` replies, in seconds.
    pub latencies: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Non-`ok` or malformed replies, timeouts and dropped connections.
    pub failed: u64,
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Reply lines of the sampled request indices.
    pub sampled: HashMap<u64, String>,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

/// Drive `addr` closed-loop from `clients` connections for `seconds`:
/// each connection sends request `next()` as soon as its previous reply
/// arrives. `line(i)` renders request `i`; `sample(i)` marks replies to
/// keep for the output check.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    seconds: f64,
    line: &(dyn Fn(u64) -> String + Sync),
    sample: &(dyn Fn(u64) -> bool + Sync),
) -> LoadResult {
    let next = AtomicU64::new(0);
    let sampled = Mutex::new(HashMap::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<f64>, u64, u64, Vec<String>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut lat = Vec::new();
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    let mut errors = Vec::new();
                    let mut conn: Option<Conn> = None;
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let text = line(i);
                        attempted += 1;
                        let t = Instant::now();
                        let reply = match conn.as_mut() {
                            Some(c) => c.call(&text),
                            None => Conn::open(addr).and_then(|mut c| {
                                let r = c.call(&text);
                                conn = Some(c);
                                r
                            }),
                        };
                        let dt = t.elapsed().as_secs_f64();
                        match reply {
                            Ok(r) if r.starts_with(&format!("{{\"id\":{i},\"ok\":true,")) => {
                                lat.push(dt);
                                if sample(i) {
                                    sampled.lock().expect("sample map").insert(i, r);
                                }
                            }
                            other => {
                                failed += 1;
                                // A connection in an unknown state is
                                // replaced before the next request.
                                conn = None;
                                if errors.len() < 3 {
                                    errors.push(format!("request {i}: {other:?}"));
                                }
                            }
                        }
                    }
                    (lat, attempted, failed, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut out = LoadResult {
        latencies: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s,
        sampled: sampled.into_inner().expect("sample map"),
        errors: Vec::new(),
    };
    for (lat, attempted, failed, errors) in per_client {
        out.latencies.extend(lat);
        out.attempted += attempted;
        out.failed += failed;
        out.errors.extend(errors);
    }
    out
}
