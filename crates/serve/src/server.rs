//! The JSON-lines-over-TCP server and the matching one-shot client.
//!
//! ## Architecture
//!
//! ```text
//! accept loop ──► reader thread per connection ──► job queue (VecDeque + Condvar)
//!                 (tags each line with a per-           │ one job at a time
//!                  connection sequence number)          ▼
//!                                          ServerConfig::workers long-lived
//!                                          worker threads: handle_line, then
//!                                          hand the reply to its connection's
//!                                          reorder buffer, which writes
//!                                          replies in sequence order
//! ```
//!
//! Each worker takes the oldest queued job, runs
//! [`Service::handle_line`] on it and goes back for the next: a fast
//! request never waits for a slow one on another connection. An idle
//! worker sleeps on the queue's `Condvar`; every enqueued job wakes one.
//! Because `handle_line` is a pure function of the line, the worker
//! count and the interleaving can only change *latency*, never bytes.
//!
//! Requests on one connection may finish out of order, so the reader
//! numbers them and the connection's writer holds early replies back
//! until every earlier one has been written: each connection sees its
//! responses in the order it sent requests.
//!
//! Each `handle_line` call runs under `catch_unwind`: a request that
//! panics is answered `internal_error` with its id, and the worker goes
//! on serving every connection.
//!
//! Workers live as long as the server, so the machine crate's
//! thread-local per-`p` engine cache persists across requests: repeated
//! machine shapes reuse their rank pool and mesh instead of rebuilding
//! them.
//!
//! ## Graceful shutdown
//!
//! A `shutdown` op answers `{"bye":true}`, then: the stop flag is set,
//! every registered connection's read half is closed (readers see EOF
//! and hang up), and a self-connection wakes the blocking accept loop.
//! Workers exit only once every reader and the accept loop have let go
//! of the queue *and* it is empty, so every request enqueued before the
//! shutdown is processed and answered — nothing in flight is dropped.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use collopt_bench::sweep_driver::default_workers;
use collopt_machine::Json;

use crate::request::{error_response, parse_request, ErrorCode, RequestError};
use crate::service::{Reply, Service};

/// Tunables for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving requests (at least one); defaults to
    /// `SWEEP_WORKERS` or the CPU count (see [`default_workers`]).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: default_workers(),
        }
    }
}

/// One queued request: the line, its place in its connection's request
/// order, and where the reply goes.
struct Job {
    line: String,
    seq: u64,
    conn: Arc<Mutex<ReplyWriter>>,
}

/// A connection's write half plus its reorder buffer: replies that
/// finished before an earlier request on the same connection wait here.
struct ReplyWriter {
    out: BufWriter<TcpStream>,
    /// Sequence number of the next reply to write.
    next: u64,
    early: BTreeMap<u64, String>,
}

impl ReplyWriter {
    fn new(stream: TcpStream) -> ReplyWriter {
        ReplyWriter {
            out: BufWriter::new(stream),
            next: 0,
            early: BTreeMap::new(),
        }
    }

    /// Accept reply `seq`, then write every reply that is now in order.
    fn deliver(&mut self, seq: u64, text: String) {
        self.early.insert(seq, text);
        while let Some(text) = self.early.remove(&self.next) {
            // A hung-up client is its own problem; keep serving others.
            let _ = writeln!(self.out, "{text}");
            self.next += 1;
        }
        let _ = self.out.flush();
    }
}

/// The FIFO job queue shared by the readers (producers) and the workers.
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Live [`Producer`] handles; at zero no job can arrive any more.
    producers: usize,
}

impl JobQueue {
    fn new() -> Arc<JobQueue> {
        Arc::new(JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                producers: 0,
            }),
            ready: Condvar::new(),
        })
    }

    /// Block for the oldest job; `None` once the queue is empty and every
    /// producer is gone.
    fn next(&self) -> Option<Job> {
        let mut s = self.state.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = s.jobs.pop_front() {
                return Some(job);
            }
            if s.producers == 0 {
                return None;
            }
            s = self.ready.wait(s).expect("job queue poisoned");
        }
    }
}

/// A counted handle for enqueueing jobs; the last one dropped releases
/// the idle workers.
struct Producer(Arc<JobQueue>);

impl Producer {
    fn new(queue: &Arc<JobQueue>) -> Producer {
        queue.state.lock().expect("job queue poisoned").producers += 1;
        Producer(Arc::clone(queue))
    }

    fn push(&self, job: Job) {
        self.0
            .state
            .lock()
            .expect("job queue poisoned")
            .jobs
            .push_back(job);
        self.0.ready.notify_one();
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        // No lock here can be poisoned: nothing panics while holding it.
        if let Ok(mut s) = self.0.state.lock() {
            s.producers -= 1;
            if s.producers == 0 {
                self.0.ready.notify_all();
            }
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    config: ServerConfig,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<Service>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service,
            config,
        })
    }

    /// The bound address — read it before [`run`](Server::run) to know
    /// the ephemeral port.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `shutdown` request arrives; drains in-flight
    /// requests before returning.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let queue = JobQueue::new();
        let producer = Producer::new(&queue);

        // A failed spawn returns the error; the producer drop on return
        // releases the workers already started.
        let workers = (0..self.config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let service = Arc::clone(&self.service);
                let stop = Arc::clone(&stop);
                let conns = Arc::clone(&conns);
                thread::Builder::new()
                    .spawn(move || work_loop(&queue, &service, &stop, &conns, addr))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        for stream in self.listener.incoming() {
            let Ok(stream) = stream else { continue };
            let (Ok(read_half), Ok(write_half)) = (stream.try_clone(), stream.try_clone()) else {
                continue;
            };
            {
                // Checked under the lock a shutdown closes connections
                // under, so no connection registers after that sweep.
                let mut conns = conns.lock().expect("connection list poisoned");
                if stop.load(Ordering::SeqCst) {
                    break; // the shutdown wake-up connection, or a late one
                }
                conns.push(read_half);
            }
            let conn = Arc::new(Mutex::new(ReplyWriter::new(write_half)));
            let producer = Producer::new(&queue);
            thread::spawn(move || read_loop(stream, conn, producer));
        }
        drop(producer);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Per-connection reader: one job per non-empty line, numbered in
/// arrival order, until EOF.
fn read_loop(stream: TcpStream, conn: Arc<Mutex<ReplyWriter>>, producer: Producer) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut seq = 0u64;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                producer.push(Job {
                    line: trimmed.to_string(),
                    seq,
                    conn: Arc::clone(&conn),
                });
                seq += 1;
            }
        }
    }
}

/// One worker: serve jobs until the queue is drained and closed.
fn work_loop(
    queue: &JobQueue,
    service: &Service,
    stop: &AtomicBool,
    conns: &Mutex<Vec<TcpStream>>,
    addr: SocketAddr,
) {
    while let Some(job) = queue.next() {
        let reply = handle_caught(service, &job.line);
        job.conn
            .lock()
            .expect("reply writer poisoned")
            .deliver(job.seq, reply.text);
        if reply.shutdown {
            let conns = conns.lock().expect("connection list poisoned");
            if !stop.swap(true, Ordering::SeqCst) {
                // Close every read half so readers hang up and release
                // their producers, then poke the accept loop awake.
                for conn in conns.iter() {
                    let _ = conn.shutdown(Shutdown::Read);
                }
                drop(conns);
                let _ = TcpStream::connect(addr);
            }
        }
    }
}

/// [`Service::handle_line`], with a panic turned into an
/// `internal_error` reply that echoes the request's id. The service holds
/// no lock while it computes, so it stays usable after the unwind.
fn handle_caught(service: &Service, line: &str) -> Reply {
    catch_unwind(AssertUnwindSafe(|| service.handle_line(line))).unwrap_or_else(|payload| {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        let err = RequestError {
            id: parse_request(line).map_or(Json::Null, |r| r.id),
            code: ErrorCode::InternalError,
            message: format!("request handler panicked: {detail}"),
        };
        Reply {
            text: error_response(&err),
            shutdown: false,
        }
    })
}

/// One-shot client: connect, send one request line, read one response
/// line. The transport behind `collopt submit`.
pub fn submit(addr: impl ToSocketAddrs, line: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    writeln!(writer, "{}", line.trim())?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    Ok(response.trim_end().to_string())
}
