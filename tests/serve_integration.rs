//! End-to-end tests of `collopt serve` over loopback TCP: concurrent
//! clients, cold-vs-hot byte identity, malformed-request error codes,
//! no head-of-line blocking across connections, in-order replies on one
//! connection whatever the worker count, and graceful shutdown that
//! drains in-flight requests.
//!
//! Servers built with `ServerConfig::default()` take their worker count
//! from `SWEEP_WORKERS` (else the CPU count), so rerunning this file
//! under `SWEEP_WORKERS=1` and `SWEEP_WORKERS=4` covers both a single
//! worker and more workers than cores.

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use collopt::machine::Json;
use collopt::serve::{submit, Server, ServerConfig, Service};

/// Spawn a server on an ephemeral port; returns its address and the
/// run-thread handle (joined after a shutdown op).
fn spawn_server() -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    spawn_server_with(ServerConfig::default())
}

fn spawn_server_with(config: ServerConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let service = Arc::new(Service::new(64));
    let server = Server::bind("127.0.0.1:0", service, config).expect("bind");
    let addr = server.local_addr().expect("addr");
    (addr, thread::spawn(move || server.run()))
}

/// A cache-cold simulation at p = 4096 on the DES engine: ~150 ms in a
/// release build on a 2-core x86-64 host, far longer in a debug build.
fn slow_line(id: u64) -> String {
    format!(
        "{{\"id\":{id},\"pipeline\":\"scan(add) ; reduce(add)\",\"p\":4096,\"m\":8,\
         \"options\":{{\"simulate\":true,\"lint\":false}}}}"
    )
}

/// A line-oriented client with a read timeout so a server bug fails the
/// test instead of hanging it.
struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        Client {
            writer: BufWriter::new(stream.try_clone().expect("clone")),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "server closed the connection early");
        line.trim_end().to_string()
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let bye = submit(addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert!(bye.contains("\"bye\":true"), "unexpected: {bye}");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn cold_and_hot_responses_are_byte_identical_over_tcp() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr);
    let line = r#"{"id":1,"pipeline":"map f ; scan(mul) ; reduce(add) ; map g ; bcast"}"#;
    let cold = client.round_trip(line);
    let hot = client.round_trip(line);
    let hot2 = client.round_trip(line);
    assert_eq!(cold, hot);
    assert_eq!(cold, hot2);
    assert!(cold.starts_with("{\"id\":1,\"ok\":true,"));
    // A second connection sees the same bytes for the same request.
    let other = submit(addr, line).expect("second connection");
    assert_eq!(cold, other);
    shutdown(addr, handle);
}

#[test]
fn concurrent_clients_each_get_ordered_correct_responses() {
    let (addr, handle) = spawn_server();
    let mut workers = Vec::new();
    for c in 0..8u64 {
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(addr);
            for i in 0..12u64 {
                let id = c * 100 + i;
                let pipeline = if i % 2 == 0 {
                    "scan(add) ; reduce(add)"
                } else {
                    "scan(mul) ; reduce(add)"
                };
                let line = format!("{{\"id\":{id},\"pipeline\":\"{pipeline}\"}}");
                let response = client.round_trip(&line);
                // Responses come back in request order: the id matches.
                assert!(
                    response.starts_with(&format!("{{\"id\":{id},\"ok\":true,")),
                    "bad response for id {id}: {response}"
                );
            }
        }));
    }
    for w in workers {
        w.join().expect("client");
    }
    shutdown(addr, handle);
}

#[test]
fn malformed_requests_get_typed_error_codes() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr);

    let cases = [
        ("this is not json", "bad_json"),
        ("[1,2,3]", "bad_json"),
        (r#"{"id":1,"op":"dance"}"#, "bad_request"),
        (r#"{"id":2,"op":"optimize"}"#, "bad_request"),
        (r#"{"id":3,"pipeline":"scan(add)","p":0}"#, "bad_request"),
        (
            r#"{"id":4,"pipeline":"scan(add)","options":{"lint":"yes"}}"#,
            "bad_request",
        ),
        (
            r#"{"id":5,"pipeline":"scan(wat) ; reduce(add)"}"#,
            "parse_error",
        ),
        (
            r#"{"id":6,"pipeline":"scan(add) ;; reduce(add)"}"#,
            "parse_error",
        ),
    ];
    for (line, want_code) in cases {
        let response = client.round_trip(line);
        let doc = Json::parse(&response).expect("error responses are valid JSON");
        assert_eq!(
            doc.get("ok"),
            Some(&Json::Bool(false)),
            "expected failure for {line}: {response}"
        );
        let code = doc
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str());
        assert_eq!(code, Some(want_code), "wrong code for {line}: {response}");
    }
    // The connection survives every error and still serves good requests.
    let response = client.round_trip(r#"{"id":7,"pipeline":"scan(add) ; reduce(add)"}"#);
    assert!(response.starts_with("{\"id\":7,\"ok\":true,"));
    shutdown(addr, handle);
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr);
    // Queue a burst of work and the shutdown behind it on one
    // connection: FIFO enqueue order guarantees every request is
    // in flight when the shutdown is processed.
    let n = 20;
    for id in 0..n {
        client.send(&format!(
            "{{\"id\":{id},\"pipeline\":\"bcast ; scan(add) ; scan(add) ; reduce(max)\",\"p\":{}}}",
            8 << (id % 5) // vary the machine so several are cache-cold
        ));
    }
    client.send(r#"{"id":99,"op":"shutdown"}"#);
    for id in 0..n {
        let response = client.recv();
        assert!(
            response.starts_with(&format!("{{\"id\":{id},\"ok\":true,")),
            "in-flight request {id} was dropped or reordered: {response}"
        );
    }
    let bye = client.recv();
    assert!(bye.contains("\"bye\":true"), "unexpected: {bye}");
    handle.join().expect("server thread").expect("server run");
    // The listener is gone: a fresh request cannot be served.
    assert!(submit(addr, r#"{"op":"ping"}"#).is_err());
}

#[test]
fn control_ops_report_cache_and_liveness() {
    let (addr, handle) = spawn_server();
    let pong = submit(addr, r#"{"id":1,"op":"ping"}"#).expect("ping");
    assert_eq!(pong, r#"{"id":1,"ok":true,"result":{"pong":true}}"#);

    let line = r#"{"pipeline":"scan(add) ; reduce(add)"}"#;
    submit(addr, line).expect("cold");
    submit(addr, line).expect("hot");
    let stats = submit(addr, r#"{"op":"stats"}"#).expect("stats");
    let doc = Json::parse(&stats).expect("stats JSON");
    let cache = doc
        .get("result")
        .and_then(|r| r.get("cache"))
        .expect("cache");
    assert_eq!(cache.get("hits").and_then(|x| x.as_f64()), Some(1.0));
    assert_eq!(cache.get("misses").and_then(|x| x.as_f64()), Some(1.0));
    shutdown(addr, handle);
}

#[test]
fn a_panicking_request_gets_internal_error_and_the_server_keeps_serving() {
    // Well-formed but ill-typed under simulation: `reduce(max)` receives
    // the gathered list of blocks and panics inside the evaluator.
    let panicking =
        r#"{"pipeline":"gather ; reduce(max)","p":2,"m":8,"options":{"simulate":true}}"#;
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr);

    let reply = client.round_trip(panicking);
    let doc = Json::parse(&reply).expect("error reply is JSON");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{reply}");
    assert_eq!(doc.get("id"), Some(&Json::Null), "{reply}");
    let code = doc.get("error").and_then(|e| e.get("code"));
    assert_eq!(code.and_then(|c| c.as_str()), Some("internal_error"));

    // The reply echoes the request's id.
    let with_id = panicking.replacen('{', r#"{"id":"boom","#, 1);
    let reply = client.round_trip(&with_id);
    assert!(
        reply.starts_with(r#"{"id":"boom","ok":false,"error":{"code":"internal_error""#),
        "{reply}"
    );

    // Liveness: the same connection and a new one are both answered.
    let pong = client.round_trip(r#"{"id":1,"op":"ping"}"#);
    assert_eq!(pong, r#"{"id":1,"ok":true,"result":{"pong":true}}"#);
    let pong = submit(addr, r#"{"id":2,"op":"ping"}"#).expect("ping on a new connection");
    assert_eq!(pong, r#"{"id":2,"ok":true,"result":{"pong":true}}"#);

    // A later simulation on the same server is unaffected.
    let good =
        r#"{"id":3,"pipeline":"scan(add) ; reduce(add)","p":2,"m":8,"options":{"simulate":true}}"#;
    assert_eq!(
        client.round_trip(good),
        Service::new(4).handle_line(good).text
    );
    shutdown(addr, handle);
}

#[test]
fn a_slow_request_does_not_block_other_connections() {
    let (addr, handle) = spawn_server_with(ServerConfig { workers: 2 });
    let mut slow = Client::connect(addr);
    slow.send(&slow_line(1));
    // The other worker answers a second connection while the
    // simulation runs.
    let mut fast = Client::connect(addr);
    let pong = fast.round_trip(r#"{"id":2,"op":"ping"}"#);
    assert_eq!(pong, r#"{"id":2,"ok":true,"result":{"pong":true}}"#);
    slow.reader
        .get_ref()
        .set_nonblocking(true)
        .expect("nonblocking");
    let mut byte = [0u8; 1];
    let pending = slow.reader.get_mut().read(&mut byte);
    assert!(
        matches!(&pending, Err(e) if e.kind() == ErrorKind::WouldBlock),
        "the slow reply should still be pending after the ping: {pending:?}"
    );
    slow.reader
        .get_ref()
        .set_nonblocking(false)
        .expect("blocking");
    assert!(slow.recv().starts_with("{\"id\":1,\"ok\":true,"));
    shutdown(addr, handle);
}

#[test]
fn pipelined_replies_on_one_connection_keep_request_order() {
    let (addr, handle) = spawn_server_with(ServerConfig { workers: 4 });
    let mut client = Client::connect(addr);
    // A slow request first: the fast ones behind it finish earlier on
    // other workers, and their replies must wait for it.
    client.send(&slow_line(0));
    for id in 1..8u64 {
        client.send(&format!(
            "{{\"id\":{id},\"pipeline\":\"scan(add) ; reduce(add)\",\"p\":{}}}",
            4 + id
        ));
    }
    client.send(r#"{"id":8,"op":"ping"}"#);
    for id in 0..=8u64 {
        let reply = client.recv();
        assert!(
            reply.starts_with(&format!("{{\"id\":{id},\"ok\":true,")),
            "reply {id} out of order: {reply}"
        );
    }
    shutdown(addr, handle);
}

#[test]
fn reply_streams_do_not_depend_on_the_worker_count() {
    let mut log = vec![slow_line(0)];
    for id in 1..24u64 {
        log.push(match id % 6 {
            0 => format!("{{\"id\":{id},\"op\":\"ping\"}}"),
            1 => format!("{{\"id\":{id},\"pipeline\":\"scan(wat)\"}}"),
            2 => format!(
                "{{\"id\":{id},\"pipeline\":\"bcast ; scan(add) ; reduce(max)\",\"p\":{},\
                 \"options\":{{\"simulate\":true}}}}",
                3 + id
            ),
            3 => format!("{{\"id\":{id},\"pipeline\":\"scan(mul) ; reduce(add)\",\"p\":64}}"),
            4 => format!(
                "{{\"id\":{id},\"pipeline\":\"map f ; scan(mul) ; reduce(add) ; map g ; bcast\",\
                 \"p\":{},\"m\":{}}}",
                8 * id,
                id
            ),
            _ => "not json".to_string(),
        });
    }
    let replies = |workers: usize| -> Vec<String> {
        let (addr, handle) = spawn_server_with(ServerConfig { workers });
        let mut client = Client::connect(addr);
        for line in &log {
            client.send(line);
        }
        let replies = log.iter().map(|_| client.recv()).collect();
        shutdown(addr, handle);
        replies
    };
    let one = replies(1);
    let four = replies(4);
    assert_eq!(one.len(), log.len());
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        assert_eq!(a, b, "reply {i} differs between 1 and 4 workers");
    }
}
