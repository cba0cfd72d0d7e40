//! A std-only TCP introspection endpoint for the serving daemon.
//!
//! [`IntrospectionServer`] binds `127.0.0.1` only (operator-local; no
//! authentication, so it must never listen on a routable interface)
//! and speaks hand-rolled HTTP/1.0 — no new dependencies, in the
//! spirit of the workspace's other hand-rolled formats (Chrome traces,
//! the JSON serializer). Endpoints:
//!
//! * `/metrics` — Prometheus text exposition: every registry counter
//!   and gauge; every registry histogram as a Prometheus histogram
//!   (cumulative `_bucket{le="…"}` series in nanoseconds, then `+Inf`,
//!   `_sum` and `_count`) plus its true `_max_ns` gauge; the journal
//!   totals; and the accountant's release count and spent ε. The
//!   registry keeps lifetime totals only:
//!   trailing-window quantiles, rates and burn-rate alerts are the
//!   scraper's job, e.g.
//!   `histogram_quantile(0.99, rate(socialrec_serve_shard0_query_ns_bucket[1m]))`.
//! * `/health` — `{"status":"ok"}` while the endpoint answers.
//! * `/ledger` — the live accountant that approved the daemon's
//!   releases: its spent ε (with a bit-exact `_bits` field) and its
//!   release count. There is no other record of ε.
//! * `/events` — the journal tail as JSON lines.
//!
//! Requests are served one at a time from a single thread — this is an
//! operator scrape port, not a data path — and reads from the shared
//! metrics never block recorders. A client gets half a second from
//! accept to send its request head (a loopback GET head arrives in one
//! segment), so a slow or stalled client holds the endpoint (and its
//! shutdown), and delays each scrape queued behind it, for at most that
//! long before it is answered `408`. Every answer other than `200` is
//! journalled as a `request_rejected` event carrying its status.

use crate::journal::{self, EventKind, Journal, CAPACITY};
use crate::metrics::MetricsRegistry;
use socialrec_dp::PrivacyAccountant;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a client has, from accept, to send its whole request head.
const HEAD_DEADLINE: Duration = Duration::from_millis(500);

/// What the endpoint exposes (the process-global journal is picked up
/// automatically).
#[derive(Clone)]
pub struct IntrospectConfig {
    /// The daemon's metrics registry.
    pub registry: Arc<MetricsRegistry>,
    /// The accountant that approves the daemon's releases
    /// (`DynamicRecommender::accountant_handle`), read live on every
    /// scrape by `/ledger` and the `/metrics` ε series.
    pub accountant: Arc<Mutex<PrivacyAccountant>>,
}

impl IntrospectConfig {
    /// A copy of the accountant's current state.
    fn read_accountant(&self) -> PrivacyAccountant {
        self.accountant.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

/// A running introspection endpoint; dropping it stops the thread.
pub struct IntrospectionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl IntrospectionServer {
    /// Bind `127.0.0.1:port` (`port` 0 picks an ephemeral port) and
    /// start serving.
    pub fn start(port: u16, cfg: IntrospectConfig) -> io::Result<IntrospectionServer> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_in = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("socialrec-introspect".into())
            .spawn(move || accept_loop(listener, cfg, stop_in))
            .expect("spawn introspection thread");
        Ok(IntrospectionServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (report this when an ephemeral port was
    /// requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for IntrospectionServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, cfg: IntrospectConfig, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Scrape errors (client hangup, timeout) only affect
                // that scrape; the endpoint keeps serving.
                let _ = handle_connection(stream, &cfg);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, cfg: &IntrospectConfig) -> io::Result<()> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(HEAD_DEADLINE))?;
    let answered = match read_request_line(&mut stream, deadline) {
        Ok(line) => answer(&mut stream, &line, cfg),
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            respond(&mut stream, 408, "text/plain", "request head not received in time\n")
        }
        Err(e) => Err(e),
    };
    // A socket closed with unread input sends a reset, which the client
    // reads as an error where the response should end, or as a failed
    // send while it is still sending; half-closing, then reading what
    // the client still sends until it closes or the deadline passes,
    // ends the response cleanly.
    if stream.shutdown(Shutdown::Write).is_ok() {
        let mut sink = [0u8; 4096];
        while read_by(&mut stream, &mut sink, deadline).is_ok_and(|n| n > 0) {}
    }
    answered
}

/// One read that waits at most until `deadline`.
fn read_by(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> io::Result<usize> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(io::ErrorKind::TimedOut.into());
    }
    stream.set_read_timeout(Some(left))?;
    stream.read(buf)
}

/// Read the request head until its blank line, a half-close or 4 KiB —
/// a GET request fits in one segment in practice — and return its first
/// line. Every read waits at most until `deadline`.
fn read_request_line(stream: &mut TcpStream, deadline: Instant) -> io::Result<String> {
    let mut buf = [0u8; 4096];
    let mut filled = 0;
    loop {
        let n = read_by(stream, &mut buf[filled..], deadline)?;
        filled += n;
        let head = String::from_utf8_lossy(&buf[..filled]);
        if head.contains("\r\n\r\n") || n == 0 || filled == buf.len() {
            return Ok(head.split("\r\n").next().unwrap_or("").to_string());
        }
    }
}

fn answer(stream: &mut TcpStream, request_line: &str, cfg: &IntrospectConfig) -> io::Result<()> {
    let mut parts = request_line.split_whitespace();
    if parts.next() != Some("GET") {
        return respond(stream, 405, "text/plain", "method not allowed\n");
    }
    let path = parts.next().unwrap_or("/");
    let path = path.split('?').next().unwrap_or("/");
    match path {
        "/metrics" => respond(stream, 200, "text/plain; version=0.0.4", &render_prometheus(cfg)),
        "/health" => respond(stream, 200, "application/json", "{\"status\":\"ok\"}\n"),
        "/ledger" => {
            respond(stream, 200, "application/json", &accountant_json(&cfg.read_accountant()))
        }
        "/events" => respond(
            stream,
            200,
            "application/x-ndjson",
            &Journal::global().snapshot(CAPACITY).to_jsonl(),
        ),
        _ => respond(stream, 404, "text/plain", "not found\n"),
    }
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    if status != 200 {
        journal::emit(EventKind::RequestRejected, u64::from(status), 0);
    }
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Minimal HTTP/1.0 GET client for the endpoint (used by `serve-bench`
/// to probe itself mid-run and by CI smoke checks). Returns the status
/// code and the body.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing header terminator"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

/// Sanitize one metric name for the Prometheus exposition charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), prefixing the workspace namespace.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    out.push_str("socialrec_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// One metric family: its `# TYPE` line, then one sample per
/// `(suffix, value)`, where `suffix` (label set, or `_bucket{…}`,
/// `_sum` and `_count` in a histogram) follows `name` verbatim.
fn push_metric(out: &mut String, name: &str, mtype: &str, samples: &[(String, String)]) {
    out.push_str(&format!("# TYPE {name} {mtype}\n"));
    for (suffix, value) in samples {
        out.push_str(name);
        out.push_str(suffix);
        out.push(' ');
        out.push_str(value);
        out.push('\n');
    }
}

/// Render the full Prometheus text exposition for one scrape.
pub fn render_prometheus(cfg: &IntrospectConfig) -> String {
    let snap = cfg.registry.snapshot();
    let mut out = String::new();
    for (name, v) in &snap.counters {
        push_metric(&mut out, &prom_name(name), "counter", &[(String::new(), v.to_string())]);
    }
    for (name, v) in &snap.gauges {
        push_metric(&mut out, &prom_name(name), "gauge", &[(String::new(), v.to_string())]);
    }
    for (name, h) in cfg.registry.histogram_handles() {
        let base = prom_name(&name);
        let (buckets, count) = h.cumulative_buckets();
        let mut samples: Vec<(String, String)> = buckets
            .into_iter()
            .map(|(le, c)| (format!("_bucket{{le=\"{le}\"}}"), c.to_string()))
            .collect();
        samples.push(("_bucket{le=\"+Inf\"}".to_string(), count.to_string()));
        samples.push(("_sum".to_string(), h.total_nanos().to_string()));
        samples.push(("_count".to_string(), count.to_string()));
        push_metric(&mut out, &base, "histogram", &samples);
        push_metric(
            &mut out,
            &format!("{base}_max_ns"),
            "gauge",
            &[(String::new(), h.max().as_nanos().to_string())],
        );
    }

    let journal = Journal::global();
    push_metric(
        &mut out,
        "socialrec_journal_emitted",
        "counter",
        &[(String::new(), journal.emitted().to_string())],
    );
    push_metric(
        &mut out,
        "socialrec_journal_dropped",
        "counter",
        &[(String::new(), journal.dropped().to_string())],
    );

    let accountant = cfg.read_accountant();
    push_metric(
        &mut out,
        "socialrec_ledger_releases",
        "counter",
        &[(String::new(), accountant.releases().to_string())],
    );
    push_metric(
        &mut out,
        "socialrec_ledger_cumulative_epsilon",
        "gauge",
        &[(String::new(), prom_float(accountant.total_epsilon()))],
    );
    out
}

/// A float sample as Prometheus spells it: an infinity is `+Inf` or
/// `-Inf`, where Rust would print `inf` or `-inf`.
fn prom_float(v: f64) -> String {
    if v.is_infinite() {
        let sign = if v > 0.0 { '+' } else { '-' };
        format!("{sign}Inf")
    } else {
        format!("{v:?}")
    }
}

/// Render the `/ledger` body from an accountant's state.
/// `cumulative_epsilon_bits` is the IEEE-754 bit pattern of the spent
/// ε, so a client can compare it bit for bit without parsing floats.
/// JSON has no infinity: an unbounded spend (ε = ∞) renders
/// `cumulative_epsilon` as `null`, as `ToJson` renders any non-finite
/// float, and only the bits field carries it.
pub fn accountant_json(a: &PrivacyAccountant) -> String {
    let spent = a.total_epsilon();
    let shown = if spent.is_finite() { format!("{spent:?}") } else { "null".to_string() };
    format!(
        "{{\"cumulative_epsilon\":{shown},\"cumulative_epsilon_bits\":{},\"releases\":{}}}\n",
        spent.to_bits(),
        a.releases()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_dp::Epsilon;
    use std::time::Instant;

    fn test_cfg() -> IntrospectConfig {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("serve.shard0.queries").add(5);
        registry.gauge("serve.shard0.generation").set(2);
        registry.histogram("serve.shard0.query_ns").record(Duration::from_micros(10));
        let mut accountant = PrivacyAccountant::new();
        accountant.spend_sequential(Epsilon::Finite(0.25));
        accountant.spend_sequential(Epsilon::Finite(0.5));
        IntrospectConfig { registry, accountant: Arc::new(Mutex::new(accountant)) }
    }

    #[test]
    fn prometheus_rendering_has_types_and_sane_names() {
        let text = render_prometheus(&test_cfg());
        assert!(text.contains("# TYPE socialrec_serve_shard0_queries counter"));
        assert!(text.contains("socialrec_serve_shard0_queries 5"));
        assert!(text.contains("# TYPE socialrec_serve_shard0_generation gauge"));
        // The histogram is one family: cumulative buckets, +Inf, sum, count.
        assert!(text.contains("# TYPE socialrec_serve_shard0_query_ns histogram"));
        assert!(text.contains("socialrec_serve_shard0_query_ns_bucket{le=\"8191\"} 0"));
        assert!(text.contains("socialrec_serve_shard0_query_ns_bucket{le=\"10239\"} 1"));
        assert!(text.contains("socialrec_serve_shard0_query_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("socialrec_serve_shard0_query_ns_sum 10000"));
        assert!(text.contains("socialrec_serve_shard0_query_ns_count 1"));
        assert!(text.contains("socialrec_serve_shard0_query_ns_max_ns 10000"));
        assert!(!text.contains("_p99_ns"), "quantile gauges gave way to buckets");
        // The ε series read the accountant.
        assert!(text.contains("socialrec_ledger_releases 2\n"));
        assert!(text.contains("socialrec_ledger_cumulative_epsilon 0.75\n"));
        // The '.'-separated registry names were sanitized.
        assert!(!text.contains("serve.shard0"));
        // An infinite spend is Prometheus's `+Inf`, not Rust's `inf`.
        let cfg = test_cfg();
        cfg.accountant.lock().unwrap().spend_sequential(Epsilon::Infinite);
        let text = render_prometheus(&cfg);
        assert!(text.contains("socialrec_ledger_cumulative_epsilon +Inf\n"), "{text}");
        assert_eq!(prom_float(f64::NEG_INFINITY), "-Inf");
    }

    #[test]
    fn ledger_renders_the_accountant() {
        let mut accountant = test_cfg().read_accountant();
        let body = accountant_json(&accountant);
        let bits = 0.75f64.to_bits();
        assert_eq!(
            body,
            format!(
                "{{\"cumulative_epsilon\":0.75,\"cumulative_epsilon_bits\":{bits},\"releases\":2}}\n"
            )
        );
        // An infinite spend stays JSON: ε reads as null, the bits stay
        // exact.
        accountant.spend_sequential(Epsilon::Infinite);
        let ledger = crate::json::parse(&accountant_json(&accountant)).unwrap();
        assert_eq!(ledger.get("cumulative_epsilon"), Some(&crate::json::Value::Null));
        let bits = ledger.get("cumulative_epsilon_bits").unwrap().as_u64();
        assert_eq!(bits, Some(f64::INFINITY.to_bits()));
        assert_eq!(ledger.get("releases").unwrap().as_u64(), Some(3));
    }

    /// Start an endpoint for one test, holding the obs test lock: every
    /// test here that starts one holds it, so while one test has the
    /// journal armed no other test's rejections reach the journal.
    fn start() -> (std::sync::MutexGuard<'static, ()>, IntrospectionServer) {
        let serial = crate::span::test_lock();
        (serial, IntrospectionServer::start(0, test_cfg()).expect("bind localhost"))
    }

    /// Run `f` with the journal armed and return the statuses of the
    /// `request_rejected` events emitted meanwhile, sorted. The endpoint
    /// journals an answer before writing it, so every answer a client
    /// has read is in.
    fn rejections_during(f: impl FnOnce()) -> Vec<u64> {
        let journal = Journal::global();
        journal::arm_live();
        let first = journal.emitted();
        f();
        journal::disarm_live();
        let mut statuses: Vec<u64> = (journal.snapshot(CAPACITY).events.iter())
            .filter(|e| e.seq >= first && e.kind == EventKind::RequestRejected)
            .map(|e| e.a)
            .collect();
        statuses.sort_unstable();
        statuses
    }

    #[test]
    fn server_answers_all_endpoints() {
        let cfg = test_cfg();
        let accountant = Arc::clone(&cfg.accountant);
        let _serial = crate::span::test_lock();
        let server = IntrospectionServer::start(0, cfg).expect("bind localhost");
        let addr = server.addr();
        assert!(addr.ip().is_loopback(), "must bind 127.0.0.1 only");
        // Each 404 is journalled once; no 200 is.
        let rejected = rejections_during(|| {
            for (path, expect) in [
                ("/metrics", "# TYPE socialrec_"),
                ("/health", "{\"status\":\"ok\"}"),
                ("/ledger", "\"releases\":2}"),
            ] {
                let (status, body) = http_get(addr, path).expect("scrape");
                assert_eq!(status, 200, "{path}");
                assert!(body.contains(expect), "{path} body: {body}");
            }
            // `/ledger` reads the accountant live, not a copy taken at start.
            accountant.lock().unwrap().spend_sequential(Epsilon::Finite(0.25));
            let (_, body) = http_get(addr, "/ledger").expect("scrape");
            assert!(body.contains("\"cumulative_epsilon\":1.0,"), "{body}");
            assert!(body.contains("\"releases\":3}"), "{body}");
            let (status, _) = http_get(addr, "/events").expect("events");
            assert_eq!(status, 200);
            for gone in ["/nope", "/metrics.json"] {
                let (status, _) = http_get(addr, gone).expect("404 path");
                assert_eq!(status, 404, "{gone}");
            }
        });
        assert_eq!(rejected, [404, 404]);
        let t = Instant::now();
        server.shutdown();
        assert!(t.elapsed() < Duration::from_secs(2), "shutdown joins promptly");
    }

    /// Deadline slack for a loaded test machine.
    const SLACK: Duration = Duration::from_secs(1);

    /// Connect (on the calling thread, so the endpoint takes this
    /// connection before any made after the call), then send a request
    /// head that never ends, one byte every 100 ms, until the endpoint
    /// answers or closes, or 10 s pass. Returns the time from connect
    /// and the reply, empty if the endpoint closed without one.
    fn trickle(addr: SocketAddr) -> std::thread::JoinHandle<(Duration, String)> {
        let t = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        std::thread::spawn(move || {
            let mut reply = Vec::new();
            while t.elapsed() < Duration::from_secs(10) && stream.write_all(b"G").is_ok() {
                match stream.read_to_end(&mut reply) {
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                    // The end of the reply, or a reset: either way closed.
                    _ => break,
                }
            }
            (t.elapsed(), String::from_utf8_lossy(&reply).into_owned())
        })
    }

    /// Join a trickler and require it answered `408` (or closed) within
    /// the head deadline.
    fn timed_out(trickler: std::thread::JoinHandle<(Duration, String)>) {
        let (took, reply) = trickler.join().unwrap();
        assert!(took < HEAD_DEADLINE + SLACK, "the trickler was held {took:?}");
        assert!(reply.is_empty() || reply.starts_with("HTTP/1.0 408 "), "{reply}");
    }

    /// A scrape queued behind a trickler waits at most the head
    /// deadline, and the trickler's `408` is journalled once.
    #[test]
    fn a_trickling_client_cannot_hold_the_endpoint() {
        let (_serial, server) = start();
        let rejected = rejections_during(|| {
            let trickler = trickle(server.addr());
            let t = Instant::now();
            let (status, _) = http_get(server.addr(), "/health").expect("scrape during a trickle");
            assert_eq!(status, 200);
            assert!(t.elapsed() < HEAD_DEADLINE + SLACK, "/health took {:?}", t.elapsed());
            timed_out(trickler);
        });
        assert_eq!(rejected, [408]);
    }

    #[test]
    fn shutdown_with_a_trickler_connected_returns_within_the_deadline() {
        let (_serial, server) = start();
        let trickler = trickle(server.addr());
        // Let the accept loop (which polls every 5 ms) take the
        // connection; if it has not, shutdown is quick anyway and the
        // test checks less, never wrongly.
        std::thread::sleep(Duration::from_millis(200));
        let t = Instant::now();
        server.shutdown();
        assert!(t.elapsed() < HEAD_DEADLINE + SLACK, "shutdown took {:?}", t.elapsed());
        timed_out(trickler);
    }

    /// The status of a well-formed `HTTP/1.0 <code>` response whose body
    /// is as long as its `Content-Length` says.
    fn status_of(reply: &[u8]) -> Option<u16> {
        let text = std::str::from_utf8(reply).ok()?;
        let (head, body) = text.split_once("\r\n\r\n")?;
        let status = head.strip_prefix("HTTP/1.0 ")?.get(..3)?.parse().ok()?;
        let length = head.lines().find_map(|l| l.strip_prefix("Content-Length: "))?;
        (length.parse() == Ok(body.len())).then_some(status)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Whatever a client sends before it half-closes — nothing, over
        /// 4 KiB, non-UTF-8 bytes, no CRLF at all, a valid GET followed
        /// by junk, or a POST head whose body follows in two parts after
        /// the endpoint has answered — every send succeeds, the
        /// connection reads a well-formed response or a clean close,
        /// never a reset, and the endpoint answers the next scrape.
        #[test]
        fn any_request_gets_a_response_or_a_clean_close(
            shape in 0usize..6,
            junk in proptest::collection::vec(0u8..=255, 0..6000),
        ) {
            let (request, late): (Vec<u8>, Vec<u8>) = match shape {
                0 => (Vec::new(), Vec::new()),
                1 => ([vec![b'A'; 4097], junk].concat(), Vec::new()),
                2 => ([b"\xff\xfeGET /health".to_vec(), junk].concat(), Vec::new()),
                3 => (junk.into_iter().filter(|b| !matches!(b, b'\r' | b'\n')).collect(), Vec::new()),
                4 => ([b"GET /health HTTP/1.0\r\n\r\n".to_vec(), junk].concat(), Vec::new()),
                _ => (b"POST /health HTTP/1.0\r\n\r\n".to_vec(), [b"x".to_vec(), junk].concat()),
            };
            let (_serial, server) = start();
            let reply = {
                let mut stream = TcpStream::connect(server.addr()).expect("connect");
                stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                stream.write_all(&request).expect("send the request");
                for part in late.chunks(late.len().div_ceil(2).max(1)) {
                    std::thread::sleep(Duration::from_millis(20));
                    stream.write_all(part).expect("send the rest of the request");
                }
                stream.shutdown(Shutdown::Write).unwrap();
                let mut reply = Vec::new();
                stream.read_to_end(&mut reply).expect("a response or a clean close");
                reply
            };
            let status = status_of(&reply);
            proptest::prop_assert!(reply.is_empty() || status.is_some(), "{reply:?}");
            if shape >= 4 {
                proptest::prop_assert_eq!(status, Some(if shape == 4 { 200 } else { 405 }));
            }
            let (status, _) = http_get(server.addr(), "/health").expect("the endpoint lives");
            proptest::prop_assert_eq!(status, 200);
        }
    }
}
