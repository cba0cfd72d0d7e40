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
//!   `_sum` and `_count`) plus its true `_max_ns` gauge; and
//!   journal/ledger totals. The registry keeps lifetime totals only:
//!   trailing-window quantiles, rates and burn-rate alerts are the
//!   scraper's job, e.g.
//!   `histogram_quantile(0.99, rate(socialrec_serve_shard0_query_ns_bucket[1m]))`.
//! * `/health` — `{"status":"ok"}` while the endpoint answers.
//! * `/ledger` — the privacy ledger: per-release records, cumulative
//!   ε (with a bit-exact `_bits` field), and the remaining budget when
//!   one was declared.
//! * `/events` — the journal tail as JSON lines.
//!
//! Requests are served one at a time from a single thread — this is an
//! operator scrape port, not a data path — and reads from the shared
//! metrics never block recorders.

use crate::journal::{Journal, CAPACITY};
use crate::ledger::PrivacyLedger;
use crate::metrics::MetricsRegistry;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the endpoint exposes (globals — the journal and the privacy
/// ledger — are picked up automatically).
#[derive(Clone)]
pub struct IntrospectConfig {
    /// The daemon's metrics registry.
    pub registry: Arc<MetricsRegistry>,
    /// Total ε budget, if the daemon has one; enables the
    /// `epsilon_remaining` field of `/ledger`.
    pub epsilon_budget: Option<f64>,
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
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // A GET request fits in one segment in practice; read what is
    // available up to 4 KiB and parse the request line.
    let mut buf = [0u8; 4096];
    let mut filled = 0;
    let path = loop {
        let n = stream.read(&mut buf[filled..])?;
        filled += n;
        let head = String::from_utf8_lossy(&buf[..filled]);
        if let Some(line) = head.split("\r\n").next() {
            if head.contains("\r\n\r\n") || n == 0 || filled == buf.len() {
                let mut parts = line.split_whitespace();
                let method = parts.next().unwrap_or("");
                let path = parts.next().unwrap_or("/").to_string();
                if method != "GET" {
                    return respond(&mut stream, 405, "text/plain", "method not allowed\n");
                }
                break path;
            }
        }
        if n == 0 {
            return Ok(());
        }
    };
    let path = path.split('?').next().unwrap_or("/");
    match path {
        "/metrics" => {
            respond(&mut stream, 200, "text/plain; version=0.0.4", &render_prometheus(cfg))
        }
        "/health" => respond(&mut stream, 200, "application/json", "{\"status\":\"ok\"}\n"),
        "/ledger" => respond(&mut stream, 200, "application/json", &render_ledger_json(cfg)),
        "/events" => respond(
            &mut stream,
            200,
            "application/x-ndjson",
            &Journal::global().snapshot(CAPACITY).to_jsonl(),
        ),
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
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

    let ledger = PrivacyLedger::global().snapshot();
    push_metric(
        &mut out,
        "socialrec_ledger_releases",
        "counter",
        &[(String::new(), ledger.records.len().to_string())],
    );
    push_metric(
        &mut out,
        "socialrec_ledger_cumulative_epsilon",
        "gauge",
        &[(String::new(), format!("{:?}", ledger.cumulative_epsilon))],
    );
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the `/ledger` body. `cumulative_epsilon_bits` (and the
/// per-release `epsilon_bits`) are IEEE-754 bit patterns so a client
/// can compare ε values bit-for-bit without parsing floats. (Named
/// `_json` to avoid clashing with the text [`crate::render_ledger`].)
pub fn render_ledger_json(cfg: &IntrospectConfig) -> String {
    let snap = PrivacyLedger::global().snapshot();
    let releases: Vec<String> = snap
        .records
        .iter()
        .map(|r| {
            format!(
                "{{\"epsilon\":{:?},\"epsilon_bits\":{},\"clusters\":{},\"items\":{},\"noise\":\"{}\",\"accounted_releases\":{},\"generation\":{}}}",
                r.epsilon,
                r.epsilon.to_bits(),
                r.clusters,
                r.items,
                json_escape(r.noise),
                r.accounted_releases,
                r.generation.map(|g| g.to_string()).unwrap_or_else(|| "null".into())
            )
        })
        .collect();
    let (budget, remaining) = match cfg.epsilon_budget {
        Some(b) => (format!("{b:?}"), format!("{:?}", (b - snap.cumulative_epsilon).max(0.0))),
        None => ("null".into(), "null".into()),
    };
    format!(
        "{{\"cumulative_epsilon\":{:?},\"cumulative_epsilon_bits\":{},\"epsilon_budget\":{},\"epsilon_remaining\":{},\"releases\":[{}]}}\n",
        snap.cumulative_epsilon,
        snap.cumulative_epsilon.to_bits(),
        budget,
        remaining,
        releases.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn test_cfg() -> IntrospectConfig {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("serve.shard0.queries").add(5);
        registry.gauge("serve.shard0.generation").set(2);
        registry.histogram("serve.shard0.query_ns").record(Duration::from_micros(10));
        IntrospectConfig { registry, epsilon_budget: Some(2.0) }
    }

    #[test]
    fn prometheus_rendering_has_types_and_sane_names() {
        let _g = crate::span::test_lock();
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
        assert!(text.contains("socialrec_ledger_cumulative_epsilon"));
        // The '.'-separated registry names were sanitized.
        assert!(!text.contains("serve.shard0"));
    }

    #[test]
    fn ledger_renders_json() {
        let _g = crate::span::test_lock();
        let ledger = render_ledger_json(&test_cfg());
        assert!(ledger.contains("\"cumulative_epsilon_bits\":"));
        assert!(ledger.contains("\"epsilon_budget\":2.0"));
    }

    #[test]
    fn server_answers_all_endpoints() {
        let _g = crate::span::test_lock();
        let server = IntrospectionServer::start(0, test_cfg()).expect("bind localhost");
        let addr = server.addr();
        assert!(addr.ip().is_loopback(), "must bind 127.0.0.1 only");
        for (path, expect) in [
            ("/metrics", "# TYPE socialrec_"),
            ("/health", "{\"status\":\"ok\"}"),
            ("/ledger", "\"cumulative_epsilon\""),
        ] {
            let (status, body) = http_get(addr, path).expect("scrape");
            assert_eq!(status, 200, "{path}");
            assert!(body.contains(expect), "{path} body: {body}");
        }
        let (status, _) = http_get(addr, "/events").expect("events");
        assert_eq!(status, 200);
        for gone in ["/nope", "/metrics.json"] {
            let (status, _) = http_get(addr, gone).expect("404 path");
            assert_eq!(status, 404, "{gone}");
        }
        let t = Instant::now();
        server.shutdown();
        assert!(t.elapsed() < Duration::from_secs(2), "shutdown joins promptly");
    }
}
