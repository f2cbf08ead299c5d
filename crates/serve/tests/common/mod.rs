//! The harness every serve e2e binary shares: a minimal `TcpStream`
//! HTTP client, readers for the healthz and Prometheus bodies, and
//! helpers that boot single instances and loopback fleets.

// Each test binary compiles its own copy and uses a different subset.
#![allow(dead_code)]

use cnt_interconnect::experiments;
use cnt_serve::{fleet::HashRing, Config, FleetConfig, Server, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Splits a response head into its status and headers (names
/// lower-cased, values trimmed).
pub fn parse_head(head: &str) -> (u16, Vec<(String, String)>) {
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers)
}

/// One HTTP/1.1 exchange with extra request-header lines; returns
/// (status, headers, body).
pub fn http_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let extra_lines: String = extra.iter().map(|(n, v)| format!("{n}: {v}\r\n")).collect();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n{extra_lines}Connection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response head");
    let (status, headers) = parse_head(head);
    (status, headers, body.to_string())
}

/// One HTTP/1.1 exchange; returns (status, headers, body).
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    http_with(addr, method, path, &[], body)
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let (status, _, body) = http(addr, "GET", path, "");
    (status, body)
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = http(addr, "POST", path, body);
    (status, body)
}

/// The value of one response header (names are lower-cased).
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Reads one healthz counter out of the flat JSON body.
pub fn counter(health: &str, name: &str) -> u64 {
    let tail = health
        .split(&format!("\"{name}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("no counter {name} in {health}"));
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value")
}

/// Reads one Prometheus sample (exact line-prefix match).
pub fn sample(metrics: &str, series: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(series) && l.as_bytes().get(series.len()) == Some(&b' '))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample {series} in {metrics}"))
}

/// A validated `/v1/metrics` scrape.
pub fn scrape(addr: SocketAddr) -> String {
    let (status, metrics) = get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    cnt_obs::promcheck::validate(&metrics)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{metrics}"));
    metrics
}

/// A serving instance on its own thread.
pub struct Instance {
    pub addr: SocketAddr,
    pub handle: ShutdownHandle,
    pub thread: std::thread::JoinHandle<()>,
}

impl Instance {
    /// Kernel computations this instance performed (healthz `runs`).
    pub fn runs(&self) -> u64 {
        let (status, health) = get(self.addr, "/v1/healthz");
        assert_eq!(status, 200);
        counter(&health, "runs")
    }

    /// Shuts the instance down and waits for `serve()` to return.
    pub fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread");
    }
}

/// Serves `server` on a fresh thread.
pub fn spawn(server: Server) -> Instance {
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    Instance {
        addr,
        handle,
        thread,
    }
}

/// The small configuration every fleet member runs with.
pub fn member_config(addr: &str) -> Config {
    Config {
        addr: addr.to_string(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        ..Config::default()
    }
}

/// Binds `n` ephemeral-port instances into one fleet, with a per-index
/// hook to tune health/chaos before each instance joins. Returns the
/// instances and the peer list.
pub fn fleet_with(
    n: usize,
    tweak: impl Fn(usize, &mut FleetConfig),
) -> (Vec<Instance>, Vec<String>) {
    let servers: Vec<Server> = (0..n)
        .map(|_| Server::bind(member_config("127.0.0.1:0")).expect("bind ephemeral port"))
        .collect();
    let peers: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let instances = servers
        .into_iter()
        .enumerate()
        .map(|(index, server)| {
            let mut config = FleetConfig::new(peers.clone(), index);
            tweak(index, &mut config);
            server.enable_fleet(config).expect("join fleet");
            spawn(server)
        })
        .collect();
    (instances, peers)
}

/// [`fleet_with`] at the default fleet settings.
pub fn fleet(n: usize) -> (Vec<Instance>, Vec<String>) {
    fleet_with(n, |_, _| {})
}

/// The shard owner of an experiment's parameter point under this fleet.
pub fn owner_of(peers: &[String], id: &str, sets: &[(String, String)]) -> usize {
    let (_, ctx) = experiments::resolve_context(id, None, sets).expect("resolvable point");
    HashRing::new(peers)
        .owner_of_hash(ctx.params.content_hash())
        .expect("non-empty ring")
}

/// Extracts the `"job":"…"` id from a 202 submission body.
pub fn job_id(body: &str) -> String {
    body.split("\"job\":\"")
        .nth(1)
        .and_then(|tail| tail.split('"').next())
        .unwrap_or_else(|| panic!("no job id in {body}"))
        .to_string()
}

/// Polls `/v1/jobs/{rid}/result` on `addr` until the job lands; while
/// it is in flight the route must answer `202` with a queued or running
/// status.
pub fn await_result(addr: SocketAddr, rid: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = get(addr, &format!("/v1/jobs/{rid}/result"));
        match status {
            200 => return body,
            202 => {
                assert!(
                    body.contains("\"status\":\"queued\"")
                        || body.contains("\"status\":\"running\""),
                    "{body}"
                );
                assert!(
                    Instant::now() < deadline,
                    "job {rid} never finished: {body}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected result status {other} for {rid}: {body}"),
        }
    }
}
