//! The `serve` workload: two `cnt-serve` instances in proxy fleet mode,
//! each a child process with its own data dir, driven by one generator
//! (this process) over at most nproc keep-alive connections.
//!
//! The generator sends an open-loop, seeded Poisson schedule: about half
//! the run requests are first-time points (misses) of the cheap ids and
//! half repeat recently answered points (LRU hits or peer cache-fills);
//! 1 % of arrivals submit a `fig05` sweep job with a fresh seed, which is
//! polled on the same connection until its result is fetched. Run
//! requests go to either instance: two thirds to the instance that does
//! not own the point, so the fleet proxies two thirds of the misses (not
//! one half: a proxied miss is far slower than a local one, and with
//! equal shares the miss median would fall between the two modes).
//! Latency is timed from each request's due time.
//!
//! A run first holds the base rate, then steps along a fixed rate ladder
//! to find the highest rate whose miss p99 stays within [`LIMIT_MS`] with
//! no failures and no backlog left at the end of a step.

use crate::http::{self, Conn};
use crate::stats::{median, percentile};
use crate::{Args, Outcome};
use cnt_interconnect::experiments;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// First argument that turns the binary into one fleet member.
pub const INSTANCE_FLAG: &str = "--instance";

/// Fleet size.
const INSTANCES: usize = 2;

/// Pool workers per instance. Every kept-alive connection (the
/// generator's and each peer's pooled one) pins a worker, and a sweep
/// job holds one while it coordinates, so the pool must exceed them.
const WORKERS: usize = 8;

/// Offered rate of the base window, requests per second.
const BASE_RPS: f64 = 40.0;

/// Miss p99 a ladder step must stay within, ms.
const LIMIT_MS: f64 = 500.0;

/// The capacity ladder: `LADDER_BASE × LADDER_STEP^k`, `k = 0..=LADDER_TOP`
/// (20 to ~1,600 requests/s).
const LADDER_BASE: f64 = 20.0;
const LADDER_STEP: f64 = 1.05;
const LADDER_TOP: i32 = 90;

/// Seconds each ladder step offers its rate.
const STEP_S: f64 = 2.0;

/// Trials of each submitted `fig05` sweep job.
const JOB_TRIALS: usize = 2_000;

/// Arrivals per sweep-job submission: one card of this deck is a job.
const JOB_DECK: [bool; 100] = {
    let mut deck = [false; 100];
    deck[0] = true;
    deck
};

/// Share of run requests sampled for the correctness check.
const CHECK_SHARE: f64 = 0.05;

/// The miss percentile reported as `tail_ms`: the highest the base window
/// of a 30 s run (about 290 misses) supports with ten samples beyond it.
const TAIL: f64 = 0.9;

/// Recently answered points a hit may repeat (well inside the LRU).
const RECENT: usize = 64;

/// How often a connection polls an unfinished job.
const POLL_EVERY: Duration = Duration::from_millis(25);

/// The cheap ids misses draw from, with the domain knobs each varies.
const MISS_IDS: [&str; 5] = ["fig12", "fig11", "fig02d", "fig03", "table1"];

// --- fleet members -------------------------------------------------------

/// Entry point of a fleet member: binds an ephemeral port, prints
/// `addr <ip:port>`, reads `fleet <peers> <index>` from stdin, joins,
/// prints `ready` and serves until stdin closes (the generator is gone).
pub fn instance_main(argv: &[String]) -> ExitCode {
    match instance(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench instance: {message}");
            ExitCode::FAILURE
        }
    }
}

fn instance(argv: &[String]) -> Result<(), String> {
    let data_dir = argv.first().ok_or("missing data dir")?;
    let server = cnt_serve::Server::bind(cnt_serve::Config {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        jobs_capacity: 4096,
        data_dir: Some(PathBuf::from(data_dir)),
        ..cnt_serve::Config::default()
    })
    .map_err(|e| e.to_string())?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "addr {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let mut line = String::new();
    std::io::stdin()
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    let mut words = line.split_whitespace();
    let (Some("fleet"), Some(peers), Some(index)) = (words.next(), words.next(), words.next())
    else {
        return Err(format!("expected 'fleet <peers> <index>', got {line:?}"));
    };
    let peers: Vec<String> = peers.split(',').map(str::to_string).collect();
    let index: usize = index.parse().map_err(|_| "bad fleet index")?;
    server
        .enable_fleet(cnt_serve::FleetConfig::new(peers, index))
        .map_err(|e| e.to_string())?;
    writeln!(out, "ready").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let handle = server.handle();
    let watcher = thread::spawn(move || {
        let mut sink = String::new();
        while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n > 0) {}
        handle.shutdown();
    });
    server.serve().map_err(|e| e.to_string())?;
    watcher.join().map_err(|_| "stdin watcher panicked")?;
    Ok(())
}

struct Member {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Member {
    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(n) if n > 0 => Ok(line.trim().to_string()),
            _ => Err("fleet member exited early".to_string()),
        }
    }
}

/// Two running members plus the data dir they share a root under.
struct Fleet {
    members: Vec<Member>,
    addrs: Vec<SocketAddr>,
    peers: Vec<String>,
    root: PathBuf,
}

impl Fleet {
    /// Spawns the members, joins them into one fleet and waits until each
    /// answers health checks with every peer Up.
    fn start(root: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut fleet = Self {
            members: Vec::new(),
            addrs: Vec::new(),
            peers: Vec::new(),
            root: root.to_path_buf(),
        };
        for i in 0..INSTANCES {
            let dir = root.join(format!("instance{i}"));
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let mut child = Command::new(&exe)
                .arg(INSTANCE_FLAG)
                .arg(&dir)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn fleet member: {e}"))?;
            let stdin = child.stdin.take();
            let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
            // Registered before reading, so a failed start still reaps it.
            fleet.members.push(Member {
                child,
                stdin,
                stdout,
            });
            let line = fleet.members.last_mut().expect("just pushed").read_line()?;
            let addr = line
                .strip_prefix("addr ")
                .and_then(|a| a.parse::<SocketAddr>().ok())
                .ok_or_else(|| format!("fleet member said {line:?}"))?;
            fleet.addrs.push(addr);
            fleet.peers.push(addr.to_string());
        }
        let peers = fleet.peers.join(",");
        for (i, member) in fleet.members.iter_mut().enumerate() {
            let stdin = member.stdin.as_mut().expect("stdin held until shutdown");
            writeln!(stdin, "fleet {peers} {i}")
                .and_then(|()| stdin.flush())
                .map_err(|e| format!("join fleet: {e}"))?;
        }
        for member in &mut fleet.members {
            let line = member.read_line()?;
            if line != "ready" {
                return Err(format!("fleet member said {line:?}"));
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for addr in fleet.addrs.clone() {
            loop {
                let health = http::get(addr, "/v1/healthz").map_err(|e| e.to_string())?;
                let ups = health.body.matches("\"state\":\"up\"").count();
                if health.status == 200 && ups == INSTANCES {
                    break;
                }
                if Instant::now() > deadline {
                    return Err(format!("{addr} never saw every peer Up: {}", health.body));
                }
                thread::sleep(Duration::from_millis(10));
            }
        }
        Ok(fleet)
    }

    /// The rendezvous owner of a parameter point, by `cnt_fleet`'s ring.
    fn owner(&self, id: &str, sets: &[(String, String)]) -> Result<usize, String> {
        let (_, ctx) = experiments::resolve_context(id, None, sets).map_err(|e| e.to_string())?;
        cnt_fleet::HashRing::new(&self.peers)
            .owner_of_hash(ctx.params.content_hash())
            .ok_or_else(|| "empty ring".to_string())
    }

    /// Stops every member, waits for each, and returns the sum of their
    /// peak RSS, MiB. Members are killed: a graceful stop waits out the
    /// peers' parked keep-alive connections, and nothing a member holds is
    /// read afterwards.
    fn stop(mut self) -> f64 {
        self.stop_members()
    }

    fn stop_members(&mut self) -> f64 {
        let mut rss = 0.0;
        for member in &mut self.members {
            rss += crate::host::peak_rss_mb(&member.child.id().to_string()).unwrap_or(0.0);
            let _ = member.child.kill();
            let _ = member.child.wait();
        }
        self.members.clear();
        let _ = std::fs::remove_dir_all(&self.root);
        rss
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop_members();
    }
}

// --- traffic -------------------------------------------------------------

/// One run-request parameter point.
struct Point {
    id: &'static str,
    sets: Vec<(String, String)>,
    owner: usize,
    body: String,
}

impl Point {
    fn new(id: &'static str, sets: Vec<(String, String)>, fleet: &Fleet) -> Result<Self, String> {
        let params: Vec<String> = sets.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        Ok(Self {
            owner: fleet.owner(id, &sets)?,
            body: format!("{{\"params\":{{{}}}}}", params.join(",")),
            id,
            sets,
        })
    }
}

/// A first-time point: one domain knob drawn from its range plus a seed
/// no earlier point used (trials, threads and cache_dir stay default).
fn miss_point(
    id: &'static str,
    rng: &mut StdRng,
    serial: u64,
    fleet: &Fleet,
) -> Result<Point, String> {
    let (knob, value) = match id {
        "fig12" => ("length_um", format!("{:.1}", rng.gen_range(1.0..2000.0))),
        "fig11" => ("d_nm", format!("{:.2}", rng.gen_range(5.0..40.0))),
        "fig02d" => ("length_um", format!("{:.2}", rng.gen_range(0.05..100.0))),
        "fig03" => ("d_nm", format!("{:.2}", rng.gen_range(1.0..60.0))),
        _ => ("width_nm", format!("{:.1}", rng.gen_range(20.0..1000.0))),
    };
    let sets = vec![
        (knob.to_string(), value),
        ("seed".to_string(), serial.to_string()),
    ];
    Point::new(id, sets, fleet)
}

/// Draws from a deck that is refilled with a shuffled copy of `cards`
/// when empty, so every window of the schedule carries the stated mix
/// almost exactly instead of only on average.
struct Deck<T: Copy + 'static> {
    cards: &'static [T],
    left: Vec<T>,
}

impl<T: Copy + 'static> Deck<T> {
    fn new(cards: &'static [T]) -> Self {
        Self {
            cards,
            left: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut StdRng) -> T {
        if self.left.is_empty() {
            self.left = self.cards.to_vec();
            crate::catalog::shuffle(&mut self.left, rng);
        }
        self.left.pop().expect("refilled above")
    }
}

/// The run-request mix: half misses, half hits, two thirds of each sent
/// to the instance that does not own the point (`true`).
const MIX: [(Class, bool); 6] = [
    (Class::Miss, true),
    (Class::Miss, true),
    (Class::Miss, false),
    (Class::Hit, true),
    (Class::Hit, true),
    (Class::Hit, false),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Miss,
    Hit,
    Job,
}

enum Work {
    Run { point: Arc<Point>, class: Class },
    Submit { seed: u64 },
}

struct Item {
    due: Instant,
    /// Items still unsent at this instant are dropped as backlog.
    drop_after: Instant,
    phase: usize,
    check: bool,
    work: Work,
}

/// One finished request.
struct Record {
    phase: usize,
    class: Class,
    ms: f64,
    proxied: bool,
    ok: bool,
}

#[derive(Default)]
struct Sink {
    records: Vec<Record>,
    /// Sampled run bodies for the correctness check.
    bodies: Vec<(Arc<Point>, String)>,
    /// Finished sweep jobs: seed and result body.
    jobs: Vec<(u64, String)>,
    /// Items dropped unsent, per phase.
    unsent: BTreeMap<usize, usize>,
}

struct Shared {
    sink: Mutex<Sink>,
    recent: Mutex<VecDeque<Arc<Point>>>,
    pending: AtomicUsize,
    /// Wrap each request in a span on the connection threads.
    tracing: AtomicBool,
}

/// A span around one request when tracing is on: `serve.run` for a run
/// sent to its owner, `fleet.run` for one the fleet proxies, `fleet.job`
/// for sweep-job traffic.
fn request_span(shared: &Shared, name: &'static str) -> Option<cnt_obs::span::SpanGuard> {
    shared
        .tracing
        .load(Ordering::SeqCst)
        .then(|| cnt_obs::span::span(name))
}

struct Job {
    rid: String,
    seed: u64,
    due: Instant,
    phase: usize,
    next_poll: Instant,
}

/// One generator connection: takes items for its instance, and polls
/// its own outstanding jobs between them.
fn connection(
    addr: SocketAddr,
    rx: Arc<Mutex<Receiver<Item>>>,
    shared: Arc<Shared>,
    owner_self: usize,
) -> Vec<cnt_obs::SpanNode> {
    cnt_obs::Trace::begin();
    let mut conn = Conn::new(addr);
    let mut jobs: Vec<Job> = Vec::new();
    let mut open = true;
    while open || !jobs.is_empty() {
        let wait = jobs
            .iter()
            .map(|j| j.next_poll.saturating_duration_since(Instant::now()))
            .min()
            .unwrap_or(Duration::from_millis(50));
        let next = if open {
            rx.lock().expect("queue lock").recv_timeout(wait)
        } else {
            thread::sleep(wait);
            Err(RecvTimeoutError::Timeout)
        };
        match next {
            Ok(item) => serve_item(&mut conn, item, &shared, &mut jobs, owner_self),
            Err(RecvTimeoutError::Disconnected) => open = false,
            Err(RecvTimeoutError::Timeout) => {}
        }
        let now = Instant::now();
        if let Some(k) = jobs.iter().position(|j| j.next_poll <= now) {
            let job = jobs.swap_remove(k);
            poll_job(&mut conn, job, &shared, &mut jobs);
        }
    }
    cnt_obs::Trace::end()
}

fn serve_item(
    conn: &mut Conn,
    item: Item,
    shared: &Shared,
    jobs: &mut Vec<Job>,
    owner_self: usize,
) {
    if Instant::now() > item.drop_after {
        *shared
            .sink
            .lock()
            .expect("sink lock")
            .unsent
            .entry(item.phase)
            .or_default() += 1;
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    match item.work {
        Work::Run { point, class } => {
            let path = format!("/v1/experiments/{}/run", point.id);
            let proxied = point.owner != owner_self;
            let span = request_span(shared, if proxied { "fleet.run" } else { "serve.run" });
            let reply = conn.request("POST", &path, &point.body);
            drop(span);
            let ms = item.due.elapsed().as_secs_f64() * 1e3;
            let ok = matches!(&reply, Ok(r) if r.status == 200);
            let mut sink = shared.sink.lock().expect("sink lock");
            sink.records.push(Record {
                phase: item.phase,
                class,
                ms,
                proxied,
                ok,
            });
            if let (true, Ok(reply)) = (item.check, reply) {
                sink.bodies.push((Arc::clone(&point), reply.body));
            }
            drop(sink);
            if ok && class == Class::Miss {
                let mut recent = shared.recent.lock().expect("recent lock");
                if recent.len() == RECENT {
                    recent.pop_front();
                }
                recent.push_back(point);
            }
            shared.pending.fetch_sub(1, Ordering::SeqCst);
        }
        Work::Submit { seed } => {
            let body = format!("{{\"params\":{{\"trials\":{JOB_TRIALS},\"seed\":{seed}}}}}");
            let span = request_span(shared, "fleet.job");
            let reply = conn.request("POST", "/v1/sweeps/fig05", &body);
            drop(span);
            let rid = match &reply {
                Ok(r) if r.status == 202 => r
                    .body
                    .split("\"job\":\"")
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .map(str::to_string),
                _ => None,
            };
            match rid {
                Some(rid) => jobs.push(Job {
                    rid,
                    seed,
                    due: item.due,
                    phase: item.phase,
                    next_poll: Instant::now() + POLL_EVERY,
                }),
                None => finish_job(shared, &item.due, item.phase, None),
            }
        }
    }
}

fn poll_job(conn: &mut Conn, mut job: Job, shared: &Shared, jobs: &mut Vec<Job>) {
    let _span = request_span(shared, "fleet.job");
    let status = conn.request("GET", &format!("/v1/jobs/{}", job.rid), "");
    match status {
        Ok(r) if r.status == 200 && r.body.contains("\"status\":\"done\"") => {
            let result = conn.request("GET", &format!("/v1/jobs/{}/result", job.rid), "");
            let body = match result {
                Ok(r) if r.status == 200 => Some((job.seed, r.body)),
                _ => None,
            };
            finish_job(shared, &job.due, job.phase, body);
        }
        Ok(r) if r.status == 200 && !r.body.contains("\"status\":\"failed\"") => {
            job.next_poll = Instant::now() + POLL_EVERY;
            jobs.push(job);
        }
        _ => finish_job(shared, &job.due, job.phase, None),
    }
}

fn finish_job(shared: &Shared, due: &Instant, phase: usize, body: Option<(u64, String)>) {
    let mut sink = shared.sink.lock().expect("sink lock");
    sink.records.push(Record {
        phase,
        class: Class::Job,
        ms: due.elapsed().as_secs_f64() * 1e3,
        proxied: false,
        ok: body.is_some(),
    });
    if let Some(job) = body {
        sink.jobs.push(job);
    }
    drop(sink);
    shared.pending.fetch_sub(1, Ordering::SeqCst);
}

/// The open-loop generator bound to one running fleet.
struct Generator {
    fleet: Fleet,
    shared: Arc<Shared>,
    senders: Vec<Sender<Item>>,
    threads: Vec<thread::JoinHandle<Vec<cnt_obs::SpanNode>>>,
    rng: StdRng,
    mix: Deck<(Class, bool)>,
    ids: Deck<&'static str>,
    jobs: Deck<bool>,
    serial: u64,
    /// Dispatch lateness (actual send − due) per phase, ms.
    lag_ms: Vec<(usize, f64)>,
}

/// What a finished generator hands back.
struct Finished {
    attempted: u64,
    /// Error responses plus checked outputs that differ.
    failed: u64,
    /// Sum of the fleet members' peak RSS, MiB.
    fleet_rss_mb: f64,
    /// Span trees of the connection threads.
    roots: Vec<cnt_obs::SpanNode>,
}

/// Generator connections: nproc, at least one per instance.
fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .max(INSTANCES)
}

impl Generator {
    fn new(fleet: Fleet, seed: u64) -> Self {
        let shared = Arc::new(Shared {
            sink: Mutex::new(Sink::default()),
            recent: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            tracing: AtomicBool::new(false),
        });
        let mut senders = Vec::new();
        let mut threads = Vec::new();
        let per_instance = connections() / INSTANCES;
        for (index, addr) in fleet.addrs.iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            let rx = Arc::new(Mutex::new(rx));
            senders.push(tx);
            for _ in 0..per_instance {
                let (addr, rx, shared) = (*addr, Arc::clone(&rx), Arc::clone(&shared));
                threads.push(thread::spawn(move || connection(addr, rx, shared, index)));
            }
        }
        Self {
            fleet,
            shared,
            senders,
            threads,
            rng: StdRng::seed_from_u64(seed),
            mix: Deck::new(&MIX),
            ids: Deck::new(&MISS_IDS),
            jobs: Deck::new(&JOB_DECK),
            serial: seed.wrapping_mul(1_000_003) % 1_000_000_000,
            lag_ms: Vec::new(),
        }
    }

    fn set_tracing(&self, on: bool) {
        self.shared.tracing.store(on, Ordering::SeqCst);
    }

    fn lag_ms(&self, phase: usize) -> Vec<f64> {
        self.lag_ms
            .iter()
            .filter(|(p, _)| *p == phase)
            .map(|(_, ms)| *ms)
            .collect()
    }

    /// Offers `rate` requests/s for `seconds` as phase `phase`, then waits
    /// until every request of the phase is answered or dropped.
    fn phase(&mut self, phase: usize, rate: f64, seconds: f64) -> Result<(), String> {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let drop_after = end + Duration::from_millis(500);
        let mut at = 0.0;
        loop {
            // Exponential inter-arrival gap.
            at += -(1.0 - self.rng.gen::<f64>()).ln() / rate;
            if at >= seconds {
                break;
            }
            let due = start + Duration::from_secs_f64(at);
            let check = self.rng.gen_bool(CHECK_SHARE);
            let (work, target) = if self.jobs.draw(&mut self.rng) {
                self.serial += 1;
                let target = self.rng.gen_range(0..INSTANCES);
                (Work::Submit { seed: self.serial }, target)
            } else {
                let (mut class, proxied) = self.mix.draw(&mut self.rng);
                let repeat = match class {
                    Class::Hit => {
                        let recent = self.shared.recent.lock().expect("recent lock");
                        (!recent.is_empty())
                            .then(|| Arc::clone(&recent[self.rng.gen_range(0..recent.len())]))
                    }
                    _ => None,
                };
                let point = match repeat {
                    Some(point) => point,
                    None => {
                        class = Class::Miss;
                        self.serial += 1;
                        let id = self.ids.draw(&mut self.rng);
                        Arc::new(miss_point(id, &mut self.rng, self.serial, &self.fleet)?)
                    }
                };
                // Two instances: the owner, or the one that proxies to it.
                let target = (point.owner + usize::from(proxied)) % INSTANCES;
                (Work::Run { point, class }, target)
            };
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let lag = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
            self.lag_ms.push((phase, lag));
            self.shared.pending.fetch_add(1, Ordering::SeqCst);
            self.senders[target]
                .send(Item {
                    due,
                    drop_after,
                    phase,
                    check,
                    work,
                })
                .map_err(|_| "generator connection died")?;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.shared.pending.load(Ordering::SeqCst) > 0 {
            if Instant::now() > deadline {
                return Err("requests still unanswered 30 s after the phase".to_string());
            }
            thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }

    /// Records of one phase.
    fn records(&self, phase: usize, class: Class) -> Vec<(f64, bool, bool)> {
        self.shared
            .sink
            .lock()
            .expect("sink lock")
            .records
            .iter()
            .filter(|r| r.phase == phase && r.class == class)
            .map(|r| (r.ms, r.ok, r.proxied))
            .collect()
    }

    fn unsent(&self, phase: usize) -> usize {
        let sink = self.shared.sink.lock().expect("sink lock");
        sink.unsent.get(&phase).copied().unwrap_or(0)
    }

    /// Stops the connections and the fleet, then checks the sampled run
    /// bodies against in-process runs at the same points and every job
    /// result against `run_sweep`.
    fn finish(self) -> Result<Finished, String> {
        drop(self.senders);
        let mut roots = Vec::new();
        for t in self.threads {
            for root in t.join().map_err(|_| "generator connection panicked")? {
                cnt_obs::merge_nodes(&mut roots, root);
            }
        }
        let fleet_rss_mb = self.fleet.stop();
        let sink = Arc::try_unwrap(self.shared)
            .map_err(|_| "generator state still shared")?
            .sink
            .into_inner()
            .expect("sink lock");
        let attempted = sink.records.len() as u64;
        let mut failed = sink.records.iter().filter(|r| !r.ok).count() as u64;
        for (point, body) in &sink.bodies {
            let want = experiments::run_to_json(point.id, None, &point.sets)
                .map(|json| json + "\n")
                .map_err(|e| e.to_string())?;
            if *body != want {
                failed += 1;
            }
        }
        let mut want_jobs: BTreeMap<u64, String> = BTreeMap::new();
        for (seed, body) in &sink.jobs {
            if !want_jobs.contains_key(seed) {
                let json = crate::sweep::sweep_json("fig05", JOB_TRIALS, *seed, 0)?;
                want_jobs.insert(*seed, json + "\n");
            }
            if want_jobs[seed] != *body {
                failed += 1;
            }
        }
        Ok(Finished {
            attempted,
            failed,
            fleet_rss_mb,
            roots,
        })
    }
}

/// Where a run keeps its fleet data dirs (inside the checkout).
fn fleet_root(tag: &str) -> PathBuf {
    crate::out_dir().join(format!("fleet-{}-{tag}", std::process::id()))
}

/// Starts a fleet and warms it: one default-point run of each cheap id
/// on each member, and one small sweep job.
fn set_up(tag: &str) -> Result<Fleet, String> {
    let fleet = Fleet::start(&fleet_root(tag))?;
    for addr in &fleet.addrs {
        let mut conn = Conn::new(*addr);
        for id in MISS_IDS {
            let reply = conn
                .request("POST", &format!("/v1/experiments/{id}/run"), "")
                .map_err(|e| e.to_string())?;
            if reply.status != 200 {
                return Err(format!("warm-up {id}: status {}", reply.status));
            }
        }
    }
    Ok(fleet)
}

/// Starts the fleet [`crate::catalog::SETUPS`] times (stopping all but the
/// last); returns the last fleet and the median set-up time.
fn set_up_median() -> Result<(Fleet, f64), String> {
    let mut times = Vec::new();
    let mut fleet = None;
    for k in 0..crate::catalog::SETUPS {
        let started = Instant::now();
        let next = set_up(&k.to_string())?;
        times.push(started.elapsed().as_secs_f64());
        if let Some(previous) = fleet.replace(next) {
            Fleet::stop(previous);
        }
    }
    Ok((
        fleet.expect("at least one setup"),
        median(&times).unwrap_or(0.0),
    ))
}

fn ms(records: &[(f64, bool, bool)]) -> Vec<f64> {
    records.iter().map(|r| r.0).collect()
}

/// One ladder step's outcome: its miss p99 and whether it ran clean
/// (no failed request, nothing left unsent at its end).
fn step_outcome(generator: &Generator, phase: usize) -> (f64, bool) {
    let misses = ms(&generator.records(phase, Class::Miss));
    let all_ok = [Class::Miss, Class::Hit, Class::Job]
        .iter()
        .all(|c| generator.records(phase, *c).iter().all(|r| r.1));
    let p99 = percentile(&misses, 0.99).unwrap_or(f64::INFINITY);
    (p99, all_ok && generator.unsent(phase) == 0)
}

/// Finds the capacity step of the ladder. The search starts at
/// `start_k`, strides (doubling) while every step passes or every step
/// fails, then bisects between the highest pass and the lowest fail and
/// re-measures that pair with the steps left.
///
/// A 2 s step holds too few misses for its p99 alone to decide, so the
/// answer comes from all steps together: the capacity is the rate where a
/// least-squares fit of ln(p99) against rate reaches [`LIMIT_MS`], capped
/// at the highest clean step measured and at the lowest step that ran
/// unclean. It is not snapped to a step, so it moves smoothly with the
/// system instead of flipping between neighbouring steps.
fn ladder(generator: &mut Generator, seconds: f64, start_k: i32) -> Result<f64, String> {
    let rate = |k: i32| LADDER_BASE * LADDER_STEP.powi(k);
    let started = Instant::now();
    let mut k = start_k.clamp(0, LADDER_TOP);
    let mut best: Option<i32> = None;
    let mut worst: Option<i32> = None;
    let mut stride = 2;
    let mut points = Vec::new();
    let mut unclean = LADDER_TOP + 1;
    // A step also waits for its stragglers and sweep jobs, so steps start
    // only while a whole one still fits in the budget (at least three).
    let mut phase = 100;
    while phase < 103 || started.elapsed().as_secs_f64() + STEP_S <= seconds {
        phase += 1;
        generator.phase(phase, rate(k), STEP_S)?;
        let (p99, clean) = step_outcome(generator, phase);
        eprintln!(
            "serve: ladder step {:.1} requests/s: miss p99 {p99:.1} ms{}",
            rate(k),
            if clean { "" } else { ", unclean" }
        );
        // An unclean step dropped its late requests, so its p99 is cut
        // short: it bounds the capacity but stays out of the fit.
        if clean && p99.is_finite() {
            points.push((rate(k), p99.ln()));
        }
        if !clean {
            unclean = unclean.min(k);
        }
        if clean && p99 <= LIMIT_MS {
            best = Some(best.map_or(k, |b| b.max(k)));
        } else {
            worst = Some(worst.map_or(k, |w| w.min(k)));
        }
        k = match (best, worst) {
            (Some(b), Some(w)) if w == b + 1 => {
                if k == b {
                    w
                } else {
                    b
                }
            }
            (Some(b), Some(w)) if w > b => (b + w) / 2,
            // A pass above a fail: the noisy region; probe just above.
            (Some(b), Some(_)) => b + 1,
            (Some(b), None) => {
                stride *= 2;
                b + stride / 2
            }
            (None, Some(w)) => {
                stride *= 2;
                w - stride / 2
            }
            (None, None) => unreachable!("each step passes or fails"),
        }
        .clamp(0, LADDER_TOP);
    }
    // The fit is trusted only where steps ran clean: up to the highest
    // clean step and the lowest unclean one.
    let ceiling = points
        .iter()
        .map(|p| p.0)
        .fold(0.0, f64::max)
        .min(rate(unclean));
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let slope = sxy / sxx;
    let capacity = if points.len() >= 3 && slope > 0.0 {
        mean_x + (LIMIT_MS.ln() - mean_y) / slope
    } else {
        rate(best.unwrap_or(0))
    };
    Ok(capacity.min(ceiling).max(LADDER_BASE))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (fleet, setup_s) = set_up_median()?;
    let mut generator = Generator::new(fleet, args.seed);
    let window = Instant::now();
    let base_s = args.seconds * 0.5;
    generator.phase(0, BASE_RPS, base_s)?;
    let misses = ms(&generator.records(0, Class::Miss));
    // Start the ladder search near the knee: 1.5 × the rate the
    // connections could carry at the base window's mean request latency
    // (queueing at the knee makes the plain figure an underestimate).
    let runs: Vec<f64> = [Class::Miss, Class::Hit]
        .iter()
        .flat_map(|c| ms(&generator.records(0, *c)))
        .collect();
    let mean_s = runs.iter().sum::<f64>() / runs.len().max(1) as f64 / 1e3;
    let estimate = 1.5 * connections() as f64 / mean_s.max(1e-4);
    let start_k = ((estimate / LADDER_BASE).ln() / LADDER_STEP.ln()).round() as i32;
    let ladder_s = args.seconds - window.elapsed().as_secs_f64();
    let capacity = ladder(&mut generator, ladder_s, start_k)?;
    let finished = generator.finish()?;
    let mut outcome = Outcome {
        attempted: finished.attempted,
        failed: finished.failed,
        ..Outcome::default()
    };
    outcome.push("setup_s", setup_s, "s");
    outcome.push("p50_ms", median(&misses).unwrap_or(0.0), "ms");
    outcome.push("tail_ms", percentile(&misses, TAIL).unwrap_or(0.0), "ms");
    outcome.push("throughput_per_s", capacity, "1/s");
    outcome.push(
        "peak_rss_mb",
        crate::host::peak_rss_mb("self").unwrap_or(0.0) + finished.fleet_rss_mb,
        "MB",
    );
    eprintln!(
        "serve: {} misses at {BASE_RPS} rps (p50 and p90 reported), capacity {capacity:.1} rps, {} requests",
        misses.len(),
        finished.attempted
    );
    Ok(outcome)
}

/// Parsed Prometheus exposition: series (name plus labels) → value.
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse::<f64>().ok()?))
        })
        .collect()
}

/// `/v1/metrics` of every member, summed series by series.
fn scrape(fleet: &Fleet) -> Result<BTreeMap<String, f64>, String> {
    let mut total: BTreeMap<String, f64> = BTreeMap::new();
    for addr in &fleet.addrs {
        let reply = http::get(*addr, "/v1/metrics").map_err(|e| e.to_string())?;
        for (series, value) in parse_exposition(&reply.body) {
            *total.entry(series).or_default() += value;
        }
    }
    Ok(total)
}

/// Per-layer metrics of the serve path: a fresh fleet at the base rate
/// for `seconds` untraced (the `/v1/metrics` deltas of this window are
/// reported), then `seconds` with the generator's request spans on.
/// Returns the traced window's span trees and wall time (connection
/// threads × seconds) and the relative change in miss p50 it brought.
pub fn layer_metrics(
    seed: u64,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<(Vec<cnt_obs::SpanNode>, f64, f64), String> {
    let fleet = set_up("layers")?;
    let mut generator = Generator::new(fleet, seed);
    let before = scrape(&generator.fleet)?;
    generator.phase(0, BASE_RPS, seconds)?;
    let after = scrape(&generator.fleet)?;
    generator.set_tracing(true);
    generator.phase(1, BASE_RPS, seconds)?;
    let delta =
        |series: &str| after.get(series).unwrap_or(&0.0) - before.get(series).unwrap_or(&0.0);
    let mean_ms = |hist: &str| {
        let count = delta(&format!("{hist}_count"));
        if count > 0.0 {
            1e3 * delta(&format!("{hist}_sum")) / count
        } else {
            0.0
        }
    };
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    outcome.push(
        "serve.request_ms",
        mean_ms("cnt_serve_request_seconds"),
        "ms",
    );
    outcome.push("serve.run_ms", mean_ms("cnt_serve_run_seconds"), "ms");
    outcome.push(
        "serve.serialize_ms",
        mean_ms("cnt_serve_serialize_seconds"),
        "ms",
    );
    outcome.push("serve.write_ms", mean_ms("cnt_serve_write_seconds"), "ms");
    outcome.push(
        "serve.queue_wait_ms",
        mean_ms("cnt_serve_queue_wait_seconds"),
        "ms",
    );
    outcome.push(
        "serve.queue_wait_samples",
        delta("cnt_serve_queue_wait_seconds_count"),
        "count",
    );
    outcome.push(
        "serve.cache_hit_ratio",
        ratio(
            delta("cnt_serve_cache_hits_total"),
            delta("cnt_serve_cache_misses_total"),
        ),
        "ratio",
    );
    for (name, series) in [
        ("serve.coalesced", "cnt_serve_coalesced_total"),
        ("serve.rejected", "cnt_serve_rejected_total"),
        ("serve.keepalive_reuses", "cnt_serve_keepalive_reuses_total"),
        (
            "fleet.route.local",
            "cnt_fleet_route_total{outcome=\"local\"}",
        ),
        (
            "fleet.route.proxied",
            "cnt_fleet_route_total{outcome=\"proxied\"}",
        ),
        (
            "fleet.route.degraded",
            "cnt_fleet_route_total{outcome=\"degraded\"}",
        ),
        (
            "fleet.fill.hit",
            "cnt_fleet_peer_fill_total{result=\"hit\"}",
        ),
        (
            "fleet.fill.miss",
            "cnt_fleet_peer_fill_total{result=\"miss\"}",
        ),
        (
            "fleet.chunks.local",
            "cnt_fleet_chunks_total{outcome=\"local\"}",
        ),
        (
            "fleet.chunks.remote",
            "cnt_fleet_chunks_total{outcome=\"remote\"}",
        ),
        (
            "fleet.chunks.requeued",
            "cnt_fleet_chunks_total{outcome=\"requeued\"}",
        ),
        ("fleet.journal_records", "cnt_serve_journal_records_total"),
    ] {
        outcome.push(name, delta(series), "count");
    }
    outcome.push(
        "sweep.cache_hit_ratio",
        ratio(
            delta("cnt_sweep_cache_hits_total"),
            delta("cnt_sweep_cache_misses_total"),
        ),
        "ratio",
    );
    let misses = generator.records(0, Class::Miss);
    let side = |proxied: bool| -> Vec<f64> {
        misses
            .iter()
            .filter(|r| r.2 == proxied)
            .map(|r| r.0)
            .collect()
    };
    outcome.push(
        "fleet.owner_miss_p50_ms",
        median(&side(false)).unwrap_or(0.0),
        "ms",
    );
    outcome.push(
        "fleet.proxied_miss_p50_ms",
        median(&side(true)).unwrap_or(0.0),
        "ms",
    );
    outcome.push(
        "serve.hit_p99_ms",
        percentile(&ms(&generator.records(0, Class::Hit)), 0.99).unwrap_or(0.0),
        "ms",
    );
    let jobs = ms(&generator.records(0, Class::Job));
    outcome.push(
        "serve.sweep_job_p50_s",
        median(&jobs).unwrap_or(0.0) / 1e3,
        "s",
    );
    outcome.push(
        "serve.generator_lag_ms",
        percentile(&generator.lag_ms(0), 0.99).unwrap_or(0.0),
        "ms",
    );
    let untraced = median(&ms(&misses)).unwrap_or(0.0);
    let traced = median(&ms(&generator.records(1, Class::Miss))).unwrap_or(0.0);
    let finished = generator.finish()?;
    outcome.attempted += finished.attempted;
    outcome.failed += finished.failed;
    let wall = seconds * connections() as f64;
    Ok((
        finished.roots,
        wall,
        traced / untraced.max(f64::MIN_POSITIVE) - 1.0,
    ))
}
