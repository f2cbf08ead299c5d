//! The server: listener, router, and the request scheduler.
//!
//! Connections are accepted on a non-blocking listener and handed to a
//! `cnt-sweep` [`WorkerPool`] whose bounded queue *is* the admission
//! control: when it is full the accept loop answers `503` +
//! `Retry-After` itself and moves on, so overload degrades into fast
//! rejections instead of unbounded latency. Run requests resolve through
//! the same [`experiments::resolve_context`] gate as the CLI, then go
//! through two layers that keep hot work cheap:
//!
//! 1. an **LRU body cache** keyed by the canonical request hash — repeat
//!    requests never re-run a kernel;
//! 2. a **coalescing map** of in-flight hashes — concurrent identical
//!    requests share one computation, waiters block on its condvar and
//!    receive the exact same bytes.
//!
//! Determinism makes both safe: a run body is a pure function of
//! `(id, parameter point, format)`, which is exactly what the hash
//! covers.
//!
//! Everything the scheduler observes lives in a per-server `cnt-obs`
//! [`MetricRegistry`]: the counters `/v1/healthz` reports, the
//! Prometheus families `/v1/metrics` exports (the legacy `cnt_serve_*`
//! names plus `*_seconds` latency histograms for the queue-wait / run /
//! serialize / write phases of a request), and the per-status and
//! per-experiment labeled counters. Every response carries an
//! `X-Request-Id`, and [`Config::access_log`] turns on a structured
//! per-request log line (text or JSON) on stdout.

use crate::cache::{CachedBody, LruCache};
use crate::http::{self, Request, RequestError, Response};
use crate::jobs::{self, Jobs};
use crate::{api, net, signal, Error, Result};
use cnt_fleet::{
    ChaosInjector, FleetConfig, FleetHealth, HashRing, PeerClient, PeerState, RetryPolicy,
    Transition,
};
use cnt_interconnect::experiments::format::OutputFormat;
use cnt_interconnect::experiments::{self, Experiment, Params, Report, RunContext};
use cnt_obs::json;
use cnt_obs::slo::{self, SloSpec};
use cnt_obs::trace_store::{self, id_hex, parse_id, TraceContext, TraceRecord, TraceStore};
use cnt_obs::{
    Counter, CounterVec, Gauge, GaugeVec, Histogram, HistoryStore, MetricRegistry, Profile,
};
use cnt_sweep::seed::fnv1a;
use cnt_sweep::WorkerPool;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// Most trace records resident at once; beyond it the oldest fall out.
const TRACE_CAPACITY: usize = 256;
/// How long a stored trace record stays fetchable.
const TRACE_TTL: Duration = Duration::from_secs(600);

/// How a worker turns a resolved experiment + context into a report.
/// Injectable so tests can slow computations down or fail them on
/// purpose; production uses [`Experiment::run`].
pub type Runner =
    dyn Fn(&'static dyn Experiment, &RunContext) -> cnt_interconnect::Result<Report> + Send + Sync;

/// How the per-request access log renders each completed exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessLogFormat {
    /// One human-readable line per request.
    Text,
    /// One JSON object per line (`repro check-json` clean).
    Json,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads; `0` = all cores.
    pub workers: usize,
    /// Pending-connection queue capacity (beyond it: `503`). Every
    /// *work* route shares this admission gate; `GET /v1/healthz` and
    /// `GET /v1/metrics` ride a reserved probe lane answered on the
    /// accept path itself, so load-balancer probes keep succeeding
    /// while runs shed.
    pub queue_capacity: usize,
    /// LRU body-cache capacity, entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Wall-clock budget for reading one request and (separately) for
    /// writing its response. A per-*request* deadline, not a per-read
    /// socket timeout: a slow-drip client cannot pin a worker past it.
    pub request_deadline: Duration,
    /// How long a kept-alive connection may sit idle between requests
    /// before the worker closes it. Deliberately much shorter than
    /// `request_deadline`: a parked connection occupies a pool worker, so
    /// idle keep-alive must not become a slot leak.
    pub keep_alive_idle: Duration,
    /// Requests served per connection before the server closes it anyway
    /// (bounds how long one client can monopolize a worker). `0` disables
    /// keep-alive entirely.
    pub max_requests_per_connection: usize,
    /// Also stop on `SIGINT`/`SIGTERM` (the `repro serve` front end
    /// installs the handlers via [`signal::install`]).
    pub watch_signals: bool,
    /// When set, one structured access-log line per request goes to
    /// stdout (stderr keeps the startup banner, so piping stdout yields
    /// a clean log stream).
    pub access_log: Option<AccessLogFormat>,
    /// Static fleet topology; `None` runs a plain single instance.
    pub fleet: Option<FleetConfig>,
    /// Most async sweep jobs resident at once (queued, running, or
    /// finished-but-inside-TTL); beyond it `POST /v1/sweeps/{id}` sheds
    /// with `503` + `Retry-After`.
    pub jobs_capacity: usize,
    /// How long a finished job's result stays pollable before GC.
    pub job_ttl: Duration,
    /// Points each metric series keeps in the `GET /v1/metrics/history`
    /// ring (oldest overwritten first).
    pub history_points: usize,
    /// How often the self-scraper thread samples the registries into
    /// the history rings.
    pub history_interval: Duration,
    /// SLOs `GET /v1/slo` and `repro slo` evaluate against the history
    /// rings (defaults to [`cnt_obs::slo::default_serve_slos`]).
    pub slos: Vec<SloSpec>,
    /// Durable-state root: the job journal (`journal.log`), spilled job
    /// result bodies (`jobs/`), and the chunk result store
    /// (`sweep-cache/`) all live under it. `None` keeps job state in
    /// memory only — jobs do not survive a restart.
    pub data_dir: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 256,
            request_deadline: Duration::from_secs(30),
            keep_alive_idle: Duration::from_secs(5),
            max_requests_per_connection: 100,
            watch_signals: false,
            access_log: None,
            fleet: None,
            jobs_capacity: 64,
            job_ttl: Duration::from_secs(600),
            history_points: cnt_obs::timeseries::DEFAULT_HISTORY_POINTS,
            history_interval: Duration::from_secs(1),
            slos: slo::default_serve_slos(),
            data_dir: None,
        }
    }
}

/// A `TcpStream` whose reads and writes all count against one wall-clock
/// deadline (each I/O call gets the *remaining* budget as its socket
/// timeout, so many slow little reads cannot add up past it).
struct DeadlineStream {
    stream: TcpStream,
    deadline: Instant,
}

impl DeadlineStream {
    fn remaining(&self) -> std::io::Result<Duration> {
        self.deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::TimedOut, "request deadline exceeded")
            })
    }
}

impl std::io::Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.remaining()?;
        self.stream.set_read_timeout(Some(remaining))?;
        self.stream.read(buf)
    }
}

impl Write for DeadlineStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let remaining = self.remaining()?;
        self.stream.set_write_timeout(Some(remaining))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// The scheduler's metric handles, all registered in one per-server
/// [`MetricRegistry`] (per-server so concurrent servers — every e2e
/// test spawns one — count independently). `/v1/healthz` and
/// `/v1/metrics` both read these handles; there is no second set of
/// counters to copy into.
pub(crate) struct Metrics {
    registry: MetricRegistry,
    /// Family `cnt_serve_requests_total`: the unlabeled base sample
    /// keeps the legacy meaning (requests a worker started parsing);
    /// the `{status="…"}` children count every response sent,
    /// including the `400`/`404`/`503` paths that previously went
    /// uncounted.
    requests: Arc<CounterVec>,
    runs: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    coalesced: Arc<Counter>,
    rejected: Arc<Counter>,
    keepalive_reuses: Arc<Counter>,
    /// `cnt_serve_experiment_runs_total{id="…"}`: run requests per
    /// experiment id (counted once resolution succeeds, cache hits and
    /// coalesced waiters included).
    experiment_runs: Arc<CounterVec>,
    queue_wait_seconds: Arc<Histogram>,
    request_seconds: Arc<Histogram>,
    run_seconds: Arc<Histogram>,
    serialize_seconds: Arc<Histogram>,
    write_seconds: Arc<Histogram>,
    cached_bodies: Arc<Gauge>,
    uptime_seconds: Arc<Gauge>,
    /// `cnt_fleet_route_total{outcome="local|proxied|degraded"}`:
    /// where each fleet-routed run request was answered from (`degraded`
    /// = computed locally only because the shard owner is Down).
    route_total: Arc<CounterVec>,
    /// `cnt_fleet_peer_fill_total{result="hit|miss|error"}`: outcomes of
    /// owner cache-fill probes issued by this instance.
    peer_fill: Arc<CounterVec>,
    /// `cnt_serve_jobs_total{status="queued|running|done|failed"}`:
    /// async job lifecycle transitions.
    pub(crate) jobs_total: Arc<CounterVec>,
    /// Async jobs currently queued or running.
    jobs_pending: Arc<Gauge>,
    /// `cnt_fleet_chunks_total{outcome="local|remote|requeued|resumed"}`:
    /// fanned-out sweep chunks by how this coordinator settled them
    /// (`resumed` = recalled from the chunk store instead of running).
    pub(crate) chunks_total: Arc<CounterVec>,
    /// Records appended to the job journal by this instance.
    pub(crate) journal_records: Arc<Counter>,
    /// Jobs re-created from the journal at startup.
    pub(crate) journal_replayed: Arc<Counter>,
    /// Trace records stored by this instance (requests + async jobs).
    trace_records: Arc<Counter>,
    /// Self-scraper passes taken into the history rings.
    history_scrapes: Arc<Counter>,
    started: Instant,
}

impl Metrics {
    fn new(workers: usize, queue_capacity: usize) -> Self {
        let r = MetricRegistry::new();
        let requests = r.counter_vec(
            "cnt_serve_requests_total",
            "requests a worker started parsing (unlabeled) and responses sent by status",
            "status",
            true,
        );
        let metrics = Self {
            runs: r.counter(
                "cnt_serve_runs_total",
                "kernel computations actually performed",
            ),
            cache_hits: r.counter(
                "cnt_serve_cache_hits_total",
                "run requests served straight from the LRU body cache",
            ),
            cache_misses: r.counter(
                "cnt_serve_cache_misses_total",
                "run requests that missed the LRU body cache",
            ),
            coalesced: r.counter(
                "cnt_serve_coalesced_total",
                "run requests that attached to an in-flight computation",
            ),
            rejected: r.counter(
                "cnt_serve_rejected_total",
                "connections bounced with 503 because the queue was full",
            ),
            keepalive_reuses: r.counter(
                "cnt_serve_keepalive_reuses_total",
                "requests served on an already-open keep-alive connection",
            ),
            experiment_runs: r.counter_vec(
                "cnt_serve_experiment_runs_total",
                "run requests per experiment id",
                "id",
                false,
            ),
            queue_wait_seconds: r.histogram(
                "cnt_serve_queue_wait_seconds",
                "time an accepted connection waited in the admission queue",
            ),
            request_seconds: r.histogram(
                "cnt_serve_request_seconds",
                "request handling wall time, parse to response written",
            ),
            run_seconds: r.histogram(
                "cnt_serve_run_seconds",
                "kernel computation wall time (leaders only)",
            ),
            serialize_seconds: r.histogram(
                "cnt_serve_serialize_seconds",
                "report serialization wall time (leaders only)",
            ),
            write_seconds: r.histogram("cnt_serve_write_seconds", "response write wall time"),
            cached_bodies: r.gauge("cnt_serve_cached_bodies", "bodies resident in the LRU"),
            uptime_seconds: r.gauge(
                "cnt_serve_uptime_seconds",
                "seconds since the server started",
            ),
            route_total: r.counter_vec(
                "cnt_fleet_route_total",
                "fleet-routed run requests by where they were answered",
                "outcome",
                false,
            ),
            peer_fill: r.counter_vec(
                "cnt_fleet_peer_fill_total",
                "owner cache-fill probes issued by this instance, by outcome",
                "result",
                false,
            ),
            jobs_total: r.counter_vec(
                "cnt_serve_jobs_total",
                "async sweep job lifecycle transitions by status",
                "status",
                false,
            ),
            jobs_pending: r.gauge(
                "cnt_serve_jobs_pending",
                "async sweep jobs currently queued or running",
            ),
            chunks_total: r.counter_vec(
                "cnt_fleet_chunks_total",
                "fanned-out sweep chunks by dispatch outcome",
                "outcome",
                false,
            ),
            journal_records: r.counter(
                "cnt_serve_journal_records_total",
                "records appended to the job journal",
            ),
            journal_replayed: r.counter(
                "cnt_serve_journal_replayed_total",
                "jobs recovered from the journal at startup",
            ),
            trace_records: r.counter(
                "cnt_serve_trace_records_total",
                "trace records stored in the trace ring",
            ),
            history_scrapes: r.counter(
                "cnt_serve_history_scrapes_total",
                "self-scraper passes taken into the metrics history rings",
            ),
            started: Instant::now(),
            requests,
            registry: r,
        };
        // Pre-seed every label child so scrapes expose the full family
        // from the first render (validator-clean, diffable over time).
        for outcome in ["local", "proxied", "degraded"] {
            metrics.route_total.with(outcome);
        }
        for result in ["hit", "miss", "error"] {
            metrics.peer_fill.with(result);
        }
        for status in ["queued", "running", "done", "failed"] {
            metrics.jobs_total.with(status);
        }
        for outcome in ["local", "remote", "requeued", "resumed"] {
            metrics.chunks_total.with(outcome);
        }
        metrics
            .registry
            .gauge("cnt_serve_workers", "pool worker threads")
            .set(workers as f64);
        metrics
            .registry
            .gauge("cnt_serve_queue_capacity", "admission queue capacity")
            .set(queue_capacity as f64);
        metrics
            .registry
            .gauge("cnt_serve_experiments", "experiments in the registry")
            .set(experiments::catalog().count() as f64);
        metrics
    }

    /// Counts one sent response under its status label.
    fn count_response(&self, status: u16) {
        self.requests.with(&status.to_string()).inc();
    }
}

/// One in-flight computation; waiters park on the condvar and read the
/// published outcome (a response body or an error response).
#[derive(Default)]
struct Flight {
    slot: Mutex<Option<core::result::Result<CachedBody, (u16, String)>>>,
    done: Condvar,
}

/// A validated fleet membership: the shard table, the peer clients (a
/// fast-failing one for cache-fill probes, a patient one for full
/// proxied runs whose owner may have to compute), and the local failure
/// detector feeding the routing health gate.
pub(crate) struct FleetState {
    pub(crate) config: FleetConfig,
    ring: HashRing,
    pub(crate) fill: PeerClient,
    pub(crate) proxy: PeerClient,
    /// Chaos-free, single-shot client the background prober uses — the
    /// backoff schedule in [`FleetHealth`] is its retry loop.
    prober: PeerClient,
    /// Up → Suspect → Down failure detector + re-probe schedule.
    pub(crate) health: FleetHealth,
    /// `cnt_fleet_peer_state{peer,state}`: 1 on the current state.
    peer_state: Arc<GaugeVec>,
    /// `cnt_fleet_probe_total{result}`: background probe outcomes.
    probes: Arc<CounterVec>,
    /// `cnt_fleet_peer_transitions_total{to}`: state changes observed.
    transitions: Arc<CounterVec>,
}

impl FleetState {
    /// Reflects a health transition into the peer-state gauges and the
    /// transition counter.
    fn apply_transition(&self, transition: &Transition) {
        self.transitions.with(transition.to.label()).inc();
        let addr = self.config.peer(transition.peer);
        for state in PeerState::ALL {
            let current = if state == transition.to { 1.0 } else { 0.0 };
            self.peer_state.with(&[addr, state.label()]).set(current);
        }
    }

    /// Feeds a hot-path transport failure into the failure detector.
    pub(crate) fn record_peer_failure(&self, index: usize) {
        if let Some(transition) = self.health.record_failure(index, Instant::now()) {
            self.apply_transition(&transition);
        }
    }

    /// One re-probe pass: every Down peer due on its jittered backoff
    /// schedule gets a health probe, and the first healthy answer
    /// restores it to Up.
    fn probe_due_peers(&self) {
        for index in self.health.due_probes(Instant::now()) {
            match self.prober.get(self.config.peer(index), "/v1/healthz", &[]) {
                Ok(response) if response.status == 200 => {
                    self.probes.with("ok").inc();
                    if let Some(t) = self.health.probe_succeeded(index) {
                        self.apply_transition(&t);
                    }
                }
                _ => self.probes.with("error").inc(),
            }
        }
    }

    /// Feeds a hot-path success (any parsed response) into the detector.
    pub(crate) fn record_peer_success(&self, index: usize) {
        if let Some(transition) = self.health.record_success(index) {
            self.apply_transition(&transition);
        }
    }
}

/// State shared between the accept loop and the pool workers.
pub(crate) struct Shared {
    pub(crate) metrics: Metrics,
    cache: Mutex<LruCache>,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    runner: Box<Runner>,
    /// The same pool the accept loop dispatches connections to; async
    /// sweep jobs share its bounded queue (so one saturation signal
    /// covers both kinds of work).
    pub(crate) pool: Arc<WorkerPool>,
    /// Async jobs behind `POST /v1/sweeps/{id}`, with their journal and
    /// chunk store.
    pub(crate) jobs: Jobs,
    /// Set once by [`Server::enable_fleet`]; `None` = single instance.
    pub(crate) fleet: OnceLock<FleetState>,
    pub(crate) workers: usize,
    queue_capacity: usize,
    request_deadline: Duration,
    keep_alive_idle: Duration,
    max_requests_per_connection: usize,
    access_log: Option<AccessLogFormat>,
    /// Request-id prefix (per server) and sequence: every response
    /// carries `X-Request-Id: <prefix>-<seq>`.
    rid_prefix: u32,
    rid_seq: AtomicU64,
    /// Separate sequence for trace/span ids, so minting span ids never
    /// perturbs the request-id numbering.
    span_seq: AtomicU64,
    /// Metric history rings the self-scraper thread fills and
    /// `GET /v1/metrics/history` + `GET /v1/slo` read.
    history: HistoryStore,
    /// Declarative objectives `GET /v1/slo` evaluates.
    slos: Vec<SloSpec>,
    /// Recent trace records, `GET /v1/trace/{id}`'s local share.
    traces: TraceStore,
    /// Cumulative span profile across every traced request.
    profile: Profile,
    /// This instance's `host:port`, stamped into trace records.
    instance: String,
}

impl Shared {
    pub(crate) fn next_request_id(&self) -> String {
        let seq = self.rid_seq.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{seq:06x}", self.rid_prefix)
    }

    /// A fresh nonzero 64-bit trace/span id: FNV-1a over the server
    /// prefix, a dedicated sequence, and the clock (unique per server
    /// by the sequence; distinct across servers by prefix + time).
    pub(crate) fn mint_id(&self) -> u64 {
        let seq = self.span_seq.fetch_add(1, Ordering::Relaxed);
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let mut bytes = [0u8; 20];
        bytes[..4].copy_from_slice(&self.rid_prefix.to_le_bytes());
        bytes[4..12].copy_from_slice(&seq.to_le_bytes());
        bytes[12..].copy_from_slice(&nanos.to_le_bytes());
        fnv1a(&bytes).max(1)
    }
}

/// Per-request identity: the response's `X-Request-Id` (client-supplied
/// or minted) plus the distributed-trace context.
pub(crate) struct RequestScope {
    pub(crate) request_id: String,
    pub(crate) trace: TraceContext,
}

/// Builds one request's scope: adopt a plausible client `X-Request-Id`
/// (so fleet hops and retries join up in logs), join an incoming
/// `X-Trace-Id`/`X-Parent-Span` pair when valid, mint fresh ids
/// otherwise. `None` covers unparsable requests — they get minted ids
/// so even 400s are log-joinable.
fn scope_for(shared: &Shared, request: Option<&Request>) -> RequestScope {
    let request_id = request
        .and_then(|r| r.header("x-request-id"))
        .filter(|v| (1..=64).contains(&v.len()) && v.bytes().all(|b| b.is_ascii_graphic()))
        .map(str::to_string)
        .unwrap_or_else(|| shared.next_request_id());
    let span_id = shared.mint_id();
    let incoming = request
        .and_then(|r| r.header("x-trace-id"))
        .and_then(parse_id);
    let trace = match incoming {
        Some(trace_id) => TraceContext {
            trace_id,
            span_id,
            parent: request
                .and_then(|r| r.header("x-parent-span"))
                .and_then(parse_id),
        },
        None => TraceContext::root(shared.mint_id(), span_id),
    };
    RequestScope { request_id, trace }
}

/// The bound-but-not-yet-serving server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: Config,
    pool: Arc<WorkerPool>,
    stop: Arc<AtomicBool>,
    shared: Arc<Shared>,
}

/// A clonable handle that asks a running [`Server::serve`] loop to stop
/// accepting, drain, and return.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests shutdown (takes effect within one accept-poll interval).
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds with the production runner ([`Experiment::run`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the address cannot be bound.
    pub fn bind(config: Config) -> Result<Self> {
        Self::bind_with_runner(config, |exp, ctx| exp.run(ctx))
    }

    /// Binds with an injected runner — the seam the concurrency tests use
    /// to make computations observably slow or failing. Validation,
    /// caching, and coalescing behave exactly as in production.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the address cannot be bound.
    pub fn bind_with_runner<F>(config: Config, runner: F) -> Result<Self>
    where
        F: Fn(&'static dyn Experiment, &RunContext) -> cnt_interconnect::Result<Report>
            + Send
            + Sync
            + 'static,
    {
        // SO_REUSEADDR bind: a restarted instance (crash recovery, the
        // chaos smoke's SIGKILL) retakes its fleet port immediately
        // instead of waiting out TIME_WAIT.
        let listener = net::bind_listener(&config.addr).map_err(|e| Error::io("bind", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::io("local_addr", e))?;
        let pool = Arc::new(WorkerPool::new(config.workers, config.queue_capacity));
        let rid_prefix = {
            let nanos = SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64);
            fnv1a(&nanos.to_le_bytes()) as u32 ^ (u64::from(local_addr.port()) as u32)
        };
        let (jobs, recovered) = Jobs::open(
            config.jobs_capacity,
            config.job_ttl,
            config.data_dir.clone(),
        )?;
        let shared = Arc::new(Shared {
            metrics: Metrics::new(pool.threads(), config.queue_capacity),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            inflight: Mutex::new(HashMap::new()),
            runner: Box::new(runner),
            pool: Arc::clone(&pool),
            jobs,
            fleet: OnceLock::new(),
            workers: pool.threads(),
            queue_capacity: config.queue_capacity,
            request_deadline: config.request_deadline,
            keep_alive_idle: config.keep_alive_idle,
            max_requests_per_connection: config.max_requests_per_connection,
            access_log: config.access_log,
            rid_prefix,
            rid_seq: AtomicU64::new(0),
            span_seq: AtomicU64::new(0),
            history: HistoryStore::new(config.history_points),
            slos: config.slos.clone(),
            traces: TraceStore::new(TRACE_CAPACITY, TRACE_TTL),
            profile: Profile::new(),
            instance: local_addr.to_string(),
        });
        let server = Self {
            listener,
            local_addr,
            config,
            pool,
            stop: Arc::new(AtomicBool::new(false)),
            shared,
        };
        if let Some(fleet) = server.config.fleet.clone() {
            server.enable_fleet(fleet)?;
        }
        // After the fleet joins, so recovered jobs fan out like fresh ones.
        jobs::recover(&server.shared, recovered);
        Ok(server)
    }

    /// Joins a fleet after binding — the seam tests use when peer
    /// addresses (ephemeral ports) are only known once every instance is
    /// bound. [`Config::fleet`] routes through here too.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an invalid topology or when the
    /// server already joined a fleet.
    pub fn enable_fleet(&self, fleet: FleetConfig) -> Result<()> {
        fleet
            .validate()
            .map_err(|message| Error::Config { message })?;
        if self.shared.fleet.get().is_some() {
            return Err(Error::Config {
                message: "fleet topology already configured".to_string(),
            });
        }
        let chaos = fleet
            .chaos
            .filter(|c| c.is_active())
            .map(|c| Arc::new(ChaosInjector::new(c)));
        // Fleet-only metric families, registered on the per-server
        // registry at join time so a single-instance scrape stays
        // byte-identical to the pre-fleet exposition.
        let registry = &self.shared.metrics.registry;
        let peer_state = registry.gauge_vec(
            "cnt_fleet_peer_state",
            "peer membership state as seen by this instance (1 = current state)",
            &["peer", "state"],
        );
        let probes = registry.counter_vec(
            "cnt_fleet_probe_total",
            "background health probes of Down peers, by outcome",
            "result",
            false,
        );
        let transitions = registry.counter_vec(
            "cnt_fleet_peer_transitions_total",
            "peer state transitions observed by this instance, by new state",
            "to",
            false,
        );
        for result in ["ok", "error"] {
            probes.with(result);
        }
        for state in PeerState::ALL {
            transitions.with(state.label());
        }
        for addr in &fleet.peers {
            for state in PeerState::ALL {
                let seed = if state == PeerState::Up { 1.0 } else { 0.0 };
                peer_state.with(&[addr, state.label()]).set(seed);
            }
        }
        // One connection pool per instance: the fill and proxy clients
        // keep their own deadlines and retry ladders but share parked
        // sockets, so a relayed request leaves one keep-alive connection
        // on the owner — not one per client, each pinning a peer worker.
        let fill =
            PeerClient::new(fleet.connect_timeout, fleet.fill_timeout).with_chaos(chaos.clone());
        let proxy = PeerClient::new(fleet.connect_timeout, fleet.proxy_timeout)
            .with_chaos(chaos)
            .sharing_pool_of(&fill);
        let state = FleetState {
            ring: HashRing::new(&fleet.peers),
            fill,
            proxy,
            // The prober stays chaos-free: chaos models a sick request
            // path, and the prober is the recovery mechanism under test.
            // It closes its connections — a rare off-path probe must not
            // park a socket (= pin a worker) on a freshly revived peer.
            prober: PeerClient::new(fleet.connect_timeout, fleet.fill_timeout)
                .with_retry(RetryPolicy::one_shot())
                .with_connection_close(),
            health: FleetHealth::new(fleet.peers.len(), fleet.self_index, fleet.health),
            peer_state,
            probes,
            transitions,
            config: fleet,
        };
        self.shared.fleet.set(state).map_err(|_| Error::Config {
            message: "fleet topology already configured".to_string(),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The resolved worker-thread count.
    pub fn workers(&self) -> usize {
        self.pool.threads()
    }

    /// A handle for stopping [`Server::serve`] from another thread.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.stop))
    }

    /// Accepts and serves requests until shutdown is requested (via
    /// [`ShutdownHandle`] or, with `watch_signals`, `SIGINT`/`SIGTERM`),
    /// then drains queued and in-flight work before returning.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] only for fatal listener failures; per-
    /// connection trouble is answered in-band or dropped.
    pub fn serve(self) -> Result<()> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| Error::io("set_nonblocking", e))?;
        // Background loops, both stopped once the pool has drained: the
        // self-scraper samples every registry into the history rings once
        // per interval, and in fleet mode the re-probe loop checks Down
        // peers off the hot path.
        let background_stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::clone(&self.shared);
        let scrape = move || sample_history(&shared);
        let mut background = vec![every(
            self.config.history_interval,
            &background_stop,
            scrape,
        )];
        if self.shared.fleet.get().is_some() {
            let shared = Arc::clone(&self.shared);
            let probe = move || shared.fleet.get().expect("fleet joined").probe_due_peers();
            background.push(every(Duration::from_millis(25), &background_stop, probe));
        }
        loop {
            if self.stop.load(Ordering::SeqCst)
                || (self.config.watch_signals && signal::triggered())
            {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => self.dispatch(stream),
                // Nothing pending (or a transient accept error): poll again.
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        // Stop accepting, then drain: queued connections and in-flight
        // computations all complete before serve() returns.
        drop(self.listener);
        self.pool.shutdown();
        background_stop.store(true, Ordering::SeqCst);
        for thread in background {
            let _ = thread.join();
        }
        Ok(())
    }

    /// Hands one accepted connection to the pool, or bounces it with the
    /// backpressure response when the queue is full.
    fn dispatch(&self, stream: TcpStream) {
        if stream.set_nonblocking(false).is_err() {
            return;
        }
        // Responses are written head-then-body; without TCP_NODELAY that
        // second small segment sits behind Nagle + the client's delayed
        // ACK (~40 ms per exchange on loopback, dwarfing the kernel time
        // on keep-alive round-trips).
        let _ = stream.set_nodelay(true);
        // A dup'd handle stays usable for the 503 path if the original
        // moves into a job the queue then refuses.
        let fallback = stream.try_clone();
        let shared = Arc::clone(&self.shared);
        let queued_at = Instant::now();
        let job = Box::new(move || handle_connection(stream, &shared, queued_at));
        if let Err(job) = self.pool.submit(job) {
            drop(job); // closes the moved-in stream handle
            if let Ok(mut stream) = fallback {
                // Drain the bytes the client already sent: closing with
                // unread data turns into a TCP RST that can discard the
                // response before the client reads it. One bounded read
                // covers the small request bodies this API carries.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                let mut sink = [0u8; 8192];
                let n = std::io::Read::read(&mut stream, &mut sink).unwrap_or(0);
                // Reserved probe lane: health and metrics probes are
                // answered right here on the accept path, before (and
                // regardless of) queue admission — a saturated fleet
                // member must still look alive to its load balancer.
                let probe = probe_request(&sink[..n]);
                let scope = scope_for(&self.shared, probe.as_ref());
                let response = match &probe {
                    Some(request) => route(request, &scope, &self.shared),
                    None => {
                        self.shared.metrics.rejected.inc();
                        shed(&self.shared, self.shared.pool.queued(), "request queue")
                    }
                };
                let _ = send(
                    &self.shared,
                    &scope,
                    probe.as_ref(),
                    response,
                    queued_at,
                    |r| {
                        let written = r.write_to(&mut stream);
                        let _ = stream.shutdown(std::net::Shutdown::Write);
                        written
                    },
                );
            } else {
                self.shared.metrics.rejected.inc();
                self.shared.metrics.count_response(503);
            }
        }
    }
}

/// Runs `tick` on its own thread once per `interval` until `stop` is set,
/// sleeping in short slices so shutdown stays responsive even under
/// multi-second intervals.
fn every(
    interval: Duration,
    stop: &Arc<AtomicBool>,
    mut tick: impl FnMut() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            tick();
            let mut slept = Duration::ZERO;
            while slept < interval && !stop.load(Ordering::SeqCst) {
                let slice = Duration::from_millis(25).min(interval - slept);
                std::thread::sleep(slice);
                slept += slice;
            }
        }
    })
}

/// Parses the already-drained bytes of a shed connection and returns the
/// request iff it is a probe (`GET /v1/healthz` or `GET /v1/metrics`)
/// that may bypass admission control. Anything else — including a probe
/// whose bytes did not all arrive in the drain read — stays on the
/// normal shed path.
fn probe_request(drained: &[u8]) -> Option<Request> {
    let mut reader = BufReader::new(drained);
    let request = http::read_request(&mut reader).ok()?;
    let path = request.path.trim_end_matches('/');
    (request.method == "GET" && (path == "/v1/healthz" || path == "/v1/metrics")).then_some(request)
}

/// Serves one connection: requests back-to-back while the client keeps
/// the connection alive, each under its own read/write deadline, until
/// `Connection: close`, the per-connection request cap, an idle timeout,
/// or a parse error ends it. Pipelined requests already sitting in the
/// buffered reader are served without waiting.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, queued_at: Instant) {
    shared
        .metrics
        .queue_wait_seconds
        .record_duration(queued_at.elapsed());
    let mut reader = BufReader::new(DeadlineStream {
        stream,
        deadline: Instant::now() + shared.request_deadline,
    });
    let mut served = 0usize;
    loop {
        let started = Instant::now();
        let (request, keep_alive) = match http::read_request(&mut reader) {
            Ok(request) => {
                shared.metrics.requests.base().inc();
                if served > 0 {
                    shared.metrics.keepalive_reuses.inc();
                }
                // A kept-alive connection parks on a pool worker between
                // requests, so reuse is bounded two ways: a short idle
                // window and a hard per-connection request cap.
                let keep =
                    request.wants_keep_alive() && served + 1 < shared.max_requests_per_connection;
                (Ok(request), keep)
            }
            Err(RequestError::Malformed(message)) => (Err((400, message)), false),
            Err(RequestError::TooLarge(message)) => (Err((413, message)), false),
            Err(RequestError::Io(_)) => return, // died or idled out; nobody to answer
        };
        let scope = scope_for(shared, request.as_ref().ok());
        let response = match &request {
            Ok(request) => route(request, &scope, shared),
            Err((status, message)) => Response::json(*status, api::error_json(message)),
        };
        let write_result = send(
            shared,
            &scope,
            request.as_ref().ok(),
            response,
            started,
            |r| {
                // The computation does not count against the request's read
                // budget: the response write gets a fresh deadline of its own.
                let stream = reader.get_mut();
                stream.deadline = Instant::now() + shared.request_deadline;
                let write_started = Instant::now();
                let written = r.write_to_with(stream, keep_alive);
                let _ = stream.flush();
                shared
                    .metrics
                    .write_seconds
                    .record_duration(write_started.elapsed());
                shared
                    .metrics
                    .request_seconds
                    .record_duration(started.elapsed());
                written
            },
        );
        if write_result.is_err() || !keep_alive {
            return;
        }
        served += 1;
        // The short idle budget covers only the wait for the next
        // request's first byte (pipelined bytes already buffered satisfy
        // it immediately); once data is in hand, reading the request gets
        // the full per-request deadline like the first one did.
        reader.get_mut().deadline = Instant::now() + shared.keep_alive_idle;
        match reader.fill_buf() {
            Ok([]) => return, // client closed cleanly between requests
            Ok(_) => reader.get_mut().deadline = Instant::now() + shared.request_deadline,
            Err(_) => return, // idled out or died; nobody to answer
        }
    }
}

/// Finishes one exchange the same way on every path — the connection
/// loop and the shed lane alike: stamps the request and trace ids onto
/// the response, counts it under its status, hands it to `write`, and
/// logs the exchange when the access log is on.
fn send(
    shared: &Shared,
    scope: &RequestScope,
    request: Option<&Request>,
    response: Response,
    started: Instant,
    write: impl FnOnce(&Response) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let trace_hex = id_hex(scope.trace.trace_id);
    let response = Response {
        request_id: Some(scope.request_id.clone()),
        trace_id: Some(trace_hex.clone()),
        ..response
    };
    shared.metrics.count_response(response.status);
    let written = write(&response);
    if let Some(log_format) = shared.access_log {
        let (method, path) = request.map_or(("-", "-"), |r| (r.method.as_str(), r.path.as_str()));
        print!(
            "{}",
            access_log_line(
                log_format,
                &AccessRecord {
                    request_id: &scope.request_id,
                    trace_id: &trace_hex,
                    method,
                    path,
                    experiment: experiment_of(path),
                    status: response.status,
                    bytes: response.content_length() as usize,
                    duration_s: started.elapsed().as_secs_f64(),
                },
            )
        );
    }
    written
}

/// One completed exchange, as the access log sees it.
struct AccessRecord<'a> {
    request_id: &'a str,
    /// The request's trace id, hex wire form — the join key across
    /// every fleet instance the request touched.
    trace_id: &'a str,
    method: &'a str,
    path: &'a str,
    /// The experiment id for run/sweep lines, so per-experiment log
    /// slicing is a field match rather than a path regex.
    experiment: Option<&'a str>,
    status: u16,
    bytes: usize,
    duration_s: f64,
}

/// The experiment id an access-log line should carry: the `{id}` of
/// `POST /v1/experiments/{id}/run` and `POST /v1/sweeps/{id}` paths.
fn experiment_of(path: &str) -> Option<&str> {
    let path = path.trim_end_matches('/');
    ["/v1/experiments/{}/run", "/v1/sweeps/{}"]
        .into_iter()
        .find_map(|pattern| match_route(pattern, path))
        .filter(|id| !id.is_empty())
}

/// Renders one access-log line (trailing newline included). The
/// timestamp is unix seconds at render time; method and path are
/// client-controlled and escaped accordingly in the JSON form.
fn access_log_line(log_format: AccessLogFormat, record: &AccessRecord<'_>) -> String {
    let ts = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    match log_format {
        AccessLogFormat::Text => format!(
            "{ts:.3} {} \"{} {}\" {} {}B {:.6}s trace={}\n",
            record.request_id,
            record.method,
            record.path,
            record.status,
            record.bytes,
            record.duration_s,
            record.trace_id,
        ),
        AccessLogFormat::Json => {
            let mut out = String::with_capacity(200);
            out.push_str(&format!("{{\"ts\":{ts:.3},\"request_id\":"));
            json::string(record.request_id, &mut out);
            out.push_str(",\"trace_id\":");
            json::string(record.trace_id, &mut out);
            out.push_str(",\"method\":");
            json::string(record.method, &mut out);
            out.push_str(",\"path\":");
            json::string(record.path, &mut out);
            if let Some(id) = record.experiment {
                out.push_str(",\"experiment\":");
                json::string(id, &mut out);
            }
            out.push_str(&format!(
                ",\"status\":{},\"bytes\":{},\"duration_s\":{:.6}}}\n",
                record.status, record.bytes, record.duration_s,
            ));
            out
        }
    }
}

/// What a route handler sees: the request, its scope, and the server.
struct Call<'a> {
    request: &'a Request,
    scope: &'a RequestScope,
    shared: &'a Arc<Shared>,
}

/// A route handler; the `&str` is the path segment a `{}` captured
/// (empty for routes without one).
type Handler = fn(&Call<'_>, &str) -> Response;

/// The `/v1` route table — the one list of what this server serves. A
/// `{}` matches exactly one path segment. It drives both dispatch and
/// the miss answer: a path some route matches under another method is
/// `405`, any other path `404`.
const ROUTES: &[(&str, &str, Handler)] = &[
    ("GET", "/v1/healthz", |c, _| {
        Response::json(200, healthz_json(c.shared))
    }),
    ("GET", "/v1/metrics", |c, _| Response {
        content_type: "text/plain; version=0.0.4",
        ..Response::json(200, metrics_text(c.shared))
    }),
    ("GET", "/v1/metrics/history", |c, _| {
        Response::json(200, c.shared.history.render_json(HISTORY_WINDOW_S))
    }),
    ("GET", "/v1/slo", |c, _| {
        let reports = slo::evaluate_all(&c.shared.slos, &c.shared.history);
        Response::json(200, slo::render_json(&reports))
    }),
    ("GET", "/v1/profile", |c, _| {
        Response::json(200, c.shared.profile.render_json())
    }),
    ("GET", "/v1/profile/folded", |c, _| Response {
        content_type: "text/plain; charset=utf-8",
        ..Response::json(200, c.shared.profile.folded())
    }),
    ("GET", "/v1/experiments", |_, _| {
        Response::json(200, api::catalog_json())
    }),
    (
        "GET",
        "/v1/experiments/{}",
        |_, id| match api::experiment_json(id) {
            Some(body) => Response::json(200, body),
            None => Response::json(
                404,
                api::error_json(
                    &cnt_interconnect::Error::UnknownExperiment(id.to_string()).to_string(),
                ),
            ),
        },
    ),
    ("POST", "/v1/experiments/{}/run", |c, id| {
        traced(c, || run_route(id, c.request, c.scope, c.shared))
    }),
    ("POST", "/v1/sweeps/{}", |c, id| {
        traced(c, || jobs::submit(id, c.request, c.scope, c.shared))
    }),
    ("GET", "/v1/jobs/{}", |c, rid| {
        jobs::status_route(rid, c.shared, true)
    }),
    ("GET", "/v1/jobs/{}/result", |c, rid| {
        jobs::result_route(rid, c.shared, true)
    }),
    ("GET", "/v1/trace/{}", |c, hex| {
        with_trace_id(hex, |id| trace_route(id, c.shared))
    }),
    // Fleet-internal routes: peers call them, and they never fan out
    // further (no proxy loops).
    ("GET", "/v1/_fleet/cache/{}", |c, hash| {
        fleet_cache_route(hash, c.shared)
    }),
    // This instance's *local* records for one trace, which peers
    // collect while assembling the cross-instance tree.
    ("GET", "/v1/_fleet/trace/{}", |c, hex| {
        with_trace_id(hex, |id| {
            Response::json(
                200,
                trace_store::render_records_json(&c.shared.traces.get(id)),
            )
        })
    }),
    ("POST", "/v1/_fleet/chunk", |c, _| {
        jobs::chunk_route(c.request, c.shared)
    }),
    ("GET", "/v1/_fleet/jobs/{}", |c, rid| {
        jobs::status_route(rid, c.shared, false)
    }),
    ("GET", "/v1/_fleet/jobs/{}/result", |c, rid| {
        jobs::result_route(rid, c.shared, false)
    }),
];

/// Matches `path` against a [`ROUTES`] pattern segment by segment;
/// returns the segment its `{}` captured (empty when it has none).
fn match_route<'p>(pattern: &str, path: &'p str) -> Option<&'p str> {
    let mut captured = "";
    let mut segments = path.split('/');
    for expected in pattern.split('/') {
        let segment = segments.next()?;
        if expected == "{}" {
            captured = segment;
        } else if expected != segment {
            return None;
        }
    }
    segments.next().is_none().then_some(captured)
}

/// The `/v1` router: the first [`ROUTES`] entry matching method and
/// path answers.
fn route(request: &Request, scope: &RequestScope, shared: &Arc<Shared>) -> Response {
    let path = request.path.trim_end_matches('/');
    let call = Call {
        request,
        scope,
        shared,
    };
    let mut known_path = false;
    for (method, pattern, handler) in ROUTES {
        if let Some(captured) = match_route(pattern, path) {
            if *method == request.method {
                return handler(&call, captured);
            }
            known_path = true;
        }
    }
    if known_path {
        Response::json(
            405,
            api::error_json(&format!("method {} not allowed on {path}", request.method)),
        )
    } else {
        Response::json(
            404,
            api::error_json(&format!(
                "no such route {path} (see GET /v1/experiments for the catalog)"
            )),
        )
    }
}

/// The trailing window `GET /v1/metrics/history` summarizes over.
const HISTORY_WINDOW_S: f64 = 60.0;

/// Runs a request handler under a per-request span capture (see
/// [`capture_trace`]). When a trace is already armed on this thread (a
/// nested local call) the inner request just runs — its spans fold into
/// the outer capture instead of double-recording.
fn traced(call: &Call<'_>, f: impl FnOnce() -> Response) -> Response {
    if cnt_obs::Trace::is_active() {
        return f();
    }
    let name = format!("POST {}", call.request.path);
    capture_trace(call.shared, call.scope, name, "serve.request", || {
        let response = f();
        let status = response.status;
        (response, status)
    })
}

/// Runs `f` under a fresh span capture rooted at `span`, folds the
/// captured tree into the cumulative profile, and stores it as one
/// [`TraceRecord`] named `name` under `scope`'s ids — the one capture
/// path for traced requests and async sweep jobs. `f` returns its
/// result plus the status to record (`0` for jobs).
pub(crate) fn capture_trace<T>(
    shared: &Shared,
    scope: &RequestScope,
    name: String,
    span: &'static str,
    f: impl FnOnce() -> (T, u16),
) -> T {
    let started = Instant::now();
    cnt_obs::Trace::begin();
    let (result, status) = {
        let _span = cnt_obs::span!(span);
        f()
    };
    let roots = cnt_obs::Trace::end();
    shared.profile.add(&roots);
    shared.traces.record(TraceRecord {
        trace_id: scope.trace.trace_id,
        span_id: scope.trace.span_id,
        parent: scope.trace.parent,
        name,
        instance: shared.instance.clone(),
        request_id: scope.request_id.clone(),
        unix_s: SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64()),
        total_s: started.elapsed().as_secs_f64(),
        status,
        roots,
    });
    shared.metrics.trace_records.inc();
    result
}

/// `POST /v1/experiments/{id}/run`: fleet-route → validate → cache →
/// coalesce → run.
fn run_route(id: &str, request: &Request, scope: &RequestScope, shared: &Arc<Shared>) -> Response {
    let run_request = match api::parse_run_request(&request.body) {
        Ok(r) => r,
        Err(message) => return Response::json(400, api::error_json(&message)),
    };
    let (exp, ctx) =
        match experiments::resolve_context(id, run_request.preset.as_deref(), &run_request.sets) {
            Ok(pair) => pair,
            Err(e @ cnt_interconnect::Error::UnknownExperiment(_)) => {
                return Response::json(404, api::error_json(&e.to_string()))
            }
            Err(e) => return Response::json(400, api::error_json(&e.to_string())),
        };
    shared.metrics.experiment_runs.with(id).inc();
    let key = request_key(id, run_request.format, &ctx.params);

    // Fleet routing: the shard owner (by the content hash's cache shard)
    // answers this point so exactly one LRU across the fleet warms up.
    // A routed-away request returns here; `None` means "answer locally".
    if let Some(response) = fleet_route(key, &ctx.params, request, scope, shared) {
        return response;
    }

    if let Some(hit) = shared.cache.lock().expect("cache poisoned").get(key) {
        shared.metrics.cache_hits.inc();
        return ok_response(hit);
    }
    shared.metrics.cache_misses.inc();

    // Coalesce: one leader computes, identical concurrent requests wait.
    let (flight, leader) = {
        let mut inflight = shared.inflight.lock().expect("inflight poisoned");
        match inflight.get(&key) {
            Some(flight) => (Arc::clone(flight), false),
            None => {
                let flight = Arc::new(Flight::default());
                inflight.insert(key, Arc::clone(&flight));
                (flight, true)
            }
        }
    };
    if !leader {
        shared.metrics.coalesced.inc();
        let mut slot = flight.slot.lock().expect("flight poisoned");
        while slot.is_none() {
            slot = flight.done.wait(slot).expect("flight poisoned");
        }
        return match slot.as_ref().expect("just checked") {
            Ok(body) => ok_response(body.clone()),
            Err((status, body)) => Response::json(*status, body.clone()),
        };
    }

    shared.metrics.runs.inc();
    // The leader must publish *some* outcome: if a kernel panicked and the
    // flight were abandoned, every waiter (and every future request for
    // this point) would park on the condvar forever — so catch the unwind
    // and turn it into a 500 like any other run failure.
    let run_started = Instant::now();
    let run_result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (shared.runner)(exp, &ctx)));
    shared
        .metrics
        .run_seconds
        .record_duration(run_started.elapsed());
    let outcome = match run_result {
        Ok(Ok(report)) => {
            let serialize_started = Instant::now();
            let (content_type, body) = render_report(&report, run_request.format);
            shared
                .metrics
                .serialize_seconds
                .record_duration(serialize_started.elapsed());
            Ok(CachedBody {
                content_type,
                body: Arc::new(body),
            })
        }
        Ok(Err(e)) => Err((500u16, api::error_json(&e.to_string()))),
        Err(_) => Err((
            500u16,
            api::error_json(&format!("experiment '{id}' panicked during execution")),
        )),
    };
    if let Ok(body) = &outcome {
        shared
            .cache
            .lock()
            .expect("cache poisoned")
            .put(key, body.clone());
    }
    // Publish to waiters, then retire the flight so later requests hit
    // the cache (or recompute, for errors).
    *flight.slot.lock().expect("flight poisoned") = Some(outcome.clone());
    flight.done.notify_all();
    shared
        .inflight
        .lock()
        .expect("inflight poisoned")
        .remove(&key);
    match outcome {
        Ok(body) => ok_response(body),
        Err((status, body)) => Response::json(status, body),
    }
}

fn ok_response(body: CachedBody) -> Response {
    Response {
        content_type: body.content_type,
        ..Response::json(200, body.body.as_str().to_string())
    }
}

/// Renders a finished report the way the CLI pipes it — the one place
/// both the synchronous run route and the async job path serialize, so
/// the two are byte-identical by construction.
pub(crate) fn render_report(report: &Report, format: OutputFormat) -> (&'static str, String) {
    match format {
        // The CLI prints JSON reports with println!, so the served
        // body is to_json + "\n" — byte-identical to the pipe.
        OutputFormat::Json | OutputFormat::Text => {
            ("application/json", format!("{}\n", report.to_json()))
        }
        OutputFormat::Csv => ("text/csv", report.to_csv()),
    }
}

/// Interns a peer-reported content type ([`Response`] carries a
/// `&'static str`; run bodies are only ever JSON or CSV).
pub(crate) fn static_content_type(value: &str) -> &'static str {
    match value {
        "text/csv" => "text/csv",
        _ => "application/json",
    }
}

/// A relayed peer response (cache-fill hit or full proxied run).
pub(crate) fn peer_response(peer: &cnt_fleet::PeerResponse) -> Response {
    Response {
        content_type: static_content_type(&peer.content_type),
        ..Response::json(peer.status, peer.body.clone())
    }
}

/// Decides where a run request is answered when this instance is part of
/// a fleet. `None` means "compute locally" — either because this
/// instance owns the shard, or because the owner is unreachable and the
/// request degrades to single-instance behavior.
fn fleet_route(
    key: u64,
    params: &Params,
    request: &Request,
    scope: &RequestScope,
    shared: &Arc<Shared>,
) -> Option<Response> {
    let fleet = shared.fleet.get()?;
    let owner = fleet.ring.owner_of_hash(params.content_hash())?;
    if owner == fleet.config.self_index {
        shared.metrics.route_total.with("local").inc();
        return None;
    }
    // Health gate: a Down owner is skipped without a probe — the request
    // degrades to local compute at zero added latency while the
    // background prober watches for recovery off the hot path.
    if !fleet.health.is_routable(owner) {
        shared.metrics.route_total.with("degraded").inc();
        return None;
    }
    let owner_addr = fleet.config.peer(owner);
    // Context propagation: the owner adopts our trace (we become the
    // parent span) and our request id, so its access log and trace
    // record join this request's.
    let hop_headers = vec![
        ("X-Trace-Id".to_string(), id_hex(scope.trace.trace_id)),
        ("X-Parent-Span".to_string(), id_hex(scope.trace.span_id)),
        ("X-Request-Id".to_string(), scope.request_id.clone()),
    ];
    // Cheap cache-fill probe first: the owner usually holds hot points
    // already, so most cross-shard requests cost one small GET instead
    // of a full proxied run.
    let fill_path = format!("/v1/_fleet/cache/{key:016x}");
    match fleet.fill.get(owner_addr, &fill_path, &hop_headers) {
        Ok(peer) if peer.status == 200 => {
            fleet.record_peer_success(owner);
            shared.metrics.peer_fill.with("hit").inc();
            shared.metrics.route_total.with("proxied").inc();
            Some(peer_response(&peer))
        }
        Ok(_) => {
            fleet.record_peer_success(owner);
            shared.metrics.peer_fill.with("miss").inc();
            let body = core::str::from_utf8(&request.body).unwrap_or("");
            match fleet
                .proxy
                .post(owner_addr, &request.path, body, &hop_headers)
            {
                Ok(peer) => {
                    fleet.record_peer_success(owner);
                    shared.metrics.route_total.with("proxied").inc();
                    Some(peer_response(&peer))
                }
                Err(e) => {
                    // Owner died between probe and proxy: degrade to
                    // computing locally.
                    if e.is_transport() {
                        fleet.record_peer_failure(owner);
                    }
                    shared.metrics.route_total.with("local").inc();
                    None
                }
            }
        }
        Err(e) => {
            // Dead or stalled owner: the fill client already timed out
            // fast (and closed its sockets); answer from here like a
            // single instance would.
            if e.is_transport() {
                fleet.record_peer_failure(owner);
            }
            shared.metrics.peer_fill.with("error").inc();
            shared.metrics.route_total.with("local").inc();
            None
        }
    }
}

/// `GET /v1/_fleet/cache/{hash}`: this instance's LRU body for a request
/// hash, or `404`. Internal — peers call it as the cache-fill probe; it
/// never computes and never mutates the run counters.
fn fleet_cache_route(hash: &str, shared: &Arc<Shared>) -> Response {
    let Ok(key) = u64::from_str_radix(hash, 16) else {
        return Response::json(
            400,
            api::error_json(&format!("bad cache hash '{hash}' (want 16 hex chars)")),
        );
    };
    match shared.cache.lock().expect("cache poisoned").get(key) {
        Some(hit) => ok_response(hit),
        None => Response::json(
            404,
            api::error_json(&format!("no cached body for {key:016x}")),
        ),
    }
}

/// Parses a trace-id path segment for `f`; a malformed one is `400`.
fn with_trace_id(hex: &str, f: impl FnOnce(u64) -> Response) -> Response {
    match parse_id(hex) {
        Some(trace_id) => f(trace_id),
        None => Response::json(
            400,
            api::error_json(&format!("bad trace id '{hex}' (want 16 hex chars)")),
        ),
    }
}

/// `GET /v1/trace/{id}`: the assembled cross-instance trace tree —
/// local records plus every peer's, linked parent-span → span.
fn trace_route(trace_id: u64, shared: &Shared) -> Response {
    let mut records = shared.traces.get(trace_id);
    if let Some(fleet) = shared.fleet.get() {
        // Collect the peers' shares with the fast-failing fill client:
        // a dead peer costs one bounded probe, not a hung read.
        let path = format!("/v1/_fleet/trace/{}", id_hex(trace_id));
        // A Down peer is skipped: it would only add a timeout.
        for (index, peer) in fleet.config.peers.iter().enumerate() {
            if index == fleet.config.self_index || !fleet.health.is_routable(index) {
                continue;
            }
            if let Ok(response) = fleet.fill.get(peer, &path, &[]) {
                if response.status == 200 {
                    records.extend(trace_store::parse_records_json(&response.body));
                }
            }
        }
    }
    if records.is_empty() {
        return Response::json(
            404,
            api::error_json(&format!(
                "no records for trace {} (expired or unknown)",
                id_hex(trace_id)
            )),
        );
    }
    // Chronological order keeps the flat list readable and the tree's
    // sibling order stable regardless of which instance answered.
    records.sort_by(|a, b| {
        a.unix_s
            .partial_cmp(&b.unix_s)
            .unwrap_or(core::cmp::Ordering::Equal)
    });
    Response::json(
        200,
        cnt_obs::trace_store::render_trace_json(trace_id, &records),
    )
}

/// The `503` answer when `what` is full, with a `Retry-After` hint for
/// the `pending` work ahead of this server's workers.
pub(crate) fn shed(shared: &Shared, pending: usize, what: &str) -> Response {
    Response {
        retry_after: Some(retry_after_hint(pending, shared.workers)),
        ..Response::json(503, api::busy_json(what))
    }
}

/// Backpressure hint for `Retry-After`: scales with how much work is
/// already pending relative to the parallelism draining it, clamped to
/// `[1, 30]` seconds. An empty shed (capacity 0) still hints 1 s.
fn retry_after_hint(pending: usize, drain: usize) -> u32 {
    pending.div_ceil(drain.max(1)).clamp(1, 30) as u32
}

/// The canonical request hash: experiment id, rendering format, and the
/// resolved parameter point — the same FNV-1a content-hash family the
/// on-disk sweep cache keys with.
fn request_key(id: &str, format: OutputFormat, params: &Params) -> u64 {
    let mut bytes = Vec::with_capacity(id.len() + 16);
    bytes.extend_from_slice(id.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(format.to_string().as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&params.content_hash().to_le_bytes());
    fnv1a(&bytes)
}

/// The `/v1/healthz` body: liveness plus the scheduler counters, read
/// straight from the same registry `/v1/metrics` renders. In fleet mode
/// a `fleet` section reports this instance's membership view — every
/// peer's health state and consecutive-failure streak.
fn healthz_json(shared: &Shared) -> String {
    let m = &shared.metrics;
    let cached = shared.cache.lock().expect("cache poisoned").len();
    let mut body = format!(
        "{{\"status\":\"ok\",\"experiments\":{},\"workers\":{},\"queue_capacity\":{},\"cached_bodies\":{},\"requests\":{},\"runs\":{},\"cache_hits\":{},\"coalesced\":{},\"rejected\":{},\"jobs_pending\":{}",
        experiments::catalog().count(),
        shared.workers,
        shared.queue_capacity,
        cached,
        m.requests.base().get(),
        m.runs.get(),
        m.cache_hits.get(),
        m.coalesced.get(),
        m.rejected.get(),
        shared.jobs.pending(),
    );
    if let Some(fleet) = shared.fleet.get() {
        body.push_str(&format!(
            ",\"fleet\":{{\"self_index\":{},\"peers\":",
            fleet.config.self_index
        ));
        let peers = fleet.config.peers.iter().zip(fleet.health.snapshot());
        json::array(peers, &mut body, |(addr, (state, failures)), out| {
            out.push_str(&format!(
                "{{\"addr\":\"{addr}\",\"state\":\"{}\",\"consecutive_failures\":{failures}}}",
                state.label(),
            ));
        });
        body.push('}');
    }
    body.push_str("}\n");
    body
}

/// The `GET /v1/metrics` body: the per-server registry (legacy
/// `cnt_serve_*` counter names, the per-status/per-experiment families,
/// the `*_seconds` histograms, and the gauges) followed by the global
/// `cnt-obs` registry (span histograms and library-layer counters from
/// `cnt-fields`/`cnt-sweep` recorded in this process). Metric names are
/// disjoint by prefix, so the concatenation stays a valid exposition.
fn metrics_text(shared: &Shared) -> String {
    refresh_gauges(shared);
    let mut out = shared.metrics.registry.render_prometheus();
    out.push_str(&cnt_obs::global().render_prometheus());
    out
}

/// Sets the gauges derived from live state (resident bodies, pending
/// jobs, uptime) — before every scrape and every history sample.
fn refresh_gauges(shared: &Shared) {
    let m = &shared.metrics;
    m.cached_bodies
        .set(shared.cache.lock().expect("cache poisoned").len() as f64);
    m.jobs_pending.set(shared.jobs.pending() as f64);
    m.uptime_seconds.set(m.started.elapsed().as_secs_f64());
}

/// One self-scraper pass: refresh the derived gauges exactly like a
/// `/v1/metrics` scrape would, then sample both registries into the
/// history rings. The per-server and global registries share one store
/// because their metric-name prefixes are disjoint (`cnt_serve_*` /
/// `cnt_fleet_*` vs `cnt_span_*` / library counters).
fn sample_history(shared: &Shared) {
    refresh_gauges(shared);
    shared.metrics.history_scrapes.inc();
    shared.history.sample(&shared.metrics.registry);
    shared.history.sample(cnt_obs::global());
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnt_interconnect::experiments::format::check_json_stream;

    #[test]
    fn request_key_separates_id_format_and_point() {
        let (_, ctx) = experiments::resolve_context("fig12", None, &[]).unwrap();
        let a = request_key("fig12", OutputFormat::Json, &ctx.params);
        assert_eq!(a, request_key("fig12", OutputFormat::Json, &ctx.params));
        assert_ne!(a, request_key("fig12", OutputFormat::Csv, &ctx.params));
        assert_ne!(a, request_key("fig11", OutputFormat::Json, &ctx.params));
        let sets = vec![("nc".to_string(), "6".to_string())];
        let (_, moved) = experiments::resolve_context("fig12", None, &sets).unwrap();
        assert_ne!(a, request_key("fig12", OutputFormat::Json, &moved.params));
    }

    #[test]
    fn retry_after_scales_with_pending_depth() {
        assert_eq!(retry_after_hint(0, 4), 1);
        assert_eq!(retry_after_hint(1, 1), 1);
        assert_eq!(retry_after_hint(8, 4), 2);
        assert_eq!(retry_after_hint(64, 4), 16);
        assert_eq!(retry_after_hint(10_000, 4), 30, "hint is capped");
        assert_eq!(retry_after_hint(5, 0), 5, "zero drain is guarded");
    }

    #[test]
    fn access_log_lines_render_both_formats() {
        let record = AccessRecord {
            request_id: "00c0ffee-000001",
            trace_id: "00000000deadbeef",
            method: "POST",
            path: "/v1/experiments/fig\"12/run",
            experiment: Some("fig\"12"),
            status: 200,
            bytes: 512,
            duration_s: 0.012345,
        };
        let text = access_log_line(AccessLogFormat::Text, &record);
        assert!(text.ends_with('\n'));
        assert!(
            text.contains("00c0ffee-000001 \"POST /v1/experiments/fig\"12/run\" 200 512B"),
            "{text}"
        );
        assert!(text.contains(" trace=00000000deadbeef\n"), "{text}");
        let json = access_log_line(AccessLogFormat::Json, &record);
        assert!(json.ends_with('\n') && json.lines().count() == 1);
        check_json_stream(&json).expect("json access log line must parse");
        assert!(json.contains("\"status\":200"), "{json}");
        assert!(json.contains("\"duration_s\":0.012345"), "{json}");
        assert!(json.contains("fig\\\"12"), "escaped path: {json}");
        assert!(json.contains("\"trace_id\":\"00000000deadbeef\""), "{json}");
        assert!(json.contains("\"experiment\":\"fig\\\"12\""), "{json}");
        // Non-run lines omit the experiment field entirely.
        let probe = access_log_line(
            AccessLogFormat::Json,
            &AccessRecord {
                experiment: None,
                path: "/v1/healthz",
                method: "GET",
                ..record
            },
        );
        assert!(!probe.contains("\"experiment\""), "{probe}");
        check_json_stream(&probe).expect("probe line must parse");
    }

    #[test]
    fn experiment_of_extracts_run_and_sweep_ids() {
        assert_eq!(experiment_of("/v1/experiments/fig12/run"), Some("fig12"));
        assert_eq!(experiment_of("/v1/experiments/fig12/run/"), Some("fig12"));
        assert_eq!(experiment_of("/v1/sweeps/table1"), Some("table1"));
        assert_eq!(experiment_of("/v1/experiments/fig12"), None);
        assert_eq!(experiment_of("/v1/experiments//run"), None);
        assert_eq!(experiment_of("/v1/healthz"), None);
        assert_eq!(experiment_of("/v1/experiments/a/b/run"), None);
    }

    /// A bare single-instance `Shared` for unit tests.
    fn test_shared() -> Shared {
        let (jobs, _) = Jobs::open(1, Duration::from_secs(1), None).unwrap();
        Shared {
            metrics: Metrics::new(1, 1),
            cache: Mutex::new(LruCache::new(1)),
            inflight: Mutex::new(HashMap::new()),
            runner: Box::new(|exp, ctx| exp.run(ctx)),
            workers: 1,
            queue_capacity: 1,
            request_deadline: Duration::from_secs(1),
            keep_alive_idle: Duration::from_secs(1),
            max_requests_per_connection: 1,
            access_log: None,
            rid_prefix: 0xc0ffee,
            rid_seq: AtomicU64::new(0),
            span_seq: AtomicU64::new(0),
            history: HistoryStore::new(8),
            slos: slo::default_serve_slos(),
            traces: TraceStore::new(8, Duration::from_secs(60)),
            profile: Profile::new(),
            instance: "127.0.0.1:0".to_string(),
            pool: Arc::new(WorkerPool::new(1, 1)),
            jobs,
            fleet: OnceLock::new(),
        }
    }

    #[test]
    fn scope_adopts_valid_headers_and_mints_otherwise() {
        let shared = test_shared();
        let request = |headers: Vec<(&str, &str)>| Request {
            method: "POST".to_string(),
            path: "/v1/experiments/fig12/run".to_string(),
            http11: true,
            headers: headers
                .into_iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        };

        // A fleet hop: every id adopted, parent linked.
        let hop = request(vec![
            ("x-request-id", "00abcdef-000003"),
            ("x-trace-id", "00000000deadbeef"),
            ("x-parent-span", "00000000cafebabe"),
        ]);
        let scope = scope_for(&shared, Some(&hop));
        assert_eq!(scope.request_id, "00abcdef-000003");
        assert_eq!(scope.trace.trace_id, 0xdeadbeef);
        assert_eq!(scope.trace.parent, Some(0xcafebabe));
        assert_ne!(scope.trace.span_id, 0);

        // Garbage headers: minted ids, no parent.
        let junk = request(vec![
            ("x-request-id", "has space"),
            ("x-trace-id", "not-hex"),
            ("x-parent-span", "00000000cafebabe"),
        ]);
        let scope = scope_for(&shared, Some(&junk));
        assert!(
            scope.request_id.starts_with("00c0ffee-"),
            "{}",
            scope.request_id
        );
        assert_eq!(scope.trace.parent, None, "parent needs a valid trace id");
        assert_ne!(scope.trace.trace_id, 0);

        // No request at all (parse errors): still fully identified.
        let scope = scope_for(&shared, None);
        assert!(scope.request_id.starts_with("00c0ffee-"));
        assert_ne!(scope.trace.trace_id, 0);
    }

    #[test]
    fn server_metrics_render_is_validator_clean_and_byte_compatible() {
        let m = Metrics::new(4, 32);
        m.requests.base().add(2);
        m.count_response(200);
        m.count_response(404);
        m.runs.inc();
        m.request_seconds.record(0.01);
        let text = m.registry.render_prometheus();
        cnt_obs::promcheck::validate(&text).expect("registry render must validate");
        // The PR 5 sample lines survive byte-for-byte.
        for line in [
            "cnt_serve_requests_total 2\n",
            "cnt_serve_runs_total 1\n",
            "cnt_serve_cache_hits_total 0\n",
            "cnt_serve_cache_misses_total 0\n",
            "cnt_serve_coalesced_total 0\n",
            "cnt_serve_rejected_total 0\n",
            "cnt_serve_keepalive_reuses_total 0\n",
            "cnt_serve_workers 4\n",
            "cnt_serve_queue_capacity 32\n",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        // New series: status labels and phase histograms.
        assert!(text.contains("cnt_serve_requests_total{status=\"200\"} 1\n"));
        assert!(text.contains("cnt_serve_requests_total{status=\"404\"} 1\n"));
        assert!(text.contains("cnt_serve_request_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("# TYPE cnt_serve_uptime_seconds gauge\n"));
    }

    #[test]
    fn request_ids_are_unique_per_server() {
        let shared = test_shared();
        let a = shared.next_request_id();
        let b = shared.next_request_id();
        assert_ne!(a, b);
        assert!(a.starts_with("00c0ffee-"), "{a}");
        // Span ids come off their own sequence, never perturbing the
        // request-id numbering, and are never zero.
        let span_a = shared.mint_id();
        let span_b = shared.mint_id();
        assert_ne!(span_a, 0);
        assert_ne!(span_a, span_b);
        assert_eq!(shared.next_request_id(), "00c0ffee-000002");
    }
}
