//! The sweep-job coordinator behind `POST /v1/sweeps/{id}`.
//!
//! A job's whole lifecycle lives here: submission and the override gate,
//! the worker task, local or fanned-out execution, the terminal record,
//! status/result polling (relayed fleet-wide), and crash recovery. This
//! module alone owns the durable job state:
//!
//! - the **journal schema** — four records (`submitted`, `chunk_done`,
//!   `job_done`, `job_failed`) appended to `journal.log` under the data
//!   dir, folded back into per-job state and compacted at startup;
//! - the **chunk wire format** — the `POST /v1/_fleet/chunk` request a
//!   coordinator sends and the encoded table a worker answers with;
//! - the per-job [`ChunkBoard`] every dispatch lane claims from, and the
//!   content-hash [`ResultStore`] that makes finished chunks durable.
//!
//! The HTTP side (routing, tracing, fleet membership) stays in
//! [`crate::server`]; it hands this module one [`Jobs`] value and the
//! shared server state.

use crate::http::{Request, Response};
use crate::server::{
    capture_trace, peer_response, render_report, shed, static_content_type, FleetState,
    RequestScope, Shared,
};
use crate::{api, Error, Result};
use cnt_fleet::{journal, ChunkBoard, ChunkClaim, JobBody, JobEntry, JobState, JobTable};
use cnt_interconnect::experiments::format::OutputFormat;
use cnt_interconnect::experiments::{self, ChunkableSweep, SweepRun};
use cnt_obs::json::{self, JsonValue};
use cnt_obs::trace_store::TraceContext;
use cnt_sweep::{chunk_ranges, ResultStore};
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The async job registry plus its durable state.
pub(crate) struct Jobs {
    table: JobTable,
    /// Durable-state root (`Config::data_dir`); `None` = memory only.
    data_dir: Option<PathBuf>,
    /// The append side of the job journal (`None` without a data dir).
    journal: Option<Mutex<journal::Journal>>,
}

impl Jobs {
    /// Opens the job state. With a data dir, crash recovery's first step
    /// runs here: the journal folds into per-job state before anything
    /// can append to it, then superseded records are compacted away so
    /// the file stays proportional to live jobs. The folded jobs come
    /// back for [`recover`] to reinstate once the server is up.
    pub(crate) fn open(
        capacity: usize,
        ttl: Duration,
        data_dir: Option<PathBuf>,
    ) -> Result<(Self, Vec<RecoveredJob>)> {
        let mut recovered = Vec::new();
        let journal = match &data_dir {
            Some(dir) => {
                let path = dir.join("journal.log");
                let replayed =
                    journal::replay(&path).map_err(|e| Error::io("journal replay", e))?;
                recovered = fold_journal(&replayed.records);
                journal::rewrite(&path, &compact_records(&recovered))
                    .map_err(|e| Error::io("journal compact", e))?;
                let journal =
                    journal::Journal::open(&path).map_err(|e| Error::io("journal open", e))?;
                Some(Mutex::new(journal))
            }
            None => None,
        };
        let jobs = Self {
            table: JobTable::new(capacity, ttl),
            data_dir,
            journal,
        };
        Ok((jobs, recovered))
    }

    /// Jobs currently queued or running.
    pub(crate) fn pending(&self) -> usize {
        self.table.pending()
    }

    /// The chunk-result store backing crash resume. On disk under the
    /// data dir; without one, a throwaway in-memory store (fan-out still
    /// works, chunks just cannot be recalled across restarts).
    fn chunk_store(&self) -> ResultStore {
        match &self.data_dir {
            Some(dir) => ResultStore::on_disk(dir.join("sweep-cache")),
            None => ResultStore::in_memory(),
        }
    }
}

/// Appends one record to the job journal, when one is configured. An
/// append failure only skips the counter — the job still runs; it just
/// would not survive a crash, which is the pre-journal behavior, not a
/// new failure mode.
fn journal_append(shared: &Shared, payload: &str) {
    if let Some(journal) = &shared.jobs.journal {
        if journal
            .lock()
            .expect("journal poisoned")
            .append(payload)
            .is_ok()
        {
            shared.metrics.journal_records.inc();
        }
    }
}

/// One accepted sweep job, as the journal and the worker task see it:
/// everything needed to re-run the job deterministically after a crash.
#[derive(Debug, Clone, PartialEq)]
struct JobSpec {
    rid: String,
    point: SweepPoint,
    format: OutputFormat,
}

/// Which experiment a sweep runs, at which parameter point. The
/// journal's `submitted` record and the `/v1/_fleet/chunk` request body
/// carry it as the same `"experiment"`, `"preset"` and `"sets"` members,
/// written by [`SweepPoint::push_members`] and read by
/// [`SweepPoint::from_members`], so the two formats cannot drift apart.
#[derive(Debug, Clone, PartialEq)]
struct SweepPoint {
    experiment: String,
    preset: Option<String>,
    sets: Vec<(String, String)>,
}

impl SweepPoint {
    /// Appends `"experiment":…[,"preset":…],"sets":[[key,value],…]`,
    /// without the enclosing braces.
    fn push_members(&self, out: &mut String) {
        out.push_str("\"experiment\":");
        json::string(&self.experiment, out);
        if let Some(preset) = &self.preset {
            out.push_str(",\"preset\":");
            json::string(preset, out);
        }
        out.push_str(",\"sets\":");
        json::array(&self.sets, out, |(k, v), out| {
            json::array([k, v], out, |s, out| json::string(s, out));
        });
    }

    /// Reads the members [`SweepPoint::push_members`] writes out of a
    /// parsed object; any other members are the caller's to check.
    fn from_members(doc: &JsonValue) -> core::result::Result<Self, String> {
        let experiment = match doc.get("experiment").and_then(JsonValue::as_str) {
            Some(experiment) if !experiment.is_empty() => experiment.to_string(),
            _ => return Err("missing 'experiment'".to_string()),
        };
        let preset = match doc.get("preset") {
            None => None,
            Some(v) => Some(v.as_str().ok_or("'preset' must be a string")?.to_string()),
        };
        let pair = |item: &JsonValue| match item.as_array()? {
            [k, v] => Some((k.as_str()?.to_string(), v.as_str()?.to_string())),
            _ => None,
        };
        let sets = match doc.get("sets") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .and_then(|items| items.iter().map(pair).collect())
                .ok_or("each set must be a [key, value] pair")?,
        };
        Ok(SweepPoint {
            experiment,
            preset,
            sets,
        })
    }
}

/// `POST /v1/sweeps/{id}`: validate, register a job, journal the
/// submission, enqueue the sweep on the worker pool, answer `202` + the
/// job id immediately.
pub(crate) fn submit(
    id: &str,
    request: &Request,
    scope: &RequestScope,
    shared: &Arc<Shared>,
) -> Response {
    let run_request = match api::parse_run_request(&request.body) {
        Ok(r) => r,
        Err(message) => return Response::json(400, api::error_json(&message)),
    };
    // The one sweep gate, before anything is queued: the id must exist
    // *and* have a sweep variant, and every override must resolve and be
    // one the sweep reads. The worker task re-opens the sweep from the
    // spec (deterministic), so a journal-recovered job takes exactly this
    // route minus the HTTP.
    let point = SweepPoint {
        experiment: id.to_string(),
        preset: run_request.preset,
        sets: run_request.sets,
    };
    if let Err((status, body)) = open_sweep(&point) {
        return Response::json(status, body);
    }

    let rid = shared.next_request_id();
    let Ok(job) = shared.jobs.table.create(&rid, id) else {
        return shed(shared, shared.jobs.pending(), "job table");
    };
    shared.metrics.jobs_total.with("queued").inc();
    let spec = JobSpec {
        rid: rid.clone(),
        point,
        format: run_request.format,
    };
    // Durability: the submission record hits the journal before the 202
    // leaves, so a coordinator killed right after answering still
    // re-runs the job on restart.
    journal_append(shared, &submitted_record(&spec));
    // The job runs on another pool worker after this request already
    // answered 202 — it records its *own* trace record as a child of
    // this request's span, so `GET /v1/trace/{id}` shows the async work
    // hanging off the ingress hop that queued it.
    let job_scope = RequestScope {
        request_id: rid.clone(),
        trace: scope.trace.child_of(shared.mint_id()),
    };
    if spawn(shared, job, spec, job_scope).is_err() {
        // The work never made it onto the queue; withdraw the job so it
        // cannot sit `queued` forever (closing its journal entry too),
        // and shed like any other overload.
        shared.jobs.table.remove(&rid);
        journal_append(
            shared,
            &job_failed_record(&rid, 503, &api::busy_json("request queue")),
        );
        return shed(shared, shared.pool.queued(), "request queue");
    }
    Response::json(
        202,
        format!(
            "{{\"job\":\"{rid}\",\"experiment\":\"{id}\",\"status\":\"queued\",\"poll\":\"/v1/jobs/{rid}\"}}\n"
        ),
    )
}

/// Enqueues one accepted sweep job (fresh submission or journal
/// recovery) on the worker pool. The task resolves everything from the
/// spec, runs it (locally or fanned out across the fleet) under its own
/// trace capture, and records the terminal state in the job table and
/// the journal.
fn spawn(
    shared: &Arc<Shared>,
    job: Arc<JobEntry>,
    spec: JobSpec,
    scope: RequestScope,
) -> core::result::Result<(), ()> {
    let pool = Arc::clone(&shared.pool);
    let shared = Arc::clone(shared);
    let task = Box::new(move || {
        job.mark_running();
        shared.metrics.jobs_total.with("running").inc();
        let name = format!("job {}", spec.point.experiment);
        // The executor reports into the job's progress counters via the
        // thread-local scope; a panicking kernel fails the job instead
        // of poisoning the pool worker.
        let run_result = capture_trace(&shared, &scope, name, "serve.job", || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cnt_sweep::progress::scoped(Arc::clone(&job.progress), || execute(&shared, &spec))
            }));
            (result, 0)
        });
        let (status, body) = match run_result {
            Ok(Ok((content_type, body))) => {
                finish(&shared, &job, &spec.rid, content_type, body);
                shared.metrics.jobs_total.with("done").inc();
                return;
            }
            Ok(Err(failure)) => failure,
            Err(_) => (
                500,
                api::error_json(&format!(
                    "sweep '{}' panicked during execution",
                    spec.point.experiment
                )),
            ),
        };
        journal_append(&shared, &job_failed_record(&spec.rid, status, &body));
        job.fail(status, body);
        shared.metrics.jobs_total.with("failed").inc();
    });
    pool.submit(task).map_err(|_| ())
}

/// Publishes a finished job body: spilled to disk (streamed back at
/// result time, so the job table never holds whole report bodies) when
/// a data dir is configured, inline otherwise. The journal records
/// where the bytes live so a restart re-serves them without rerunning.
fn finish(shared: &Shared, job: &JobEntry, rid: &str, content_type: &'static str, body: String) {
    if let Some(dir) = &shared.jobs.data_dir {
        let spill_dir = dir.join("jobs");
        let path = spill_dir.join(format!("{rid}.body"));
        let written = std::fs::create_dir_all(&spill_dir)
            .and_then(|()| std::fs::write(&path, body.as_bytes()));
        if written.is_ok() {
            let bytes = body.len() as u64;
            journal_append(shared, &job_done_record(rid, content_type, &path, bytes));
            job.complete_spilled(content_type, path, bytes);
            return;
        }
        // Spill failure degrades to the in-memory path: the job still
        // completes, it just is not crash-durable.
    }
    job.complete(content_type, body);
}

/// Opens a sweep point through [`experiments::chunkable_sweep`], the
/// gate every sweep path shares: an unknown id is `404`; no sweep
/// variant, a bad override, or one the sweep does not read is `400`.
fn open_sweep(point: &SweepPoint) -> core::result::Result<ChunkableSweep, (u16, String)> {
    experiments::resolve_context(&point.experiment, point.preset.as_deref(), &point.sets)
        .and_then(|(_, ctx)| experiments::chunkable_sweep(&point.experiment, &ctx))
        .map_err(|e| {
            let status = match e {
                cnt_interconnect::Error::UnknownExperiment(_) => 404,
                _ => 400,
            };
            (status, api::error_json(&e.to_string()))
        })
}

/// Runs one sweep job to its rendered body: whole on this instance, or
/// in chunks when a fleet is configured (fan-out) or a data dir is
/// (chunk-level crash resume, local lane only).
fn execute(
    shared: &Arc<Shared>,
    spec: &JobSpec,
) -> core::result::Result<(&'static str, String), (u16, String)> {
    let sweep = open_sweep(&spec.point)?;
    let run = if shared.fleet.get().is_some() || shared.jobs.data_dir.is_some() {
        fanout_sweep(shared, spec, &sweep)?
    } else {
        sweep
            .run()
            .map_err(|e| (500, api::error_json(&e.to_string())))?
    };
    Ok(render_report(&run.report, spec.format))
}

/// Distributes one sweep across the fleet: deterministic chunk split,
/// remote dispatch with re-dispatch on failure, local execution as the
/// lane of last resort, and chunk-level crash resume through the
/// content-hash chunk store. Per-job rows concatenate in global index
/// order into the same [`ChunkableSweep::finish`] reduce a whole run
/// uses, so the merged report is byte-identical by construction.
fn fanout_sweep(
    shared: &Arc<Shared>,
    spec: &JobSpec,
    sweep: &ChunkableSweep,
) -> core::result::Result<SweepRun, (u16, String)> {
    // The full-table cache already holds this exact run — nothing to
    // fan out.
    if let Some(run) = sweep.cached_run() {
        return Ok(run);
    }
    let fleet = shared.fleet.get();
    let n_jobs = sweep.jobs();
    // Twice as many chunks as peers keeps every lane busy even when
    // peers run at different speeds; the split depends only on the
    // topology and the plan (a fixed 8 when running chunked purely for
    // durability), so a restarted coordinator derives the same
    // boundaries — which is what keeps chunk cache keys stable across
    // crashes.
    let slots = fleet.map_or(8, |f| f.config.peers.len() * 2);
    let ranges = chunk_ranges(n_jobs, slots.clamp(1, n_jobs.max(1)));
    let fan = FanOut {
        spec,
        sweep,
        board: ChunkBoard::new(&ranges),
        results: Mutex::new(vec![None; ranges.len()]),
        abort: Mutex::new(None),
        store: shared.jobs.chunk_store(),
        deadline: fleet.map_or(Duration::from_secs(1), |f| {
            f.config.proxy_timeout.max(Duration::from_secs(1))
        }),
    };

    // Resume pass: chunks a previous life of this coordinator finished
    // recall from the store — counted as sweep cache hits, the signal
    // the restart e2e asserts on — and are never dispatched at all.
    for (index, range) in ranges.iter().enumerate() {
        let key = sweep.chunk_key(range.start, range.end);
        let probe = fan.store.get_or_compute(&key, || {
            Err(cnt_sweep::Error::Job {
                index: range.start,
                message: "chunk not computed yet".to_string(),
            })
        });
        if let Ok((table, _)) = probe {
            fan.results.lock().expect("results poisoned")[index] = Some(table.rows);
            fan.board.complete(index);
            shared.metrics.chunks_total.with("resumed").inc();
        }
    }

    std::thread::scope(|scope| {
        if let Some(fleet) = fleet {
            for peer_index in 0..fleet.config.peers.len() {
                if peer_index != fleet.config.self_index {
                    let fan = &fan;
                    scope.spawn(move || fan.lane(shared, Some((fleet, peer_index))));
                }
            }
        }
        // The coordinator's own lane runs on this thread — the reason a
        // job finishes even with every peer dead.
        fan.lane(shared, None);
    });

    if let Some(failure) = fan.abort.into_inner().expect("abort poisoned") {
        return Err(failure);
    }
    let mut per_job = Vec::with_capacity(n_jobs);
    for rows in fan.results.into_inner().expect("results poisoned") {
        per_job.extend(rows.expect("all chunks done implies every chunk present"));
    }
    sweep
        .finish(per_job)
        .map_err(|e| (500, api::error_json(&e.to_string())))
}

/// Backoff before a failed chunk is claimable again: doubles with the
/// attempt count, capped well under the steal deadline so a flaky peer
/// cannot wedge a chunk.
fn chunk_retry_delay(attempt: u32) -> Duration {
    Duration::from_millis(10u64 << attempt.min(5))
}

/// One fanned-out job's coordination state, shared by all its lanes:
/// each lane claims chunks off `board` and records their rows in
/// `results` until every chunk is done or one fails for good.
struct FanOut<'a> {
    spec: &'a JobSpec,
    sweep: &'a ChunkableSweep,
    board: ChunkBoard,
    results: Mutex<Vec<Option<Vec<Vec<f64>>>>>,
    abort: Mutex<Option<(u16, String)>>,
    store: ResultStore,
    deadline: Duration,
}

/// What a lane did with one claimed chunk.
enum ChunkOutcome {
    /// The chunk's rows, and the `chunks_total` label to count them under.
    Done(Vec<Vec<f64>>, &'static str),
    /// Hand the chunk back (with a backoff) so another lane re-runs it;
    /// `close` also ends this lane for the job.
    Requeue { close: bool },
    /// A deterministic failure — re-dispatching would fail identically
    /// everywhere, so the whole job aborts.
    Abort((u16, String)),
}

impl FanOut<'_> {
    /// One dispatch lane: claim a chunk, run it, record the outcome.
    /// `peer` names the fleet peer this lane POSTs its chunks to; `None`
    /// is the coordinator's own lane, which runs them through the chunk
    /// store.
    fn lane(&self, shared: &Shared, peer: Option<(&FleetState, usize)>) {
        loop {
            if self.board.all_done() || self.abort.lock().expect("abort poisoned").is_some() {
                return;
            }
            // A Down peer closes its lane: the board's stealing rule hands
            // any in-flight chunk to someone else, and the background
            // prober brings the peer back for the *next* job.
            if peer.is_some_and(|(fleet, index)| !fleet.health.is_routable(index)) {
                return;
            }
            let Some(claim) = self.board.claim(Instant::now(), self.deadline) else {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            let outcome = match peer {
                Some((fleet, index)) => self.remote_chunk(fleet, index, &claim.range),
                None => self.local_chunk(&claim.range),
            };
            match outcome {
                ChunkOutcome::Done(rows, label) => {
                    self.results.lock().expect("results poisoned")[claim.index] = Some(rows);
                    if self.board.complete(claim.index) {
                        journal_append(shared, &chunk_done_record(&self.spec.rid, &claim));
                        shared.metrics.chunks_total.with(label).inc();
                    }
                }
                ChunkOutcome::Requeue { close } => {
                    self.board.requeue(
                        claim.index,
                        Instant::now(),
                        chunk_retry_delay(claim.attempt),
                    );
                    shared.metrics.chunks_total.with("requeued").inc();
                    if close {
                        return;
                    }
                }
                ChunkOutcome::Abort(failure) => {
                    *self.abort.lock().expect("abort poisoned") = Some(failure);
                    return;
                }
            }
        }
    }

    /// Runs a chunk here, through the chunk store: completed work is both
    /// crash-durable and never recomputed after a resume.
    fn local_chunk(&self, range: &Range<usize>) -> ChunkOutcome {
        match self.sweep.run_chunk(&self.store, range.start, range.end) {
            Ok((table, hit)) => {
                ChunkOutcome::Done(table.rows, if hit { "resumed" } else { "local" })
            }
            Err(e) => ChunkOutcome::Abort((500, api::error_json(&e.to_string()))),
        }
    }

    /// POSTs a chunk to a peer. Transport failures feed the fleet failure
    /// detector; a refusal other than a momentary `503` (fingerprint
    /// mismatch, unknown experiment) cannot succeed on a retry, so it
    /// closes the lane.
    fn remote_chunk(
        &self,
        fleet: &FleetState,
        peer_index: usize,
        range: &Range<usize>,
    ) -> ChunkOutcome {
        let key = self.sweep.chunk_key(range.start, range.end);
        let body = chunk_request_json(self.spec, self.sweep.fingerprint(), range);
        let addr = fleet.config.peer(peer_index);
        match fleet.proxy.post(addr, "/v1/_fleet/chunk", &body, &[]) {
            Ok(peer) if peer.status == 200 => {
                fleet.record_peer_success(peer_index);
                match cnt_sweep::json::decode_table(&peer.body) {
                    Ok(table) if table.key == key.hex() && table.rows.len() == range.len() => {
                        // Persist before reporting done: a coordinator
                        // killed right after this resumes the chunk from
                        // disk instead of re-fetching it.
                        let _ = self
                            .store
                            .put(&key, table.columns.clone(), table.rows.clone());
                        ChunkOutcome::Done(table.rows, "remote")
                    }
                    // A 200 whose rows we cannot trust (foreign build,
                    // wrong shape): requeue; only the health detector
                    // decides this peer's fate.
                    _ => ChunkOutcome::Requeue { close: false },
                }
            }
            Ok(peer) => {
                fleet.record_peer_success(peer_index);
                ChunkOutcome::Requeue {
                    close: peer.status != 503,
                }
            }
            Err(e) => {
                if e.is_transport() {
                    fleet.record_peer_failure(peer_index);
                }
                ChunkOutcome::Requeue { close: false }
            }
        }
    }
}

/// The coordinator→worker chunk request body.
fn chunk_request_json(spec: &JobSpec, fingerprint: u64, range: &Range<usize>) -> String {
    let mut out = String::with_capacity(160);
    out.push('{');
    spec.point.push_members(&mut out);
    out.push_str(&format!(
        ",\"lo\":{},\"hi\":{},\"fingerprint\":\"{fingerprint:016x}\"}}",
        range.start, range.end
    ));
    out
}

/// A parsed `/v1/_fleet/chunk` request.
struct ChunkRequest {
    point: SweepPoint,
    lo: usize,
    hi: usize,
    fingerprint: u64,
}

fn parse_chunk_request(body: &[u8]) -> core::result::Result<ChunkRequest, String> {
    let text = core::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let doc = json::parse(text)?;
    let JsonValue::Object(members) = &doc else {
        return Err("chunk request must be a JSON object".to_string());
    };
    let known = ["experiment", "preset", "sets", "lo", "hi", "fingerprint"];
    if let Some((other, _)) = members
        .iter()
        .find(|(name, _)| !known.contains(&name.as_str()))
    {
        return Err(format!("unknown chunk member '{other}'"));
    }
    let index = |name: &str| match doc.get(name) {
        None => Ok(0),
        Some(v) => v.as_number().ok_or_else(|| format!("bad chunk {name}")),
    };
    let fingerprint = match doc.get("fingerprint") {
        None => 0,
        Some(v) => v
            .as_str()
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or("bad fingerprint (want 16 hex chars)")?,
    };
    Ok(ChunkRequest {
        point: SweepPoint::from_members(&doc)?,
        lo: index("lo")?,
        hi: index("hi")?,
        fingerprint,
    })
}

/// `POST /v1/_fleet/chunk`: run one chunk of a fanned-out sweep and
/// answer its rows as an encoded table. Internal — coordinators call
/// it; it never fans out further. The fingerprint gate rejects a
/// coordinator whose resolved plan differs (version skew), turning
/// silent row corruption into a `409`.
pub(crate) fn chunk_route(request: &Request, shared: &Shared) -> Response {
    let chunk = match parse_chunk_request(&request.body) {
        Ok(chunk) => chunk,
        Err(message) => return Response::json(400, api::error_json(&message)),
    };
    let sweep = match open_sweep(&chunk.point) {
        Ok(sweep) => sweep,
        Err((status, body)) => return Response::json(status, body),
    };
    if sweep.fingerprint() != chunk.fingerprint {
        return Response::json(
            409,
            api::error_json(&format!(
                "sweep fingerprint mismatch: coordinator {:016x}, this instance {:016x}",
                chunk.fingerprint,
                sweep.fingerprint()
            )),
        );
    }
    if chunk.lo >= chunk.hi || chunk.hi > sweep.jobs() {
        return Response::json(
            400,
            api::error_json(&format!(
                "chunk {}..{} out of range for {} jobs",
                chunk.lo,
                chunk.hi,
                sweep.jobs()
            )),
        );
    }
    // The worker's own chunk store: a re-dispatched chunk this instance
    // already ran answers from disk, and a worker that dies mid-chunk
    // leaves nothing to clean up.
    let computed = sweep.run_chunk(&shared.jobs.chunk_store(), chunk.lo, chunk.hi);
    match computed {
        Ok((table, _)) => Response::json(200, cnt_sweep::json::encode_table(&table)),
        Err(e) => Response::json(500, api::error_json(&e.to_string())),
    }
}

/// Asks the rest of the fleet for a job this instance does not hold, so
/// any instance can be polled for any job. The status poll rides the
/// fast fill client; the result fetch rides the patient proxy client
/// (bodies can be large, and it carries the chaos injector — result
/// relays are part of the injected fault surface).
fn peer_lookup(shared: &Shared, rid: &str, result: bool) -> Option<Response> {
    let fleet = shared.fleet.get()?;
    let path = format!(
        "/v1/_fleet/jobs/{rid}{}",
        if result { "/result" } else { "" }
    );
    for (index, addr) in fleet.config.peers.iter().enumerate() {
        if index == fleet.config.self_index || !fleet.health.is_routable(index) {
            continue;
        }
        let client = if result { &fleet.proxy } else { &fleet.fill };
        match client.get(addr, &path, &[]) {
            Ok(peer) if peer.status != 404 => {
                fleet.record_peer_success(index);
                return Some(peer_response(&peer));
            }
            Ok(_) => fleet.record_peer_success(index),
            Err(e) => {
                if e.is_transport() {
                    fleet.record_peer_failure(index);
                }
            }
        }
    }
    None
}

/// The `GET /v1/jobs/{rid}` body: id, experiment, status, and the live
/// trial-progress counters.
fn status_json(job: &JobEntry, state: &JobState) -> String {
    format!(
        "{{\"job\":\"{}\",\"experiment\":\"{}\",\"status\":\"{}\",\"done\":{},\"total\":{}}}\n",
        job.id,
        job.sweep_id,
        state.label(),
        job.progress.done(),
        job.progress.total(),
    )
}

/// A job this instance does not hold: on the public route (`fan_out`)
/// the rest of the fleet is asked first, so clients may poll any
/// instance; otherwise (or when no peer has it) `404`.
fn missing(shared: &Shared, rid: &str, result: bool, fan_out: bool) -> Response {
    if fan_out {
        if let Some(relayed) = peer_lookup(shared, rid, result) {
            return relayed;
        }
    }
    Response::json(
        404,
        api::error_json(&format!("no such job '{rid}' (expired or never created)")),
    )
}

/// `GET /v1/jobs/{rid}`: poll an async job's lifecycle and progress.
pub(crate) fn status_route(rid: &str, shared: &Shared, fan_out: bool) -> Response {
    match shared.jobs.table.get(rid) {
        Some(job) => Response::json(200, status_json(&job, &job.state())),
        None => missing(shared, rid, false, fan_out),
    }
}

/// `GET /v1/jobs/{rid}/result`: the finished body, the failure, or —
/// while the job is still queued/running — `202` + the status body.
/// Spilled bodies stream from disk in chunks instead of being loaded
/// whole; the public route relays fleet-wide like the status poll.
pub(crate) fn result_route(rid: &str, shared: &Shared, fan_out: bool) -> Response {
    let Some(job) = shared.jobs.table.get(rid) else {
        return missing(shared, rid, true, fan_out);
    };
    match job.state() {
        JobState::Done {
            content_type, body, ..
        } => match body {
            JobBody::Inline(text) => Response {
                content_type: static_content_type(&content_type),
                ..Response::json(200, text)
            },
            JobBody::Spilled { path, bytes } => {
                Response::file(static_content_type(&content_type), path, bytes)
            }
        },
        JobState::Failed { status, body, .. } => Response::json(status, body),
        state @ (JobState::Queued | JobState::Running) => {
            Response::json(202, status_json(&job, &state))
        }
    }
}

// ---------------------------------------------------------------------
// Job journal records and crash recovery
// ---------------------------------------------------------------------

/// The journal record written before a job's `202` leaves: everything
/// needed to re-run the job from scratch.
fn submitted_record(spec: &JobSpec) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"event\":\"submitted\",\"job\":");
    json::string(&spec.rid, &mut out);
    out.push(',');
    spec.point.push_members(&mut out);
    out.push_str(&format!(",\"format\":\"{}\"}}", spec.format));
    out
}

/// Progress marker appended when a chunk lands. Informational — resume
/// reads finished chunks back from the content-hash chunk store, not
/// from these — but it makes the journal a legible account of the run.
fn chunk_done_record(rid: &str, claim: &ChunkClaim) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"event\":\"chunk_done\",\"job\":");
    json::string(rid, &mut out);
    out.push_str(&format!(
        ",\"chunk\":{},\"lo\":{},\"hi\":{}}}",
        claim.index, claim.range.start, claim.range.end
    ));
    out
}

/// Terminal success record: where the spilled body lives, so a restart
/// re-serves the result without rerunning the sweep.
fn job_done_record(rid: &str, content_type: &str, path: &Path, bytes: u64) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"event\":\"job_done\",\"job\":");
    json::string(rid, &mut out);
    out.push_str(",\"content_type\":");
    json::string(content_type, &mut out);
    out.push_str(",\"path\":");
    json::string(&path.to_string_lossy(), &mut out);
    out.push_str(&format!(",\"bytes\":{bytes}}}"));
    out
}

/// Terminal failure record: the status and body the job table held.
fn job_failed_record(rid: &str, status: u16, body: &str) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"event\":\"job_failed\",\"job\":");
    json::string(rid, &mut out);
    out.push_str(&format!(",\"status\":{status},\"body\":"));
    json::string(body, &mut out);
    out.push('}');
    out
}

/// How a recovered job ended, if it did.
#[derive(Debug, Clone, PartialEq)]
enum RecoveredOutcome {
    Done {
        content_type: String,
        path: PathBuf,
        bytes: u64,
    },
    Failed {
        status: u16,
        body: String,
    },
}

/// One job folded out of the journal: its submission spec plus the
/// terminal record, when one was reached before the crash.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RecoveredJob {
    spec: JobSpec,
    outcome: Option<RecoveredOutcome>,
}

impl RecoveredJob {
    /// The outcome, demoted to "unfinished" when it points at a spill
    /// file that no longer exists — the result cannot be served, so the
    /// job re-runs instead of answering 200 with an empty body.
    fn usable_outcome(&self) -> Option<&RecoveredOutcome> {
        match &self.outcome {
            Some(RecoveredOutcome::Done { path, .. }) if !path.exists() => None,
            other => other.as_ref(),
        }
    }
}

/// Folds raw journal records into per-job state, submission order.
/// Records that do not parse, reference unknown jobs, or carry unknown
/// events are skipped — the journal is truncation-tolerant end to end.
fn fold_journal(records: &[String]) -> Vec<RecoveredJob> {
    let mut jobs: Vec<RecoveredJob> = Vec::new();
    let mut by_rid: HashMap<String, usize> = HashMap::new();
    for record in records {
        let Ok(doc) = json::parse(record) else {
            continue;
        };
        let text = |name| doc.get(name).and_then(JsonValue::as_str);
        let (Some(event), Some(rid)) = (text("event"), text("job")) else {
            continue;
        };
        match event {
            "submitted" => {
                let Ok(point) = SweepPoint::from_members(&doc) else {
                    continue;
                };
                let format = match text("format") {
                    Some("csv") => OutputFormat::Csv,
                    Some("text") => OutputFormat::Text,
                    _ => OutputFormat::Json,
                };
                if !by_rid.contains_key(rid) {
                    by_rid.insert(rid.to_string(), jobs.len());
                    jobs.push(RecoveredJob {
                        spec: JobSpec {
                            rid: rid.to_string(),
                            point,
                            format,
                        },
                        outcome: None,
                    });
                }
            }
            "job_done" => {
                let (Some(index), Some(content_type), Some(path)) =
                    (by_rid.get(rid), text("content_type"), text("path"))
                else {
                    continue;
                };
                jobs[*index].outcome = Some(RecoveredOutcome::Done {
                    content_type: content_type.to_string(),
                    path: PathBuf::from(path),
                    bytes: doc.get("bytes").and_then(JsonValue::as_number).unwrap_or(0),
                });
            }
            "job_failed" => {
                let (Some(index), Some(body)) = (by_rid.get(rid), text("body")) else {
                    continue;
                };
                jobs[*index].outcome = Some(RecoveredOutcome::Failed {
                    status: doc
                        .get("status")
                        .and_then(JsonValue::as_number)
                        .unwrap_or(500),
                    body: body.to_string(),
                });
            }
            // chunk_done and anything newer: progress markers, not state.
            _ => {}
        }
    }
    jobs
}

/// The compacted journal for a recovered state: one submission record
/// per job plus its terminal record when one is still usable. Replaces
/// the replayed log on startup, so the journal stays proportional to
/// the job table rather than to history.
fn compact_records(jobs: &[RecoveredJob]) -> Vec<String> {
    let mut records = Vec::with_capacity(jobs.len() * 2);
    for job in jobs {
        records.push(submitted_record(&job.spec));
        match job.usable_outcome() {
            Some(RecoveredOutcome::Done {
                content_type,
                path,
                bytes,
            }) => records.push(job_done_record(&job.spec.rid, content_type, path, *bytes)),
            Some(RecoveredOutcome::Failed { status, body }) => {
                records.push(job_failed_record(&job.spec.rid, *status, body));
            }
            None => {}
        }
    }
    records
}

/// Crash recovery, step 2 (after the fleet joins, so recovered jobs fan
/// out like fresh ones): finished jobs re-enter the table in their
/// terminal state (results served straight from the spill), unfinished
/// ones — whether they died `Queued` or `Running` — re-run from the top,
/// with completed chunks answered by the chunk store instead of
/// recomputed.
pub(crate) fn recover(shared: &Arc<Shared>, recovered: Vec<RecoveredJob>) {
    for recovered in recovered {
        let spec = &recovered.spec;
        let Ok(job) = shared.jobs.table.create(&spec.rid, &spec.point.experiment) else {
            // Table full: folded in submission order, so the later jobs
            // are the ones left out (they stay in the journal).
            continue;
        };
        shared.metrics.journal_replayed.inc();
        match recovered.usable_outcome() {
            Some(RecoveredOutcome::Done {
                content_type,
                path,
                bytes,
            }) => job.complete_spilled(content_type, path.clone(), *bytes),
            Some(RecoveredOutcome::Failed { status, body }) => job.fail(*status, body.clone()),
            None => {
                shared.metrics.jobs_total.with("queued").inc();
                let scope = RequestScope {
                    request_id: spec.rid.clone(),
                    trace: TraceContext::root(shared.mint_id(), shared.mint_id()),
                };
                if spawn(shared, job, spec.clone(), scope).is_err() {
                    shared.jobs.table.remove(&spec.rid);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rid: &str) -> JobSpec {
        JobSpec {
            rid: rid.to_string(),
            point: SweepPoint {
                experiment: "fig12".to_string(),
                preset: Some("small".to_string()),
                sets: vec![("trials".to_string(), "100".to_string())],
            },
            format: OutputFormat::Csv,
        }
    }

    #[test]
    fn journal_fold_round_trips_specs_and_outcomes() {
        // A submission record folds back into the exact spec that wrote
        // it — preset, sets, and format all survive the JSON hop.
        let jobs = fold_journal(&[submitted_record(&spec("00aa-000001"))]);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].spec, spec("00aa-000001"));
        assert_eq!(jobs[0].outcome, None);

        // A terminal failure record attaches to its job by rid.
        let jobs = fold_journal(&[
            submitted_record(&spec("00aa-000001")),
            job_failed_record("00aa-000001", 500, "{\"error\":\"boom\"}"),
        ]);
        assert_eq!(
            jobs[0].outcome,
            Some(RecoveredOutcome::Failed {
                status: 500,
                body: "{\"error\":\"boom\"}".to_string()
            })
        );

        // A done record whose spill file exists is a usable outcome…
        let dir = std::env::temp_dir().join(format!("cnt-fold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spill = dir.join("00aa-000001.body");
        std::fs::write(&spill, b"result bytes").unwrap();
        let jobs = fold_journal(&[
            submitted_record(&spec("00aa-000001")),
            job_done_record("00aa-000001", "text/csv", &spill, 12),
        ]);
        assert!(matches!(
            jobs[0].usable_outcome(),
            Some(RecoveredOutcome::Done { bytes: 12, .. })
        ));
        // …and one whose spill vanished demotes to "re-run the job".
        std::fs::remove_file(&spill).unwrap();
        assert_eq!(jobs[0].usable_outcome(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_fold_skips_garbage_and_unknown_records() {
        let jobs = fold_journal(&[
            "not json at all".to_string(),
            "{\"event\":\"job_done\",\"job\":\"never-submitted\"}".to_string(),
            "{\"event\":\"from_the_future\",\"job\":\"x\"}".to_string(),
            submitted_record(&spec("00aa-000002")),
            // chunk_done is informational: folded state ignores it.
            "{\"event\":\"chunk_done\",\"job\":\"00aa-000002\",\"chunk\":0,\"lo\":0,\"hi\":5}"
                .to_string(),
        ]);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].spec.rid, "00aa-000002");
        assert_eq!(jobs[0].outcome, None);
    }

    #[test]
    fn journal_compaction_is_idempotent_across_replays() {
        // Recovery compacts the journal it replays; replaying the
        // compacted journal must reach the same state and compact to
        // the same bytes — the double-crash case.
        let records = vec![
            submitted_record(&spec("00aa-000001")),
            submitted_record(&spec("00aa-000002")),
            job_failed_record("00aa-000001", 503, "{\"error\":\"shed\"}"),
        ];
        let once = compact_records(&fold_journal(&records));
        let twice = compact_records(&fold_journal(&once));
        assert_eq!(once, twice);
        // Both jobs survive: one terminal, one unfinished.
        let jobs = fold_journal(&once);
        assert_eq!(jobs.len(), 2);
        assert!(jobs[0].outcome.is_some());
        assert!(jobs[1].outcome.is_none());
    }

    #[test]
    fn journal_recovery_reruns_queued_and_running_alike() {
        // The journal does not distinguish Queued from Running — both
        // died without a terminal record, so both fold to "unfinished"
        // and re-run. A submitted record followed by chunk progress
        // (Running) folds identically to a bare submission (Queued).
        let queued = fold_journal(&[submitted_record(&spec("00aa-000001"))]);
        let running = fold_journal(&[
            submitted_record(&spec("00aa-000001")),
            "{\"event\":\"chunk_done\",\"job\":\"00aa-000001\",\"chunk\":0,\"lo\":0,\"hi\":5}"
                .to_string(),
        ]);
        assert_eq!(queued, running);
        assert_eq!(queued[0].usable_outcome(), None);
    }

    #[test]
    fn chunk_request_json_round_trips() {
        let body = chunk_request_json(&spec("00aa-000001"), 0xdead_beef_1234_5678, &(10..20));
        let parsed = parse_chunk_request(body.as_bytes()).unwrap();
        assert_eq!(parsed.point, spec("x").point);
        assert_eq!((parsed.lo, parsed.hi), (10, 20));
        assert_eq!(parsed.fingerprint, 0xdead_beef_1234_5678);

        assert!(parse_chunk_request(b"{}").is_err(), "missing experiment");
        assert!(parse_chunk_request(b"not json").is_err());
        assert!(
            parse_chunk_request(b"{\"experiment\":\"fig12\",\"fingerprint\":\"zz\"}").is_err(),
            "bad fingerprint hex"
        );
    }

    /// Bytes as the previous JSON code wrote them, for data an upgrade
    /// must keep reading: sweep-cache tables, `--data-dir` journals and
    /// chunk requests from peers on an older build. Each decodes to the
    /// values that wrote it and re-encodes to the same bytes.
    #[test]
    fn disk_and_wire_formats_decode_and_reencode_byte_for_byte() {
        // 1e-300 and f64::MAX as `Display` prints them.
        const TABLE: &str = concat!(
            r#"{"key":"00ff","columns":["D_nm","ratio \"q\"\n"],"rows":[[null,-0],["#,
            "0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001",
            ",",
            "179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
            "]]}",
        );
        let table = cnt_sweep::json::decode_table(TABLE).unwrap();
        assert_eq!(table.key, "00ff");
        assert_eq!(table.columns, ["D_nm", "ratio \"q\"\n"]);
        let bits: Vec<u64> = table.rows.iter().flatten().map(|v| v.to_bits()).collect();
        assert!(table.rows[0][0].is_nan());
        assert_eq!(
            bits[1..],
            [(-0.0f64).to_bits(), 1e-300f64.to_bits(), f64::MAX.to_bits()]
        );
        assert_eq!(cnt_sweep::json::encode_table(&table), TABLE);

        let submitted = r#"{"event":"submitted","job":"00aa-000001","experiment":"fig12","preset":"small","sets":[["trials","100"]],"format":"csv"}"#;
        let chunk_done = r#"{"event":"chunk_done","job":"00aa-000001","chunk":3,"lo":30,"hi":40}"#;
        let job_done = r#"{"event":"job_done","job":"00aa-000001","content_type":"text/csv","path":"jobs/00aa-000001.body","bytes":12}"#;
        let job_failed = r#"{"event":"job_failed","job":"00aa-000001","status":503,"body":"{\"error\":\"shed\"}\n"}"#;
        let fold = |tail: &str| fold_journal(&[submitted, chunk_done, tail].map(String::from));
        assert_eq!(
            fold(job_done),
            [RecoveredJob {
                spec: spec("00aa-000001"),
                outcome: Some(RecoveredOutcome::Done {
                    content_type: "text/csv".to_string(),
                    path: PathBuf::from("jobs/00aa-000001.body"),
                    bytes: 12,
                }),
            }]
        );
        assert_eq!(
            fold(job_failed)[0].outcome,
            Some(RecoveredOutcome::Failed {
                status: 503,
                body: "{\"error\":\"shed\"}\n".to_string(),
            })
        );
        assert_eq!(submitted_record(&spec("00aa-000001")), submitted);
        let claim = cnt_fleet::ChunkClaim {
            index: 3,
            range: 30..40,
            attempt: 0,
        };
        assert_eq!(chunk_done_record("00aa-000001", &claim), chunk_done);
        let path = Path::new("jobs/00aa-000001.body");
        assert_eq!(
            job_done_record("00aa-000001", "text/csv", path, 12),
            job_done
        );
        let body = "{\"error\":\"shed\"}\n";
        assert_eq!(job_failed_record("00aa-000001", 503, body), job_failed);

        let request = r#"{"experiment":"fig12","preset":"small","sets":[["trials","100"]],"lo":10,"hi":20,"fingerprint":"deadbeef12345678"}"#;
        let parsed = parse_chunk_request(request.as_bytes()).unwrap();
        assert_eq!(parsed.point, spec("x").point);
        assert_eq!((parsed.lo, parsed.hi), (10, 20));
        assert_eq!(parsed.fingerprint, 0xdead_beef_1234_5678);
        let rewritten = chunk_request_json(&spec("x"), parsed.fingerprint, &(10..20));
        assert_eq!(rewritten, request);
    }
}
