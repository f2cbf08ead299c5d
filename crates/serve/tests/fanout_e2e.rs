//! Crash-safe distributed sweeps, end to end: real multi-instance
//! fleets fanning one `POST /v1/sweeps/{id}` out as chunks, surviving
//! chaos-refused chunk posts and a worker dying mid-job, and — with a
//! data dir — resuming a killed coordinator from its journal with the
//! finished chunks recalled from the content-hash chunk store instead
//! of recomputed. The gate throughout is byte-identity: every merged
//! report must equal the single-instance computation exactly.

mod common;

use cnt_interconnect::experiments;
use cnt_serve::{
    fleet::{journal, ChaosConfig},
    Config, Server,
};
use cnt_sweep::{chunk_ranges, ResultStore};
use common::{
    await_result, fleet, fleet_with, get, job_id, member_config, post, sample, scrape, spawn,
};
use std::path::PathBuf;

/// A sweep submission at a pinned trial count with the full-table disk
/// cache disabled, so chunked execution actually runs.
fn sweep_body(trials: usize) -> String {
    format!(r#"{{"params": {{"trials": {trials}, "cache_dir": ""}}}}"#)
}

fn sweep_sets(trials: usize) -> Vec<(String, String)> {
    vec![
        ("trials".to_string(), trials.to_string()),
        ("cache_dir".to_string(), String::new()),
    ]
}

/// The fig12 point most tests use.
const FIG12_TRIALS: usize = 48;

/// The single-instance ground truth for [`sweep_body`], rendered the way
/// the job result route renders JSON.
fn expected_report(id: &str, trials: usize) -> String {
    let (_, ctx) = experiments::resolve_context(id, None, &sweep_sets(trials)).unwrap();
    let run = experiments::chunkable_sweep(id, &ctx)
        .unwrap()
        .run()
        .unwrap();
    format!("{}\n", run.report.to_json())
}

#[test]
fn fanned_out_sweep_is_byte_identical_and_readable_fleet_wide() {
    // fig12's per-job rows are its final rows; fig05's per-job rows are
    // narrower than the table its reduce builds. Both must land remotely.
    for (id, trials) in [("fig12", FIG12_TRIALS), ("fig05", 600)] {
        fanned_out_case(id, trials);
    }
}

fn fanned_out_case(id: &str, trials: usize) {
    let (instances, _) = fleet(3);
    let expected = expected_report(id, trials);

    let (status, submit) = post(
        instances[0].addr,
        &format!("/v1/sweeps/{id}"),
        &sweep_body(trials),
    );
    assert_eq!(status, 202, "{id}: {submit}");
    let rid = job_id(&submit);
    assert_eq!(
        await_result(instances[0].addr, &rid),
        expected,
        "{id}: fanned-out merge drifted from the single-instance run"
    );

    // The coordinator really dispatched: with six chunks and three
    // concurrent lanes, every lane lands at least one.
    let metrics = scrape(instances[0].addr);
    assert!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"remote\"}") >= 1,
        "{id}: no chunk ran remotely:\n{metrics}"
    );
    assert!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"local\"}") >= 1,
        "{id}: no chunk ran locally:\n{metrics}"
    );

    // Any instance answers for any job: the peers relay both the status
    // poll and the result fetch to whoever holds the job.
    for worker in &instances[1..] {
        let (status, polled) = get(worker.addr, &format!("/v1/jobs/{rid}"));
        assert_eq!(status, 200, "{id}: {polled}");
        assert!(polled.contains("\"status\":\"done\""), "{id}: {polled}");
        let (status, relayed) = get(worker.addr, &format!("/v1/jobs/{rid}/result"));
        assert_eq!(status, 200, "{id}: {relayed}");
        assert_eq!(relayed, expected, "{id}: relayed result drifted");
    }

    for instance in instances {
        instance.stop();
    }
}

#[test]
fn chaos_refused_chunk_posts_redispatch_without_changing_bytes() {
    // Seeded chaos refuses every outbound hop from the coordinator: all
    // chunk posts fail, every chunk requeues, and the local lane drains
    // the board — the job still finishes with exactly the right bytes.
    let (instances, _) = fleet_with(2, |index, config| {
        if index == 0 {
            config.chaos = Some(ChaosConfig::parse("seed=7,refuse=1").unwrap());
        }
    });

    let (status, submit) = post(
        instances[0].addr,
        "/v1/sweeps/fig12",
        &sweep_body(FIG12_TRIALS),
    );
    assert_eq!(status, 202, "{submit}");
    let rid = job_id(&submit);
    assert_eq!(
        await_result(instances[0].addr, &rid),
        expected_report("fig12", FIG12_TRIALS),
        "chaos changed the merged bytes"
    );

    let metrics = scrape(instances[0].addr);
    assert!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"requeued\"}") >= 1,
        "refused chunk posts must requeue:\n{metrics}"
    );
    assert_eq!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"remote\"}"),
        0,
        "nothing can land remotely under refuse=1:\n{metrics}"
    );
    assert!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"local\"}") >= 1,
        "{metrics}"
    );

    for instance in instances {
        instance.stop();
    }
}

#[test]
fn a_worker_dying_mid_job_redispatches_to_survivors() {
    let (mut instances, _) = fleet(3);
    let expected = expected_report("fig12", FIG12_TRIALS);

    let (status, submit) = post(
        instances[0].addr,
        "/v1/sweeps/fig12",
        &sweep_body(FIG12_TRIALS),
    );
    assert_eq!(status, 202, "{submit}");
    let rid = job_id(&submit);
    // Kill one worker while the job is (most likely) in flight. Chunks
    // it claimed past the drain either answered already or fail their
    // next dispatch and requeue onto the survivors — both end in the
    // same merged bytes.
    instances.remove(2).stop();
    assert_eq!(
        await_result(instances[0].addr, &rid),
        expected,
        "losing a worker changed the merged bytes"
    );

    for instance in instances {
        instance.stop();
    }
}

#[test]
fn a_chunked_instance_refuses_a_gated_override_at_submission() {
    // A data dir makes every job run chunked; the override gate still
    // sits in front of it, exactly as on a plain instance — the sweep
    // submission and a chunk request for the same point both answer 400.
    let dir = std::env::temp_dir().join(format!("cnt-fanout-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(Config {
        data_dir: Some(dir.clone()),
        ..member_config("127.0.0.1:0")
    })
    .expect("bind with data dir");
    let instance = spawn(server);

    let (status, body) = post(
        instance.addr,
        "/v1/sweeps/fig05",
        r#"{"params": {"sites": 50}}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("parameter override 'sites' rejected"),
        "{body}"
    );
    let (_, ctx) = experiments::resolve_context("fig05", None, &[]).unwrap();
    let fingerprint = experiments::chunkable_sweep("fig05", &ctx)
        .unwrap()
        .fingerprint();
    let chunk = format!(
        r#"{{"experiment":"fig05","sets":[["sites","50"]],"lo":0,"hi":1,"fingerprint":"{fingerprint:016x}"}}"#
    );
    let (status, body) = post(instance.addr, "/v1/_fleet/chunk", &chunk);
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("parameter override 'sites' rejected"),
        "{body}"
    );
    let metrics = scrape(instance.addr);
    assert_eq!(
        sample(&metrics, "cnt_serve_jobs_total{status=\"queued\"}"),
        0
    );
    assert_eq!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"local\"}"),
        0
    );

    instance.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restarted_coordinator_resumes_from_journal_and_chunk_store() {
    let dir = std::env::temp_dir().join(format!("cnt-fanout-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Fake the first life of a coordinator that was SIGKILL'd mid-job:
    // the journal holds the accepted submission, and exactly one chunk
    // made it into the durable chunk store before the kill.
    let (_, ctx) = experiments::resolve_context("fig12", None, &sweep_sets(FIG12_TRIALS)).unwrap();
    let sweep = experiments::chunkable_sweep("fig12", &ctx).unwrap();
    let n_jobs = sweep.jobs();
    let ranges = chunk_ranges(n_jobs, 8.clamp(1, n_jobs));
    assert!(ranges.len() >= 2, "sweep too small to test resume");
    let first = ranges[0].clone();
    let key = sweep.chunk_key(first.start, first.end);
    let rows = sweep.run_range(first.start, first.end).unwrap();
    ResultStore::on_disk(dir.join("sweep-cache"))
        .put(&key, sweep.columns(), rows)
        .unwrap();
    let rid = "00feed-000001";
    let submitted = format!(
        "{{\"event\":\"submitted\",\"job\":\"{rid}\",\"experiment\":\"fig12\",\
         \"sets\":[[\"trials\",\"{FIG12_TRIALS}\"],[\"cache_dir\",\"\"]],\"format\":\"json\"}}"
    );
    journal::Journal::open(&dir.join("journal.log"))
        .unwrap()
        .append(&submitted)
        .unwrap();

    // Restart: the journal replays, the unfinished job re-enters the
    // queue, and the pre-seeded chunk recalls from the store.
    let server = Server::bind(Config {
        data_dir: Some(PathBuf::from(&dir)),
        ..member_config("127.0.0.1:0")
    })
    .expect("bind with data dir");
    let coordinator = spawn(server);
    let expected = expected_report("fig12", FIG12_TRIALS);
    assert_eq!(
        await_result(coordinator.addr, rid),
        expected,
        "resumed job drifted from the single-instance run"
    );

    let metrics = scrape(coordinator.addr);
    assert_eq!(sample(&metrics, "cnt_serve_journal_replayed_total"), 1);
    // The seeded chunk resumed (a [`ResultStore::get_or_compute`] hit —
    // visible in the global sweep-cache counter too); the rest computed.
    assert_eq!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"resumed\"}"),
        1,
        "{metrics}"
    );
    assert_eq!(
        sample(&metrics, "cnt_fleet_chunks_total{outcome=\"local\"}"),
        (ranges.len() - 1) as u64,
        "{metrics}"
    );
    assert!(
        sample(&metrics, "cnt_sweep_cache_hits_total") >= 1,
        "chunk resume must count as a sweep cache hit:\n{metrics}"
    );
    coordinator.stop();

    // Second restart, after the job finished: the journal now folds to a
    // terminal job, so the result serves straight from the spilled body
    // with zero chunks touched.
    let replayed = journal::replay(&dir.join("journal.log")).unwrap();
    assert!(
        replayed
            .records
            .iter()
            .any(|r| r.contains("\"event\":\"job_done\"")),
        "journal missing the terminal record: {:?}",
        replayed.records
    );
    let server = Server::bind(Config {
        data_dir: Some(PathBuf::from(&dir)),
        ..member_config("127.0.0.1:0")
    })
    .expect("rebind with data dir");
    let coordinator = spawn(server);
    let (status, body) = get(coordinator.addr, &format!("/v1/jobs/{rid}/result"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected, "spill-served result drifted");
    let metrics = scrape(coordinator.addr);
    assert_eq!(sample(&metrics, "cnt_serve_journal_replayed_total"), 1);
    for outcome in ["local", "remote", "requeued", "resumed"] {
        assert_eq!(
            sample(
                &metrics,
                &format!("cnt_fleet_chunks_total{{outcome=\"{outcome}\"}}")
            ),
            0,
            "a finished job must not touch chunks on restart:\n{metrics}"
        );
    }
    coordinator.stop();

    let _ = std::fs::remove_dir_all(&dir);
}
