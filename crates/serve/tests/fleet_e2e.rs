//! Loopback fleet integration: three real `cnt-serve` instances joined
//! into one consistent-hash fleet. The acceptance gate is single
//! computation — an identical run sent through both non-owners computes
//! exactly once, on the shard owner, with the second hop answered from
//! the owner's LRU via the peer cache-fill probe.

mod common;

use cnt_interconnect::experiments;
use common::{fleet, header, http, owner_of, post, sample, scrape};

#[test]
fn identical_runs_through_both_non_owners_compute_exactly_once() {
    let (instances, peers) = fleet(3);
    let owner = owner_of(&peers, "table1", &[]);
    let non_owners: Vec<usize> = (0..3).filter(|i| *i != owner).collect();

    // The same default point through both non-owners.
    let expected = format!(
        "{}\n",
        experiments::run_to_json("table1", None, &[]).unwrap()
    );
    for &i in &non_owners {
        let (status, body) = post(instances[i].addr, "/v1/experiments/table1/run", "{}");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, expected, "proxied body drifted from the CLI");
    }

    // Exactly one computation, on the owner; the second hop was a
    // cache-fill hit against the owner's LRU.
    assert_eq!(
        instances[owner].runs(),
        1,
        "owner must compute exactly once"
    );
    for &i in &non_owners {
        assert_eq!(instances[i].runs(), 0, "non-owner {i} computed locally");
    }
    let mut fill_hits = 0;
    let mut proxied = 0;
    for &i in &non_owners {
        let metrics = scrape(instances[i].addr);
        fill_hits += sample(&metrics, "cnt_fleet_peer_fill_total{result=\"hit\"}");
        proxied += sample(&metrics, "cnt_fleet_route_total{outcome=\"proxied\"}");
    }
    assert!(fill_hits >= 1, "no peer cache-fill hit was recorded");
    assert_eq!(proxied, 2, "both non-owner requests must count as proxied");

    // The owner answers the same point locally without another run.
    let (status, body) = post(instances[owner].addr, "/v1/experiments/table1/run", "{}");
    assert_eq!(status, 200);
    assert_eq!(body, expected);
    assert_eq!(instances[owner].runs(), 1, "owner re-ran a cached point");
    let metrics = scrape(instances[owner].addr);
    assert!(
        sample(&metrics, "cnt_fleet_route_total{outcome=\"local\"}") >= 1,
        "{metrics}"
    );

    for instance in instances {
        instance.stop();
    }
}

#[test]
fn a_proxied_run_yields_one_trace_with_spans_from_both_instances() {
    let (instances, peers) = fleet(3);
    let owner = owner_of(&peers, "table1", &[]);
    let relay = (0..3).find(|i| *i != owner).unwrap();

    // One run through a non-owner: the relay proxies to the owner, and
    // the X-Trace-Id minted at the relay's ingress rides the hop.
    let (status, headers, body) = http(
        instances[relay].addr,
        "POST",
        "/v1/experiments/table1/run",
        "{}",
    );
    assert_eq!(status, 200, "{body}");
    let trace_id = header(&headers, "x-trace-id").expect("proxied 200 carries X-Trace-Id");

    // The assembled tree — read from the relay — contains records from
    // BOTH instances: the relay's ingress serve.request and the owner's
    // remote child, linked parent→child across the hop.
    let (status, _, tree) = http(
        instances[relay].addr,
        "GET",
        &format!("/v1/trace/{trace_id}"),
        "",
    );
    assert_eq!(status, 200, "{tree}");
    experiments::format::check_json_stream(&tree).expect("trace tree is valid JSON");
    for instance in [relay, owner] {
        assert!(
            tree.contains(&format!("\"instance\":\"{}\"", peers[instance])),
            "no record from instance {instance} ({}):\n{tree}",
            peers[instance]
        );
    }
    // Exactly one root (the relay's ingress); the owner's record nests
    // under it rather than floating as a second root.
    let tree_array = tree.split("\"tree\":[").nth(1).expect("tree array");
    let mut depth = 0u32;
    let mut roots = 0u32;
    for c in tree_array.chars() {
        match c {
            '{' | '[' => {
                if depth == 0 && c == '{' {
                    roots += 1;
                }
                depth += 1;
            }
            '}' | ']' => {
                if depth == 0 {
                    break; // the `]` closing the tree array itself
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    assert_eq!(
        roots, 1,
        "owner record did not parent under the relay ingress:\n{tree}"
    );

    // The same tree is reachable from the owner too (peer fan-out).
    let (status, _, from_owner) = http(
        instances[owner].addr,
        "GET",
        &format!("/v1/trace/{trace_id}"),
        "",
    );
    assert_eq!(status, 200);
    assert!(
        from_owner.contains(&format!("\"instance\":\"{}\"", peers[relay])),
        "{from_owner}"
    );

    // Satellite: the X-Request-Id minted at the relay rode the proxy hop
    // — the owner's stored record reuses it instead of minting afresh.
    let request_id = header(&headers, "x-request-id").expect("X-Request-Id");
    let shared = tree
        .matches(&format!("\"request_id\":\"{request_id}\""))
        .count();
    let total = tree.matches("\"request_id\":\"").count();
    assert!(
        shared >= 2,
        "owner record minted its own request id:\n{tree}"
    );
    assert_eq!(
        shared, total,
        "every record must share the relay's request id:\n{tree}"
    );

    for instance in instances {
        instance.stop();
    }
}

#[test]
fn a_dead_owner_degrades_to_local_compute() {
    let (mut instances, peers) = fleet(2);

    // Find a point the *other* instance owns, as seen from instance 0.
    let survivor = 0usize;
    let sets = (0..200)
        .map(|seed| vec![("seed".to_string(), seed.to_string())])
        .find(|sets| owner_of(&peers, "table1", sets) != survivor)
        .expect("some seed hashes to the peer shard");
    let body = format!("{{\"params\": {{\"seed\": {}}}}}", sets[0].1);

    // Kill the owner, then route the point through the survivor: the
    // fill probe fails fast and the request computes locally.
    instances.remove(1).stop();
    let (status, answer) = post(
        instances[survivor].addr,
        "/v1/experiments/table1/run",
        &body,
    );
    assert_eq!(status, 200, "{answer}");
    let expected = format!(
        "{}\n",
        experiments::run_to_json("table1", None, &sets).unwrap()
    );
    assert_eq!(answer, expected, "degraded body drifted from the CLI");
    assert_eq!(instances[survivor].runs(), 1, "survivor must compute");

    let metrics = scrape(instances[survivor].addr);
    assert!(
        sample(&metrics, "cnt_fleet_peer_fill_total{result=\"error\"}") >= 1,
        "dead-peer probe must count as a fill error:\n{metrics}"
    );
    assert!(
        sample(&metrics, "cnt_fleet_route_total{outcome=\"local\"}") >= 1,
        "{metrics}"
    );

    instances.remove(0).stop();
}
