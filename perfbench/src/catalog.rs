//! The `catalog` workload: one caller in a closed loop, back-to-back
//! passes over every catalog id, each run cold at its paper point
//! (`resolve_context` → `Experiment::run` → `Report::render_as`, JSON and
//! text, no sweep cache). The seed only shuffles the id order of each
//! pass; the outputs are fixed, and every text render is checked against
//! the repository's golden capture.

use crate::stats::{median, percentile};
use crate::{Args, Outcome};
use cnt_interconnect::experiments::{self, OutputFormat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// The captured `repro all` text stream (read only, never re-blessed).
pub const GOLDEN: &str = "tests/golden/repro_all.txt";

/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Expected text render per id, parsed from the golden stream: each
/// report starts with its `== id — title ==` banner and is followed by
/// one blank separator line.
pub fn golden_renders() -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
    let mut out = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for line in text.split_inclusive('\n') {
        if let Some(rest) = line.strip_prefix("== ") {
            if let Some((id, body)) = current.take() {
                out.insert(id, body);
            }
            let id = rest.split_whitespace().next().unwrap_or_default();
            current = Some((id.to_string(), String::new()));
        }
        if let Some((_, body)) = current.as_mut() {
            body.push_str(line);
        }
    }
    if let Some((id, body)) = current {
        out.insert(id, body);
    }
    // The stream printed each render followed by one newline.
    for body in out.values_mut() {
        if body.ends_with("\n\n") {
            body.pop();
        }
    }
    Ok(out)
}

/// The span of the layer a catalog experiment's figure belongs to.
pub fn run_span(id: &str) -> &'static str {
    match id {
        "fig08a" | "fig08b" | "fig08c" => "atomistic.experiment",
        "fig09" | "fig10" => "fields.experiment",
        "fig11" | "fig12" => "circuit.experiment",
        "fig04" | "fig05" | "fig06" | "fig07" | "variability" => "process.experiment",
        "selfheat" => "thermal.experiment",
        "fig03" | "fig13a" | "fig13b" | "stability" => "reliability.experiment",
        "fig02d" | "tlm" => "measure.experiment",
        _ => "core.experiment",
    }
}

/// One experiment, cold: resolve, run, render JSON and text. Returns the
/// text render. With `spans`, each step runs in its layer's span.
pub fn run_one(id: &str, spans: bool) -> Result<String, String> {
    let guard = |name: &'static str| spans.then(|| cnt_obs::span::span(name));
    let g = guard("core.resolve");
    let (exp, ctx) = experiments::resolve_context(id, None, &[]).map_err(|e| e.to_string())?;
    drop(g);
    let g = guard(run_span(id));
    let report = exp.run(&ctx).map_err(|e| format!("{id}: {e}"))?;
    drop(g);
    let _g = guard("core.render");
    std::hint::black_box(report.render_as(OutputFormat::Json));
    Ok(report.render_as(OutputFormat::Text))
}

/// Expected text per id: the golden render, or — for an id the golden
/// capture predates — the render of the setup pass.
pub struct Expected(BTreeMap<String, String>);

impl Expected {
    pub fn load(ids: &[&'static str]) -> Result<Self, String> {
        let mut expected = golden_renders()?;
        for id in ids {
            if !expected.contains_key(*id) {
                expected.insert(id.to_string(), run_one(id, false)?);
            }
        }
        Ok(Self(expected))
    }

    pub fn matches(&self, id: &str, text: &str) -> bool {
        self.0.get(id).is_some_and(|want| want == text)
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Set-up: the registry, the golden renders and one warm pass.
fn set_up() -> Result<(Vec<&'static str>, Expected), String> {
    let ids: Vec<&'static str> = experiments::catalog().collect();
    let expected = Expected::load(&ids)?;
    for id in &ids {
        run_one(id, false)?;
    }
    Ok((ids, expected))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        state = Some(set_up()?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let (mut ids, expected) = state.expect("at least one setup");
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut outcome = Outcome::default();
    let mut passes = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds {
        shuffle(&mut ids, &mut rng);
        let mut renders = Vec::with_capacity(ids.len());
        let started = Instant::now();
        for id in &ids {
            renders.push((id, run_one(id, false)));
        }
        passes.push(started.elapsed().as_secs_f64());
        // Checked outside the timed pass.
        for (id, render) in renders {
            outcome.attempted += 1;
            if !render.is_ok_and(|text| expected.matches(id, &text)) {
                outcome.failed += 1;
            }
        }
    }
    let busy: f64 = passes.iter().sum();
    outcome.push("setup_s", median(&setups).unwrap_or(0.0), "s");
    outcome.push("p50_ms", median(&passes).unwrap_or(0.0) * 1e3, "ms");
    outcome.push(
        "tail_ms",
        percentile(&passes, 0.9).unwrap_or(0.0) * 1e3,
        "ms",
    );
    outcome.push(
        "throughput_per_s",
        (passes.len() * ids.len()) as f64 / busy,
        "1/s",
    );
    outcome.push(
        "peak_rss_mb",
        crate::host::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
    );
    let deciles: Vec<String> = (1..10)
        .map(|d| {
            format!(
                "{:.1}",
                percentile(&passes, d as f64 / 10.0).unwrap_or(0.0) * 1e3
            )
        })
        .collect();
    eprintln!(
        "catalog: {} passes of {} ids; pass deciles {} ms",
        passes.len(),
        ids.len(),
        deciles.join(" ")
    );
    Ok(outcome)
}
