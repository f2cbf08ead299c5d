//! The traced run (`--trace 1`): per-layer metrics, each measured from
//! outside by timing the benchmark's own calls into a crate's public
//! functions, wrapped in spans named after the layer. The spans of the
//! calls and the program's own spans (`fields.solve`, `sweep.job`, …) are
//! captured with `cnt_obs::Trace`, kept in memory and written to
//! `.perfbench-out/` when the run ends.
//!
//! Every traced run reports every per-layer metric: the layer probes, the
//! sweep layer and the serve/fleet layers (from a short base-rate serve
//! session) do not depend on the workload. The workload decides the
//! profile part: its operation runs alternately untraced and traced, and
//! the traced share of wall time per layer (`<layer>.self_share`), what
//! no span covered (`obs.unattributed_share`) and the slow-down tracing
//! caused (`obs.trace_overhead_share`) come from that.

use crate::catalog;
use crate::stats::median;
use crate::trace::{self, Attribution};
use crate::{Args, Outcome};
use cnt_interconnect::experiments::{self, OutputFormat};
use cnt_obs::{span, SpanNode, Trace};
use cnt_units::si::{CurrentDensity, Length, Temperature, Time};
use std::hint::black_box;
use std::time::Instant;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Median wall time of `reps` calls of `work` (after one warm call),
/// seconds. Each call runs inside a span named `name`.
fn time<F: FnMut() -> Result<(), String>>(
    name: &'static str,
    reps: usize,
    mut work: F,
) -> Result<f64, String> {
    work()?;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        {
            let _span = span::span(name);
            work()?;
        }
        samples.push(started.elapsed().as_secs_f64());
    }
    Ok(median(&samples).unwrap_or(0.0))
}

/// One fig05 sweep through the chunkable seam, every stage in its span.
fn sweep_once(seed: u64, spans: bool) -> Result<String, String> {
    let guard = |name: &'static str| spans.then(|| span::span(name));
    let g = guard("core.resolve");
    let sets = [
        ("trials".to_string(), crate::sweep::TRIALS.to_string()),
        ("seed".to_string(), seed.to_string()),
    ];
    let (_, ctx) = experiments::resolve_context("fig05", None, &sets).map_err(err)?;
    let sweep = experiments::chunkable_sweep("fig05", &ctx).map_err(err)?;
    drop(g);
    let g = guard("sweep.compute");
    let rows = sweep.run_range(0, sweep.jobs()).map_err(err)?;
    drop(g);
    let g = guard("sweep.reduce");
    let run = sweep.finish(rows).map_err(err)?;
    drop(g);
    let _g = guard("core.render");
    Ok(run.report.to_json())
}

/// Runs the workload's operation alternately untraced and traced for
/// about `seconds` (a catalog pass, or a fig05 sweep on `sweep`); reports
/// the layer shares of the traced runs and the tracing overhead.
fn profile(args: &Args, seconds: f64, outcome: &mut Outcome) -> Result<Vec<SpanNode>, String> {
    // One operation with spans on or off; returns whether its output was
    // correct.
    let mut op: Box<dyn FnMut(bool) -> Result<bool, String>> = if args.workload == "sweep" {
        let want = crate::sweep::sweep_json("fig05", crate::sweep::TRIALS, args.seed, 1)?;
        let seed = args.seed;
        Box::new(move |spans| Ok(sweep_once(seed, spans)? == want))
    } else {
        let ids: Vec<&'static str> = experiments::catalog().collect();
        let expected = catalog::Expected::load(&ids)?;
        Box::new(move |spans| {
            let mut correct = true;
            for id in &ids {
                correct &= expected.matches(id, &catalog::run_one(id, spans)?);
            }
            Ok(correct)
        })
    };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut attribution = Attribution::default();
    let mut roots = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds || traced.len() < 2 {
        for traced_turn in [false, true] {
            if traced_turn {
                Trace::begin();
            }
            let started = Instant::now();
            let correct = op(traced_turn)?;
            let wall = started.elapsed().as_secs_f64();
            outcome.attempted += 1;
            outcome.failed += u64::from(!correct);
            if traced_turn {
                let captured = Trace::end();
                attribution.add(&captured, wall);
                for root in captured {
                    cnt_obs::merge_nodes(&mut roots, root);
                }
                traced.push(wall);
            } else {
                untraced.push(wall);
            }
        }
    }
    let base = median(&untraced).unwrap_or(0.0);
    attribution.push_shares(outcome);
    outcome.push(
        "obs.trace_overhead_share",
        median(&traced).unwrap_or(0.0) / base.max(f64::MIN_POSITIVE) - 1.0,
        "share",
    );
    Ok(roots)
}

/// Cold run time of every catalog id, plus resolve and render costs.
fn core_probes(outcome: &mut Outcome) -> Result<(), String> {
    let ids: Vec<&'static str> = experiments::catalog().collect();
    let mut reports = Vec::new();
    for id in &ids {
        let (exp, ctx) = experiments::resolve_context(id, None, &[]).map_err(err)?;
        let s = time(catalog::run_span(id), 3, || {
            exp.run(&ctx).map(|r| drop(black_box(r))).map_err(err)
        })?;
        outcome.push(format!("core.run_ms.{id}"), s * 1e3, "ms");
        reports.push(exp.run(&ctx).map_err(err)?);
    }
    let resolve = time("core.resolve", 5, || {
        for id in &ids {
            black_box(experiments::resolve_context(id, None, &[]).map_err(err)?);
        }
        Ok(())
    })?;
    outcome.push("core.resolve_us", resolve / ids.len() as f64 * 1e6, "us");
    let render = time("core.render", 5, || {
        for report in &reports {
            black_box(report.render_as(OutputFormat::Json));
            black_box(report.render_as(OutputFormat::Text));
        }
        Ok(())
    })?;
    outcome.push("core.render_ms", render * 1e3, "ms");
    // One fig12 job's compact-model evaluation: the delay ratio at its
    // grid point under the job's 3 % diameter scatter.
    const EVALS: usize = 2_000;
    let delay = time("core.mwcnt_delay", 5, || {
        for i in 0..EVALS {
            let d = 10.0 * (0.97 + 0.06 * i as f64 / EVALS as f64);
            black_box(
                cnt_interconnect::benchmark::delay_ratio(
                    Length::from_nanometers(d),
                    10,
                    Length::from_micrometers(500.0),
                )
                .map_err(err)?,
            );
        }
        Ok(())
    })?;
    outcome.push("core.mwcnt_delay_us", delay / EVALS as f64 * 1e6, "us");
    Ok(())
}

/// The physics crates, each through the call its heaviest figure makes.
fn physics_probes(outcome: &mut Outcome) -> Result<(), String> {
    use cnt_atomistic::bands::BandStructure;
    use cnt_atomistic::chirality::Chirality;
    use cnt_atomistic::doping::{DopedCnt, DopingSpec};
    use cnt_atomistic::transport;

    let room = Temperature::from_kelvin(300.0);
    let mut tubes = Chirality::zigzag_series(5, 26);
    tubes.extend(Chirality::armchair_series(3, 15));
    let bands = time("atomistic.bands", 3, || {
        for tube in &tubes {
            black_box(transport::conductance_point(*tube, room));
        }
        Ok(())
    })?;
    outcome.push("atomistic.bands_ms", bands * 1e3, "ms");
    let energies: Vec<f64> = (0..121).map(|i| -1.5 + 3.0 * i as f64 / 120.0).collect();
    let transmission = time("atomistic.transmission", 3, || {
        let tube = Chirality::new(7, 7).map_err(err)?;
        let pristine = BandStructure::compute(tube, transport::DEFAULT_NK).map_err(err)?;
        let doped = DopedCnt::new(tube, DopingSpec::iodine_internal()).map_err(err)?;
        black_box(pristine.transmission_grid(&energies));
        black_box(doped.transmission_grid(&energies));
        Ok(())
    })?;
    outcome.push("atomistic.transmission_ms", transmission * 1e3, "ms");

    use cnt_fields::extract::extract_capacitance;
    use cnt_fields::presets::{inverter_cell_14nm, InverterCellGeometry};
    use cnt_fields::solver::{SolveWorkspace, SolverOptions, StencilSystem};
    let structure = inverter_cell_14nm(InverterCellGeometry::default())
        .build([15, 11, 13])
        .map_err(err)?;
    let options = SolverOptions::default();
    let extract = time("fields.extract", 3, || {
        black_box(extract_capacitance(&structure, &options).map_err(err)?);
        Ok(())
    })?;
    outcome.push("fields.extract_ms", extract * 1e3, "ms");
    // One excitation of that extraction: conductor 0 driven.
    let dirichlet: Vec<Option<f64>> = structure
        .node_conductor()
        .iter()
        .map(|c| c.map(|id| if id == 0 { 1.0 } else { 0.0 }))
        .collect();
    let system = StencilSystem::assemble(
        structure.grid(),
        structure.permittivity_coefficients(),
        dirichlet,
    );
    let mut iterations = 0;
    let solve = time("fields.excitation", 5, || {
        let solution = system
            .solve_full(&options, &mut SolveWorkspace::new())
            .map_err(err)?;
        iterations = solution.iterations;
        black_box(solution.psi);
        Ok(())
    })?;
    outcome.push("fields.solve_ms", solve * 1e3, "ms");
    outcome.push("fields.solve_iterations", iterations as f64, "count");

    let transient = time("circuit.transient", 3, || {
        for l_um in [10.0, 100.0, 500.0] {
            let bench = cnt_interconnect::benchmark::DelayBenchmark::paper_fig12(
                Length::from_nanometers(10.0),
                2,
                Length::from_micrometers(l_um),
            )
            .map_err(err)?;
            black_box(bench.simulate_delay().map_err(err)?);
        }
        Ok(())
    })?;
    outcome.push("circuit.transient_ms", transient * 1e3, "ms");

    let mut seed = 0u64;
    let wafer = time("process.wafer_map", 50, || {
        seed += 1;
        let map = cnt_process::wafer::WaferMap::generate(0.3, 121, 1.0, 0.05, 0.015, seed)
            .map_err(err)?;
        black_box(map.uniformity().map_err(err)?);
        for band in 0..5 {
            let lo = band as f64 * 0.2;
            black_box(map.radial_band_mean(lo, lo + 0.2));
        }
        Ok(())
    })?;
    outcome.push("process.wafer_map_us", wafer * 1e6, "us");

    let truth = cnt_thermal::fin::SelfHeatingLine::mwcnt(
        Length::from_micrometers(2.0),
        CurrentDensity::from_amps_per_square_centimeter(5e8),
    )
    .analytic_profile(401)
    .map_err(err)?;
    let instrument = cnt_thermal::sthm::SthmInstrument::nanoprobe();
    let sthm = time("thermal.sthm_scan", 20, || {
        black_box(instrument.scan(&truth, 42).map_err(err)?);
        Ok(())
    })?;
    outcome.push("thermal.sthm_scan_us", sthm * 1e6, "us");

    use cnt_reliability::layout::TestStructure;
    use cnt_reliability::wafer_char::{characterize_wafer, WaferCharSetup};
    let line = TestStructure::SingleLine {
        width: Length::from_nanometers(100.0),
        length: Length::from_micrometers(800.0),
        angle_degrees: 0.0,
    };
    let setup = WaferCharSetup::composite();
    let target = Time::from_hours(2000.0);
    let wafer_char = time("reliability.wafer_char", 10, || {
        black_box(characterize_wafer(&setup, &line, target, 13).map_err(err)?);
        Ok(())
    })?;
    outcome.push("reliability.wafer_char_us", wafer_char * 1e6, "us");

    use cnt_measure::tlm::{fit_tlm, TlmExperiment};
    let tlm_setup = TlmExperiment::mwcnt_default();
    let tlm = time("measure.tlm", 20, || {
        let draws = tlm_setup.noise_draws(7).map_err(err)?;
        let data: Vec<_> = (0..draws.len())
            .map(|i| tlm_setup.measurement(i, draws[i]))
            .collect();
        black_box(fit_tlm(&data).map_err(err)?);
        Ok(())
    })?;
    outcome.push("measure.tlm_us", tlm * 1e6, "us");
    Ok(())
}

/// The sweep pool through fig05 at 10⁵ trials (and fig12's rate).
fn sweep_probes(seed: u64, outcome: &mut Outcome) -> Result<(), String> {
    let trials = crate::sweep::TRIALS;
    let sets = [
        ("trials".to_string(), trials.to_string()),
        ("seed".to_string(), seed.to_string()),
    ];
    let job_span_s = || {
        crate::serve::parse_exposition(&cnt_obs::global().render_prometheus())
            .get("cnt_span_sweep_job_seconds_sum")
            .copied()
            .unwrap_or(0.0)
    };
    let started = Instant::now();
    let (_, ctx) = experiments::resolve_context("fig05", None, &sets).map_err(err)?;
    let sweep = experiments::chunkable_sweep("fig05", &ctx).map_err(err)?;
    let jobs = sweep.jobs();
    let span_before = job_span_s();
    let compute_started = Instant::now();
    let rows = {
        let _span = span::span("sweep.compute");
        sweep.run_range(0, jobs).map_err(err)?
    };
    let compute = compute_started.elapsed().as_secs_f64();
    let busy = job_span_s() - span_before;
    let row_bytes = rows.iter().map(|r| r.len() * 8).sum::<usize>();
    let reduce_started = Instant::now();
    let run = {
        let _span = span::span("sweep.reduce");
        sweep.finish(rows).map_err(err)?
    };
    let reduce = reduce_started.elapsed().as_secs_f64();
    black_box(run.report.to_json());
    let fig05 = started.elapsed().as_secs_f64();
    outcome.push("sweep.jobs", jobs as f64, "count");
    outcome.push("sweep.compute_s", compute, "s");
    outcome.push("sweep.reduce_s", reduce, "s");
    outcome.push(
        "sweep.parallel_efficiency",
        busy / (compute * sweep.threads() as f64),
        "ratio",
    );
    outcome.push("sweep.rows_mb", row_bytes as f64 / (1024.0 * 1024.0), "MB");
    outcome.push("sweep.fig05_trials_per_s", trials as f64 / fig05, "1/s");

    let executor = cnt_sweep::Executor::new(0);
    let plan = cnt_sweep::SweepPlan::new("perfbench.noop").axis(cnt_sweep::Axis::trials(jobs));
    let dispatch = time("sweep.dispatch", 3, || {
        black_box(
            executor
                .run(&plan, seed, |_, _| Ok::<_, std::convert::Infallible>(0u8))
                .map_err(err)?,
        );
        Ok(())
    })?;
    outcome.push(
        "sweep.dispatch_us_per_job",
        dispatch / jobs as f64 * 1e6,
        "us",
    );

    let fig12 = time("sweep.fig12", 1, || {
        black_box(crate::sweep::sweep_json("fig12", trials, seed, 0)?);
        Ok(())
    })?;
    outcome.push("sweep.fig12_trials_per_s", trials as f64 / fig12, "1/s");
    Ok(())
}

/// Span cost with and without an active trace, and one journal append.
fn obs_fleet_probes(outcome: &mut Outcome) -> Result<(), String> {
    const SPANS: usize = 200_000;
    let spans = |traced: bool| {
        if traced {
            Trace::begin();
        }
        let started = Instant::now();
        for _ in 0..SPANS {
            black_box(span::span("obs.probe"));
        }
        let ns = started.elapsed().as_secs_f64() / SPANS as f64 * 1e9;
        if traced {
            black_box(Trace::end());
        }
        ns
    };
    // Runs outside any capture: the traced variant arms (and discards)
    // its own, so these spans never land in the written trees.
    spans(false);
    outcome.push("obs.span_ns", spans(false), "ns");
    outcome.push("obs.span_traced_ns", spans(true), "ns");

    let dir = crate::out_dir().join(format!("journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(err)?;
    let path = dir.join("journal.log");
    let mut journal = cnt_fleet::journal::Journal::open(&path).map_err(err)?;
    let record = "{\"event\":\"chunk_done\",\"job\":\"00000000-000001\",\"chunk\":3,\"lo\":75000,\"hi\":100000}";
    let append = time("fleet.journal_append", 200, || {
        journal.append(record).map_err(err)
    });
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    outcome.push("fleet.journal_append_us", append? * 1e6, "us");
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut roots = Vec::new();
    let mut keep = |captured: Vec<SpanNode>| {
        for root in captured {
            cnt_obs::merge_nodes(&mut roots, root);
        }
    };
    // The layer probes, captured as one trace.
    Trace::begin();
    core_probes(&mut outcome)?;
    physics_probes(&mut outcome)?;
    sweep_probes(args.seed, &mut outcome)?;
    keep(Trace::end());
    obs_fleet_probes(&mut outcome)?;

    let serve_seconds = (args.seconds * 0.25).clamp(2.0, 6.0);
    let (serve_roots, serve_wall, serve_overhead) =
        crate::serve::layer_metrics(args.seed, serve_seconds, &mut outcome)?;
    if args.workload == "serve" {
        let mut attribution = Attribution::default();
        attribution.add(&serve_roots, serve_wall);
        attribution.push_shares(&mut outcome);
        outcome.push("obs.trace_overhead_share", serve_overhead, "share");
        keep(serve_roots);
    } else {
        keep(profile(args, args.seconds * 0.3, &mut outcome)?);
    }
    let path = crate::out_dir().join(format!("spans-{}-{}.json", args.workload, args.seed));
    trace::write_spans(&path, &roots).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "layers: {} per-layer metrics; span trees written to {}",
        outcome.metrics.len(),
        path.display()
    );
    Ok(outcome)
}
