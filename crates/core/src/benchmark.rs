//! The Fig. 11 circuit benchmark: a driver, a distributed MWCNT
//! interconnect, a receiver — and the delay-ratio machinery behind
//! Fig. 12.
//!
//! Two delay paths are provided and cross-checked in the tests:
//!
//! * [`DelayBenchmark::estimate_delay`] — closed-form Elmore delay
//!   (`0.69·R_drv·(C+C_L) + 0.69·R·C_L + 0.38·R·C`), used for dense
//!   parameter sweeps;
//! * [`DelayBenchmark::simulate_delay`] — a full `cnt-circuit` transient
//!   on the expanded π-ladder.
//!
//! ## Driver calibration note (important for Fig. 12)
//!
//! The paper reports that doping shortens the 500 µm line delay by only
//! 10/5/2 % for D = 10/14/22 nm. With Eq. 4, the pristine 10 nm line has
//! R(500 µm) ≈ 37 kΩ — if it were driven by a minimum-size 45 nm inverter
//! (effective impedance a few kΩ), the wire RC would dominate and doping
//! would buy 3–8× more than that. The paper's percentages therefore imply
//! a *high-impedance drive* (≈ 140 kΩ effective). We ship both drivers:
//! [`DriverModel::paper_calibrated`] reproduces the paper's numbers, and
//! [`DriverModel::Inverter`] quantifies the stronger-driver ablation
//! recorded in EXPERIMENTS.md.

use crate::compact::DopedMwcnt;
use crate::Result;
use cnt_circuit::analysis::TranOptions;
use cnt_circuit::cells::InverterCell;
use cnt_circuit::circuit::Circuit;
use cnt_circuit::line::{add_distributed_line, LineTotals};
use cnt_circuit::measure::propagation_delay;
use cnt_circuit::waveform::Waveform;
use cnt_units::si::{Capacitance, Length, Resistance, Time};

/// What drives the line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriverModel {
    /// A real CMOS inverter (for the strong-drive ablation).
    Inverter(InverterCell),
    /// An effective source impedance (Thévenin) — the paper-calibrated
    /// high-impedance drive.
    EffectiveImpedance(Resistance),
}

impl DriverModel {
    /// The drive calibrated so the Fig. 12 anchors (−10/−5/−2 % at
    /// 500 µm) come out of Eq. 4 + Eq. 5: 140 kΩ.
    pub fn paper_calibrated() -> Self {
        DriverModel::EffectiveImpedance(Resistance::from_kilo_ohms(140.0))
    }

    /// Effective Thévenin resistance for the Elmore estimate.
    pub fn effective_resistance(&self) -> f64 {
        match self {
            DriverModel::Inverter(cell) => cell.drive_resistance(),
            DriverModel::EffectiveImpedance(r) => r.ohms(),
        }
    }
}

/// One benchmark instance: driver → MWCNT line of `length` → load.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayBenchmark {
    /// The driver.
    pub driver: DriverModel,
    /// The interconnect compact model.
    pub line: DopedMwcnt,
    /// Line length.
    pub length: Length,
    /// Receiver load capacitance.
    pub load: Capacitance,
    /// π-ladder segments for the transient path.
    pub segments: usize,
}

impl DelayBenchmark {
    /// The paper's Fig. 12 benchmark point: calibrated driver, MWCNT of
    /// `outer_diameter` doped to `nc` channels/shell, 45 nm receiver gate
    /// load.
    ///
    /// # Errors
    ///
    /// Propagates compact-model validation.
    pub fn paper_fig12(outer_diameter: Length, nc: usize, length: Length) -> Result<Self> {
        Ok(Self {
            driver: DriverModel::paper_calibrated(),
            line: DopedMwcnt::paper_model(outer_diameter, nc)?,
            length,
            load: Capacitance::from_farads(InverterCell::inv_45nm().input_capacitance()),
            segments: 16,
        })
    }

    /// Line electrical totals for the ladder expansion.
    ///
    /// Uses the paper's Eq. 5 approximation `C_MW ≈ C_E` (the quantum
    /// capacitance is explicitly dropped there, making the line
    /// capacitance doping-independent — "CE does not depend on doping").
    ///
    /// # Errors
    ///
    /// Propagates capacitance-geometry validation.
    pub fn line_totals(&self) -> Result<LineTotals> {
        Ok(self.totals_with(self.electrostatic_capacitance()?))
    }

    /// Total line capacitance `C_E·L`, farads.
    fn electrostatic_capacitance(&self) -> Result<f64> {
        Ok(self.line.electrostatic_capacitance_per_length()?.farads() * self.length.meters())
    }

    /// The line's RC totals for a total capacitance `ce` (farads).
    fn totals_with(&self, ce: f64) -> LineTotals {
        LineTotals::rc(self.line.resistance(self.length).ohms(), ce)
    }

    /// Elmore 50 % delay of `totals` behind this driver into this load,
    /// seconds.
    fn elmore_delay(&self, totals: LineTotals) -> f64 {
        totals.elmore_delay(self.driver.effective_resistance(), self.load.farads())
    }

    /// Closed-form Elmore 50 % delay.
    ///
    /// # Errors
    ///
    /// Propagates capacitance-geometry validation.
    pub fn estimate_delay(&self) -> Result<Time> {
        Ok(Time::from_seconds(self.elmore_delay(self.line_totals()?)))
    }

    /// Full transient simulation of the benchmark; returns the 50 %–50 %
    /// propagation delay from the source input to the line far end.
    ///
    /// # Errors
    ///
    /// Propagates circuit-construction and analysis errors.
    pub fn simulate_delay(&self) -> Result<Time> {
        let totals = self.line_totals()?;
        let mut c = Circuit::new();
        let vin = c.node("in");
        let line_in = c.node("line_in");
        let line_out = c.node("line_out");

        match &self.driver {
            DriverModel::EffectiveImpedance(r) => {
                c.add_vsource("Vin", vin, Circuit::GND, Waveform::step(1.0))?;
                c.add_resistor("Rdrv", vin, line_in, r.ohms())?;
            }
            DriverModel::Inverter(cell) => {
                let vdd = c.node("vdd");
                c.add_vsource("Vdd", vdd, Circuit::GND, Waveform::Dc(cell.vdd))?;
                c.add_vsource(
                    "Vin",
                    vin,
                    Circuit::GND,
                    Waveform::edge(0.0, cell.vdd, 10e-12, 10e-12),
                )?;
                cell.instantiate(&mut c, "drv", vin, line_in, vdd)?;
            }
        }
        add_distributed_line(&mut c, "mw", line_in, line_out, totals, self.segments)?;
        if self.load.farads() > 0.0 {
            c.add_capacitor("Cload", line_out, Circuit::GND, self.load.farads())?;
        }

        // Time base from the Elmore estimate.
        let est = self.estimate_delay()?.seconds().max(1e-12);
        let t_stop = 8.0 * est;
        let dt = (est / 120.0).max(1e-13);
        let tran = c.transient(&TranOptions::new(t_stop, dt))?;
        let win = tran.waveform("in")?;
        let wout = tran.waveform("line_out")?;
        let d = propagation_delay(&win, &wout, 0.0, 1.0)?;
        Ok(Time::from_seconds(d))
    }
}

impl DelayBenchmark {
    /// Small-signal −3 dB bandwidth of the driver + line + load chain —
    /// the frequency-domain twin of the delay benchmark (an extension
    /// beyond the paper's evaluation; uses the `cnt-circuit` AC engine).
    ///
    /// # Errors
    ///
    /// Propagates circuit-construction and AC-analysis errors.
    pub fn simulate_bandwidth(&self) -> Result<f64> {
        use cnt_circuit::ac::log_frequency_grid;
        let totals = self.line_totals()?;
        let mut c = Circuit::new();
        let vin = c.node("in");
        let line_in = c.node("line_in");
        let line_out = c.node("line_out");
        let r_drv = self.driver.effective_resistance();
        c.add_vsource("Vin", vin, Circuit::GND, Waveform::Dc(0.0))?;
        c.add_resistor("Rdrv", vin, line_in, r_drv)?;
        add_distributed_line(&mut c, "mw", line_in, line_out, totals, self.segments)?;
        if self.load.farads() > 0.0 {
            c.add_capacitor("Cload", line_out, Circuit::GND, self.load.farads())?;
        }
        // Centre the sweep on the Elmore corner estimate.
        let est = self.estimate_delay()?.seconds().max(1e-12);
        let f_mid = 1.0 / (2.0 * core::f64::consts::PI * est);
        let freqs = log_frequency_grid(f_mid / 300.0, f_mid * 300.0, 60)?;
        let sweep = c.ac_transfer("Vin", "line_out", &freqs)?;
        sweep.bandwidth().ok_or(crate::Error::InvalidParameter {
            name: "bandwidth (no -3 dB crossing in sweep)",
            value: f_mid,
        })
    }
}

/// Delay ratio of a doped line (`nc` channels/shell) against the pristine
/// reference (`nc = 2`), Elmore path — the quantity plotted in Fig. 12.
///
/// # Errors
///
/// Propagates benchmark construction.
pub fn delay_ratio(outer_diameter: Length, nc: usize, length: Length) -> Result<f64> {
    let doped = DelayBenchmark::paper_fig12(outer_diameter, nc, length)?;
    let pristine = DelayBenchmark {
        line: DopedMwcnt::paper_model(outer_diameter, 2)?,
        ..doped.clone()
    };
    // Same geometry, and C_E does not depend on doping (Eq. 5): one
    // evaluation serves both lines.
    let ce = doped.electrostatic_capacitance()?;
    Ok(doped.elmore_delay(doped.totals_with(ce)) / pristine.elmore_delay(pristine.totals_with(ce)))
}

/// The paper's Fig. 12 diameter axis, nm.
pub const FIG12_DIAMETERS_NM: [f64; 3] = [10.0, 14.0, 22.0];
/// The paper's Fig. 12 channels-per-shell axis.
pub const FIG12_CHANNEL_COUNTS: [usize; 5] = [2, 4, 6, 8, 10];
/// The paper's Fig. 12 interconnect-length axis, µm.
pub const FIG12_LENGTHS_UM: [f64; 5] = [10.0, 50.0, 100.0, 200.0, 500.0];

/// One point of a [`delay_ratio_grid`] result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayRatioPoint {
    /// Outer diameter.
    pub diameter: Length,
    /// Channels per shell after doping.
    pub channels: usize,
    /// Interconnect length.
    pub length: Length,
    /// Elmore delay ratio doped/pristine.
    pub ratio: f64,
}

/// The full Fig. 12 grid — every `(diameter, channels, length)` cell —
/// evaluated on the `cnt-sweep` thread pool (`threads = 0` uses all
/// cores). Points come back in nested-loop order (diameter outermost,
/// length innermost), independent of scheduling.
///
/// # Errors
///
/// Rejects an empty grid and propagates per-cell benchmark errors.
pub fn delay_ratio_grid(
    diameters_nm: &[f64],
    channel_counts: &[usize],
    lengths_um: &[f64],
    threads: usize,
) -> Result<Vec<DelayRatioPoint>> {
    if diameters_nm.is_empty() || channel_counts.is_empty() || lengths_um.is_empty() {
        return Err(crate::Error::InvalidParameter {
            name: "delay-ratio grid axis (empty)",
            value: 0.0,
        });
    }
    let nc_values: Vec<f64> = channel_counts.iter().map(|&n| n as f64).collect();
    let plan = cnt_sweep::SweepPlan::new("interconnect.benchmark.delay_ratio_grid")
        .axis(cnt_sweep::Axis::grid("D_nm", diameters_nm))
        .axis(cnt_sweep::Axis::grid("Nc", &nc_values))
        .axis(cnt_sweep::Axis::grid("L_um", lengths_um));
    let points = cnt_sweep::Executor::new(threads).run(&plan, 0, |job, _| {
        let d = Length::from_nanometers(job.get("D_nm").expect("axis exists"));
        let nc = job.get_usize("Nc").expect("axis exists");
        let l = Length::from_micrometers(job.get("L_um").expect("axis exists"));
        Ok::<_, crate::Error>(DelayRatioPoint {
            diameter: d,
            channels: nc,
            length: l,
            ratio: delay_ratio(d, nc, l)?,
        })
    })?;
    Ok(points)
}

/// Same ratio from full transient simulations (slower; used for anchor
/// verification).
///
/// # Errors
///
/// Propagates benchmark construction and simulation errors.
pub fn delay_ratio_simulated(outer_diameter: Length, nc: usize, length: Length) -> Result<f64> {
    let doped = DelayBenchmark::paper_fig12(outer_diameter, nc, length)?;
    let pristine = DelayBenchmark::paper_fig12(outer_diameter, 2, length)?;
    Ok(doped.simulate_delay()?.seconds() / pristine.simulate_delay()?.seconds())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nm(v: f64) -> Length {
        Length::from_nanometers(v)
    }

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    #[test]
    fn fig12_anchors_10_5_2_percent() {
        // The paper: "dopants in MWCNT interconnects with DmaxCNT of 10,
        // 14, and 22nm reduce the propagation delay by 10, 5 and 2 %,
        // respectively, when L = 500µm".
        let cases = [(10.0, 0.10), (14.0, 0.05), (22.0, 0.02)];
        for (d, expect) in cases {
            let r = delay_ratio(nm(d), 10, um(500.0)).unwrap();
            let reduction = 1.0 - r;
            assert!(
                (reduction - expect).abs() < 0.013,
                "D = {d} nm: reduction {:.3} vs paper {expect}",
                reduction
            );
        }
    }

    #[test]
    fn doping_more_effective_at_longer_lines() {
        // "as L increases, doping becomes more effective in reducing delay".
        let r10 = delay_ratio(nm(10.0), 10, um(10.0)).unwrap();
        let r100 = delay_ratio(nm(10.0), 10, um(100.0)).unwrap();
        let r500 = delay_ratio(nm(10.0), 10, um(500.0)).unwrap();
        assert!(r500 < r100 && r100 < r10, "{r10} / {r100} / {r500}");
    }

    #[test]
    fn doping_benefit_diminishes_with_diameter() {
        // "By increasing DmaxCNT … doping effects diminishes."
        let r10 = delay_ratio(nm(10.0), 10, um(500.0)).unwrap();
        let r14 = delay_ratio(nm(14.0), 10, um(500.0)).unwrap();
        let r22 = delay_ratio(nm(22.0), 10, um(500.0)).unwrap();
        assert!(r10 < r14 && r14 < r22, "{r10} / {r14} / {r22}");
    }

    #[test]
    fn ratio_monotone_in_channel_count() {
        let mut prev = 1.0;
        for nc in [2usize, 4, 6, 8, 10] {
            let r = delay_ratio(nm(14.0), nc, um(200.0)).unwrap();
            assert!(r <= prev + 1e-12, "Nc = {nc}: {r} vs {prev}");
            prev = r;
        }
        assert!((delay_ratio(nm(14.0), 2, um(200.0)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn simulation_confirms_elmore_anchor() {
        // Cross-check the analytic path with the SPICE path at the 10 nm
        // anchor point.
        let est = delay_ratio(nm(10.0), 10, um(500.0)).unwrap();
        let sim = delay_ratio_simulated(nm(10.0), 10, um(500.0)).unwrap();
        assert!(
            (est - sim).abs() < 0.05,
            "Elmore ratio {est:.3} vs simulated {sim:.3}"
        );
    }

    #[test]
    fn simulated_delay_close_to_estimate() {
        let b = DelayBenchmark::paper_fig12(nm(10.0), 2, um(500.0)).unwrap();
        let est = b.estimate_delay().unwrap().seconds();
        let sim = b.simulate_delay().unwrap().seconds();
        assert!(
            (sim - est).abs() / est < 0.25,
            "sim {sim:.3e} vs est {est:.3e}"
        );
    }

    #[test]
    fn strong_driver_ablation_shows_larger_benefit() {
        // With a real minimum-size 45 nm inverter, the wire RC dominates
        // and the doping benefit is far larger than the paper's 10 % — the
        // documented driver-calibration ablation.
        let mut doped = DelayBenchmark::paper_fig12(nm(10.0), 10, um(500.0)).unwrap();
        let mut pristine = DelayBenchmark::paper_fig12(nm(10.0), 2, um(500.0)).unwrap();
        doped.driver = DriverModel::Inverter(InverterCell::inv_45nm());
        pristine.driver = DriverModel::Inverter(InverterCell::inv_45nm());
        let ratio = doped.estimate_delay().unwrap().seconds()
            / pristine.estimate_delay().unwrap().seconds();
        assert!(ratio < 0.5, "strong drive ratio {ratio}");
    }

    #[test]
    fn bandwidth_mirrors_delay_improvement() {
        // Frequency-domain extension: the doped line's −3 dB bandwidth
        // exceeds the pristine one by roughly the inverse delay ratio.
        let pristine = DelayBenchmark::paper_fig12(nm(10.0), 2, um(500.0)).unwrap();
        let doped = DelayBenchmark::paper_fig12(nm(10.0), 10, um(500.0)).unwrap();
        let bw_p = pristine.simulate_bandwidth().unwrap();
        let bw_d = doped.simulate_bandwidth().unwrap();
        assert!(bw_d > bw_p, "doped bw {bw_d:.3e} vs pristine {bw_p:.3e}");
        let bw_gain = bw_d / bw_p;
        let delay_gain = 1.0 / delay_ratio(nm(10.0), 10, um(500.0)).unwrap();
        assert!(
            (bw_gain - delay_gain).abs() / delay_gain < 0.2,
            "bandwidth gain {bw_gain:.3} vs inverse delay ratio {delay_gain:.3}"
        );
        // And the absolute corner sits near 1/(2π·t50-ish).
        let est = pristine.estimate_delay().unwrap().seconds();
        let corner = 1.0 / (2.0 * core::f64::consts::PI * est);
        assert!(
            (0.2..5.0).contains(&(bw_p / corner)),
            "bw/corner {}",
            bw_p / corner
        );
    }

    #[test]
    fn grid_matches_pointwise_calls_at_any_thread_count() {
        let d = [10.0, 14.0];
        let nc = [2usize, 6];
        let l = [10.0, 500.0];
        let serial = delay_ratio_grid(&d, &nc, &l, 1).unwrap();
        let par = delay_ratio_grid(&d, &nc, &l, 4).unwrap();
        assert_eq!(serial, par);
        assert_eq!(serial.len(), 8);
        // Nested-loop order, innermost length — and each point equals the
        // scalar path bit-for-bit.
        let mut k = 0;
        for &dd in &d {
            for &n in &nc {
                for &ll in &l {
                    let p = &serial[k];
                    assert_eq!(p.diameter, nm(dd));
                    assert_eq!(p.channels, n);
                    assert_eq!(p.length, um(ll));
                    let scalar = delay_ratio(nm(dd), n, um(ll)).unwrap();
                    assert_eq!(p.ratio.to_bits(), scalar.to_bits());
                    k += 1;
                }
            }
        }
        assert!(delay_ratio_grid(&[], &nc, &l, 1).is_err());
    }

    #[test]
    fn absolute_delay_magnitude_sanity() {
        // The calibrated benchmark at 500 µm sits in the nanosecond range.
        let b = DelayBenchmark::paper_fig12(nm(10.0), 2, um(500.0)).unwrap();
        let d = b.estimate_delay().unwrap();
        assert!(
            (1.0e-9..10.0e-9).contains(&d.seconds()),
            "delay {:.3e} s",
            d.seconds()
        );
    }
}
