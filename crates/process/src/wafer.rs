//! 300 mm wafer maps: spatial variation and uniformity metrics.
//!
//! Regenerates the observable content of Fig. 5 ("CNT growth with Co
//! catalyst on a 300 mm wafer" — "a good starting uniformity") and
//! provides the wafer-scale machinery reused by the Fig. 13b full-wafer
//! electrical characterization.
//!
//! The spatial model is the standard decomposition used in SPC:
//! `value(r, θ) = nominal · (1 + radial·(r/R)² + noise)` with seeded
//! Gaussian noise per site.

use crate::{Error, Result};
use cnt_units::math;
use cnt_units::rand_ext;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One measurement site on the wafer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferSite {
    /// x coordinate, metres (wafer centre = origin).
    pub x: f64,
    /// y coordinate, metres.
    pub y: f64,
    /// Measured value at this site (unit defined by the quantity mapped).
    pub value: f64,
}

impl WaferSite {
    /// Radial position from wafer centre, metres.
    pub fn radius(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

/// Uniformity summary of a wafer map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformityReport {
    /// Mean of all sites.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation σ/µ (fraction, not %).
    pub cv: f64,
    /// Half-range uniformity `(max − min) / (2·mean)`.
    pub half_range: f64,
    /// Number of sites.
    pub sites: usize,
}

/// Number of radial bands in [`band_bounds`]: five bands of width 0.2
/// of the wafer radius.
pub const RADIAL_BANDS: usize = 5;

/// The `[lo, hi)` bounds of radial band `band`, as fractions of the wafer
/// radius — the bands fig05 reports centre-to-edge trends in.
pub fn band_bounds(band: usize) -> (f64, f64) {
    let lo = band as f64 * 0.2;
    (lo, lo + 0.2)
}

/// The radial band of [`band_bounds`] that holds `r_frac` (a fraction of
/// the wafer radius), with the test [`WaferMap::radial_band_mean`]
/// applies. The bands tile `[0, 1)`, so there is at most one.
fn band_of(r_frac: f64) -> Option<usize> {
    (0..RADIAL_BANDS).find(|&band| {
        let (lo, hi) = band_bounds(band);
        r_frac >= lo && r_frac < hi
    })
}

/// One pass of per-band means over `(band, value)` pairs in site order;
/// `None` for an empty band.
fn band_means(sites: impl Iterator<Item = (Option<usize>, f64)>) -> [Option<f64>; RADIAL_BANDS] {
    // `Iterator::sum` folds from -0.0 in site order; so does this, which
    // keeps each mean bit-identical to `math::mean` over the band.
    let mut sums = [-0.0; RADIAL_BANDS];
    let mut counts = [0usize; RADIAL_BANDS];
    for (band, value) in sites {
        if let Some(band) = band {
            sums[band] += value;
            counts[band] += 1;
        }
    }
    core::array::from_fn(|band| (counts[band] > 0).then(|| sums[band] / counts[band] as f64))
}

/// The uniformity summary of a set of site values.
///
/// # Errors
///
/// Returns [`Error::EmptyRequest`] for fewer than 2 values.
pub fn uniformity_of(values: &[f64]) -> Result<UniformityReport> {
    if values.len() < 2 {
        return Err(Error::EmptyRequest("uniformity needs ≥ 2 sites"));
    }
    let mean = math::mean(values).expect("non-empty");
    let std_dev = math::std_dev(values).expect("≥ 2 sites");
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    Ok(UniformityReport {
        mean,
        std_dev,
        cv: std_dev / mean,
        half_range: (max - min) / (2.0 * mean),
        sites: values.len(),
    })
}

/// One site of a [`WaferLayout`].
#[derive(Debug, Clone, PartialEq)]
struct LayoutSite {
    x: f64,
    y: f64,
    /// Distance from the centre over the wafer radius, from the polar
    /// radius (the radial trend's argument).
    rel: f64,
    /// [`band_of`] the site's radius recomputed from `x`, `y`.
    band: Option<usize>,
}

/// The sunflower layout of a wafer's measurement sites: positions, their
/// radial fractions and radial bands — everything about a map that does
/// not depend on the seed.
///
/// [`WaferMap::generate`] builds one per call; a Monte-Carlo ensemble
/// builds one and samples it once per wafer.
#[derive(Debug, Clone, PartialEq)]
pub struct WaferLayout {
    diameter: f64,
    sites: Vec<LayoutSite>,
}

impl WaferLayout {
    /// `n_sites` in a spiral (sunflower) layout over a wafer of
    /// `diameter` metres, with a 5 % edge exclusion.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive diameter or
    /// [`Error::EmptyRequest`] for zero sites.
    pub fn sunflower(diameter: f64, n_sites: usize) -> Result<Self> {
        if diameter <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "diameter",
                value: diameter,
            });
        }
        if n_sites == 0 {
            return Err(Error::EmptyRequest("wafer sites"));
        }
        let r_wafer = diameter / 2.0;
        let r_max = r_wafer * 0.95; // 5 % edge exclusion
        let golden = core::f64::consts::PI * (3.0 - 5.0_f64.sqrt());
        let sites = (0..n_sites)
            .map(|k| {
                // Sunflower layout covers the disc uniformly.
                let frac = (k as f64 + 0.5) / n_sites as f64;
                let r = r_max * frac.sqrt();
                let th = golden * k as f64;
                let (x, y) = (r * th.cos(), r * th.sin());
                let placed = WaferSite { x, y, value: 0.0 };
                LayoutSite {
                    x,
                    y,
                    rel: r / r_wafer,
                    band: band_of(placed.radius() / r_wafer),
                }
            })
            .collect();
        Ok(Self { diameter, sites })
    }

    /// Site values `nominal · (1 + radial·(r/R)² + noise)` in site order,
    /// one seeded Gaussian draw per site: `radial` centre-to-edge
    /// fractional variation, `noise` per-site fractional sigma.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive nominal or a
    /// negative noise.
    pub fn sample_values(
        &self,
        nominal: f64,
        radial: f64,
        noise: f64,
        seed: u64,
    ) -> Result<Vec<f64>> {
        if nominal <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "nominal",
                value: nominal,
            });
        }
        if noise < 0.0 {
            return Err(Error::InvalidParameter {
                name: "noise",
                value: noise,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(self
            .sites
            .iter()
            .map(|s| {
                nominal * (1.0 + radial * s.rel * s.rel + rand_ext::normal(&mut rng, 0.0, noise))
            })
            .collect())
    }

    /// Mean of `values` (one per site, in site order) in each radial band
    /// of [`band_bounds`]; bit-identical to
    /// [`WaferMap::radial_band_mean`] over the same bounds.
    ///
    /// # Panics
    ///
    /// Panics when `values` does not hold one value per site.
    pub fn band_means(&self, values: &[f64]) -> [Option<f64>; RADIAL_BANDS] {
        assert_eq!(values.len(), self.sites.len(), "one value per site");
        band_means(
            self.sites
                .iter()
                .map(|s| s.band)
                .zip(values.iter().copied()),
        )
    }
}

/// A sampled wafer map.
///
/// # Example
///
/// ```
/// use cnt_process::wafer::WaferMap;
///
/// let map = WaferMap::generate(0.3, 49, 1.0, 0.04, 0.01, 42)?;
/// let rep = map.uniformity()?;
/// assert!(rep.cv < 0.05, "good starting uniformity");
/// # Ok::<(), cnt_process::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaferMap {
    diameter: f64,
    sites: Vec<WaferSite>,
}

impl WaferMap {
    /// Generates a map with `n_sites` in a spiral (sunflower) layout over a
    /// wafer of `diameter` metres: `nominal` mean value, `radial`
    /// centre-to-edge fractional variation, `noise` per-site Gaussian
    /// fractional sigma, deterministic in `seed`. Builds the
    /// [`WaferLayout`], then samples it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive diameter or
    /// nominal, negative noise, or [`Error::EmptyRequest`] for zero sites.
    pub fn generate(
        diameter: f64,
        n_sites: usize,
        nominal: f64,
        radial: f64,
        noise: f64,
        seed: u64,
    ) -> Result<Self> {
        let layout = WaferLayout::sunflower(diameter, n_sites)?;
        let values = layout.sample_values(nominal, radial, noise, seed)?;
        let sites = layout
            .sites
            .iter()
            .zip(values)
            .map(|(s, value)| WaferSite {
                x: s.x,
                y: s.y,
                value,
            })
            .collect();
        Ok(Self { diameter, sites })
    }

    /// Wafer diameter, metres.
    pub fn diameter(&self) -> f64 {
        self.diameter
    }

    /// All sites.
    pub fn sites(&self) -> &[WaferSite] {
        &self.sites
    }

    /// Applies a function to every site value, returning a derived map
    /// (e.g. thickness → line resistance).
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> WaferMap {
        WaferMap {
            diameter: self.diameter,
            sites: self
                .sites
                .iter()
                .map(|s| WaferSite {
                    x: s.x,
                    y: s.y,
                    value: f(s.value),
                })
                .collect(),
        }
    }

    /// Computes the uniformity summary.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyRequest`] when the map has fewer than 2 sites.
    pub fn uniformity(&self) -> Result<UniformityReport> {
        let values: Vec<f64> = self.sites.iter().map(|s| s.value).collect();
        uniformity_of(&values)
    }

    /// Mean value of sites within the given radial band (fractions of the
    /// wafer radius) — used to expose centre-to-edge trends.
    pub fn radial_band_mean(&self, r_lo_frac: f64, r_hi_frac: f64) -> Option<f64> {
        let r_wafer = self.diameter / 2.0;
        let vals: Vec<f64> = self
            .sites
            .iter()
            .filter(|s| {
                let f = s.radius() / r_wafer;
                f >= r_lo_frac && f < r_hi_frac
            })
            .map(|s| s.value)
            .collect();
        math::mean(&vals)
    }

    /// [`WaferMap::radial_band_mean`] over every band of [`band_bounds`],
    /// in one pass over the sites.
    pub fn radial_band_means(&self) -> [Option<f64>; RADIAL_BANDS] {
        let r_wafer = self.diameter / 2.0;
        band_means(
            self.sites
                .iter()
                .map(|s| (band_of(s.radius() / r_wafer), s.value)),
        )
    }

    /// Renders a coarse ASCII map (rows of mean values) for reports.
    pub fn ascii_map(&self, bins: usize) -> String {
        let mut s = String::new();
        let r = self.diameter / 2.0;
        let stats = self.uniformity();
        for row in 0..bins {
            let y_lo = r - (row as f64 + 1.0) * self.diameter / bins as f64;
            let y_hi = r - row as f64 * self.diameter / bins as f64;
            for col in 0..bins {
                let x_lo = -r + col as f64 * self.diameter / bins as f64;
                let x_hi = -r + (col as f64 + 1.0) * self.diameter / bins as f64;
                let vals: Vec<f64> = self
                    .sites
                    .iter()
                    .filter(|p| p.x >= x_lo && p.x < x_hi && p.y >= y_lo && p.y < y_hi)
                    .map(|p| p.value)
                    .collect();
                let ch = match math::mean(&vals) {
                    None => ' ',
                    Some(v) => {
                        let rep = stats.as_ref().expect("≥2 sites");
                        let z = (v - rep.mean) / rep.std_dev.max(1e-30);
                        match z {
                            z if z < -1.0 => '-',
                            z if z > 1.0 => '+',
                            _ => 'o',
                        }
                    }
                };
                s.push(ch);
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-site generator `WaferMap::generate` ran before the layout
    /// was split from the noise: geometry and draw interleaved per site.
    fn per_site_reference(
        diameter: f64,
        n_sites: usize,
        nominal: f64,
        radial: f64,
        noise: f64,
        seed: u64,
    ) -> WaferMap {
        let mut rng = StdRng::seed_from_u64(seed);
        let r_max = diameter / 2.0 * 0.95;
        let golden = core::f64::consts::PI * (3.0 - 5.0_f64.sqrt());
        let sites = (0..n_sites)
            .map(|k| {
                let frac = (k as f64 + 0.5) / n_sites as f64;
                let r = r_max * frac.sqrt();
                let th = golden * k as f64;
                let rel = r / (diameter / 2.0);
                let value =
                    nominal * (1.0 + radial * rel * rel + rand_ext::normal(&mut rng, 0.0, noise));
                WaferSite {
                    x: r * th.cos(),
                    y: r * th.sin(),
                    value,
                }
            })
            .collect();
        WaferMap { diameter, sites }
    }

    fn bits(x: Option<f64>) -> Option<u64> {
        x.map(f64::to_bits)
    }

    #[test]
    fn layout_path_matches_the_per_site_formula_bit_for_bit() {
        // fig05's sweep wafer (121), and the catalog `sites` range up to its
        // 20000 maximum.
        for n_sites in [1, 9, 49, 121, 2000, 20000] {
            let layout = WaferLayout::sunflower(0.3, n_sites).unwrap();
            for seed in [0, 1, 42, 20180319, u64::MAX] {
                let want = per_site_reference(0.3, n_sites, 1.0, 0.05, 0.015, seed);
                let got = WaferMap::generate(0.3, n_sites, 1.0, 0.05, 0.015, seed).unwrap();
                let values = layout.sample_values(1.0, 0.05, 0.015, seed).unwrap();
                for (a, b) in got.sites().iter().zip(want.sites()) {
                    assert_eq!(a.x.to_bits(), b.x.to_bits());
                    assert_eq!(a.y.to_bits(), b.y.to_bits());
                    assert_eq!(a.value.to_bits(), b.value.to_bits());
                }
                assert_eq!(got.sites().len(), n_sites);
                let want_values: Vec<u64> =
                    want.sites().iter().map(|s| s.value.to_bits()).collect();
                let values_bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(values_bits, want_values);
                let uniformity = want.uniformity();
                assert_eq!(got.uniformity(), uniformity);
                assert_eq!(uniformity_of(&values), uniformity);
                let (one_pass, from_layout) = (got.radial_band_means(), layout.band_means(&values));
                for band in 0..RADIAL_BANDS {
                    let (lo, hi) = band_bounds(band);
                    let want_mean = bits(want.radial_band_mean(lo, hi));
                    assert_eq!(
                        bits(one_pass[band]),
                        want_mean,
                        "n = {n_sites}, band {band}"
                    );
                    assert_eq!(
                        bits(from_layout[band]),
                        want_mean,
                        "n = {n_sites}, band {band}"
                    );
                }
            }
        }
    }

    #[test]
    fn radial_bands_tile_the_wafer() {
        // Adjacent bands share their float edge exactly, so one band test
        // per site agrees with a separate `radial_band_mean` per band.
        for band in 1..RADIAL_BANDS {
            assert_eq!(band_bounds(band - 1).1, band_bounds(band).0, "band {band}");
        }
        assert_eq!(band_bounds(0).0, 0.0);
        assert_eq!(band_bounds(RADIAL_BANDS - 1).1, 1.0);
        assert_eq!(band_of(0.0), Some(0));
        assert_eq!(band_of(0.2), Some(1));
        assert_eq!(band_of(1.0), None);
    }

    #[test]
    fn validation() {
        assert!(WaferLayout::sunflower(0.0, 49).is_err());
        assert!(WaferLayout::sunflower(0.3, 49)
            .unwrap()
            .sample_values(1.0, 0.0, -0.1, 1)
            .is_err());
        assert!(WaferMap::generate(-0.3, 49, 1.0, 0.0, 0.0, 1).is_err());
        assert!(WaferMap::generate(0.3, 0, 1.0, 0.0, 0.0, 1).is_err());
        assert!(WaferMap::generate(0.3, 9, 0.0, 0.0, 0.0, 1).is_err());
        assert!(WaferMap::generate(0.3, 9, 1.0, 0.0, -0.1, 1).is_err());
    }

    #[test]
    fn noise_free_map_shows_pure_radial_trend() {
        let map = WaferMap::generate(0.3, 200, 100.0, 0.10, 0.0, 7).unwrap();
        let center = map.radial_band_mean(0.0, 0.3).unwrap();
        let edge = map.radial_band_mean(0.7, 1.0).unwrap();
        assert!(edge > center, "edge {edge} vs centre {center}");
        // 10 % centre-to-edge: edge band mean ≈ +7–10 %.
        assert!((edge / center - 1.0) > 0.04);
    }

    #[test]
    fn uniformity_metrics_scale_with_noise() {
        let quiet = WaferMap::generate(0.3, 300, 1.0, 0.0, 0.01, 3)
            .unwrap()
            .uniformity()
            .unwrap();
        let loud = WaferMap::generate(0.3, 300, 1.0, 0.0, 0.05, 3)
            .unwrap()
            .uniformity()
            .unwrap();
        assert!((quiet.cv - 0.01).abs() < 0.004, "cv = {}", quiet.cv);
        assert!((loud.cv - 0.05).abs() < 0.01, "cv = {}", loud.cv);
        assert!(loud.half_range > quiet.half_range);
        assert_eq!(quiet.sites, 300);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = WaferMap::generate(0.3, 49, 1.0, 0.05, 0.02, 99).unwrap();
        let b = WaferMap::generate(0.3, 49, 1.0, 0.05, 0.02, 99).unwrap();
        assert_eq!(a, b);
        let c = WaferMap::generate(0.3, 49, 1.0, 0.05, 0.02, 100).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn sites_stay_on_wafer() {
        let map = WaferMap::generate(0.3, 500, 1.0, 0.02, 0.01, 5).unwrap();
        for s in map.sites() {
            assert!(s.radius() <= 0.15, "site off-wafer at r = {}", s.radius());
        }
    }

    #[test]
    fn map_values_transforms_pointwise() {
        let map = WaferMap::generate(0.3, 49, 2.0, 0.0, 0.0, 1).unwrap();
        let doubled = map.map_values(|v| v * 2.0);
        for (a, b) in map.sites().iter().zip(doubled.sites()) {
            assert_eq!(b.value, a.value * 2.0);
            assert_eq!((a.x, a.y), (b.x, b.y));
        }
    }

    #[test]
    fn ascii_map_has_requested_shape() {
        let map = WaferMap::generate(0.3, 200, 1.0, 0.1, 0.01, 2).unwrap();
        let art = map.ascii_map(8);
        assert_eq!(art.lines().count(), 8);
        assert!(art.lines().all(|l| l.chars().count() == 8));
    }
}
