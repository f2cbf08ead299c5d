//! Iterative solvers for the variable-coefficient Laplace stencil.
//!
//! The finite-volume discretization of `∇·(c ∇ψ) = 0` on a structured grid
//! produces a symmetric positive-semidefinite 7-point system. Two
//! schemes are provided: Jacobi-preconditioned conjugate gradients and
//! multigrid-preconditioned conjugate gradients (a symmetric V-cycle over
//! a [`crate::mg::GridHierarchy`]). The default [`Method::Auto`] picks Jacobi-CG below
//! [`crate::mg::MG_AUTO_THRESHOLD_NODES`] nodes — keeping small-grid
//! solves bit-identical to the historical path — and MG-CG above it,
//! where the grid-independent iteration count wins.

use crate::grid::Grid3;
use crate::mg::{self, GridHierarchy, MgWorkspace, MG_AUTO_THRESHOLD_NODES};
use crate::{Error, Result};
use cnt_obs::Counter;
use std::sync::{Arc, OnceLock};

/// `(cg, mgcg)` iterations performed process-wide, for the
/// `/v1/metrics` export (`cnt_fields_*_iterations_total`).
fn iteration_counters() -> &'static (Arc<Counter>, Arc<Counter>) {
    static HANDLES: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let g = cnt_obs::global();
        (
            g.counter(
                "cnt_fields_cg_iterations_total",
                "Jacobi-CG iterations performed",
            ),
            g.counter(
                "cnt_fields_mgcg_iterations_total",
                "MG-CG iterations performed",
            ),
        )
    })
}

/// Which scheme drives the solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Pick automatically by problem size: Jacobi-CG below
    /// [`MG_AUTO_THRESHOLD_NODES`] nodes, multigrid-preconditioned CG at
    /// or above it (falling back to Jacobi-CG when the grid cannot build
    /// an effective hierarchy). This is the default.
    Auto,
    /// Jacobi-preconditioned conjugate gradient — the small-grid default
    /// and the ablation reference for [`Method::MgCg`].
    ConjugateGradient,
    /// Conjugate gradient preconditioned by one geometric-multigrid
    /// V-cycle per iteration (see [`crate::mg`]). Asymptotically the
    /// fastest scheme: the iteration count is essentially independent of
    /// grid size.
    MgCg,
}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Iteration scheme ([`Method::Auto`] by default).
    pub scheme: Method,
    /// Iteration cap before declaring divergence.
    pub max_iterations: usize,
    /// Relative-residual convergence threshold.
    pub tolerance: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            scheme: Method::Auto,
            max_iterations: 50_000,
            tolerance: 1e-10,
        }
    }
}

/// A converged solve plus its execution statistics.
///
/// Returned by [`StencilSystem::solve_full`]; the benchmark reports the
/// iteration count (`fields.solve_iterations` in `perfbench`), which
/// exposes the CG-vs-MG-CG asymptotics.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Nodal potentials.
    pub psi: Vec<f64>,
    /// Iterations the scheme performed (CG steps).
    pub iterations: usize,
    /// The scheme that actually ran — for [`Method::Auto`] this reports
    /// the resolved choice, and for [`Method::MgCg`] on a grid with no
    /// effective hierarchy it reports the CG fallback.
    pub method: Method,
}

/// Reusable scratch buffers for [`StencilSystem::solve_with`].
///
/// A CG solve needs five full-grid work vectors (`A·p`, residual,
/// preconditioned residual, search direction, preconditioner) plus the
/// free-node mask; an MG-CG solve additionally keeps the whole multigrid
/// hierarchy — per-level operators, masks, scratch, and the dense
/// coarsest factor — in the embedded [`MgWorkspace`]. Extraction drivers
/// that solve the same grid once per excitation reuse one workspace
/// across all solves instead of reallocating per call; buffers are sized
/// (and the mask and hierarchy recomputed) at the start of every solve,
/// so a workspace may also move between systems of different sizes.
#[derive(Debug, Default)]
pub struct SolveWorkspace {
    ax: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    precond: Vec<f64>,
    free: Vec<bool>,
    mg: MgWorkspace,
}

impl SolveWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Assembled stencil system: face conductances plus Dirichlet constraints.
///
/// `dirichlet[n] = Some(v)` pins node `n` to potential `v`; nodes whose
/// row is entirely disconnected (all face weights zero — e.g. dielectric
/// islands in a resistance solve) are automatically pinned to zero.
#[derive(Debug, Clone)]
pub struct StencilSystem {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Node spacing, kept for multigrid re-discretization.
    spacing: [f64; 3],
    /// Per-cell coefficients, kept for multigrid coarsening.
    cell_coeff: Vec<f64>,
    /// Face weights along x: index `(k·ny + j)·(nx−1) + i`.
    wx: Vec<f64>,
    /// Face weights along y: index `(k·(ny−1) + j)·nx + i`.
    wy: Vec<f64>,
    /// Face weights along z: index `(k·ny + j)·nx + i` for `k < nz−1`.
    wz: Vec<f64>,
    dirichlet: Vec<Option<f64>>,
    diag: Vec<f64>,
}

impl StencilSystem {
    /// Assembles the system from per-cell coefficients.
    ///
    /// The face weight between two adjacent nodes is
    /// `(A_face / d) · mean(coefficients of adjacent cells)`, where cells
    /// missing at the domain boundary contribute zero — this realizes the
    /// natural (zero-flux Neumann) boundary condition.
    pub fn assemble(grid: &Grid3, cell_coeff: &[f64], dirichlet: Vec<Option<f64>>) -> Self {
        let [nx, ny, nz] = grid.nodes();
        debug_assert_eq!(cell_coeff.len(), grid.cell_count());
        debug_assert_eq!(dirichlet.len(), grid.node_count());

        let mut wx = Vec::new();
        let mut wy = Vec::new();
        let mut wz = Vec::new();
        let mut diag = Vec::new();
        mg::assemble_faces(
            grid.nodes(),
            grid.spacing(),
            cell_coeff,
            &mut wx,
            &mut wy,
            &mut wz,
        );
        mg::stencil_diagonal(grid.nodes(), &wx, &wy, &wz, &mut diag);

        let mut sys = Self {
            nx,
            ny,
            nz,
            spacing: grid.spacing(),
            cell_coeff: cell_coeff.to_vec(),
            wx,
            wy,
            wz,
            dirichlet,
            diag,
        };
        // Disconnected nodes have zero diagonal: pin them so the reduced
        // system stays SPD.
        for (idx, &d) in sys.diag.iter().enumerate() {
            if d == 0.0 && sys.dirichlet[idx].is_none() {
                sys.dirichlet[idx] = Some(0.0);
            }
        }
        sys
    }

    /// Node counts per axis.
    pub(crate) fn dims(&self) -> [usize; 3] {
        [self.nx, self.ny, self.nz]
    }

    /// Node spacing per axis.
    pub(crate) fn grid_spacing(&self) -> [f64; 3] {
        self.spacing
    }

    /// Per-cell coefficients the system was assembled from.
    pub(crate) fn cell_coeff(&self) -> &[f64] {
        &self.cell_coeff
    }

    /// Raw stencil arrays `(wx, wy, wz, diag)` for the multigrid cycle.
    pub(crate) fn stencil_arrays(&self) -> (&[f64], &[f64], &[f64], &[f64]) {
        (&self.wx, &self.wy, &self.wz, &self.diag)
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Applies the full stencil operator `y = A·ψ` over all nodes
    /// (no Dirichlet masking); used for flux integration.
    fn apply_full(&self, psi: &[f64], out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        // x faces
        for k in 0..self.nz {
            for j in 0..self.ny {
                let row = (k * self.ny + j) * (self.nx - 1);
                let base = (k * self.ny + j) * self.nx;
                for i in 0..self.nx - 1 {
                    let w = self.wx[row + i];
                    if w != 0.0 {
                        let a = base + i;
                        let b = a + 1;
                        let f = w * (psi[a] - psi[b]);
                        out[a] += f;
                        out[b] -= f;
                    }
                }
            }
        }
        // y faces
        for k in 0..self.nz {
            for j in 0..self.ny - 1 {
                let row = (k * (self.ny - 1) + j) * self.nx;
                let base_a = (k * self.ny + j) * self.nx;
                let base_b = (k * self.ny + j + 1) * self.nx;
                for i in 0..self.nx {
                    let w = self.wy[row + i];
                    if w != 0.0 {
                        let f = w * (psi[base_a + i] - psi[base_b + i]);
                        out[base_a + i] += f;
                        out[base_b + i] -= f;
                    }
                }
            }
        }
        // z faces
        for k in 0..self.nz - 1 {
            for j in 0..self.ny {
                let row = (k * self.ny + j) * self.nx;
                let base_a = (k * self.ny + j) * self.nx;
                let base_b = ((k + 1) * self.ny + j) * self.nx;
                for i in 0..self.nx {
                    let w = self.wz[row + i];
                    if w != 0.0 {
                        let f = w * (psi[base_a + i] - psi[base_b + i]);
                        out[base_a + i] += f;
                        out[base_b + i] -= f;
                    }
                }
            }
        }
    }

    /// Net stencil flux out of every node for the potential `psi`
    /// (`A·ψ` without Dirichlet masking). For a converged solution the flux
    /// is zero at free nodes and equals the injected charge/current at
    /// Dirichlet nodes.
    pub fn node_flux(&self, psi: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.node_count()];
        self.apply_full(psi, &mut out);
        out
    }

    /// Solves the constrained system.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoConvergence`] when the scheme exhausts
    /// `max_iterations`.
    pub fn solve(&self, options: &SolverOptions) -> Result<Vec<f64>> {
        self.solve_with(options, &mut SolveWorkspace::new())
    }

    /// [`Self::solve`] with caller-owned scratch buffers.
    ///
    /// The CG scheme needs five work vectors per solve (MG-CG adds the
    /// hierarchy); extraction loops (one solve per excited conductor) can
    /// hand the same [`SolveWorkspace`] to every call and pay the
    /// allocations once. Results are bit-identical to [`Self::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoConvergence`] when the scheme exhausts
    /// `max_iterations`.
    pub fn solve_with(&self, options: &SolverOptions, ws: &mut SolveWorkspace) -> Result<Vec<f64>> {
        self.solve_full(options, ws).map(|s| s.psi)
    }

    /// [`Self::solve_with`], also reporting iteration statistics.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoConvergence`] when the scheme exhausts
    /// `max_iterations`.
    pub fn solve_full(&self, options: &SolverOptions, ws: &mut SolveWorkspace) -> Result<Solution> {
        let _solve_span = cnt_obs::span!("fields.solve");
        let solution = match options.scheme {
            Method::Auto => {
                if self.node_count() >= MG_AUTO_THRESHOLD_NODES {
                    self.solve_mgcg(options, ws)
                } else {
                    self.solve_cg(options, ws)
                }
            }
            Method::ConjugateGradient => self.solve_cg(options, ws),
            Method::MgCg => self.solve_mgcg(options, ws),
        }?;
        // Iteration counters observe only; the solve itself is untouched
        // (determinism of the iterate sequence is golden-pinned).
        let counter = match solution.method {
            Method::ConjugateGradient => Some(&iteration_counters().0),
            Method::MgCg => Some(&iteration_counters().1),
            _ => None,
        };
        if let Some(counter) = counter {
            counter.add(solution.iterations as u64);
        }
        Ok(solution)
    }

    fn fill_free_mask(&self, free: &mut Vec<bool>) {
        free.clear();
        free.extend(self.dirichlet.iter().map(Option::is_none));
    }

    fn initial_guess(&self) -> Vec<f64> {
        self.dirichlet.iter().map(|d| d.unwrap_or(0.0)).collect()
    }

    fn solve_cg(&self, options: &SolverOptions, ws: &mut SolveWorkspace) -> Result<Solution> {
        let n = self.node_count();
        let SolveWorkspace {
            ax,
            r,
            z,
            p,
            precond,
            free,
            ..
        } = ws;
        self.fill_free_mask(free);
        let mut psi = self.initial_guess();

        // Residual r = -A·ψ restricted to free nodes (b folded in through
        // the Dirichlet entries of ψ).
        ax.resize(n, 0.0);
        self.apply_full(&psi, ax);
        r.clear();
        r.extend((0..n).map(|i| if free[i] { -ax[i] } else { 0.0 }));

        let norm_b: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm_b == 0.0 {
            return Ok(Solution {
                psi,
                iterations: 0,
                method: Method::ConjugateGradient,
            });
        }

        precond.clear();
        precond.extend((0..n).map(|i| {
            if free[i] && self.diag[i] > 0.0 {
                1.0 / self.diag[i]
            } else {
                0.0
            }
        }));

        z.clear();
        z.extend(r.iter().zip(precond.iter()).map(|(a, m)| a * m));
        p.clear();
        p.extend_from_slice(z);
        let mut rz: f64 = r.iter().zip(z.iter()).map(|(a, b)| a * b).sum();

        for it in 0..options.max_iterations {
            self.apply_full(p, ax);
            // Mask Dirichlet rows: p is zero there already, and columns are
            // handled because contributions into Dirichlet rows are ignored.
            let mut pap = 0.0;
            for i in 0..n {
                if free[i] {
                    pap += p[i] * ax[i];
                }
            }
            if pap <= 0.0 {
                // Numerically flat direction — accept current iterate.
                return Ok(Solution {
                    psi,
                    iterations: it,
                    method: Method::ConjugateGradient,
                });
            }
            let alpha = rz / pap;
            // One fused pass: update ψ and r, accumulate ‖r‖², refresh the
            // preconditioned residual z, and accumulate r·z. The historical
            // implementation made three separate grid passes here; the
            // fused loop visits every index in the same ascending order and
            // reads r only after its own update, so every partial sum — and
            // therefore the iterate — is bit-identical to the unfused form.
            let mut norm_r2 = 0.0;
            let mut rz_new = 0.0;
            for i in 0..n {
                if free[i] {
                    psi[i] += alpha * p[i];
                    r[i] -= alpha * ax[i];
                }
                let ri = r[i];
                norm_r2 += ri * ri;
                let zi = ri * precond[i];
                z[i] = zi;
                rz_new += ri * zi;
            }
            let norm_r = norm_r2.sqrt();
            if norm_r <= options.tolerance * norm_b {
                return Ok(Solution {
                    psi,
                    iterations: it + 1,
                    method: Method::ConjugateGradient,
                });
            }
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                if free[i] {
                    p[i] = z[i] + beta * p[i];
                } else {
                    p[i] = 0.0;
                }
            }
            if it + 1 == options.max_iterations {
                return Err(Error::NoConvergence {
                    iterations: options.max_iterations,
                    residual: norm_r / norm_b,
                });
            }
        }
        unreachable!("loop either returns or errors at the final iteration")
    }

    /// CG preconditioned by one symmetric multigrid V-cycle per
    /// iteration. Falls back to plain Jacobi-CG when the grid cannot
    /// build an effective hierarchy (no axis has an even cell count).
    fn solve_mgcg(&self, options: &SolverOptions, ws: &mut SolveWorkspace) -> Result<Solution> {
        self.fill_free_mask(&mut ws.free);
        let Some(h) = GridHierarchy::build(self, &ws.free, &mut ws.mg) else {
            return self.solve_cg(options, ws);
        };
        let n = self.node_count();
        let SolveWorkspace {
            ax,
            r,
            z,
            p,
            free,
            mg,
            ..
        } = ws;
        let mut psi = self.initial_guess();

        ax.resize(n, 0.0);
        self.apply_full(&psi, ax);
        r.clear();
        r.extend((0..n).map(|i| if free[i] { -ax[i] } else { 0.0 }));
        let norm_b: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm_b == 0.0 {
            return Ok(Solution {
                psi,
                iterations: 0,
                method: Method::MgCg,
            });
        }

        mg::precondition(self, free, h, r, z, mg);
        let mut rz: f64 = r.iter().zip(z.iter()).map(|(a, b)| a * b).sum();
        if rz <= 0.0 || rz.is_nan() {
            // The cycle failed to act as an SPD operator (degenerate
            // grid): restart with the identity preconditioner.
            z.clear();
            z.extend_from_slice(r);
            rz = norm_b * norm_b;
        }
        p.clear();
        p.extend_from_slice(z);

        for it in 0..options.max_iterations {
            self.apply_full(p, ax);
            let mut pap = 0.0;
            for i in 0..n {
                if free[i] {
                    pap += p[i] * ax[i];
                }
            }
            if pap <= 0.0 {
                // Numerically flat direction — accept current iterate.
                return Ok(Solution {
                    psi,
                    iterations: it,
                    method: Method::MgCg,
                });
            }
            let alpha = rz / pap;
            let mut norm_r2 = 0.0;
            for i in 0..n {
                if free[i] {
                    psi[i] += alpha * p[i];
                    r[i] -= alpha * ax[i];
                }
                norm_r2 += r[i] * r[i];
            }
            let norm_r = norm_r2.sqrt();
            if norm_r <= options.tolerance * norm_b {
                return Ok(Solution {
                    psi,
                    iterations: it + 1,
                    method: Method::MgCg,
                });
            }
            mg::precondition(self, free, h, r, z, mg);
            let mut rz_new: f64 = r.iter().zip(z.iter()).map(|(a, b)| a * b).sum();
            if rz_new <= 0.0 || rz_new.is_nan() {
                z.clear();
                z.extend_from_slice(r);
                rz_new = norm_r2;
            }
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                if free[i] {
                    p[i] = z[i] + beta * p[i];
                } else {
                    p[i] = 0.0;
                }
            }
            if it + 1 == options.max_iterations {
                return Err(Error::NoConvergence {
                    iterations: options.max_iterations,
                    residual: norm_r / norm_b,
                });
            }
        }
        unreachable!("loop either returns or errors at the final iteration")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid3;
    use proptest::prelude::*;

    /// 1-D problem embedded in 3-D: uniform coefficient, ψ fixed at the two
    /// z extremes ⇒ linear profile.
    fn linear_profile_system() -> (Grid3, StencilSystem) {
        let grid = Grid3::new([1.0, 1.0, 1.0], [4, 4, 9]).unwrap();
        let coeff = vec![1.0; grid.cell_count()];
        let mut dirichlet = vec![None; grid.node_count()];
        let [nx, ny, nz] = grid.nodes();
        for j in 0..ny {
            for i in 0..nx {
                dirichlet[grid.node_index(i, j, 0)] = Some(0.0);
                dirichlet[grid.node_index(i, j, nz - 1)] = Some(1.0);
            }
        }
        let sys = StencilSystem::assemble(&grid, &coeff, dirichlet);
        (grid, sys)
    }

    #[test]
    fn cg_recovers_linear_profile() {
        let (grid, sys) = linear_profile_system();
        let psi = sys.solve(&SolverOptions::default()).unwrap();
        let [_, _, nz] = grid.nodes();
        for k in 0..nz {
            let expect = k as f64 / (nz - 1) as f64;
            let got = psi[grid.node_index(1, 2, k)];
            assert!((got - expect).abs() < 1e-8, "k={k}: {got} vs {expect}");
        }
    }

    #[test]
    fn flux_balance_at_convergence() {
        let (grid, sys) = linear_profile_system();
        let psi = sys.solve(&SolverOptions::default()).unwrap();
        let flux = sys.node_flux(&psi);
        let [nx, ny, nz] = grid.nodes();
        // Free nodes: zero net flux.
        for k in 1..nz - 1 {
            for j in 0..ny {
                for i in 0..nx {
                    assert!(flux[grid.node_index(i, j, k)].abs() < 1e-8);
                }
            }
        }
        // Total flux into bottom == out of top.
        let bottom: f64 = (0..ny)
            .flat_map(|j| (0..nx).map(move |i| (i, j)))
            .map(|(i, j)| flux[grid.node_index(i, j, 0)])
            .sum();
        let top: f64 = (0..ny)
            .flat_map(|j| (0..nx).map(move |i| (i, j)))
            .map(|(i, j)| flux[grid.node_index(i, j, nz - 1)])
            .sum();
        assert!((bottom + top).abs() < 1e-8, "bottom {bottom} top {top}");
        // Conductance of unit cube column: c·A/L = 1·1/1 = 1 ⇒ flux = ±1.
        assert!((top - 1.0).abs() < 1e-6, "top {top}");
    }

    #[test]
    fn disconnected_nodes_are_pinned() {
        let grid = Grid3::new([1.0, 1.0, 1.0], [3, 3, 3]).unwrap();
        let coeff = vec![0.0; grid.cell_count()]; // fully insulating
        let dirichlet = vec![None; grid.node_count()];
        let sys = StencilSystem::assemble(&grid, &coeff, dirichlet);
        let psi = sys.solve(&SolverOptions::default()).unwrap();
        assert!(psi.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn no_convergence_is_reported() {
        let (_, sys) = linear_profile_system();
        let err = sys.solve(&SolverOptions {
            scheme: Method::ConjugateGradient,
            max_iterations: 1,
            tolerance: 1e-14,
        });
        assert!(matches!(err, Err(Error::NoConvergence { .. })));
    }

    /// The pre-fusion CG implementation, kept verbatim as the reference
    /// the fused loop is validated against.
    fn solve_cg_reference(sys: &StencilSystem, options: &SolverOptions) -> Result<Vec<f64>> {
        let n = sys.node_count();
        let free: Vec<bool> = sys.dirichlet.iter().map(Option::is_none).collect();
        let mut psi = sys.initial_guess();
        let mut ax = vec![0.0; n];
        sys.apply_full(&psi, &mut ax);
        let mut r: Vec<f64> = (0..n).map(|i| if free[i] { -ax[i] } else { 0.0 }).collect();
        let norm_b: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm_b == 0.0 {
            return Ok(psi);
        }
        let precond: Vec<f64> = (0..n)
            .map(|i| {
                if free[i] && sys.diag[i] > 0.0 {
                    1.0 / sys.diag[i]
                } else {
                    0.0
                }
            })
            .collect();
        let mut z: Vec<f64> = r.iter().zip(&precond).map(|(a, m)| a * m).collect();
        let mut p = z.clone();
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        for it in 0..options.max_iterations {
            sys.apply_full(&p, &mut ax);
            let pap: f64 = (0..n).filter(|&i| free[i]).map(|i| p[i] * ax[i]).sum();
            if pap <= 0.0 {
                return Ok(psi);
            }
            let alpha = rz / pap;
            for i in 0..n {
                if free[i] {
                    psi[i] += alpha * p[i];
                    r[i] -= alpha * ax[i];
                }
            }
            let norm_r: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm_r <= options.tolerance * norm_b {
                return Ok(psi);
            }
            for i in 0..n {
                z[i] = r[i] * precond[i];
            }
            let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                if free[i] {
                    p[i] = z[i] + beta * p[i];
                } else {
                    p[i] = 0.0;
                }
            }
            if it + 1 == options.max_iterations {
                return Err(Error::NoConvergence {
                    iterations: options.max_iterations,
                    residual: norm_r / norm_b,
                });
            }
        }
        unreachable!()
    }

    /// Tiny deterministic generator for the random-grid tests (the fields
    /// crate has no RNG dependency).
    struct XorShift(u64);

    impl XorShift {
        fn next_f64(&mut self) -> f64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            (x >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn random_system(seed: u64, nx: usize, ny: usize, nz: usize) -> StencilSystem {
        let mut rng = XorShift(seed | 1);
        let grid = Grid3::new([1.0, 1.0, 1.0], [nx, ny, nz]).unwrap();
        let coeff: Vec<f64> = (0..grid.cell_count())
            .map(|_| {
                // Mostly heterogeneous positive cells, some insulating.
                let v = rng.next_f64();
                if v < 0.15 {
                    0.0
                } else {
                    0.1 + 5.0 * v
                }
            })
            .collect();
        let mut dirichlet = vec![None; grid.node_count()];
        let [gx, gy, gz] = grid.nodes();
        for j in 0..gy {
            for i in 0..gx {
                dirichlet[grid.node_index(i, j, 0)] = Some(0.0);
                dirichlet[grid.node_index(i, j, gz - 1)] = Some(1.0);
            }
        }
        // A few random interior pins at random potentials.
        for _ in 0..3 {
            let idx = (rng.next_f64() * grid.node_count() as f64) as usize % grid.node_count();
            dirichlet[idx] = Some(rng.next_f64());
        }
        StencilSystem::assemble(&grid, &coeff, dirichlet)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn fused_cg_matches_unfused_reference_on_random_grids(
            seed in any::<u64>(),
            nx in 3_usize..6,
            ny in 3_usize..6,
            nz in 3_usize..7,
        ) {
            let sys = random_system(seed, nx, ny, nz);
            let options = SolverOptions::default();
            let fused = sys.solve(&options).unwrap();
            let reference = solve_cg_reference(&sys, &options).unwrap();
            prop_assert_eq!(fused.len(), reference.len());
            for (i, (a, b)) in fused.iter().zip(&reference).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-12,
                    "node {}: fused {} vs reference {}", i, a, b
                );
            }
        }
    }

    /// Strictly positive heterogeneous coefficients with random interior
    /// Dirichlet pins — the well-posed ensemble for the MG-vs-CG
    /// equivalence test (insulating islands are covered separately: they
    /// leave floating components where both schemes return the pinned
    /// zero iterate).
    fn random_positive_system(seed: u64, nx: usize, ny: usize, nz: usize) -> StencilSystem {
        let mut rng = XorShift(seed | 1);
        let grid = Grid3::new([1.0, 1.0, 1.0], [nx, ny, nz]).unwrap();
        let coeff: Vec<f64> = (0..grid.cell_count())
            .map(|_| 0.1 + 5.0 * rng.next_f64())
            .collect();
        let mut dirichlet = vec![None; grid.node_count()];
        let [gx, gy, gz] = grid.nodes();
        for j in 0..gy {
            for i in 0..gx {
                dirichlet[grid.node_index(i, j, 0)] = Some(0.0);
                dirichlet[grid.node_index(i, j, gz - 1)] = Some(1.0);
            }
        }
        for _ in 0..4 {
            let idx = (rng.next_f64() * grid.node_count() as f64) as usize % grid.node_count();
            dirichlet[idx] = Some(rng.next_f64());
        }
        StencilSystem::assemble(&grid, &coeff, dirichlet)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// MG-CG is pinned to the Jacobi-CG reference to ≤ 1e-10 relative
        /// error on random heterogeneous Dirichlet-masked grids (both
        /// solved past the comparison tolerance).
        #[test]
        fn mgcg_matches_jacobi_cg_on_random_heterogeneous_grids(
            seed in any::<u64>(),
            nx in 5_usize..9,
            ny in 5_usize..9,
            nz in 8_usize..14,
        ) {
            let sys = random_positive_system(seed, nx, ny, nz);
            let tight = |scheme| SolverOptions {
                scheme,
                max_iterations: 50_000,
                tolerance: 1e-12,
            };
            let mut ws = SolveWorkspace::new();
            let mg = sys.solve_full(&tight(Method::MgCg), &mut ws).unwrap();
            let cg = sys
                .solve_full(&tight(Method::ConjugateGradient), &mut ws)
                .unwrap();
            prop_assert_eq!(mg.psi.len(), cg.psi.len());
            for (i, (a, b)) in mg.psi.iter().zip(&cg.psi).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-10 * (1.0 + b.abs()),
                    "node {}: mgcg {} vs cg {}", i, a, b
                );
            }
        }
    }

    #[test]
    fn mg_workspace_reuse_is_bit_identical_across_solves() {
        // An MG-sized reuse loop: the hierarchy is rebuilt in place per
        // solve, and a workspace that moved to a different system (and a
        // different method) must still reproduce identical bits.
        let opts = SolverOptions {
            scheme: Method::MgCg,
            ..SolverOptions::default()
        };
        let sys = random_positive_system(3, 9, 9, 17);
        let fresh = sys.solve_with(&opts, &mut SolveWorkspace::new()).unwrap();
        let mut ws = SolveWorkspace::new();
        let other = random_positive_system(99, 7, 5, 13);
        for _ in 0..3 {
            let with_ws = sys.solve_with(&opts, &mut ws).unwrap();
            assert_eq!(fresh.len(), with_ws.len());
            for (a, b) in fresh.iter().zip(&with_ws) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let _ = other.solve_with(&opts, &mut ws).unwrap();
            let _ = other
                .solve_with(&SolverOptions::default(), &mut ws)
                .unwrap();
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_solves() {
        let (_, sys) = linear_profile_system();
        let fresh = sys.solve(&SolverOptions::default()).unwrap();
        let mut ws = SolveWorkspace::new();
        // Reuse one workspace across systems of different sizes and back.
        let other = random_system(99, 5, 4, 6);
        for _ in 0..2 {
            let with_ws = sys.solve_with(&SolverOptions::default(), &mut ws).unwrap();
            assert_eq!(fresh.len(), with_ws.len());
            for (a, b) in fresh.iter().zip(&with_ws) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let _ = other
                .solve_with(&SolverOptions::default(), &mut ws)
                .unwrap();
        }
    }

    #[test]
    fn heterogeneous_coefficient_series_law() {
        // Two slabs in series along z with coefficients 1 and 3: the
        // interface potential follows the series-conductance divider.
        let grid = Grid3::new([1.0, 1.0, 1.0], [3, 3, 5]).unwrap();
        let mut coeff = vec![0.0; grid.cell_count()];
        let cells = grid.cells();
        for k in 0..cells[2] {
            for j in 0..cells[1] {
                for i in 0..cells[0] {
                    coeff[grid.cell_index(i, j, k)] = if k < 2 { 1.0 } else { 3.0 };
                }
            }
        }
        let mut dirichlet = vec![None; grid.node_count()];
        let [nx, ny, nz] = grid.nodes();
        for j in 0..ny {
            for i in 0..nx {
                dirichlet[grid.node_index(i, j, 0)] = Some(0.0);
                dirichlet[grid.node_index(i, j, nz - 1)] = Some(1.0);
            }
        }
        let sys = StencilSystem::assemble(&grid, &coeff, dirichlet);
        let psi = sys.solve(&SolverOptions::default()).unwrap();
        // Series: R1 = 0.5/1, R2 = 0.5/3 ⇒ V(interface) = R1/(R1+R2) = 0.75.
        let mid = psi[grid.node_index(1, 1, 2)];
        assert!((mid - 0.75).abs() < 1e-6, "interface potential {mid}");
    }
}
