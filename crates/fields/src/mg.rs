//! Geometric multigrid V-cycle preconditioner for the stencil solver.
//!
//! Jacobi-preconditioned CG needs `O(n^(1/3))` more iterations every time
//! the grid doubles (the condition number of the 3-D Poisson stencil grows
//! like `h⁻²`), so the stencil solve was the slowest kernel in the
//! committed bench trajectory. A multigrid preconditioner makes the
//! iteration count essentially grid-independent: each application runs
//! one V-cycle over a [`GridHierarchy`] of progressively coarser stencil
//! systems and hands CG a spectrally equivalent approximation of `A⁻¹`.
//!
//! The hierarchy is built geometrically, not algebraically:
//!
//! * **Semi-coarsening** — every axis whose cell count is even is halved;
//!   axes that cannot pair their cells keep their resolution. Coarsening
//!   repeats until the level is small enough for a direct solve or no
//!   axis can halve further.
//! * **Rediscretized coarse operators** — a coarse cell's coefficient is
//!   the arithmetic mean of the fine cells it covers, and the 7-point
//!   system is re-assembled with the doubled spacings. For the
//!   homogeneous 1-D stencil this equals the Galerkin product `PᵀAP`
//!   exactly; for heterogeneous 3-D grids it is the standard cheap
//!   approximation (CG absorbs the difference).
//! * **Dirichlet masks by injection** — a coarse node is pinned iff the
//!   fine node it sits on is pinned; the correction equation carries
//!   homogeneous (zero) values at pinned nodes.
//! * **Transfer operators** — trilinear prolongation into free fine
//!   nodes and its exact transpose (unnormalized full weighting) for
//!   restriction, so the cycle stays symmetric.
//! * **Smoothing** — red-black Gauss–Seidel sweeps before and after
//!   each coarse-grid correction, with the post-sweep colour order
//!   reversed (black–red), making the V-cycle a symmetric operator and
//!   therefore a valid SPD preconditioner for CG.
//! * **Coarsest level** — a dense Cholesky factorization of the free
//!   nodes, factored once per hierarchy build and reused by every cycle;
//!   semi-definite blocks (free regions with no Dirichlet anchor, e.g.
//!   floating metal islands in a resistance solve) are pinned to zero
//!   when their pivot collapses.
//!
//! All per-level storage — operators, masks, scratch vectors, and the
//! dense factor — lives in [`MgWorkspace`], which is folded into
//! [`crate::solver::SolveWorkspace`]. Extraction drivers that solve the
//! same grid once per excitation rebuild the hierarchy in place (the
//! Dirichlet mask changes per excitation) but reuse every buffer, so
//! repeated solves stop allocating once the workspace is warm.

use crate::solver::StencilSystem;

/// Pre- and post-smoothing sweeps per level per cycle. Two sweeps
/// (a V(2,2) cycle) measurably beat V(1,1) here: they cut the
/// preconditioned iteration count from ~11 to ~7 on the bench systems
/// while adding less than one iteration's worth of work.
const SMOOTH_SWEEPS: usize = 2;

/// Systems at or above this node count get the multigrid preconditioner
/// when the solver method is [`crate::solver::Method::Auto`]; smaller
/// systems stay on plain Jacobi-CG, whose per-iteration cost is lower
/// and whose iteration count is still modest. The crossover was measured
/// at equal tolerance on 5.6k-, 14k- and 140k-node systems (see
/// `crates/fields/README.md`): Jacobi-CG still wins at 5.6k nodes, MG-CG
/// wins clearly from ~14k nodes (1.4× there, 3.5× at 140k). The
/// committed goldens (`fig10`-class grids, a few thousand nodes) sit well
/// below the threshold, so their solves are bit-identical to the
/// historical Jacobi-CG path.
pub const MG_AUTO_THRESHOLD_NODES: usize = 8192;

/// Stop coarsening once a level has at most this many nodes (the dense
/// coarsest solve is cheap there), even if it could coarsen further.
const COARSE_TARGET_NODES: usize = 96;

/// A hierarchy whose coarsest level exceeds this is *ineffective*: the
/// dense factorization would dominate the solve, so the caller falls
/// back to plain CG. Reached only by grids whose cell counts are odd on
/// every axis early in the chain (nothing left to halve).
const COARSE_MAX_NODES: usize = 512;

/// One coarse level: a rediscretized 7-point system plus its scratch.
///
/// Buffers are rebuilt in place on every hierarchy build (capacity is
/// reused) because the Dirichlet mask — and with it every operator
/// entry — changes between excitations of the same structure.
#[derive(Debug, Default)]
struct Level {
    nodes: [usize; 3],
    spacing: [f64; 3],
    /// Which axes were halved going from the parent level to this one.
    coarsened: [bool; 3],
    /// Cell coefficients (arithmetic mean of covered parent cells).
    coeff: Vec<f64>,
    wx: Vec<f64>,
    wy: Vec<f64>,
    wz: Vec<f64>,
    diag: Vec<f64>,
    free: Vec<bool>,
    /// Correction iterate.
    x: Vec<f64>,
    /// Restricted residual (this level's right-hand side).
    r: Vec<f64>,
    /// `A·x` / residual scratch.
    ax: Vec<f64>,
}

impl Level {
    fn node_count(&self) -> usize {
        self.nodes[0] * self.nodes[1] * self.nodes[2]
    }
}

/// Dense Cholesky solver for the coarsest level's free nodes.
#[derive(Debug, Default)]
struct CoarseDirect {
    /// Free-node count (the dense dimension).
    n: usize,
    /// dense index -> node index.
    nodes: Vec<u32>,
    /// node index -> dense index (`u32::MAX` for pinned nodes);
    /// rebuilt in place per hierarchy build.
    map: Vec<u32>,
    /// Row-major lower Cholesky factor (diagonal included).
    l: Vec<f64>,
    /// Rows whose pivot collapsed (semi-definite block): pinned to zero.
    pinned: Vec<bool>,
    /// Substitution scratch.
    y: Vec<f64>,
}

/// Per-solve multigrid state folded into
/// [`crate::solver::SolveWorkspace`].
///
/// Holds the coarse-level operators, the dense coarsest factor, and the
/// fine-level scratch the V-cycle needs. Everything is rebuilt in place
/// by [`GridHierarchy::build`]; nothing is freed between solves, so a
/// warm workspace makes repeated solves allocation-free.
#[derive(Debug, Default)]
pub struct MgWorkspace {
    levels: Vec<Level>,
    coarse: CoarseDirect,
    /// Fine-level residual scratch (the V-cycle may not clobber the CG
    /// residual it preconditions).
    fine_resid: Vec<f64>,
    /// Fine-level `A·z` scratch.
    fine_ax: Vec<f64>,
}

/// Handle to a built multigrid hierarchy.
///
/// The handle is just a depth: the storage lives in the [`MgWorkspace`]
/// that [`GridHierarchy::build`] filled, so a workspace can move between
/// systems of different sizes without reallocating levels that already
/// fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridHierarchy {
    /// Number of coarse levels below the fine system (≥ 1 when built).
    depth: usize,
}

/// Borrowed description of the level being coarsened.
struct ParentView<'a> {
    nodes: [usize; 3],
    spacing: [f64; 3],
    coeff: &'a [f64],
    free: &'a [bool],
}

impl GridHierarchy {
    /// Builds (or rebuilds, in place) the hierarchy for `sys` into `ws`.
    ///
    /// `fine_free` is the fine system's free-node mask (`true` where the
    /// node is solved for). Returns `None` when the grid cannot support
    /// an effective hierarchy — no axis has an even cell count, so the
    /// coarsest level would stay too large for the dense solve — in
    /// which case the caller should fall back to plain CG.
    pub fn build(
        sys: &StencilSystem,
        fine_free: &[bool],
        ws: &mut MgWorkspace,
    ) -> Option<GridHierarchy> {
        let mut depth = 0usize;
        loop {
            if ws.levels.len() == depth {
                ws.levels.push(Level::default());
            }
            let built = if depth == 0 {
                let parent = ParentView {
                    nodes: sys.dims(),
                    spacing: sys.grid_spacing(),
                    coeff: sys.cell_coeff(),
                    free: fine_free,
                };
                build_level(&parent, &mut ws.levels[0])
            } else {
                let (done, rest) = ws.levels.split_at_mut(depth);
                let p = &done[depth - 1];
                let parent = ParentView {
                    nodes: p.nodes,
                    spacing: p.spacing,
                    coeff: &p.coeff,
                    free: &p.free,
                };
                build_level(&parent, &mut rest[0])
            };
            if !built {
                if depth == 0 {
                    return None;
                }
                break;
            }
            depth += 1;
            if ws.levels[depth - 1].node_count() <= COARSE_TARGET_NODES {
                break;
            }
        }
        if ws.levels[depth - 1].node_count() > COARSE_MAX_NODES {
            return None;
        }
        let MgWorkspace { levels, coarse, .. } = ws;
        build_coarse(&levels[depth - 1], coarse);
        Some(GridHierarchy { depth })
    }

    /// Number of coarse levels below the fine system.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Coarsens `parent` into `out`. Returns `false` when no axis can halve.
fn build_level(parent: &ParentView<'_>, out: &mut Level) -> bool {
    let p_cells = [
        parent.nodes[0] - 1,
        parent.nodes[1] - 1,
        parent.nodes[2] - 1,
    ];
    let mut coarsened = [false; 3];
    let mut c_cells = p_cells;
    for a in 0..3 {
        if p_cells[a] >= 2 && p_cells[a].is_multiple_of(2) {
            coarsened[a] = true;
            c_cells[a] = p_cells[a] / 2;
        }
    }
    if !coarsened.iter().any(|&c| c) {
        return false;
    }
    let nodes = [c_cells[0] + 1, c_cells[1] + 1, c_cells[2] + 1];
    let spacing = [
        parent.spacing[0] * if coarsened[0] { 2.0 } else { 1.0 },
        parent.spacing[1] * if coarsened[1] { 2.0 } else { 1.0 },
        parent.spacing[2] * if coarsened[2] { 2.0 } else { 1.0 },
    ];
    out.nodes = nodes;
    out.spacing = spacing;
    out.coarsened = coarsened;

    // Cell coefficients: arithmetic mean over the covered parent cells
    // (2 per coarsened axis, 1 otherwise).
    let span = [
        if coarsened[0] { 2 } else { 1 },
        if coarsened[1] { 2 } else { 1 },
        if coarsened[2] { 2 } else { 1 },
    ];
    let inv_count = 1.0 / (span[0] * span[1] * span[2]) as f64;
    out.coeff.clear();
    out.coeff.reserve(c_cells[0] * c_cells[1] * c_cells[2]);
    for ck in 0..c_cells[2] {
        for cj in 0..c_cells[1] {
            for ci in 0..c_cells[0] {
                let mut sum = 0.0;
                for dk in 0..span[2] {
                    for dj in 0..span[1] {
                        for di in 0..span[0] {
                            let fi = ci * span[0] + di;
                            let fj = cj * span[1] + dj;
                            let fk = ck * span[2] + dk;
                            sum += parent.coeff[(fk * p_cells[1] + fj) * p_cells[0] + fi];
                        }
                    }
                }
                out.coeff.push(sum * inv_count);
            }
        }
    }

    // Dirichlet mask by injection: the coarse node sits on a parent node.
    out.free.clear();
    out.free.reserve(nodes[0] * nodes[1] * nodes[2]);
    for ck in 0..nodes[2] {
        for cj in 0..nodes[1] {
            for ci in 0..nodes[0] {
                let fi = if coarsened[0] { 2 * ci } else { ci };
                let fj = if coarsened[1] { 2 * cj } else { cj };
                let fk = if coarsened[2] { 2 * ck } else { ck };
                let fidx = (fk * parent.nodes[1] + fj) * parent.nodes[0] + fi;
                out.free.push(parent.free[fidx]);
            }
        }
    }

    assemble_faces(
        nodes,
        spacing,
        &out.coeff,
        &mut out.wx,
        &mut out.wy,
        &mut out.wz,
    );
    stencil_diagonal(nodes, &out.wx, &out.wy, &out.wz, &mut out.diag);
    // Disconnected coarse nodes (all-insulating neighbourhoods) cannot be
    // smoothed or factored: pin them, exactly like the fine assembly does.
    for (idx, d) in out.diag.iter().enumerate() {
        if *d == 0.0 {
            out.free[idx] = false;
        }
    }

    let n = nodes[0] * nodes[1] * nodes[2];
    out.x.clear();
    out.x.resize(n, 0.0);
    out.r.clear();
    out.r.resize(n, 0.0);
    out.ax.clear();
    out.ax.resize(n, 0.0);
    true
}

/// Assembles the finite-volume face weights for a uniform grid with the
/// given node counts, spacings, and per-cell coefficients — the same
/// discretization as [`StencilSystem::assemble`], writing into reusable
/// buffers. The face weight between two adjacent nodes is
/// `(A_face / d) · mean(coefficients of the 4 adjacent cells)`, with
/// cells missing at the domain boundary contributing zero.
pub(crate) fn assemble_faces(
    nodes: [usize; 3],
    spacing: [f64; 3],
    cell_coeff: &[f64],
    wx: &mut Vec<f64>,
    wy: &mut Vec<f64>,
    wz: &mut Vec<f64>,
) {
    let [nx, ny, nz] = nodes;
    let [hx, hy, hz] = spacing;
    let cells = [nx - 1, ny - 1, nz - 1];
    let coeff = |i: isize, j: isize, k: isize| -> f64 {
        if i < 0
            || j < 0
            || k < 0
            || i >= cells[0] as isize
            || j >= cells[1] as isize
            || k >= cells[2] as isize
        {
            0.0
        } else {
            cell_coeff[(k as usize * cells[1] + j as usize) * cells[0] + i as usize]
        }
    };

    wx.clear();
    wx.resize((nx - 1) * ny * nz, 0.0);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx - 1 {
                let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                let sum = coeff(ii, jj - 1, kk - 1)
                    + coeff(ii, jj, kk - 1)
                    + coeff(ii, jj - 1, kk)
                    + coeff(ii, jj, kk);
                wx[(k * ny + j) * (nx - 1) + i] = sum * hy * hz / (4.0 * hx);
            }
        }
    }
    wy.clear();
    wy.resize(nx * (ny - 1) * nz, 0.0);
    for k in 0..nz {
        for j in 0..ny - 1 {
            for i in 0..nx {
                let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                let sum = coeff(ii - 1, jj, kk - 1)
                    + coeff(ii, jj, kk - 1)
                    + coeff(ii - 1, jj, kk)
                    + coeff(ii, jj, kk);
                wy[(k * (ny - 1) + j) * nx + i] = sum * hx * hz / (4.0 * hy);
            }
        }
    }
    wz.clear();
    wz.resize(nx * ny * (nz - 1), 0.0);
    for k in 0..nz - 1 {
        for j in 0..ny {
            for i in 0..nx {
                let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                let sum = coeff(ii - 1, jj - 1, kk)
                    + coeff(ii, jj - 1, kk)
                    + coeff(ii - 1, jj, kk)
                    + coeff(ii, jj, kk);
                wz[(k * ny + j) * nx + i] = sum * hx * hy / (4.0 * hz);
            }
        }
    }
}

/// Row sums of the face weights — the stencil diagonal.
pub(crate) fn stencil_diagonal(
    nodes: [usize; 3],
    wx: &[f64],
    wy: &[f64],
    wz: &[f64],
    diag: &mut Vec<f64>,
) {
    let [nx, ny, nz] = nodes;
    diag.clear();
    diag.resize(nx * ny * nz, 0.0);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let idx = (k * ny + j) * nx + i;
                let mut d = 0.0;
                if i > 0 {
                    d += wx[(k * ny + j) * (nx - 1) + i - 1];
                }
                if i + 1 < nx {
                    d += wx[(k * ny + j) * (nx - 1) + i];
                }
                if j > 0 {
                    d += wy[(k * (ny - 1) + j - 1) * nx + i];
                }
                if j + 1 < ny {
                    d += wy[(k * (ny - 1) + j) * nx + i];
                }
                if k > 0 {
                    d += wz[((k - 1) * ny + j) * nx + i];
                }
                if k + 1 < nz {
                    d += wz[(k * ny + j) * nx + i];
                }
                diag[idx] = d;
            }
        }
    }
}

/// `out = A·x` for the raw stencil arrays (no Dirichlet masking).
fn apply_op(nodes: [usize; 3], wx: &[f64], wy: &[f64], wz: &[f64], x: &[f64], out: &mut [f64]) {
    let [nx, ny, nz] = nodes;
    out.iter_mut().for_each(|v| *v = 0.0);
    for k in 0..nz {
        for j in 0..ny {
            let row = (k * ny + j) * (nx - 1);
            let base = (k * ny + j) * nx;
            for i in 0..nx - 1 {
                let w = wx[row + i];
                if w != 0.0 {
                    let a = base + i;
                    let f = w * (x[a] - x[a + 1]);
                    out[a] += f;
                    out[a + 1] -= f;
                }
            }
        }
    }
    for k in 0..nz {
        for j in 0..ny - 1 {
            let row = (k * (ny - 1) + j) * nx;
            let base_a = (k * ny + j) * nx;
            let base_b = (k * ny + j + 1) * nx;
            for i in 0..nx {
                let w = wy[row + i];
                if w != 0.0 {
                    let f = w * (x[base_a + i] - x[base_b + i]);
                    out[base_a + i] += f;
                    out[base_b + i] -= f;
                }
            }
        }
    }
    for k in 0..nz - 1 {
        for j in 0..ny {
            let row = (k * ny + j) * nx;
            let base_b = ((k + 1) * ny + j) * nx;
            for i in 0..nx {
                let w = wz[row + i];
                if w != 0.0 {
                    let f = w * (x[row + i] - x[base_b + i]);
                    out[row + i] += f;
                    out[base_b + i] -= f;
                }
            }
        }
    }
}

/// One red-black Gauss–Seidel sweep over the free nodes.
///
/// `reverse` flips the colour order (black first) — the post-smoothing
/// order that makes the V-cycle symmetric.
#[allow(clippy::too_many_arguments)]
fn smooth_rb(
    nodes: [usize; 3],
    wx: &[f64],
    wy: &[f64],
    wz: &[f64],
    diag: &[f64],
    free: &[bool],
    x: &mut [f64],
    rhs: &[f64],
    reverse: bool,
) {
    let [nx, ny, nz] = nodes;
    let parities: [usize; 2] = if reverse { [1, 0] } else { [0, 1] };
    for parity in parities {
        for k in 0..nz {
            for j in 0..ny {
                let row = (k * ny + j) * nx;
                let rowx = (k * ny + j) * (nx - 1);
                let rowy_lo = if j > 0 {
                    Some((k * (ny - 1) + j - 1) * nx)
                } else {
                    None
                };
                let rowy_hi = if j + 1 < ny {
                    Some((k * (ny - 1) + j) * nx)
                } else {
                    None
                };
                let rowz_lo = if k > 0 {
                    Some(((k - 1) * ny + j) * nx)
                } else {
                    None
                };
                let rowz_hi = if k + 1 < nz {
                    Some((k * ny + j) * nx)
                } else {
                    None
                };
                let mut i = (parity + j + k) % 2;
                while i < nx {
                    let idx = row + i;
                    let d = diag[idx];
                    if free[idx] && d > 0.0 {
                        let mut acc = rhs[idx];
                        if i > 0 {
                            acc += wx[rowx + i - 1] * x[idx - 1];
                        }
                        if i + 1 < nx {
                            acc += wx[rowx + i] * x[idx + 1];
                        }
                        if let Some(r) = rowy_lo {
                            acc += wy[r + i] * x[idx - nx];
                        }
                        if let Some(r) = rowy_hi {
                            acc += wy[r + i] * x[idx + nx];
                        }
                        if let Some(r) = rowz_lo {
                            acc += wz[r + i] * x[idx - nx * ny];
                        }
                        if let Some(r) = rowz_hi {
                            acc += wz[r + i] * x[idx + nx * ny];
                        }
                        x[idx] = acc / d;
                    }
                    i += 2;
                }
            }
        }
    }
}

/// Up-to-3-point 1-D restriction stencil for coarse index `c`.
fn restrict_1d(c: usize, coarsened: bool, n_fine: usize) -> ([(usize, f64); 3], usize) {
    let mut out = [(0usize, 0.0f64); 3];
    if !coarsened {
        out[0] = (c, 1.0);
        return (out, 1);
    }
    let f = 2 * c;
    let mut count = 0;
    if f > 0 {
        out[count] = (f - 1, 0.5);
        count += 1;
    }
    out[count] = (f, 1.0);
    count += 1;
    if f + 1 < n_fine {
        out[count] = (f + 1, 0.5);
        count += 1;
    }
    (out, count)
}

/// Up-to-2-point 1-D interpolation stencil for fine index `f`.
fn interp_1d(f: usize, coarsened: bool) -> ([(usize, f64); 2], usize) {
    let mut out = [(0usize, 0.0f64); 2];
    if !coarsened {
        out[0] = (f, 1.0);
        return (out, 1);
    }
    if f.is_multiple_of(2) {
        out[0] = (f / 2, 1.0);
        (out, 1)
    } else {
        out[0] = ((f - 1) / 2, 0.5);
        out[1] = (f.div_ceil(2), 0.5);
        (out, 2)
    }
}

/// Full-weighting restriction of the parent residual into `child.r`
/// (zero at pinned coarse nodes).
///
/// The y/z tent stencils are hoisted out of the inner loop as a list of
/// up-to-9 weighted fine-row bases; the x stencil is inlined per element
/// with the row interior handled branch-free.
fn restrict(parent_nodes: [usize; 3], fine: &[f64], child: &mut Level) {
    let [fnx, fny, _] = parent_nodes;
    let [cnx, cny, cnz] = child.nodes;
    let x_coarse = child.coarsened[0];
    child.r.clear();
    child.r.resize(cnx * cny * cnz, 0.0);
    for ck in 0..cnz {
        let (ks, kn) = restrict_1d(ck, child.coarsened[2], parent_nodes[2]);
        for cj in 0..cny {
            let (js, jn) = restrict_1d(cj, child.coarsened[1], parent_nodes[1]);
            // Weighted fine-row bases for this (cj, ck).
            let mut rows = [(0usize, 0.0f64); 9];
            let mut rn = 0;
            for &(fk, wk) in &ks[..kn] {
                for &(fj, wj) in &js[..jn] {
                    rows[rn] = ((fk * fny + fj) * fnx, wk * wj);
                    rn += 1;
                }
            }
            let rows = &rows[..rn];
            let crow = (ck * cny + cj) * cnx;
            for ci in 0..cnx {
                if !child.free[crow + ci] {
                    continue;
                }
                let mut sum = 0.0;
                if x_coarse {
                    let fi = 2 * ci;
                    if ci > 0 && ci + 1 < cnx {
                        for &(base, w) in rows {
                            sum += w
                                * (fine[base + fi]
                                    + 0.5 * (fine[base + fi - 1] + fine[base + fi + 1]));
                        }
                    } else {
                        for &(base, w) in rows {
                            let mut v = fine[base + fi];
                            if fi > 0 {
                                v += 0.5 * fine[base + fi - 1];
                            }
                            if fi + 1 < fnx {
                                v += 0.5 * fine[base + fi + 1];
                            }
                            sum += w * v;
                        }
                    }
                } else {
                    for &(base, w) in rows {
                        sum += w * fine[base + ci];
                    }
                }
                child.r[crow + ci] = sum;
            }
        }
    }
}

/// Trilinear prolongation of the child correction, added into the free
/// nodes of the parent iterate.
///
/// The y/z interpolation stencils are hoisted out of the inner loop as a
/// list of up-to-4 weighted coarse-row bases; along x each coarse entry
/// feeds the even fine node directly and splits in half across the two
/// odd neighbours.
fn prolong_add(
    child: &Level,
    parent_nodes: [usize; 3],
    parent_free: &[bool],
    parent_x: &mut [f64],
) {
    let [fnx, fny, fnz] = parent_nodes;
    let [cnx, cny, _] = child.nodes;
    let x_coarse = child.coarsened[0];
    for fk in 0..fnz {
        let (ks, kn) = interp_1d(fk, child.coarsened[2]);
        for fj in 0..fny {
            let (js, jn) = interp_1d(fj, child.coarsened[1]);
            let mut rows = [(0usize, 0.0f64); 4];
            let mut rn = 0;
            for &(ck, wk) in &ks[..kn] {
                for &(cj, wj) in &js[..jn] {
                    rows[rn] = ((ck * cny + cj) * cnx, wk * wj);
                    rn += 1;
                }
            }
            let rows = &rows[..rn];
            let frow = (fk * fny + fj) * fnx;
            if x_coarse {
                for ci in 0..cnx {
                    let mut even = 0.0;
                    let mut right = 0.0;
                    for &(base, w) in rows {
                        even += w * child.x[base + ci];
                        if ci + 1 < cnx {
                            right += w * child.x[base + ci + 1];
                        }
                    }
                    let fe = frow + 2 * ci;
                    if parent_free[fe] {
                        parent_x[fe] += even;
                    }
                    if ci + 1 < cnx && parent_free[fe + 1] {
                        parent_x[fe + 1] += 0.5 * (even + right);
                    }
                }
            } else {
                for ci in 0..cnx {
                    let fidx = frow + ci;
                    if !parent_free[fidx] {
                        continue;
                    }
                    let mut sum = 0.0;
                    for &(base, w) in rows {
                        sum += w * child.x[base + ci];
                    }
                    parent_x[fidx] += sum;
                }
            }
        }
    }
}

/// Builds the dense Cholesky factor of the coarsest level's free nodes.
fn build_coarse(level: &Level, out: &mut CoarseDirect) {
    let [nx, ny, nz] = level.nodes;
    let total = nx * ny * nz;
    out.nodes.clear();
    out.map.clear();
    out.map.resize(total, u32::MAX);
    let mut map = std::mem::take(&mut out.map);
    for (idx, slot) in map.iter_mut().enumerate() {
        if level.free[idx] {
            *slot = out.nodes.len() as u32;
            out.nodes.push(idx as u32);
        }
    }
    let n = out.nodes.len();
    out.n = n;
    out.l.clear();
    out.l.resize(n * n, 0.0);
    out.pinned.clear();
    out.pinned.resize(n, false);
    out.y.clear();
    out.y.resize(n, 0.0);
    if n == 0 {
        out.map = map;
        return;
    }

    // Assemble the dense symmetric matrix (free-free couplings only;
    // pinned neighbours carry zero correction, so they only appear
    // through the diagonal row sums).
    let l = &mut out.l;
    for (row, &node) in out.nodes.iter().enumerate() {
        let idx = node as usize;
        let i = idx % nx;
        let j = (idx / nx) % ny;
        let k = idx / (nx * ny);
        l[row * n + row] = level.diag[idx];
        let mut couple = |nbr: usize, w: f64| {
            if w != 0.0 && map[nbr] != u32::MAX {
                l[row * n + map[nbr] as usize] = -w;
            }
        };
        if i > 0 {
            couple(idx - 1, level.wx[(k * ny + j) * (nx - 1) + i - 1]);
        }
        if i + 1 < nx {
            couple(idx + 1, level.wx[(k * ny + j) * (nx - 1) + i]);
        }
        if j > 0 {
            couple(idx - nx, level.wy[(k * (ny - 1) + j - 1) * nx + i]);
        }
        if j + 1 < ny {
            couple(idx + nx, level.wy[(k * (ny - 1) + j) * nx + i]);
        }
        if k > 0 {
            couple(idx - nx * ny, level.wz[((k - 1) * ny + j) * nx + i]);
        }
        if k + 1 < nz {
            couple(idx + nx * ny, level.wz[(k * ny + j) * nx + i]);
        }
    }

    // In-place lower Cholesky. A collapsed pivot marks a semi-definite
    // block (a free region with no Dirichlet anchor): pin it to zero by
    // replacing its row with the identity and decoupling the column.
    for kcol in 0..n {
        let mut d = l[kcol * n + kcol];
        for j in 0..kcol {
            d -= l[kcol * n + j] * l[kcol * n + j];
        }
        if !(d > 0.0 && d.is_finite()) {
            out.pinned[kcol] = true;
            for j in 0..kcol {
                l[kcol * n + j] = 0.0;
            }
            l[kcol * n + kcol] = 1.0;
            for i in kcol + 1..n {
                l[i * n + kcol] = 0.0;
            }
            continue;
        }
        let lkk = d.sqrt();
        l[kcol * n + kcol] = lkk;
        for i in kcol + 1..n {
            let mut s = l[i * n + kcol];
            for j in 0..kcol {
                s -= l[i * n + j] * l[kcol * n + j];
            }
            l[i * n + kcol] = s / lkk;
        }
    }
    out.map = map;
}

/// Direct solve on the coarsest level: `x = A⁻¹ r` over the free nodes
/// (zeros elsewhere, and at pinned semi-definite rows).
fn coarse_solve(coarse: &mut CoarseDirect, r: &[f64], x: &mut [f64]) {
    x.iter_mut().for_each(|v| *v = 0.0);
    let n = coarse.n;
    if n == 0 {
        return;
    }
    let l = &coarse.l;
    let y = &mut coarse.y;
    for i in 0..n {
        let b = if coarse.pinned[i] {
            0.0
        } else {
            r[coarse.nodes[i] as usize]
        };
        let mut s = b;
        for j in 0..i {
            s -= l[i * n + j] * y[j];
        }
        y[i] = s / l[i * n + i];
    }
    for i in (0..n).rev() {
        let mut s = y[i];
        for j in i + 1..n {
            s -= l[j * n + i] * y[j];
        }
        y[i] = s / l[i * n + i];
    }
    for i in 0..n {
        if !coarse.pinned[i] {
            x[coarse.nodes[i] as usize] = y[i];
        }
    }
}

/// Applies one symmetric V-cycle: `z ≈ A⁻¹·r_in` on the fine system.
///
/// `z` is fully overwritten (and stays zero at pinned nodes), so the
/// result is a deterministic function of `(sys, free, r_in)` — workspace
/// reuse is bit-identical to a fresh workspace.
pub(crate) fn precondition(
    sys: &StencilSystem,
    free: &[bool],
    h: GridHierarchy,
    r_in: &[f64],
    z: &mut Vec<f64>,
    ws: &mut MgWorkspace,
) {
    // Spans time phases without touching the FP operation order — the
    // iterate sequence stays bit-identical to the uninstrumented cycle.
    let _vcycle_span = cnt_obs::span!("fields.vcycle");
    let n = sys.node_count();
    let dims = sys.dims();
    let (wx, wy, wz, diag) = sys.stencil_arrays();
    z.clear();
    z.resize(n, 0.0);

    let MgWorkspace {
        levels,
        coarse,
        fine_resid,
        fine_ax,
    } = ws;

    // Fine level: pre-smooth, form the residual, restrict.
    {
        let _smooth_span = cnt_obs::span!("fields.smooth");
        for _ in 0..SMOOTH_SWEEPS {
            smooth_rb(dims, wx, wy, wz, diag, free, z, r_in, false);
        }
    }
    fine_ax.clear();
    fine_ax.resize(n, 0.0);
    apply_op(dims, wx, wy, wz, z, fine_ax);
    fine_resid.clear();
    fine_resid.extend((0..n).map(|i| if free[i] { r_in[i] - fine_ax[i] } else { 0.0 }));
    restrict(dims, fine_resid, &mut levels[0]);

    // Descend: smooth each coarse level, pass its residual down.
    for l in 0..h.depth - 1 {
        let (upper, lower) = levels.split_at_mut(l + 1);
        let lvl = &mut upper[l];
        lvl.x.iter_mut().for_each(|v| *v = 0.0);
        {
            let _smooth_span = cnt_obs::span!("fields.smooth");
            for _ in 0..SMOOTH_SWEEPS {
                smooth_rb(
                    lvl.nodes, &lvl.wx, &lvl.wy, &lvl.wz, &lvl.diag, &lvl.free, &mut lvl.x, &lvl.r,
                    false,
                );
            }
        }
        apply_op(lvl.nodes, &lvl.wx, &lvl.wy, &lvl.wz, &lvl.x, &mut lvl.ax);
        for i in 0..lvl.ax.len() {
            lvl.ax[i] = if lvl.free[i] {
                lvl.r[i] - lvl.ax[i]
            } else {
                0.0
            };
        }
        restrict(lvl.nodes, &lvl.ax, &mut lower[0]);
    }

    // Coarsest: exact solve.
    {
        let _coarse_span = cnt_obs::span!("fields.coarse_solve");
        let last = &mut levels[h.depth - 1];
        let r = std::mem::take(&mut last.r);
        coarse_solve(coarse, &r, &mut last.x);
        last.r = r;
    }

    // Ascend: prolong the correction, post-smooth in reversed order.
    for l in (0..h.depth - 1).rev() {
        let (upper, lower) = levels.split_at_mut(l + 1);
        let lvl = &mut upper[l];
        prolong_add(&lower[0], lvl.nodes, &lvl.free, &mut lvl.x);
        {
            let _smooth_span = cnt_obs::span!("fields.smooth");
            for _ in 0..SMOOTH_SWEEPS {
                smooth_rb(
                    lvl.nodes, &lvl.wx, &lvl.wy, &lvl.wz, &lvl.diag, &lvl.free, &mut lvl.x, &lvl.r,
                    true,
                );
            }
        }
    }
    prolong_add(&levels[0], dims, free, z);
    {
        let _smooth_span = cnt_obs::span!("fields.smooth");
        for _ in 0..SMOOTH_SWEEPS {
            smooth_rb(dims, wx, wy, wz, diag, free, z, r_in, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid3;
    use crate::solver::{Method, SolveWorkspace, SolverOptions, StencilSystem};

    /// Uniform-coefficient system with ψ pinned at the z extremes.
    fn column_system(nodes: [usize; 3]) -> (Grid3, StencilSystem) {
        let grid = Grid3::new([1.0, 1.0, 1.0], nodes).unwrap();
        let coeff = vec![1.0; grid.cell_count()];
        let mut dirichlet = vec![None; grid.node_count()];
        let [nx, ny, nz] = grid.nodes();
        for j in 0..ny {
            for i in 0..nx {
                dirichlet[grid.node_index(i, j, 0)] = Some(0.0);
                dirichlet[grid.node_index(i, j, nz - 1)] = Some(1.0);
            }
        }
        (
            grid.clone(),
            StencilSystem::assemble(&grid, &coeff, dirichlet),
        )
    }

    #[test]
    fn hierarchy_builds_on_coarsenable_grids_and_refuses_odd_ones() {
        let (_, sys) = column_system([9, 9, 17]);
        let free: Vec<bool> = (0..sys.node_count()).map(|_| true).collect();
        let mut ws = MgWorkspace::default();
        let h = GridHierarchy::build(&sys, &free, &mut ws).expect("coarsenable");
        assert!(h.depth() >= 1);

        // All-odd cell counts: nothing can halve.
        let (_, odd) = column_system([4, 4, 4]);
        let free: Vec<bool> = (0..odd.node_count()).map(|_| true).collect();
        assert!(GridHierarchy::build(&odd, &free, &mut ws).is_none());
    }

    #[test]
    fn mgcg_recovers_linear_profile() {
        let (grid, sys) = column_system([9, 9, 33]);
        let solution = sys
            .solve_full(
                &SolverOptions {
                    scheme: Method::MgCg,
                    ..SolverOptions::default()
                },
                &mut SolveWorkspace::new(),
            )
            .unwrap();
        assert_eq!(solution.method, Method::MgCg);
        assert!(
            solution.iterations < 15,
            "MG-CG took {} iterations",
            solution.iterations
        );
        let [_, _, nz] = grid.nodes();
        for k in 0..nz {
            let expect = k as f64 / (nz - 1) as f64;
            let got = solution.psi[grid.node_index(4, 4, k)];
            assert!((got - expect).abs() < 1e-8, "k={k}: {got} vs {expect}");
        }
    }

    #[test]
    fn auto_dispatches_by_size_and_mg_needs_fewer_iterations() {
        // Small grid: Auto resolves to plain CG.
        let (_, small) = column_system([9, 9, 17]);
        let sol = small
            .solve_full(&SolverOptions::default(), &mut SolveWorkspace::new())
            .unwrap();
        assert_eq!(sol.method, Method::ConjugateGradient);

        // Large grid: Auto resolves to MG-CG, and the iteration count
        // collapses versus the Jacobi-CG reference.
        let (_, large) = column_system([17, 17, 49]);
        assert!(large.node_count() >= MG_AUTO_THRESHOLD_NODES);
        let mut ws = SolveWorkspace::new();
        let mg = large
            .solve_full(&SolverOptions::default(), &mut ws)
            .unwrap();
        assert_eq!(mg.method, Method::MgCg);
        let cg = large
            .solve_full(
                &SolverOptions {
                    scheme: Method::ConjugateGradient,
                    ..SolverOptions::default()
                },
                &mut ws,
            )
            .unwrap();
        assert!(
            2 * mg.iterations <= cg.iterations,
            "MG-CG {} vs CG {} iterations",
            mg.iterations,
            cg.iterations
        );
        for (a, b) in mg.psi.iter().zip(&cg.psi) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn explicit_mgcg_on_uncoarsenable_grid_falls_back_to_cg() {
        let (_, odd) = column_system([4, 4, 4]);
        let sol = odd
            .solve_full(
                &SolverOptions {
                    scheme: Method::MgCg,
                    ..SolverOptions::default()
                },
                &mut SolveWorkspace::new(),
            )
            .unwrap();
        assert_eq!(sol.method, Method::ConjugateGradient);
    }

    #[test]
    fn floating_free_island_is_handled_by_the_pinned_coarse_solve() {
        // A conductive pocket surrounded by insulator: its nodes are free
        // (nonzero diagonal) but form a semi-definite block with no
        // Dirichlet anchor. The solve must not panic or diverge.
        let grid = Grid3::new([1.0, 1.0, 1.0], [9, 9, 17]).unwrap();
        let cells = grid.cells();
        let mut coeff = vec![0.0; grid.cell_count()];
        for k in 0..cells[2] {
            for j in 0..cells[1] {
                for i in 0..cells[0] {
                    // Conductive slabs at the z extremes plus the pocket.
                    let slab = k < 2 || k >= cells[2] - 2;
                    let pocket = (3..5).contains(&i) && (3..5).contains(&j) && (7..9).contains(&k);
                    if slab || pocket {
                        coeff[grid.cell_index(i, j, k)] = 1.0;
                    }
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
        let sol = sys
            .solve_full(
                &SolverOptions {
                    scheme: Method::MgCg,
                    ..SolverOptions::default()
                },
                &mut SolveWorkspace::new(),
            )
            .unwrap();
        assert!(sol.psi.iter().all(|v| v.is_finite()));
    }
}
