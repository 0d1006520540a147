//! Lane-batched integration of many identical RC networks.
//!
//! A parameter sweep steps N simulations that share one platform (same
//! floorplan, package, and solver) while varying policy knobs. Their thermal
//! networks therefore share a single topology and differ only in state:
//! temperatures and injected power. [`ThermalLaneKernel`] exploits that by
//! storing the state of all N *lanes* in flat struct-of-arrays buffers laid
//! out **lane-minor** — `state[node * lanes + lane]` — so the per-node and
//! per-edge inner loops of the integrator run over `lanes` consecutive
//! doubles and auto-vectorize.
//!
//! # Why lane-minor and not lane-major
//!
//! With lane-major `[lane][node]` storage the inner loop would iterate over
//! nodes of one lane — the same loop the scalar kernel already runs, with the
//! same serial edge-scatter dependency. Lane-minor storage turns every scalar
//! operation of the single-network kernel into an element-wise operation
//! across lanes, which is exactly the shape LLVM vectorizes (and the shape we
//! dispatch to AVX-512/AVX2 code paths for at runtime).
//!
//! # Bit-identical by construction
//!
//! The batched kernel performs, per lane, the **exact same floating-point
//! operations in the exact same order** as
//! [`RcNetwork::euler_step_with`](crate::rc::RcNetwork::euler_step_with) /
//! [`RcNetwork::rk4_step_with`](crate::rc::RcNetwork::rk4_step_with) driven
//! by [`Solver::advance_with`]:
//!
//! * the sub-step split comes from the shared [`Solver::substep_plan`];
//! * each node accumulates its incident edge flows in global edge-insertion
//!   order — the kernel gathers via a CSR adjacency instead of scattering
//!   `+q`/`-q` per edge, which is exactly (not approximately) the same
//!   arithmetic; see `derivative_lanes` in this module — using only `+ - * /`, which
//!   vectorize to correctly-rounded IEEE-754 element-wise instructions with
//!   no FMA contraction;
//! * the stage arithmetic copies the expression shapes of the scalar RK4.
//!
//! The differential suite in `crates/core/tests/lane_equivalence.rs` pins
//! this property end-to-end at the detected SIMD level; this module's tests
//! run every level the host supports, and
//! `crates/thermal/tests/manycore_identity.rs` the 32-core RK4 shape.

use crate::error::ThermalError;
use crate::model::ThermalModel;
use crate::rc::CompiledKernel;
use crate::solver::Solver;
use tbp_arch::units::{Seconds, Watts};

/// Runtime-selected vector width for the lane loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimdLevel {
    /// Portable element-wise loops (still auto-vectorized to the target's
    /// baseline, e.g. SSE2 on x86-64).
    Scalar,
    /// 256-bit AVX2 code path.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit AVX-512F code path.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

#[cfg(target_arch = "x86_64")]
fn detect_simd() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx512f") {
        SimdLevel::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_simd() -> SimdLevel {
    SimdLevel::Scalar
}

/// Scratch stages for the lane-batched integrator, all `nodes * lanes` long.
#[derive(Debug, Clone, Default)]
struct LaneWorkspace {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    t0: Vec<f64>,
    stage: Vec<f64>,
}

impl LaneWorkspace {
    fn sized(len: usize) -> Self {
        LaneWorkspace {
            k1: vec![0.0; len],
            k2: vec![0.0; len],
            k3: vec![0.0; len],
            k4: vec![0.0; len],
            t0: vec![0.0; len],
            stage: vec![0.0; len],
        }
    }
}

/// SoA integrator stepping N identical-topology RC networks in lockstep.
///
/// Built from N [`ThermalModel`]s that share topology, package ambient, and
/// solver (verified bitwise at construction); per step, callers load each
/// lane's block powers, call [`advance`](Self::advance) once, and write the
/// state back into the models with
/// [`ThermalModel::sync_from_lane`].
#[derive(Debug, Clone)]
pub struct ThermalLaneKernel {
    lanes: usize,
    nodes: usize,
    solver: Solver,
    ambient: f64,
    /// RC node index of each floorplan block (shared across lanes).
    block_nodes: Vec<usize>,
    /// Gather-form adjacency (CSR): node `n`'s incident edges occupy
    /// `adj_start[n]..adj_start[n + 1]` of `adj_g`/`adj_other`, listed in
    /// global edge-insertion order. Every entry accumulates uniformly as
    /// `acc += g * (t_other - t_self)` — see [`derivative_lanes`] for why
    /// that is bit-identical to the scalar `+q`/`-q` scatter.
    adj_start: Vec<usize>,
    adj_other: Vec<usize>,
    adj_g: Vec<f64>,
    ambient_g: Vec<f64>,
    capacitance: Vec<f64>,
    max_stable_step: f64,
    /// Node temperatures, lane-minor: `temps[node * lanes + lane]`.
    temps: Vec<f64>,
    /// Injected node power, lane-minor like `temps`.
    power: Vec<f64>,
    workspace: LaneWorkspace,
    simd: SimdLevel,
}

impl ThermalLaneKernel {
    /// Builds a lane kernel over `models`, one lane per model in order.
    ///
    /// Every model must share lane 0's topology (nodes and edges, compared
    /// field-for-field), ambient temperature, solver configuration, and
    /// block-node mapping; each lane's current temperatures and injected
    /// powers are copied in as its initial state.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] when `models` is empty or
    /// a model's shared configuration differs from lane 0.
    pub fn from_models(models: &[&ThermalModel]) -> Result<Self, ThermalError> {
        let first = *models.first().ok_or_else(|| {
            ThermalError::InvalidParameter("lane batch needs at least one model".into())
        })?;
        for (lane, model) in models.iter().enumerate().skip(1) {
            let same = model.network().nodes() == first.network().nodes()
                && model.network().edges() == first.network().edges()
                && model.network().ambient() == first.network().ambient()
                && model.solver() == first.solver()
                && model.block_nodes() == first.block_nodes();
            if !same {
                return Err(ThermalError::InvalidParameter(format!(
                    "lane {lane} thermal platform differs from lane 0; \
                     batched stepping needs identical topology, package and solver"
                )));
            }
        }
        let kernel = CompiledKernel::build(first.network().nodes(), first.network().edges());
        let lanes = models.len();
        let nodes = first.network().len();
        // Invariant the unchecked derivative loops rely on: every edge
        // endpoint indexes a real node row.
        assert!(
            kernel
                .edge_a
                .iter()
                .chain(&kernel.edge_b)
                .all(|&n| n < nodes),
            "compiled kernel edge endpoints must index nodes"
        );
        // Transpose the edge list into gather form: each node's incident
        // edges, in global edge-insertion order (walking the edges once and
        // appending to both endpoints preserves that order per node).
        let mut adj_start = vec![0usize; nodes + 1];
        for (&a, &b) in kernel.edge_a.iter().zip(&kernel.edge_b) {
            adj_start[a + 1] += 1;
            adj_start[b + 1] += 1;
        }
        for node in 0..nodes {
            adj_start[node + 1] += adj_start[node];
        }
        let entries = adj_start[nodes];
        let mut cursor = adj_start.clone();
        let mut adj_other = vec![0usize; entries];
        let mut adj_g = vec![0.0f64; entries];
        for ((&a, &b), &g) in kernel.edge_a.iter().zip(&kernel.edge_b).zip(&kernel.edge_g) {
            for (node, other) in [(a, b), (b, a)] {
                adj_other[cursor[node]] = other;
                adj_g[cursor[node]] = g;
                cursor[node] += 1;
            }
        }
        let mut temps = vec![0.0; nodes * lanes];
        let mut power = vec![0.0; nodes * lanes];
        for (lane, model) in models.iter().enumerate() {
            for (node, &t) in model.network().temperatures_raw().iter().enumerate() {
                temps[node * lanes + lane] = t;
            }
            for (node, &p) in model.network().powers().iter().enumerate() {
                power[node * lanes + lane] = p;
            }
        }
        Ok(ThermalLaneKernel {
            lanes,
            nodes,
            solver: *first.solver(),
            ambient: first.network().ambient().as_celsius(),
            block_nodes: first.block_nodes().to_vec(),
            adj_start,
            adj_other,
            adj_g,
            ambient_g: kernel.ambient_g,
            capacitance: kernel.capacitance,
            max_stable_step: kernel.max_stable_step,
            temps,
            power,
            workspace: LaneWorkspace::sized(nodes * lanes),
            simd: detect_simd(),
        })
    }

    /// Number of lanes stepped together.
    pub fn num_lanes(&self) -> usize {
        self.lanes
    }

    /// Number of RC nodes per lane.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Number of floorplan blocks per lane.
    pub fn num_blocks(&self) -> usize {
        self.block_nodes.len()
    }

    /// Human-readable label of the runtime-selected SIMD code path
    /// (`"avx512"`, `"avx2"`, or `"scalar"`), for benchmark reports.
    pub fn simd_label(&self) -> &'static str {
        match self.simd {
            SimdLevel::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// Loads one lane's per-block power vector — the batched counterpart of
    /// the injection half of [`ThermalModel::step`].
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for an out-of-range lane and
    /// [`ThermalError::PowerLengthMismatch`] when `power` does not have one
    /// entry per floorplan block.
    pub fn set_block_powers(&mut self, lane: usize, power: &[Watts]) -> Result<(), ThermalError> {
        if lane >= self.lanes {
            return Err(ThermalError::UnknownNode(lane));
        }
        if power.len() != self.block_nodes.len() {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.block_nodes.len(),
                actual: power.len(),
            });
        }
        for (&node, p) in self.block_nodes.iter().zip(power) {
            self.power[node * self.lanes + lane] = p.as_watts();
        }
        Ok(())
    }

    /// Copies one lane's node temperatures (index order, °C) into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for an out-of-range lane and
    /// [`ThermalError::InvalidParameter`] when `out` is not one entry per
    /// node.
    pub(crate) fn copy_lane_temperatures_into(
        &self,
        lane: usize,
        out: &mut [f64],
    ) -> Result<(), ThermalError> {
        if lane >= self.lanes {
            return Err(ThermalError::UnknownNode(lane));
        }
        if out.len() != self.nodes {
            return Err(ThermalError::InvalidParameter(format!(
                "lane sync target has {} nodes but the kernel has {}",
                out.len(),
                self.nodes
            )));
        }
        for (node, t) in out.iter_mut().enumerate() {
            *t = self.temps[node * self.lanes + lane];
        }
        Ok(())
    }

    /// Current temperature of one lane's node, for tests and diagnostics.
    pub fn lane_temperature(&self, lane: usize, node: usize) -> Option<f64> {
        if lane < self.lanes && node < self.nodes {
            Some(self.temps[node * self.lanes + lane])
        } else {
            None
        }
    }

    /// Advances every lane by `dt`, splitting into the same stable sub-steps
    /// as [`Solver::advance_with`] would for each network individually.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidTimeStep`] when `dt` is not positive
    /// and finite.
    pub fn advance(&mut self, dt: Seconds) -> Result<(), ThermalError> {
        let dt_secs = dt.as_secs();
        if !(dt_secs.is_finite() && dt_secs > 0.0) {
            return Err(ThermalError::InvalidTimeStep(dt_secs));
        }
        let (substeps, sub_dt) = self.solver.substep_plan(dt_secs, self.max_stable_step);
        match self.simd {
            SimdLevel::Scalar => self.substeps_portable(substeps, sub_dt),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect_simd` only selects these levels when the CPU
            // reports the corresponding feature.
            SimdLevel::Avx2 => unsafe { self.substeps_avx2(substeps, sub_dt) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above — `detect_simd` reported AVX-512 support.
            SimdLevel::Avx512 => unsafe { self.substeps_avx512(substeps, sub_dt) },
        }
        Ok(())
    }

    fn substeps_portable(&mut self, substeps: usize, sub_dt: f64) {
        self.substeps_impl(substeps, sub_dt);
    }

    // SAFETY: `unsafe` only because of `target_feature`; the sole caller
    // (`advance`) dispatches here only when `detect_simd` reported AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn substeps_avx2(&mut self, substeps: usize, sub_dt: f64) {
        self.substeps_impl(substeps, sub_dt);
    }

    // SAFETY: `unsafe` only because of `target_feature`; the sole caller
    // (`advance`) dispatches here only when `detect_simd` reported AVX-512.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn substeps_avx512(&mut self, substeps: usize, sub_dt: f64) {
        self.substeps_impl(substeps, sub_dt);
    }

    /// Shared body of the feature-specialized entry points; `inline(always)`
    /// so each wrapper compiles it with its own vector ISA.
    #[inline(always)]
    fn substeps_impl(&mut self, substeps: usize, sub_dt: f64) {
        use crate::solver::SolverKind;
        match self.solver.kind() {
            SolverKind::ForwardEuler => {
                for _ in 0..substeps {
                    self.euler_substep(sub_dt);
                }
            }
            SolverKind::RungeKutta4 => {
                for _ in 0..substeps {
                    self.rk4_substep(sub_dt);
                }
            }
        }
    }

    /// One forward-Euler sub-step across all lanes; mirrors
    /// [`RcNetwork::euler_step_with`] element-wise.
    #[inline(always)]
    fn euler_substep(&mut self, dt: f64) {
        derivative_lanes(
            self.simd,
            self.lanes,
            self.ambient,
            &self.adj_start,
            &self.adj_other,
            &self.adj_g,
            &self.ambient_g,
            &self.capacitance,
            &self.power,
            &self.temps,
            &mut self.workspace.k1,
        );
        for (t, d) in self.temps.iter_mut().zip(&self.workspace.k1) {
            *t += dt * d;
        }
    }

    /// One classic RK4 sub-step across all lanes; the stage expressions copy
    /// [`RcNetwork::rk4_step_with`] shape-for-shape so each lane's arithmetic
    /// is bit-identical to the scalar path.
    #[inline(always)]
    fn rk4_substep(&mut self, dt: f64) {
        let ws = &mut self.workspace;
        ws.t0.copy_from_slice(&self.temps);
        let deriv = |temps: &[f64], out: &mut [f64]| {
            derivative_lanes(
                self.simd,
                self.lanes,
                self.ambient,
                &self.adj_start,
                &self.adj_other,
                &self.adj_g,
                &self.ambient_g,
                &self.capacitance,
                &self.power,
                temps,
                out,
            );
        };
        deriv(&ws.t0, &mut ws.k1);
        for ((stage, &t), &k) in ws.stage.iter_mut().zip(&ws.t0).zip(&ws.k1) {
            *stage = t + 0.5 * dt * k;
        }
        deriv(&ws.stage, &mut ws.k2);
        for ((stage, &t), &k) in ws.stage.iter_mut().zip(&ws.t0).zip(&ws.k2) {
            *stage = t + 0.5 * dt * k;
        }
        deriv(&ws.stage, &mut ws.k3);
        for ((stage, &t), &k) in ws.stage.iter_mut().zip(&ws.t0).zip(&ws.k3) {
            *stage = t + dt * k;
        }
        deriv(&ws.stage, &mut ws.k4);
        // Zipped, not indexed: indexing five slices puts a bounds check on
        // every element and keeps the loop from vectorizing.
        let ks = ws.k1.iter().zip(&ws.k2).zip(ws.k3.iter().zip(&ws.k4));
        for ((temp, &t), ((&k1, &k2), (&k3, &k4))) in self.temps.iter_mut().zip(&ws.t0).zip(ks) {
            *temp = t + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        }
    }
}

/// Lane-batched form of [`RcNetwork::derivative_into`]: per lane the same
/// operations in the same order, vectorized across the `lanes` consecutive
/// doubles of each node row.
///
/// The scalar path scatters each edge's flow `q = g * (t_b - t_a)` as
/// `flow[a] += q; flow[b] -= q` in edge order. This kernel instead *gathers*:
/// each node walks its incident edges (CSR adjacency, kept in global edge
/// order) accumulating into a register, so there is no serializing
/// read-modify-write chain through memory and each node's sum enjoys
/// independent out-of-order execution. Bit-identity with the scatter is
/// exact, not approximate:
///
/// * a node's contributions arrive in the same (global edge) order, and
///   interleaving with *other* nodes' updates never affects its own sum;
/// * the b-side `flow[b] -= g * (t_b - t_a)` is rewritten as
///   `acc += g * (t_a - t_b)` — IEEE-754 negation is exact and
///   `x - y == x + (-y)` rounds identically, so folding the sign into the
///   operand order gives the same bits while making every entry uniform;
/// * only `+ - * /` are used (no FMA contraction), each correctly rounded
///   element-wise.
///
/// Dispatches on the detected SIMD level and the lane count: hand-written
/// 512-/256-bit row kernels when the lane count fills whole vectors (LLVM's
/// autovectorizer prefers 256-bit operations even under AVX-512, leaving half
/// the register width unused), a monomorphized element loop for other common
/// lane counts, and a fully bounds-checked loop otherwise.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn derivative_lanes(
    simd: SimdLevel,
    lanes: usize,
    ambient: f64,
    adj_start: &[usize],
    adj_other: &[usize],
    adj_g: &[f64],
    ambient_g: &[f64],
    capacitance: &[f64],
    power: &[f64],
    temps: &[f64],
    out: &mut [f64],
) {
    let nodes = ambient_g.len();
    assert_eq!(out.len(), nodes * lanes);
    assert_eq!(temps.len(), out.len());
    assert_eq!(power.len(), out.len());
    assert_eq!(capacitance.len(), nodes);
    assert_eq!(adj_start.len(), nodes + 1);
    assert_eq!(adj_start.last().copied(), Some(adj_g.len()));
    assert_eq!(adj_other.len(), adj_g.len());
    // SAFETY (all branches): the shape checks above plus the construction
    // invariants of the adjacency (monotone `adj_start`, every `adj_other`
    // entry `< nodes` — both asserted when the kernel is built) bound every
    // `node * lanes + l` access by `out.len()`; the intrinsic branches
    // additionally require the matching CPU feature, which `detect_simd`
    // established for the passed `simd` level.
    #[cfg(target_arch = "x86_64")]
    {
        if simd == SimdLevel::Avx512 && lanes.is_multiple_of(8) {
            // SAFETY: shape argument above; AVX-512 is available at this
            // `simd` level.
            return unsafe {
                derivative_avx512(
                    lanes,
                    ambient,
                    adj_start,
                    adj_other,
                    adj_g,
                    ambient_g,
                    capacitance,
                    power,
                    temps,
                    out,
                )
            };
        }
        if simd != SimdLevel::Scalar && lanes.is_multiple_of(4) {
            // AVX-512 implies AVX2; 4-lane batches on an AVX-512 machine use
            // the 256-bit kernel rather than falling back to scalar code.
            // SAFETY: shape argument above; AVX2 is available at either
            // non-scalar `simd` level.
            return unsafe {
                derivative_avx2(
                    lanes,
                    ambient,
                    adj_start,
                    adj_other,
                    adj_g,
                    ambient_g,
                    capacitance,
                    power,
                    temps,
                    out,
                )
            };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    match lanes {
        // SAFETY: shape argument above (scalar rows, no CPU feature).
        1 => unsafe {
            derivative_rows::<1>(
                ambient,
                adj_start,
                adj_other,
                adj_g,
                ambient_g,
                capacitance,
                power,
                temps,
                out,
            )
        },
        // SAFETY: shape argument above (scalar rows, no CPU feature).
        2 => unsafe {
            derivative_rows::<2>(
                ambient,
                adj_start,
                adj_other,
                adj_g,
                ambient_g,
                capacitance,
                power,
                temps,
                out,
            )
        },
        // SAFETY: shape argument above (scalar rows, no CPU feature).
        4 => unsafe {
            derivative_rows::<4>(
                ambient,
                adj_start,
                adj_other,
                adj_g,
                ambient_g,
                capacitance,
                power,
                temps,
                out,
            )
        },
        // SAFETY: shape argument above (scalar rows, no CPU feature).
        8 => unsafe {
            derivative_rows::<8>(
                ambient,
                adj_start,
                adj_other,
                adj_g,
                ambient_g,
                capacitance,
                power,
                temps,
                out,
            )
        },
        // SAFETY: shape argument above (scalar rows, no CPU feature).
        16 => unsafe {
            derivative_rows::<16>(
                ambient,
                adj_start,
                adj_other,
                adj_g,
                ambient_g,
                capacitance,
                power,
                temps,
                out,
            )
        },
        _ => derivative_rows_dyn(
            lanes,
            ambient,
            adj_start,
            adj_other,
            adj_g,
            ambient_g,
            capacitance,
            power,
            temps,
            out,
        ),
    }
}

/// 512-bit derivative rows: one `vaddpd`/`vsubpd`/`vmulpd`/`vdivpd` per 8
/// lanes. All four operations are correctly-rounded IEEE-754 element-wise
/// (no FMA contraction), so each lane's arithmetic is bit-identical to the
/// scalar expression it mirrors. The whole node row — init, gathered edge
/// accumulation, capacitance divide — stays in one register between the
/// single load and single store per vector of lanes.
///
/// # Safety
///
/// Caller must verify AVX-512F support, the shape preconditions of
/// [`derivative_rows`], and `lanes % 8 == 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn derivative_avx512(
    lanes: usize,
    ambient: f64,
    adj_start: &[usize],
    adj_other: &[usize],
    adj_g: &[f64],
    ambient_g: &[f64],
    capacitance: &[f64],
    power: &[f64],
    temps: &[f64],
    out: &mut [f64],
) {
    use core::arch::x86_64::*;
    let op = out.as_mut_ptr();
    let tp = temps.as_ptr();
    let pp = power.as_ptr();
    let amb = _mm512_set1_pd(ambient);
    for (node, &g) in ambient_g.iter().enumerate() {
        let gv = _mm512_set1_pd(g);
        let cv = _mm512_set1_pd(*capacitance.get_unchecked(node));
        let base = node * lanes;
        let (lo, hi) = (
            *adj_start.get_unchecked(node),
            *adj_start.get_unchecked(node + 1),
        );
        for l in (0..lanes).step_by(8) {
            let t = _mm512_loadu_pd(tp.add(base + l));
            let mut acc = _mm512_add_pd(
                _mm512_loadu_pd(pp.add(base + l)),
                _mm512_mul_pd(gv, _mm512_sub_pd(amb, t)),
            );
            for e in lo..hi {
                let ge = _mm512_set1_pd(*adj_g.get_unchecked(e));
                let to = _mm512_loadu_pd(tp.add(*adj_other.get_unchecked(e) * lanes + l));
                acc = _mm512_add_pd(acc, _mm512_mul_pd(ge, _mm512_sub_pd(to, t)));
            }
            _mm512_storeu_pd(op.add(base + l), _mm512_div_pd(acc, cv));
        }
    }
}

/// 256-bit derivative rows; see [`derivative_avx512`] for the bit-identity
/// argument.
///
/// # Safety
///
/// Caller must verify AVX2 support, the shape preconditions of
/// [`derivative_rows`], and `lanes % 4 == 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn derivative_avx2(
    lanes: usize,
    ambient: f64,
    adj_start: &[usize],
    adj_other: &[usize],
    adj_g: &[f64],
    ambient_g: &[f64],
    capacitance: &[f64],
    power: &[f64],
    temps: &[f64],
    out: &mut [f64],
) {
    use core::arch::x86_64::*;
    let op = out.as_mut_ptr();
    let tp = temps.as_ptr();
    let pp = power.as_ptr();
    let amb = _mm256_set1_pd(ambient);
    for (node, &g) in ambient_g.iter().enumerate() {
        let gv = _mm256_set1_pd(g);
        let cv = _mm256_set1_pd(*capacitance.get_unchecked(node));
        let base = node * lanes;
        let (lo, hi) = (
            *adj_start.get_unchecked(node),
            *adj_start.get_unchecked(node + 1),
        );
        for l in (0..lanes).step_by(4) {
            let t = _mm256_loadu_pd(tp.add(base + l));
            let mut acc = _mm256_add_pd(
                _mm256_loadu_pd(pp.add(base + l)),
                _mm256_mul_pd(gv, _mm256_sub_pd(amb, t)),
            );
            for e in lo..hi {
                let ge = _mm256_set1_pd(*adj_g.get_unchecked(e));
                let to = _mm256_loadu_pd(tp.add(*adj_other.get_unchecked(e) * lanes + l));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(ge, _mm256_sub_pd(to, t)));
            }
            _mm256_storeu_pd(op.add(base + l), _mm256_div_pd(acc, cv));
        }
    }
}

/// Monomorphized derivative body for a compile-time lane count.
///
/// # Safety
///
/// `out`, `temps`, and `power` must be `ambient_g.len() * LANES` long,
/// `capacitance` must be `ambient_g.len()` long, `adj_start` must be a
/// monotone `ambient_g.len() + 1`-long prefix table into
/// `adj_other`/`adj_g`, and every `adj_other` entry must be
/// `< ambient_g.len()`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn derivative_rows<const LANES: usize>(
    ambient: f64,
    adj_start: &[usize],
    adj_other: &[usize],
    adj_g: &[f64],
    ambient_g: &[f64],
    capacitance: &[f64],
    power: &[f64],
    temps: &[f64],
    out: &mut [f64],
) {
    for (node, &g) in ambient_g.iter().enumerate() {
        let base = node * LANES;
        let c = *capacitance.get_unchecked(node);
        let mut acc = [0.0f64; LANES];
        for (l, a) in acc.iter_mut().enumerate() {
            *a = *power.get_unchecked(base + l) + g * (ambient - *temps.get_unchecked(base + l));
        }
        let (lo, hi) = (
            *adj_start.get_unchecked(node),
            *adj_start.get_unchecked(node + 1),
        );
        for e in lo..hi {
            let ge = *adj_g.get_unchecked(e);
            let obase = *adj_other.get_unchecked(e) * LANES;
            for (l, a) in acc.iter_mut().enumerate() {
                *a += ge * (*temps.get_unchecked(obase + l) - *temps.get_unchecked(base + l));
            }
        }
        for (l, a) in acc.iter().enumerate() {
            *out.get_unchecked_mut(base + l) = a / c;
        }
    }
}

/// Fully bounds-checked fallback for uncommon lane counts; same operations
/// in the same order as [`derivative_rows`].
#[allow(clippy::too_many_arguments)]
fn derivative_rows_dyn(
    lanes: usize,
    ambient: f64,
    adj_start: &[usize],
    adj_other: &[usize],
    adj_g: &[f64],
    ambient_g: &[f64],
    capacitance: &[f64],
    power: &[f64],
    temps: &[f64],
    out: &mut [f64],
) {
    for (node, &g) in ambient_g.iter().enumerate() {
        let base = node * lanes;
        let c = capacitance[node];
        for l in 0..lanes {
            out[base + l] = power[base + l] + g * (ambient - temps[base + l]);
        }
        for e in adj_start[node]..adj_start[node + 1] {
            let ge = adj_g[e];
            let obase = adj_other[e] * lanes;
            for l in 0..lanes {
                out[base + l] += ge * (temps[obase + l] - temps[base + l]);
            }
        }
        for l in 0..lanes {
            out[base + l] /= c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::Package;
    use crate::solver::SolverKind;
    use tbp_arch::floorplan::Floorplan;

    fn model(package: Package, solver: SolverKind) -> ThermalModel {
        ThermalModel::with_solver(&Floorplan::paper_3core(), package, solver).unwrap()
    }

    fn block_power(model: &ThermalModel, watts: &[f64]) -> Vec<Watts> {
        assert_eq!(watts.len(), model.num_blocks());
        watts.iter().copied().map(Watts::new).collect()
    }

    #[test]
    fn construction_validates_lanes() {
        assert!(ThermalLaneKernel::from_models(&[]).is_err());
        let euler = model(Package::mobile_embedded(), SolverKind::ForwardEuler);
        let rk4 = model(Package::mobile_embedded(), SolverKind::RungeKutta4);
        let hiperf = model(Package::high_performance(), SolverKind::ForwardEuler);
        assert!(ThermalLaneKernel::from_models(&[&euler, &rk4]).is_err());
        assert!(ThermalLaneKernel::from_models(&[&euler, &hiperf]).is_err());
        let twin = euler.clone();
        let kernel = ThermalLaneKernel::from_models(&[&euler, &twin]).unwrap();
        assert_eq!(kernel.num_lanes(), 2);
        assert_eq!(kernel.num_nodes(), euler.network().len());
        assert_eq!(kernel.num_blocks(), euler.num_blocks());
        assert!(!kernel.simd_label().is_empty());
    }

    #[test]
    fn shape_errors_are_reported() {
        let m = model(Package::mobile_embedded(), SolverKind::ForwardEuler);
        let mut kernel = ThermalLaneKernel::from_models(&[&m]).unwrap();
        assert!(kernel.set_block_powers(3, &[Watts::ZERO; 14]).is_err());
        assert!(kernel.set_block_powers(0, &[Watts::ZERO]).is_err());
        assert!(kernel.advance(Seconds::ZERO).is_err());
        assert!(kernel.advance(Seconds::new(f64::NAN)).is_err());
        assert_eq!(kernel.lane_temperature(9, 0), None);
        assert_eq!(kernel.lane_temperature(0, 999), None);
        let mut short = vec![0.0; 3];
        assert!(kernel.copy_lane_temperatures_into(0, &mut short).is_err());
        assert!(kernel
            .copy_lane_temperatures_into(2, &mut vec![0.0; kernel.num_nodes()])
            .is_err());
    }

    /// Lane counts that, run at every SIMD level, reach every dispatch path:
    /// at the AVX-512 level the 512-bit kernel (8, 16) and the 256-bit one
    /// (4); at the AVX2 level the 256-bit kernel (4, 8, 16); at the portable
    /// level the monomorphized element loops (1, 2, 4, 8, 16); and at every
    /// level the dynamic fallback (3, 5).
    const LANE_COUNTS: [usize; 7] = [1, 2, 3, 4, 5, 8, 16];

    /// Every SIMD level this host can run, the portable one first.
    #[cfg(target_arch = "x86_64")]
    fn supported_simd_levels() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        if std::arch::is_x86_feature_detected!("avx2") {
            levels.push(SimdLevel::Avx2);
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            levels.push(SimdLevel::Avx512);
        }
        levels
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn supported_simd_levels() -> Vec<SimdLevel> {
        vec![SimdLevel::Scalar]
    }

    /// The load-bearing property: each lane of the batched kernel produces
    /// *bit-identical* temperatures to a scalar [`ThermalModel::step`] run of
    /// the same model, for both solvers, heterogeneous lane powers, and
    /// every SIMD level the host supports, not only the detected one.
    #[test]
    fn lanes_match_scalar_models_bit_for_bit() {
        for kind in [SolverKind::ForwardEuler, SolverKind::RungeKutta4] {
            for package in [Package::mobile_embedded(), Package::high_performance()] {
                for simd in supported_simd_levels() {
                    for lanes in LANE_COUNTS {
                        lanes_match_scalar_case(kind, package.clone(), lanes, simd);
                    }
                }
            }
        }
    }

    fn lanes_match_scalar_case(kind: SolverKind, package: Package, lanes: usize, simd: SimdLevel) {
        let reference = model(package, kind);
        let mut scalar: Vec<ThermalModel> = (0..lanes).map(|_| reference.clone()).collect();
        let mut batched = scalar.clone();
        let mut kernel =
            ThermalLaneKernel::from_models(&batched.iter().collect::<Vec<_>>()).unwrap();
        kernel.simd = simd;
        let dt = Seconds::from_millis(5.0);
        for step in 0..200 {
            for (lane, (s, b)) in scalar.iter_mut().zip(&mut batched).enumerate() {
                // Lane-dependent, step-dependent power pattern.
                let watts: Vec<f64> = (0..s.num_blocks())
                    .map(|blk| 0.01 * (lane + 1) as f64 * ((blk + step) % 5) as f64)
                    .collect();
                let p = block_power(s, &watts);
                s.step(&p, dt).unwrap();
                b.load_block_powers(&p).unwrap();
                kernel.set_block_powers(lane, &p).unwrap();
            }
            kernel.advance(dt).unwrap();
            for (lane, b) in batched.iter_mut().enumerate() {
                b.sync_from_lane(&kernel, lane, dt).unwrap();
            }
        }
        for (lane, (s, b)) in scalar.iter().zip(&batched).enumerate() {
            assert_eq!(s.elapsed(), b.elapsed());
            for node in 0..s.network().len() {
                let ts = s.network().temperature(node).as_celsius();
                let tb = b.network().temperature(node).as_celsius();
                assert_eq!(
                    ts.to_bits(),
                    tb.to_bits(),
                    "{kind:?} {lanes} lanes at {simd:?}, lane {lane} node {node}: \
                     scalar {ts} vs batched {tb}"
                );
            }
            assert_eq!(s.network().powers(), b.network().powers());
        }
    }
}
