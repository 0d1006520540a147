//! Generic lumped resistance–capacitance thermal network.
//!
//! The network is a graph of thermal nodes. Each node has a heat capacitance
//! and optionally a conductance to the fixed-temperature ambient; pairs of
//! nodes are coupled by conductances. Power (heat) is injected into nodes and
//! the temperature state evolves according to
//!
//! ```text
//! C_i · dT_i/dt = P_i + Σ_j G_ij (T_j − T_i) + G_amb,i (T_amb − T_i)
//! ```
//!
//! which is exactly the equation HotSpot integrates for its block-level mode.

use serde::{Deserialize, Serialize, Value};

use crate::error::ThermalError;
use crate::solver::SolverWorkspace;
use tbp_arch::units::Celsius;

/// A single thermal node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RcNode {
    /// Human-readable name (floorplan block name, `spreader`, `sink`, ...).
    pub name: String,
    /// Heat capacitance in J/K.
    pub capacitance: f64,
    /// Conductance to the ambient in W/K (zero when not connected).
    pub ambient_conductance: f64,
}

/// A conductive coupling between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RcEdge {
    /// First node index.
    pub a: usize,
    /// Second node index.
    pub b: usize,
    /// Conductance in W/K.
    pub conductance: f64,
}

/// Compiled flat-array (CSR-style) form of the network topology, rebuilt
/// lazily after a topology mutation.
///
/// The per-node data (`1/C` is deliberately **not** precomputed: the kernel
/// divides by the stored capacitance so results stay bit-identical to the
/// naive [`RcNetwork::derivative`] path) and the edge list live in dense
/// struct-of-arrays storage, so the inner integration loop touches no `RcNode`
/// structs and chases no `String`s. Edges are kept in insertion order — a
/// node-major CSR adjacency would change the floating-point accumulation
/// order and therefore the low bits of every temperature.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledKernel {
    /// `RcEdge::a` of every edge, in insertion order.
    pub(crate) edge_a: Vec<usize>,
    /// `RcEdge::b` of every edge, in insertion order.
    pub(crate) edge_b: Vec<usize>,
    /// Edge conductances, in insertion order.
    pub(crate) edge_g: Vec<f64>,
    /// Per-node conductance to ambient.
    pub(crate) ambient_g: Vec<f64>,
    /// Per-node heat capacitance.
    pub(crate) capacitance: Vec<f64>,
    /// Cached explicit-Euler stability limit (`min_i C_i / ΣG_i`).
    pub(crate) max_stable_step: f64,
}

impl CompiledKernel {
    pub(crate) fn build(nodes: &[RcNode], edges: &[RcEdge]) -> Self {
        CompiledKernel {
            edge_a: edges.iter().map(|e| e.a).collect(),
            edge_b: edges.iter().map(|e| e.b).collect(),
            edge_g: edges.iter().map(|e| e.conductance).collect(),
            ambient_g: nodes.iter().map(|n| n.ambient_conductance).collect(),
            capacitance: nodes.iter().map(|n| n.capacitance).collect(),
            max_stable_step: compute_max_stable_step(nodes, edges),
        }
    }
}

/// Shared stability-limit computation (used both by the compiled kernel and
/// by the uncompiled fallback, so the cached and fresh values are identical).
fn compute_max_stable_step(nodes: &[RcNode], edges: &[RcEdge]) -> f64 {
    let mut total_conductance = vec![0.0; nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        total_conductance[i] += node.ambient_conductance;
    }
    for edge in edges {
        total_conductance[edge.a] += edge.conductance;
        total_conductance[edge.b] += edge.conductance;
    }
    nodes
        .iter()
        .zip(&total_conductance)
        .map(|(node, &g)| {
            if g > 0.0 {
                node.capacitance / g
            } else {
                f64::INFINITY
            }
        })
        .fold(f64::INFINITY, f64::min)
}

/// Lazily built [`CompiledKernel`] cache.
///
/// The cache is pure derived data: clones carry it along, equality ignores
/// it, and (de)serialization skips it entirely (it serializes to the unit
/// value, which the struct serializer omits, and deserializes to "not built
/// yet").
#[derive(Debug, Clone, Default)]
struct KernelCache(Option<Box<CompiledKernel>>);

impl PartialEq for KernelCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Serialize for KernelCache {
    fn to_value(&self) -> Value {
        Value::Unit
    }
}

impl Deserialize for KernelCache {
    fn from_value(_: &Value) -> Result<Self, serde::Error> {
        Ok(KernelCache::default())
    }

    fn absent() -> Option<Self> {
        Some(KernelCache::default())
    }
}

/// A lumped RC thermal network with its current temperature state.
///
/// ```
/// use tbp_thermal::rc::RcNetwork;
/// use tbp_arch::units::Celsius;
///
/// # fn main() -> Result<(), tbp_thermal::ThermalError> {
/// let mut net = RcNetwork::new(Celsius::new(45.0));
/// let hot = net.add_node("hot", 0.5, 0.05)?;
/// let cold = net.add_node("cold", 0.5, 0.05)?;
/// net.add_edge(hot, cold, 0.02)?;
/// net.set_power(hot, 1.0)?;
/// for _ in 0..10_000 {
///     net.euler_step(0.01);
/// }
/// assert!(net.temperature(hot).as_celsius() > net.temperature(cold).as_celsius());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RcNetwork {
    nodes: Vec<RcNode>,
    edges: Vec<RcEdge>,
    temperatures: Vec<f64>,
    power: Vec<f64>,
    ambient: Celsius,
    kernel: KernelCache,
}

impl RcNetwork {
    /// Creates an empty network at the given ambient temperature. New nodes
    /// start at ambient.
    pub fn new(ambient: Celsius) -> Self {
        RcNetwork {
            nodes: Vec::new(),
            edges: Vec::new(),
            temperatures: Vec::new(),
            power: Vec::new(),
            ambient,
            kernel: KernelCache::default(),
        }
    }

    /// Ambient temperature of the network.
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nodes of the network.
    pub fn nodes(&self) -> &[RcNode] {
        &self.nodes
    }

    /// Edges of the network.
    pub fn edges(&self) -> &[RcEdge] {
        &self.edges
    }

    /// Adds a node and returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a non-positive or
    /// non-finite capacitance, or a negative ambient conductance.
    pub fn add_node(
        &mut self,
        name: &str,
        capacitance: f64,
        ambient_conductance: f64,
    ) -> Result<usize, ThermalError> {
        if !(capacitance.is_finite() && capacitance > 0.0) {
            return Err(ThermalError::InvalidParameter(format!(
                "capacitance of `{name}` must be positive (got {capacitance})"
            )));
        }
        if !(ambient_conductance.is_finite() && ambient_conductance >= 0.0) {
            return Err(ThermalError::InvalidParameter(format!(
                "ambient conductance of `{name}` must be non-negative (got {ambient_conductance})"
            )));
        }
        self.nodes.push(RcNode {
            name: name.to_string(),
            capacitance,
            ambient_conductance,
        });
        self.temperatures.push(self.ambient.as_celsius());
        self.power.push(0.0);
        self.kernel.0 = None;
        Ok(self.nodes.len() - 1)
    }

    /// Adds a conductive edge between two nodes.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for an out-of-range index and
    /// [`ThermalError::InvalidParameter`] for a non-positive conductance or a
    /// self-loop.
    pub fn add_edge(&mut self, a: usize, b: usize, conductance: f64) -> Result<(), ThermalError> {
        if a >= self.nodes.len() {
            return Err(ThermalError::UnknownNode(a));
        }
        if b >= self.nodes.len() {
            return Err(ThermalError::UnknownNode(b));
        }
        if a == b {
            return Err(ThermalError::InvalidParameter(
                "self-coupled thermal node".into(),
            ));
        }
        if !(conductance.is_finite() && conductance > 0.0) {
            return Err(ThermalError::InvalidParameter(format!(
                "edge conductance must be positive (got {conductance})"
            )));
        }
        self.edges.push(RcEdge { a, b, conductance });
        self.kernel.0 = None;
        Ok(())
    }

    /// Builds the compiled flat-array kernel (and its cached stability limit)
    /// if a topology mutation invalidated it. Idempotent and cheap when the
    /// kernel is already built; [`Solver::advance`](crate::solver::Solver)
    /// calls this before integrating so the hot loop never recompiles.
    pub fn ensure_compiled(&mut self) {
        if self.kernel.0.is_none() {
            self.kernel.0 = Some(Box::new(CompiledKernel::build(&self.nodes, &self.edges)));
        }
    }

    /// Returns `true` when the compiled kernel is currently built (it is
    /// dropped by [`add_node`](Self::add_node) / [`add_edge`](Self::add_edge)
    /// and rebuilt by [`ensure_compiled`](Self::ensure_compiled)).
    pub fn is_compiled(&self) -> bool {
        self.kernel.0.is_some()
    }

    /// Sets the power injected into a node (W).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for an out-of-range index.
    pub fn set_power(&mut self, node: usize, watts: f64) -> Result<(), ThermalError> {
        if node >= self.nodes.len() {
            return Err(ThermalError::UnknownNode(node));
        }
        self.power[node] = watts;
        Ok(())
    }

    /// Currently injected power at a node (W). Returns 0 for out-of-range
    /// indices.
    pub fn power(&self, node: usize) -> f64 {
        self.power.get(node).copied().unwrap_or(0.0)
    }

    /// Sets the power (W) of each listed node in one pass — the batched form
    /// of [`set_power`](Self::set_power) used by the per-step injection of
    /// the thermal model.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for the first out-of-range
    /// index; earlier entries of the batch stay applied.
    pub fn set_node_powers<I>(&mut self, nodes: &[usize], watts: I) -> Result<(), ThermalError>
    where
        I: IntoIterator<Item = f64>,
    {
        for (&node, w) in nodes.iter().zip(watts) {
            *self
                .power
                .get_mut(node)
                .ok_or(ThermalError::UnknownNode(node))? = w;
        }
        Ok(())
    }

    /// Current temperature of a node. Out-of-range indices return the
    /// ambient temperature.
    pub fn temperature(&self, node: usize) -> Celsius {
        self.temperatures
            .get(node)
            .copied()
            .map(Celsius::new)
            .unwrap_or(self.ambient)
    }

    /// All node temperatures in index order.
    pub fn temperatures(&self) -> Vec<Celsius> {
        self.temperatures
            .iter()
            .copied()
            .map(Celsius::new)
            .collect()
    }

    /// Overwrites a node's temperature (used to set initial conditions).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for an out-of-range index.
    pub fn set_temperature(&mut self, node: usize, value: Celsius) -> Result<(), ThermalError> {
        if node >= self.nodes.len() {
            return Err(ThermalError::UnknownNode(node));
        }
        self.temperatures[node] = value.as_celsius();
        Ok(())
    }

    /// Resets every node to the ambient temperature and clears injected power.
    pub fn reset(&mut self) {
        for t in &mut self.temperatures {
            *t = self.ambient.as_celsius();
        }
        for p in &mut self.power {
            *p = 0.0;
        }
    }

    /// Time derivative of each node temperature for the current state, K/s.
    pub fn derivative(&self, temperatures: &[f64]) -> Vec<f64> {
        let mut flow = Vec::new();
        self.derivative_into(temperatures, &mut flow);
        flow
    }

    /// Allocation-free form of [`derivative`](Self::derivative): writes the
    /// per-node derivative into `out`, resizing it to the node count.
    ///
    /// Uses the compiled kernel when it is built (see
    /// [`ensure_compiled`](Self::ensure_compiled)); either way the
    /// accumulation happens in the same edge order with the same operations,
    /// so the results are bit-identical.
    pub fn derivative_into(&self, temperatures: &[f64], out: &mut Vec<f64>) {
        let ambient = self.ambient.as_celsius();
        out.clear();
        if let Some(kernel) = self.kernel.0.as_deref() {
            out.extend(
                self.power
                    .iter()
                    .zip(&kernel.ambient_g)
                    .zip(temperatures)
                    .map(|((p, g), t)| p + g * (ambient - t)),
            );
            let flow = &mut out[..];
            for ((&a, &b), &g) in kernel.edge_a.iter().zip(&kernel.edge_b).zip(&kernel.edge_g) {
                let q = g * (temperatures[b] - temperatures[a]);
                flow[a] += q;
                flow[b] -= q;
            }
            for (f, c) in flow.iter_mut().zip(&kernel.capacitance) {
                *f /= c;
            }
        } else {
            out.extend(
                self.power
                    .iter()
                    .zip(&self.nodes)
                    .zip(temperatures)
                    .map(|((p, node), t)| p + node.ambient_conductance * (ambient - t)),
            );
            let flow = &mut out[..];
            for edge in &self.edges {
                let q = edge.conductance * (temperatures[edge.b] - temperatures[edge.a]);
                flow[edge.a] += q;
                flow[edge.b] -= q;
            }
            for (f, node) in flow.iter_mut().zip(&self.nodes) {
                *f /= node.capacitance;
            }
        }
    }

    /// Largest explicit-Euler step (seconds) that keeps the integration
    /// stable: `min_i C_i / ΣG_i`.
    ///
    /// Served from the compiled kernel's cache when it is built; otherwise
    /// recomputed from the topology (identical value either way).
    pub fn max_stable_step(&self) -> f64 {
        match self.kernel.0.as_deref() {
            Some(kernel) => kernel.max_stable_step,
            None => compute_max_stable_step(&self.nodes, &self.edges),
        }
    }

    /// Performs one explicit (forward) Euler step of `dt` seconds.
    ///
    /// Callers are responsible for keeping `dt` below
    /// [`max_stable_step`](Self::max_stable_step); the higher-level
    /// [`solver`](crate::solver) module handles sub-stepping automatically.
    /// Allocates a derivative buffer per call — the hot loop uses
    /// [`euler_step_with`](Self::euler_step_with) instead.
    pub fn euler_step(&mut self, dt: f64) {
        let mut workspace = SolverWorkspace::new();
        self.euler_step_with(dt, &mut workspace);
    }

    /// [`euler_step`](Self::euler_step) writing into a reusable
    /// [`SolverWorkspace`] — allocation-free once the workspace buffers have
    /// grown to the network size.
    pub fn euler_step_with(&mut self, dt: f64, workspace: &mut SolverWorkspace) {
        let SolverWorkspace { k1, .. } = workspace;
        self.derivative_into(&self.temperatures, k1);
        for (t, d) in self.temperatures.iter_mut().zip(k1.iter()) {
            *t += dt * d;
        }
    }

    /// Performs one classic Runge–Kutta (RK4) step of `dt` seconds.
    ///
    /// Allocates stage buffers per call — the hot loop uses
    /// [`rk4_step_with`](Self::rk4_step_with) instead.
    pub fn rk4_step(&mut self, dt: f64) {
        let mut workspace = SolverWorkspace::new();
        self.rk4_step_with(dt, &mut workspace);
    }

    /// [`rk4_step`](Self::rk4_step) writing every stage (k1–k4 and the
    /// intermediate temperature vectors) into a reusable [`SolverWorkspace`]
    /// — allocation-free once the workspace buffers have grown to the
    /// network size. The stage arithmetic matches [`rk4_step`](Self::rk4_step)
    /// operation for operation, so temperatures stay bit-identical.
    pub fn rk4_step_with(&mut self, dt: f64, workspace: &mut SolverWorkspace) {
        let SolverWorkspace {
            k1,
            k2,
            k3,
            k4,
            t0,
            stage,
        } = workspace;
        t0.clear();
        t0.extend_from_slice(&self.temperatures);
        self.derivative_into(t0, k1);
        stage.clear();
        stage.extend(t0.iter().zip(k1.iter()).map(|(t, k)| t + 0.5 * dt * k));
        self.derivative_into(stage, k2);
        // Each stage loop zips its slices instead of indexing them, so it
        // carries no bounds checks and vectorizes; every element keeps the
        // same expression.
        for ((s, &t), &k) in stage.iter_mut().zip(t0.iter()).zip(k2.iter()) {
            *s = t + 0.5 * dt * k;
        }
        self.derivative_into(stage, k3);
        for ((s, &t), &k) in stage.iter_mut().zip(t0.iter()).zip(k3.iter()) {
            *s = t + dt * k;
        }
        self.derivative_into(stage, k4);
        let ks = k1.iter().zip(k2.iter()).zip(k3.iter().zip(k4.iter()));
        for ((temp, &t), ((&k1, &k2), (&k3, &k4))) in
            self.temperatures.iter_mut().zip(t0.iter()).zip(ks)
        {
            *temp = t + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        }
    }

    /// Computes the steady-state temperatures for the currently injected
    /// power by iterating a damped Gauss–Seidel relaxation of the static heat
    /// balance. The dynamic state is not modified.
    pub fn steady_state(&self) -> Vec<Celsius> {
        self.steady_state_for(&self.power)
            .expect("own power vector always matches")
    }

    /// Injected power of every node, in index order (W).
    pub fn powers(&self) -> &[f64] {
        &self.power
    }

    /// Raw node temperatures in index order (°C), for the lane-batched
    /// kernel's state export.
    pub(crate) fn temperatures_raw(&self) -> &[f64] {
        &self.temperatures
    }

    /// Mutable raw node temperatures, for the lane-batched kernel's
    /// write-back of integrated state.
    pub(crate) fn temperatures_raw_mut(&mut self) -> &mut [f64] {
        &mut self.temperatures
    }

    /// [`steady_state`](Self::steady_state) for an explicit per-node power
    /// vector instead of the currently injected one, so callers (e.g.
    /// [`ThermalModel::steady_state`](crate::model::ThermalModel)) do not
    /// have to clone the network just to vary the power.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] when `power` does not
    /// have one entry per node.
    pub fn steady_state_for(&self, power: &[f64]) -> Result<Vec<Celsius>, ThermalError> {
        if power.len() != self.nodes.len() {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.nodes.len(),
                actual: power.len(),
            });
        }
        let n = self.nodes.len();
        let mut t: Vec<f64> = self.temperatures.clone();
        // Pre-index neighbours for the relaxation.
        let mut neighbours: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for edge in &self.edges {
            neighbours[edge.a].push((edge.b, edge.conductance));
            neighbours[edge.b].push((edge.a, edge.conductance));
        }
        for _ in 0..20_000 {
            let mut max_delta: f64 = 0.0;
            for i in 0..n {
                let mut g_sum = self.nodes[i].ambient_conductance;
                let mut rhs =
                    power[i] + self.nodes[i].ambient_conductance * self.ambient.as_celsius();
                for &(j, g) in &neighbours[i] {
                    g_sum += g;
                    rhs += g * t[j];
                }
                if g_sum > 0.0 {
                    let new_t = rhs / g_sum;
                    max_delta = max_delta.max((new_t - t[i]).abs());
                    t[i] = new_t;
                }
            }
            if max_delta < 1e-9 {
                break;
            }
        }
        Ok(t.into_iter().map(Celsius::new).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_network() -> (RcNetwork, usize, usize) {
        let mut net = RcNetwork::new(Celsius::new(45.0));
        let a = net.add_node("a", 1.0, 0.1).unwrap();
        let b = net.add_node("b", 1.0, 0.1).unwrap();
        net.add_edge(a, b, 0.05).unwrap();
        (net, a, b)
    }

    #[test]
    fn construction_and_validation() {
        let mut net = RcNetwork::new(Celsius::new(45.0));
        assert!(net.is_empty());
        assert_eq!(net.ambient().as_celsius(), 45.0);
        let a = net.add_node("a", 1.0, 0.0).unwrap();
        assert_eq!(net.len(), 1);
        assert!(!net.is_empty());
        assert_eq!(net.nodes()[a].name, "a");
        assert!(net.add_node("bad", 0.0, 0.1).is_err());
        assert!(net.add_node("bad", f64::NAN, 0.1).is_err());
        assert!(net.add_node("bad", 1.0, -0.1).is_err());
        let b = net.add_node("b", 1.0, 0.0).unwrap();
        assert!(net.add_edge(a, b, 0.1).is_ok());
        assert!(net.add_edge(a, a, 0.1).is_err());
        assert!(net.add_edge(a, 99, 0.1).is_err());
        assert!(net.add_edge(99, b, 0.1).is_err());
        assert!(net.add_edge(a, b, 0.0).is_err());
        assert_eq!(net.edges().len(), 1);
        assert!(net.set_power(99, 1.0).is_err());
        assert!(net.set_temperature(99, Celsius::new(50.0)).is_err());
        assert_eq!(net.power(99), 0.0);
        assert_eq!(net.temperature(99).as_celsius(), 45.0);
    }

    #[test]
    fn nodes_start_at_ambient_and_stay_without_power() {
        let (mut net, a, b) = two_node_network();
        assert_eq!(net.temperature(a).as_celsius(), 45.0);
        for _ in 0..1000 {
            net.euler_step(0.1);
        }
        assert!((net.temperature(a).as_celsius() - 45.0).abs() < 1e-9);
        assert!((net.temperature(b).as_celsius() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn heated_node_rises_and_settles_at_analytic_steady_state() {
        let (mut net, a, b) = two_node_network();
        net.set_power(a, 1.0).unwrap();
        assert_eq!(net.power(a), 1.0);
        let dt = 0.5 * net.max_stable_step();
        for _ in 0..200_000 {
            net.euler_step(dt);
        }
        let ta = net.temperature(a).as_celsius();
        let tb = net.temperature(b).as_celsius();
        assert!(ta > tb);
        assert!(tb > 45.0);
        // Analytic solution of the 2-node divider:
        //   node a: G_amb=0.1, edge 0.05 to b, b has G_amb=0.1.
        // Solve: 1 = 0.1(Ta-45) + 0.05(Ta-Tb); 0 = 0.1(Tb-45) - 0.05(Ta-Tb)
        // => Tb-45 = (Ta-45)/3; 1 = 0.1 x + 0.05*2x/3 where x = Ta-45
        let x = 1.0 / (0.1 + 0.1 / 3.0);
        assert!((ta - (45.0 + x)).abs() < 1e-3);
        assert!((tb - (45.0 + x / 3.0)).abs() < 1e-3);
        // steady_state() agrees with the integrated result.
        let ss = net.steady_state();
        assert!((ss[a].as_celsius() - ta).abs() < 1e-3);
        assert!((ss[b].as_celsius() - tb).abs() < 1e-3);
    }

    #[test]
    fn rk4_matches_euler_with_small_steps() {
        let (mut euler_net, a, _) = two_node_network();
        let (mut rk4_net, _, _) = two_node_network();
        euler_net.set_power(a, 0.5).unwrap();
        rk4_net.set_power(a, 0.5).unwrap();
        let dt = 0.2 * euler_net.max_stable_step();
        for _ in 0..5_000 {
            euler_net.euler_step(dt);
            rk4_net.rk4_step(dt);
        }
        for i in 0..euler_net.len() {
            assert!(
                (euler_net.temperature(i).as_celsius() - rk4_net.temperature(i).as_celsius()).abs()
                    < 0.05
            );
        }
    }

    #[test]
    fn topology_mutation_invalidates_the_compiled_kernel() {
        let (mut net, a, _) = two_node_network();
        assert!(!net.is_compiled());
        net.ensure_compiled();
        assert!(net.is_compiled());
        let stable_before = net.max_stable_step();

        // Stepping uses (and keeps) the compiled kernel.
        net.set_power(a, 1.0).unwrap();
        net.euler_step(0.01);
        assert!(net.is_compiled());

        // Adding a node drops the kernel; the stability limit is recomputed
        // from the new topology, not served stale from the cache.
        let c = net.add_node("c", 0.001, 5.0).unwrap();
        assert!(!net.is_compiled());
        let stale_free = net.max_stable_step();
        assert!(stale_free < stable_before);
        net.ensure_compiled();
        assert_eq!(net.max_stable_step().to_bits(), stale_free.to_bits());

        // Adding an edge invalidates again, and stepping after the mutation
        // recompiles and integrates the new topology (the new node heats up
        // through the fresh edge).
        net.add_edge(a, c, 0.5).unwrap();
        assert!(!net.is_compiled());
        let solver = crate::solver::Solver::default();
        solver
            .advance(&mut net, tbp_arch::units::Seconds::from_millis(10.0))
            .unwrap();
        assert!(net.is_compiled());
        assert!(net.temperature(c).as_celsius() > 45.0);

        // Non-topology mutations (power, temperature, reset) keep the kernel.
        net.set_power(a, 0.5).unwrap();
        net.set_temperature(a, Celsius::new(50.0)).unwrap();
        net.reset();
        assert!(net.is_compiled());
    }

    #[test]
    fn max_stable_step_is_finite_for_grounded_networks() {
        let (net, _, _) = two_node_network();
        let dt = net.max_stable_step();
        assert!(dt.is_finite());
        assert!(dt > 0.0);
        // A network with a floating node reports an infinite limit for it but
        // the minimum over grounded nodes still applies.
        let mut floating = RcNetwork::new(Celsius::new(45.0));
        floating.add_node("float", 1.0, 0.0).unwrap();
        assert!(floating.max_stable_step().is_infinite());
    }

    #[test]
    fn energy_conservation_between_coupled_nodes() {
        // With no ambient connection, total heat is conserved: the mean
        // temperature rises linearly with injected energy.
        let mut net = RcNetwork::new(Celsius::new(45.0));
        let a = net.add_node("a", 2.0, 0.0).unwrap();
        let b = net.add_node("b", 2.0, 0.0).unwrap();
        net.add_edge(a, b, 0.05).unwrap();
        net.set_power(a, 1.0).unwrap();
        let dt = 0.25 * (2.0 / 0.05f64);
        let steps = 100;
        for _ in 0..steps {
            net.euler_step(dt);
        }
        let injected = 1.0 * dt * steps as f64; // joules
        let stored = 2.0 * (net.temperature(a).as_celsius() - 45.0)
            + 2.0 * (net.temperature(b).as_celsius() - 45.0);
        assert!((stored - injected).abs() / injected < 1e-9);
    }

    #[test]
    fn set_temperature_and_reset() {
        let (mut net, a, b) = two_node_network();
        net.set_temperature(a, Celsius::new(80.0)).unwrap();
        assert_eq!(net.temperature(a).as_celsius(), 80.0);
        net.set_power(b, 2.0).unwrap();
        net.reset();
        assert_eq!(net.temperature(a).as_celsius(), 45.0);
        assert_eq!(net.power(b), 0.0);
        assert_eq!(net.temperatures().len(), 2);
    }

    #[test]
    fn cooling_decays_towards_ambient() {
        let (mut net, a, _) = two_node_network();
        net.set_temperature(a, Celsius::new(90.0)).unwrap();
        let t_start = net.temperature(a).as_celsius();
        let dt = 0.5 * net.max_stable_step();
        for _ in 0..2_000 {
            net.euler_step(dt);
        }
        let t_end = net.temperature(a).as_celsius();
        assert!(t_end < t_start);
        assert!(t_end >= 45.0 - 1e-6);
    }
}
