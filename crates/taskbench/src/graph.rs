//! The dependency-graph generator: five parameterized workload families
//! behind one immutable [`TaskGraph`] description.
//!
//! A [`GraphSpec`] is (family × task-grain × communication volume ×
//! seed); [`GraphSpec::build`] expands it into an explicit node/edge
//! list. Generation is **deterministic**: equal specs produce
//! bit-identical graphs (node vector, edge vector, per-edge payload
//! sizes), which the property suite sweeps over every family.
//!
//! Structural invariants, relied on by every executor:
//!
//! * **Node ids are a topological order**: every edge satisfies
//!   `src < dst`, so graphs are acyclic by construction and executors
//!   may build futures in id order without a sort.
//! * **Nodes are leveled**: node `(step, lane)` lives at `step`, edges
//!   only go from `step − 1` to `step` (except the sweep family, which
//!   has per-lane chains and no cross-lane edges at all).
//! * **Width-bounded**: no level ever holds more than
//!   [`TaskGraph::width_bound`] nodes.
//! * **Predecessors are sorted** by ascending source id
//!   ([`TaskGraph::preds`] returns them in edge-array order, which the
//!   builder keeps sorted), so the contribution fold order of
//!   [`crate::work::node_value`] is executor-independent.

use crate::work;
use grain_counters::rng::{fnv1a, splitmix64, Pcg32, FNV1A_OFFSET};
use grain_sim::SimWorkload;

/// The graph family and its shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// 1-D stencil with halo exchange: `width` lanes × `steps` levels;
    /// node `(s, l)` depends on `(s−1, l−1)`, `(s−1, l)`, `(s−1, l+1)`
    /// clamped at the boundary — the paper's application, generalized.
    Stencil1d {
        /// Lanes (partitions).
        width: usize,
        /// Time steps beyond the initial level.
        steps: usize,
    },
    /// FFT butterfly: `width` (rounded up to a power of two) lanes,
    /// `log2(width)` levels; node `(s, l)` depends on `(s−1, l)` and
    /// `(s−1, l ⊕ 2^(s−1))`.
    Butterfly {
        /// Lanes; rounded up to the next power of two, minimum 2.
        width: usize,
    },
    /// Tree reduce-then-broadcast: `leaves` leaves folded `fanout`-ary
    /// to a root, then mirrored back out to `leaves` sinks.
    TreeReduce {
        /// Leaf count, minimum 1.
        leaves: usize,
        /// Reduction arity, minimum 2.
        fanout: usize,
    },
    /// Seeded random DAG: `width` lanes × `steps` levels; each node
    /// draws `1..=max_deps` distinct predecessors from the previous
    /// level, and its edge payloads jitter around the configured volume.
    RandomDag {
        /// Lanes.
        width: usize,
        /// Levels beyond the first.
        steps: usize,
        /// Max predecessors per node (clamped to the level width).
        max_deps: usize,
    },
    /// Embarrassingly-parallel sweep: `width` independent lanes, each a
    /// chain of `steps + 1` nodes — no cross-lane edges.
    Sweep {
        /// Independent lanes.
        width: usize,
        /// Chain length beyond the first node.
        steps: usize,
    },
}

impl GraphKind {
    /// Short stable name, used in reports and JSON snapshots.
    pub fn name(&self) -> &'static str {
        match self {
            GraphKind::Stencil1d { .. } => "stencil",
            GraphKind::Butterfly { .. } => "butterfly",
            GraphKind::TreeReduce { .. } => "tree",
            GraphKind::RandomDag { .. } => "random-dag",
            GraphKind::Sweep { .. } => "sweep",
        }
    }
}

/// Per-node task-duration dispersion (the COV knob): how each node's
/// busy-work iteration count is derived from [`GraphSpec::grain_iters`].
///
/// The multiplier for node `id` is a **pure function** of
/// `(seed, id, cov)` — no RNG stream is consumed, so adding dispersion
/// never perturbs graph structure, edge payloads, or any other seeded
/// stream. `Uniform` reproduces the legacy behavior bit-for-bit
/// (every node runs exactly `grain_iters`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cov {
    /// Every node runs exactly `grain_iters` (legacy behavior).
    #[default]
    Uniform,
    /// Mean-preserving lognormal multiplier with coefficient of
    /// variation `cov_centi / 100` (e.g. `150` ⇒ COV ≈ 1.5). Node
    /// durations spread continuously while the expected total work
    /// stays `nodes × grain_iters`.
    Lognormal {
        /// Coefficient of variation in hundredths (0 degenerates to
        /// `Uniform`).
        cov_centi: u32,
    },
    /// Two-point distribution: `heavy_pct` percent of nodes run
    /// `grain_iters × ratio`, the rest run `grain_iters` — the
    /// straggler-task shape (a few long poles amid uniform work).
    Bimodal {
        /// Percent of nodes that are heavy, clamped to 0..=100.
        heavy_pct: u32,
        /// Iteration multiplier for heavy nodes (≥ 1).
        ratio: u32,
    },
}

impl Cov {
    /// Short stable name for reports and JSON snapshots.
    pub fn name(&self) -> &'static str {
        match self {
            Cov::Uniform => "uniform",
            Cov::Lognormal { .. } => "lognormal",
            Cov::Bimodal { .. } => "bimodal",
        }
    }
}

/// A full workload point: family × grain × communication volume × seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphSpec {
    /// Graph family and shape.
    pub kind: GraphKind,
    /// Busy-work iterations per task (the task-grain knob; CPU time is
    /// linear in it, see [`crate::work::busy_work`]). With
    /// a non-uniform [`Self::cov`], this is the *nominal* grain each
    /// node's multiplier applies to — see [`Self::node_iters`].
    pub grain_iters: u64,
    /// Bytes carried per dependency edge (the communication-volume
    /// knob). The random-DAG family jitters per edge around this value.
    pub payload_bytes: u32,
    /// Generator seed. Equal seeds ⇒ bit-identical graphs.
    pub seed: u64,
    /// Per-node duration dispersion around `grain_iters`.
    pub cov: Cov,
}

impl GraphSpec {
    /// A spec with grain/volume knobs at zero — shape only.
    pub fn shape(kind: GraphKind, seed: u64) -> Self {
        Self {
            kind,
            grain_iters: 0,
            payload_bytes: 0,
            seed,
            cov: Cov::Uniform,
        }
    }

    /// Set the busy-work iteration count per task.
    pub fn grain(mut self, iters: u64) -> Self {
        self.grain_iters = iters;
        self
    }

    /// Set the per-edge payload volume in bytes.
    pub fn payload(mut self, bytes: u32) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// Set the per-node duration dispersion.
    pub fn cov(mut self, cov: Cov) -> Self {
        self.cov = cov;
        self
    }

    /// The busy-work iteration count of node `id`: `grain_iters` scaled
    /// by the node's [`Cov`] multiplier. A pure function of
    /// `(seed, id, grain_iters, cov)`; with `Cov::Uniform` it is
    /// exactly `grain_iters` for every node.
    pub fn node_iters(&self, id: u32) -> u64 {
        match self.cov {
            Cov::Uniform => self.grain_iters,
            Cov::Lognormal { cov_centi } => {
                if cov_centi == 0 || self.grain_iters == 0 {
                    return self.grain_iters;
                }
                // Two per-node uniforms from the hash lattice (no RNG
                // stream consumed), Box-Muller to a standard normal,
                // then a mean-preserving lognormal: for X = exp(σZ − σ²/2),
                // E[X] = 1 and COV(X) = sqrt(exp(σ²) − 1).
                let h1 = splitmix64(self.seed ^ (u64::from(id) << 32) ^ 0xc0ff_ee00_0000_0001);
                let h2 = splitmix64(self.seed ^ (u64::from(id) << 32) ^ 0xc0ff_ee00_0000_0002);
                let u1 = ((h1 >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
                let u2 = (h2 >> 11) as f64 / (1u64 << 53) as f64;
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let cov = f64::from(cov_centi) / 100.0;
                let sigma2 = (1.0 + cov * cov).ln();
                let mult = (sigma2.sqrt() * z - sigma2 / 2.0).exp();
                ((self.grain_iters as f64 * mult).round() as u64).max(1)
            }
            Cov::Bimodal { heavy_pct, ratio } => {
                let heavy_pct = heavy_pct.min(100);
                let h = splitmix64(self.seed ^ (u64::from(id) << 32) ^ 0xb1b0_da1f_0000_0003);
                if (h % 100) < u64::from(heavy_pct) {
                    self.grain_iters.saturating_mul(u64::from(ratio.max(1)))
                } else {
                    self.grain_iters
                }
            }
        }
    }

    /// Expand the spec into an explicit graph.
    pub fn build(&self) -> TaskGraph {
        let mut b = Builder::new(*self);
        match self.kind {
            GraphKind::Stencil1d { width, steps } => b.stencil(width.max(1), steps),
            GraphKind::Butterfly { width } => b.butterfly(width),
            GraphKind::TreeReduce { leaves, fanout } => b.tree(leaves.max(1), fanout.max(2)),
            GraphKind::RandomDag {
                width,
                steps,
                max_deps,
            } => b.random_dag(width.max(1), steps, max_deps.max(1)),
            GraphKind::Sweep { width, steps } => b.sweep(width.max(1), steps),
        }
        b.finish()
    }
}

/// One task in the graph. Ids are implicit: `nodes[i]` has id `i`, and
/// ids ascend in topological (level) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Level (0-based). Edges only arrive from `step − 1`.
    pub step: u32,
    /// Position within the level.
    lane: u32,
}

/// One dependency edge, carrying `payload` bytes from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producing node id (always `< dst`).
    pub src: u32,
    /// Consuming node id.
    pub dst: u32,
    /// Payload volume on this edge, bytes.
    pub payload: u32,
}

/// An immutable, explicitly materialized dependency graph. All three
/// executors and the simulator ([`TaskGraph::sim_workload`]) consume
/// this one description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskGraph {
    /// The spec this graph was built from.
    pub spec: GraphSpec,
    /// Nodes in topological (level) order; index = id.
    pub nodes: Vec<Node>,
    /// Edges sorted by `(dst, src)`.
    pub edges: Vec<Edge>,
    /// Predecessor index: edges of node `i` are
    /// `edges[pred_index[i] .. pred_index[i + 1]]`.
    pred_index: Vec<u32>,
}

impl TaskGraph {
    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The incoming edges of `node`, sorted by ascending source id.
    pub fn preds(&self, node: u32) -> &[Edge] {
        let lo = self.pred_index[node as usize] as usize;
        let hi = self.pred_index[node as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// The declared upper bound on any level's node count.
    pub fn width_bound(&self) -> usize {
        match self.spec.kind {
            GraphKind::Stencil1d { width, .. }
            | GraphKind::RandomDag { width, .. }
            | GraphKind::Sweep { width, .. } => width.max(1),
            GraphKind::Butterfly { width } => width.max(2).next_power_of_two(),
            GraphKind::TreeReduce { leaves, .. } => leaves.max(1),
        }
    }

    /// The widest level actually generated.
    pub fn max_level_width(&self) -> usize {
        let mut widths: Vec<usize> = Vec::new();
        for n in &self.nodes {
            let s = n.step as usize;
            if widths.len() <= s {
                widths.resize(s + 1, 0);
            }
            widths[s] += 1;
        }
        widths.into_iter().max().unwrap_or(0)
    }

    /// The simulator's input for this graph: node `i` is task `i`, its
    /// [`GraphSpec::node_iters`] are the task's points, and the sources of
    /// its [`Self::preds`] are its dependencies. Ids are a topological
    /// order, so the workload always validates.
    pub fn sim_workload(&self) -> SimWorkload {
        let mut wl = SimWorkload::new();
        for i in 0..self.len() as u32 {
            let deps = self.preds(i).iter().map(|e| e.src).collect();
            wl.push(self.spec.node_iters(i), deps);
        }
        wl
    }

    /// FNV-1a fingerprint over the spec, nodes and edges — two graphs
    /// are bit-identical iff their fingerprints match (used by the
    /// determinism property sweep).
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        let mut fold = |x: u64| h = fnv1a(h, &x.to_le_bytes());
        fold(self.spec.grain_iters);
        fold(u64::from(self.spec.payload_bytes));
        fold(self.spec.seed);
        // Folded only when non-uniform, so every fingerprint recorded
        // before the COV axis existed stays valid.
        match self.spec.cov {
            Cov::Uniform => {}
            Cov::Lognormal { cov_centi } => {
                fold(1);
                fold(u64::from(cov_centi));
            }
            Cov::Bimodal { heavy_pct, ratio } => {
                fold(2);
                fold(u64::from(heavy_pct) << 32 | u64::from(ratio));
            }
        }
        for n in &self.nodes {
            fold(u64::from(n.step) << 32 | u64::from(n.lane));
        }
        for e in &self.edges {
            fold(u64::from(e.src) << 32 | u64::from(e.dst));
            fold(u64::from(e.payload));
        }
        h
    }

    /// Sequential reference evaluation: node values in id order, folded
    /// into the graph checksum. Every executor must reproduce exactly
    /// this number.
    pub fn checksum_reference(&self) -> u64 {
        let spec = self.spec;
        let mut values: Vec<u64> = Vec::with_capacity(self.len());
        let mut checksum = 0u64;
        for id in 0..self.len() as u32 {
            let contribs: Vec<u64> = self
                .preds(id)
                .iter()
                .map(|e| {
                    work::contrib_from_value(
                        values[e.src as usize],
                        work::edge_salt(spec.seed, e.src, e.dst),
                        e.payload,
                    )
                })
                .collect();
            let v = work::node_value(
                work::node_seed(spec.seed, id),
                spec.node_iters(id),
                contribs,
            );
            checksum = checksum.wrapping_add(work::checksum_term(id, v));
            values.push(v);
        }
        checksum
    }
}

/// Incremental level-ordered graph builder.
struct Builder {
    spec: GraphSpec,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl Builder {
    fn new(spec: GraphSpec) -> Self {
        Self {
            spec,
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Append a full level of `width` nodes at `step`; returns the id of
    /// the level's first node.
    fn level(&mut self, step: u32, width: usize) -> u32 {
        let first = self.nodes.len() as u32;
        for lane in 0..width as u32 {
            self.nodes.push(Node { step, lane });
        }
        first
    }

    fn edge(&mut self, src: u32, dst: u32, payload: u32) {
        debug_assert!(src < dst, "edges must point forward: {src} -> {dst}");
        self.edges.push(Edge { src, dst, payload });
    }

    fn stencil(&mut self, width: usize, steps: usize) {
        let p = self.spec.payload_bytes;
        let mut prev = self.level(0, width);
        for s in 1..=steps as u32 {
            let cur = self.level(s, width);
            for l in 0..width {
                let dst = cur + l as u32;
                let lo = l.saturating_sub(1);
                let hi = (l + 1).min(width - 1);
                for n in lo..=hi {
                    self.edge(prev + n as u32, dst, p);
                }
            }
            prev = cur;
        }
    }

    fn butterfly(&mut self, width: usize) {
        let width = width.max(2).next_power_of_two();
        let stages = width.trailing_zeros();
        let p = self.spec.payload_bytes;
        let mut prev = self.level(0, width);
        for s in 1..=stages {
            let cur = self.level(s, width);
            let stride = 1u32 << (s - 1);
            for l in 0..width as u32 {
                let dst = cur + l;
                let partner = l ^ stride;
                let (a, b) = if l < partner {
                    (l, partner)
                } else {
                    (partner, l)
                };
                self.edge(prev + a, dst, p);
                self.edge(prev + b, dst, p);
            }
            prev = cur;
        }
    }

    fn tree(&mut self, leaves: usize, fanout: usize) {
        let p = self.spec.payload_bytes;
        // Reduction: level widths shrink by `fanout` until one node.
        let mut widths = vec![leaves];
        while *widths.last().unwrap_or(&1) > 1 {
            let last = widths[widths.len() - 1];
            widths.push(last.div_ceil(fanout));
        }
        let mut step = 0u32;
        let mut prev = self.level(step, widths[0]);
        let mut prev_width = widths[0];
        for &w in &widths[1..] {
            step += 1;
            let cur = self.level(step, w);
            for l in 0..prev_width {
                self.edge(prev + l as u32, cur + (l / fanout) as u32, p);
            }
            prev = cur;
            prev_width = w;
        }
        // Broadcast: mirror the reduction back out to `leaves` sinks.
        for &w in widths[..widths.len() - 1].iter().rev() {
            step += 1;
            let cur = self.level(step, w);
            for l in 0..w {
                self.edge(prev + (l / fanout) as u32, cur + l as u32, p);
            }
            prev = cur;
            prev_width = w;
        }
        let _ = prev_width;
    }

    fn random_dag(&mut self, width: usize, steps: usize, max_deps: usize) {
        let p = self.spec.payload_bytes;
        let mut rng = Pcg32::seed_from_u64(self.spec.seed ^ 0xdac0_ffee);
        let mut prev = self.level(0, width);
        for s in 1..=steps as u32 {
            let cur = self.level(s, width);
            for l in 0..width as u32 {
                let dst = cur + l;
                let deps = 1 + rng.range_u64(max_deps.min(width) as u64) as usize;
                // Distinct predecessors: draw lanes, dedup via sort.
                let mut srcs: Vec<u32> = (0..deps)
                    .map(|_| prev + rng.range_u64(width as u64) as u32)
                    .collect();
                srcs.sort_unstable();
                srcs.dedup();
                for src in srcs {
                    // Jitter the communication volume around the knob:
                    // payload ∈ [p/2, 3p/2] (exactly p when p = 0).
                    let payload = if p == 0 {
                        0
                    } else {
                        let half = p / 2;
                        half + rng.range_u64(u64::from(p) + 1) as u32
                    };
                    self.edge(src, dst, payload);
                }
            }
            prev = cur;
        }
    }

    fn sweep(&mut self, width: usize, steps: usize) {
        let p = self.spec.payload_bytes;
        let mut prev = self.level(0, width);
        for s in 1..=steps as u32 {
            let cur = self.level(s, width);
            for l in 0..width as u32 {
                self.edge(prev + l, cur + l, p);
            }
            prev = cur;
        }
    }

    fn finish(mut self) -> TaskGraph {
        self.edges.sort_unstable_by_key(|e| (e.dst, e.src));
        let mut pred_index = vec![0u32; self.nodes.len() + 1];
        for e in &self.edges {
            pred_index[e.dst as usize + 1] += 1;
        }
        for i in 1..pred_index.len() {
            pred_index[i] += pred_index[i - 1];
        }
        TaskGraph {
            spec: self.spec,
            nodes: self.nodes,
            edges: self.edges,
            pred_index,
        }
    }
}

/// The five families at a representative shape of roughly `tasks`
/// nodes — the sweep axis used by the taskbench binary and the storm
/// harness. Shapes are deterministic functions of (`kind index`,
/// `tasks`): no RNG is consumed here.
pub fn all_kinds(tasks: usize) -> Vec<GraphKind> {
    let tasks = tasks.max(4);
    let side = (tasks as f64).sqrt().ceil() as usize;
    // Butterfly: the largest power-of-two width whose full butterfly
    // stays at or under the budget.
    let mut bw = 2usize;
    while bw * 2 * (bw.trailing_zeros() as usize + 2) <= tasks && bw < 1 << 20 {
        bw *= 2;
    }
    vec![
        GraphKind::Stencil1d {
            width: side,
            steps: tasks.div_ceil(side).saturating_sub(1),
        },
        GraphKind::Butterfly { width: bw },
        GraphKind::TreeReduce {
            leaves: (tasks / 2).max(1),
            fanout: 2,
        },
        GraphKind::RandomDag {
            width: side,
            steps: tasks.div_ceil(side).saturating_sub(1),
            max_deps: 3,
        },
        GraphKind::Sweep {
            width: side,
            steps: tasks.div_ceil(side).saturating_sub(1),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Level count (max step + 1).
    fn levels(g: &TaskGraph) -> usize {
        g.nodes
            .iter()
            .map(|n| n.step as usize + 1)
            .max()
            .unwrap_or(0)
    }

    fn specs() -> Vec<GraphSpec> {
        all_kinds(64)
            .into_iter()
            .map(|k| GraphSpec::shape(k, 0xbeef).grain(10).payload(16))
            .collect()
    }

    #[test]
    fn every_family_builds_nonempty_leveled_graphs() {
        for spec in specs() {
            let g = spec.build();
            assert!(!g.is_empty(), "{:?}", spec.kind);
            assert!(levels(&g) >= 1);
            for e in &g.edges {
                assert!(e.src < e.dst, "{:?}: edge {e:?}", spec.kind);
                let (s, d) = (g.nodes[e.src as usize], g.nodes[e.dst as usize]);
                assert_eq!(s.step + 1, d.step, "{:?}: non-adjacent levels", spec.kind);
            }
            assert!(g.max_level_width() <= g.width_bound(), "{:?}", spec.kind);
        }
    }

    #[test]
    fn preds_are_sorted_and_indexed_consistently() {
        for spec in specs() {
            let g = spec.build();
            let mut seen = 0;
            for id in 0..g.len() as u32 {
                let preds = g.preds(id);
                seen += preds.len();
                assert!(preds.windows(2).all(|w| w[0].src < w[1].src));
                assert!(preds.iter().all(|e| e.dst == id));
            }
            assert_eq!(seen, g.edges.len());
        }
    }

    #[test]
    fn same_spec_same_graph_and_fingerprint() {
        for spec in specs() {
            let a = spec.build();
            let b = spec.build();
            assert_eq!(a, b);
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn random_dag_seed_changes_edges() {
        let kind = GraphKind::RandomDag {
            width: 8,
            steps: 6,
            max_deps: 3,
        };
        let a = GraphSpec::shape(kind, 1).payload(64).build();
        let b = GraphSpec::shape(kind, 2).payload(64).build();
        assert_ne!(a.edges, b.edges);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn recorded_graph_fingerprint_is_bit_identical() {
        // The digest of one fixture, recorded: a change to the builder's
        // RNG stream or to the fingerprint's fold moves it.
        let kind = GraphKind::RandomDag {
            width: 8,
            steps: 6,
            max_deps: 3,
        };
        let g = GraphSpec::shape(kind, 1)
            .payload(64)
            .cov(Cov::Bimodal {
                heavy_pct: 10,
                ratio: 8,
            })
            .build();
        assert_eq!(g.fingerprint(), 0xD20B_686F_73AC_6EDD);
    }

    #[test]
    fn butterfly_width_rounds_to_power_of_two() {
        let g = GraphSpec::shape(GraphKind::Butterfly { width: 5 }, 0).build();
        assert_eq!(g.width_bound(), 8);
        assert_eq!(levels(&g), 4, "log2(8) stages + initial level");
        // Every non-initial node has exactly two predecessors.
        for id in 0..g.len() as u32 {
            let expect = if g.nodes[id as usize].step == 0 { 0 } else { 2 };
            assert_eq!(g.preds(id).len(), expect);
        }
    }

    #[test]
    fn tree_reduces_then_broadcasts() {
        let g = GraphSpec::shape(
            GraphKind::TreeReduce {
                leaves: 8,
                fanout: 2,
            },
            0,
        )
        .build();
        // Widths: 8 4 2 1 2 4 8.
        let mut widths = vec![0usize; levels(&g)];
        for n in &g.nodes {
            widths[n.step as usize] += 1;
        }
        assert_eq!(widths, vec![8, 4, 2, 1, 2, 4, 8]);
    }

    #[test]
    fn sweep_has_no_cross_lane_edges() {
        let g = GraphSpec::shape(GraphKind::Sweep { width: 5, steps: 4 }, 0).build();
        for e in &g.edges {
            assert_eq!(g.nodes[e.src as usize].lane, g.nodes[e.dst as usize].lane);
        }
    }

    #[test]
    fn checksum_reference_is_stable_and_knob_sensitive() {
        let kind = GraphKind::RandomDag {
            width: 6,
            steps: 5,
            max_deps: 2,
        };
        let base = GraphSpec::shape(kind, 3).grain(50).payload(32);
        assert_eq!(
            base.build().checksum_reference(),
            base.build().checksum_reference()
        );
        assert_ne!(
            base.build().checksum_reference(),
            base.grain(51).build().checksum_reference()
        );
        assert_ne!(
            base.build().checksum_reference(),
            base.payload(33).build().checksum_reference()
        );
    }

    #[test]
    fn uniform_cov_is_bit_identical_to_legacy() {
        for spec in specs() {
            let explicit = spec.cov(Cov::Uniform).build();
            let implicit = spec.build();
            assert_eq!(explicit, implicit);
            assert_eq!(explicit.fingerprint(), implicit.fingerprint());
            assert_eq!(explicit.checksum_reference(), implicit.checksum_reference());
            for id in 0..explicit.len() as u32 {
                assert_eq!(explicit.spec.node_iters(id), spec.grain_iters);
            }
        }
    }

    #[test]
    fn cov_changes_only_durations_not_structure() {
        for spec in specs() {
            let base = spec.build();
            for cov in [
                Cov::Lognormal { cov_centi: 150 },
                Cov::Bimodal {
                    heavy_pct: 10,
                    ratio: 20,
                },
            ] {
                let dispersed = spec.cov(cov).build();
                // Same nodes, same edges, same payload sizes: the COV
                // knob must not consume any generator randomness.
                assert_eq!(base.nodes, dispersed.nodes, "{cov:?}");
                assert_eq!(base.edges, dispersed.edges, "{cov:?}");
                // But fingerprint and checksum both move: different
                // work is a different workload point.
                assert_ne!(base.fingerprint(), dispersed.fingerprint());
                assert_ne!(
                    base.checksum_reference(),
                    dispersed.checksum_reference(),
                    "{cov:?}"
                );
            }
        }
    }

    #[test]
    fn lognormal_node_iters_are_mean_preserving_and_dispersed() {
        let spec = GraphSpec::shape(
            GraphKind::Sweep {
                width: 64,
                steps: 63,
            },
            42,
        )
        .grain(10_000)
        .cov(Cov::Lognormal { cov_centi: 100 });
        let g = spec.build();
        let iters: Vec<u64> = (0..g.len() as u32).map(|id| spec.node_iters(id)).collect();
        let n = iters.len() as f64;
        let mean = iters.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = iters
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        let cov = var.sqrt() / mean;
        // E[mult] = 1 and COV = 1.0 by construction; loose band for the
        // ~4k-sample estimate.
        assert!(
            (0.7..=1.4).contains(&(mean / 10_000.0)),
            "mean {mean} drifted from nominal grain"
        );
        assert!((0.6..=1.6).contains(&cov), "COV {cov} far from target 1.0");
        assert!(iters.iter().any(|&x| x != iters[0]), "no dispersion");
    }

    #[test]
    fn bimodal_node_iters_hit_exactly_two_levels() {
        let spec = GraphSpec::shape(
            GraphKind::Sweep {
                width: 32,
                steps: 31,
            },
            7,
        )
        .grain(1_000)
        .cov(Cov::Bimodal {
            heavy_pct: 10,
            ratio: 50,
        });
        let g = spec.build();
        let mut light = 0usize;
        let mut heavy = 0usize;
        for id in 0..g.len() as u32 {
            match spec.node_iters(id) {
                1_000 => light += 1,
                50_000 => heavy += 1,
                other => panic!("unexpected iteration count {other}"),
            }
        }
        assert!(heavy > 0, "no heavy nodes drawn at 10%");
        assert!(light > heavy, "heavy fraction should stay the minority");
    }

    #[test]
    fn all_kinds_respects_task_budget_roughly() {
        for tasks in [4, 16, 100, 1000] {
            for k in all_kinds(tasks) {
                let g = GraphSpec::shape(k, 0).build();
                assert!(
                    g.len() <= tasks * 3 + 4,
                    "{k:?} at budget {tasks} built {} nodes",
                    g.len()
                );
                assert!(g.len() >= tasks.min(4) / 2, "{k:?} too small: {}", g.len());
            }
        }
    }
}
