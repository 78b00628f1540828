//! Work shapes: what a tenant submits *instead of* a partition.
//!
//! A [`ShapedWork`] describes a job's total work in tuner units
//! (busy-work iterations) together with a chunkable body; the tenant's
//! tuner picks the grain — units per task — and
//! [`ShapedWork::expand`] turns the pair into a concrete task count and
//! a ready-to-submit job body. The expansion is a pure function of
//! `(shape, grain)`: re-expanding the same shape at the same grain
//! yields a bit-identical job (same graph fingerprint, same task
//! seeds), which is what makes the `enabled=false` regression test —
//! and storm replays — exact.

use grain_counters::rng::splitmix64;
use grain_runtime::TaskContext;
use grain_sim::storm::GraphFamily;
use grain_taskbench::storm::{spawn_in_job, spec_for_event};
use grain_taskbench::work::busy_work;
use grain_taskbench::{Cov, GraphSpec, TaskGraph};
use std::sync::Arc;

/// The root closure type of an expanded job (matches
/// [`grain_service::JobSpec`] submission).
pub type ShapedBody = Box<dyn FnMut(&mut TaskContext<'_>) + Send>;

/// A chunkable description of one job's work. All variants measure
/// work in **busy-work iterations** (the tuner's unit; CPU time is
/// linear in it, see [`grain_taskbench::work::busy_work`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapedWork {
    /// `elements` independent elements of `iters_per_element` each —
    /// the `parallel_for` shape. A grain of `g` chunks the index space
    /// into `ceil(elements·iters_per_element / g)` contiguous block
    /// tasks.
    ParallelFor {
        /// Independent elements.
        elements: u64,
        /// Busy-work iterations each element costs.
        iters_per_element: u64,
        /// Seed for the per-chunk busy-work streams.
        seed: u64,
    },
    /// A 1-D stencil of `cells` cells stepped `steps` times — the
    /// paper's application. The grain picks the *partition*: chunk
    /// `ceil(g / iters_per_cell)` cells per lane, so each node of the
    /// resulting [`GraphSpec`] stencil graph runs ≈`g` iterations.
    Stencil {
        /// Grid cells.
        cells: u64,
        /// Time steps beyond the initial level.
        steps: u32,
        /// Busy-work iterations per cell per step.
        iters_per_cell: u64,
        /// Graph seed.
        seed: u64,
    },
    /// A taskbench dependency graph of `family` shape carrying
    /// `total_iters` of busy-work. The grain picks `grain_iters` per
    /// node and the node budget `ceil(total_iters / g)` together, via
    /// [`grain_taskbench::storm::spec_for_event`].
    Graph {
        /// Storm graph family ([`GraphFamily::Flat`] expands to a flat
        /// spawn loop, like the legacy storm bodies).
        family: GraphFamily,
        /// Total busy-work iterations across the whole graph.
        total_iters: u64,
        /// Bytes per dependency edge.
        payload_bytes: u32,
        /// Graph seed.
        seed: u64,
        /// Per-node duration dispersion ([`Cov::Uniform`] for equal
        /// grains). Graph-backed families scatter each node's iteration
        /// count around the tenant's grain, so the tuner tunes
        /// a *mean*, not a constant; the flat family ignores it.
        cov: Cov,
    },
}

/// A shape expanded at a concrete grain: the task count the service
/// should budget for, the graph it will run (when graph-shaped), and
/// the root body to submit.
pub struct ExpandedJob {
    /// Tasks the job will spawn (excluding the root).
    pub tasks: u64,
    /// The built graph for graph-backed shapes (`None` for flat
    /// chunked loops). Exposed so tests can fingerprint the expansion.
    pub graph: Option<Arc<TaskGraph>>,
    /// The job's root closure.
    pub body: ShapedBody,
}

impl ShapedWork {
    /// Total work units (busy-work iterations) this shape covers.
    pub fn units(&self) -> u64 {
        match *self {
            ShapedWork::ParallelFor {
                elements,
                iters_per_element,
                ..
            } => elements.saturating_mul(iters_per_element).max(1),
            ShapedWork::Stencil {
                cells,
                steps,
                iters_per_cell,
                ..
            } => cells
                .saturating_mul(u64::from(steps) + 1)
                .saturating_mul(iters_per_cell)
                .max(1),
            ShapedWork::Graph { total_iters, .. } => total_iters.max(1),
        }
    }

    /// Expand the shape at `grain` work units per task. Pure: equal
    /// `(shape, grain)` pairs expand to bit-identical jobs.
    pub fn expand(&self, grain: u64) -> ExpandedJob {
        let grain = grain.max(1);
        match *self {
            ShapedWork::ParallelFor {
                elements,
                iters_per_element,
                seed,
            } => {
                let units = self.units();
                let tasks = units.div_ceil(grain).max(1);
                // Chunk the *element* space evenly across the task
                // count the grain asked for; each task spins for its
                // chunk's total iteration budget in one go.
                let tasks = tasks.min(elements.max(1));
                let per_chunk = elements.max(1).div_ceil(tasks);
                let body: ShapedBody = Box::new(move |ctx| {
                    for t in 0..tasks {
                        let first = t * per_chunk;
                        let len = per_chunk.min(elements.max(1) - first.min(elements.max(1)));
                        if len == 0 {
                            continue;
                        }
                        let iters = len * iters_per_element;
                        let task_seed = splitmix64(seed ^ (t << 1) ^ 0x9a5a_11e1);
                        ctx.spawn(move |_| {
                            std::hint::black_box(busy_work(task_seed, iters));
                        });
                    }
                });
                ExpandedJob {
                    tasks,
                    graph: None,
                    body,
                }
            }
            ShapedWork::Stencil {
                cells,
                steps,
                iters_per_cell,
                seed,
            } => {
                let cells = cells.max(1);
                let iters_per_cell = iters_per_cell.max(1);
                // Cells per lane so one node costs ≈ grain iterations.
                let chunk = (grain / iters_per_cell).clamp(1, cells);
                let width = cells.div_ceil(chunk) as usize;
                let spec = GraphSpec::shape(
                    grain_taskbench::GraphKind::Stencil1d {
                        width,
                        steps: steps as usize,
                    },
                    seed,
                )
                .grain(chunk * iters_per_cell);
                Self::graph_job(spec)
            }
            ShapedWork::Graph {
                family,
                total_iters,
                payload_bytes,
                seed,
                cov,
            } => {
                let total = total_iters.max(1);
                let tasks = total.div_ceil(grain).max(2);
                match spec_for_event(family, tasks, grain, payload_bytes, seed) {
                    Some(spec) => Self::graph_job(spec.cov(cov)),
                    None => {
                        // Flat family: the legacy root-spawns-children
                        // storm body, chunked at the grain.
                        let body: ShapedBody = Box::new(move |ctx| {
                            for t in 0..tasks {
                                let task_seed = splitmix64(seed ^ (t << 1) ^ 0xf1a7);
                                ctx.spawn(move |_| {
                                    std::hint::black_box(busy_work(task_seed, grain));
                                });
                            }
                        });
                        ExpandedJob {
                            tasks,
                            graph: None,
                            body,
                        }
                    }
                }
            }
        }
    }

    fn graph_job(spec: GraphSpec) -> ExpandedJob {
        let graph = Arc::new(spec.build());
        let tasks = graph.len() as u64;
        let job_graph = Arc::clone(&graph);
        let body: ShapedBody = Box::new(move |ctx| {
            spawn_in_job(ctx, &job_graph);
        });
        ExpandedJob {
            tasks,
            graph: Some(graph),
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_per_grain() {
        let shape = ShapedWork::Graph {
            family: GraphFamily::Stencil,
            total_iters: 100_000,
            payload_bytes: 32,
            seed: 9,
            cov: Cov::Uniform,
        };
        let a = shape.expand(500);
        let b = shape.expand(500);
        let (ga, gb) = (a.graph.expect("graph shape"), b.graph.expect("graph shape"));
        assert_eq!(ga.fingerprint(), gb.fingerprint());
        assert_eq!(a.tasks, b.tasks);
        // A different grain is a different partition.
        let c = shape.expand(5_000);
        assert_ne!(
            ga.fingerprint(),
            c.graph.expect("graph shape").fingerprint()
        );
        assert!(c.tasks < a.tasks, "coarser grain, fewer tasks");
    }

    #[test]
    fn parallel_for_covers_all_elements_at_any_grain() {
        let shape = ShapedWork::ParallelFor {
            elements: 1000,
            iters_per_element: 10,
            seed: 4,
        };
        assert_eq!(shape.units(), 10_000);
        for grain in [1, 7, 10, 100, 10_000, 1 << 40] {
            let e = shape.expand(grain);
            assert!(e.tasks >= 1);
            assert!(e.tasks <= 1000, "never more tasks than elements");
        }
        // grain == units → one task; grain == 10 → one per element.
        assert_eq!(shape.expand(10_000).tasks, 1);
        assert_eq!(shape.expand(10).tasks, 1000);
    }

    #[test]
    fn stencil_partition_follows_the_grain() {
        let shape = ShapedWork::Stencil {
            cells: 1_000,
            steps: 4,
            iters_per_cell: 10,
            seed: 2,
        };
        let fine = shape.expand(10); // 1 cell per lane
        let coarse = shape.expand(10_000); // 1000 cells per lane
        let (gf, gc) = (
            fine.graph.expect("graph shape"),
            coarse.graph.expect("graph shape"),
        );
        assert_eq!(gf.width_bound(), 1000);
        assert_eq!(gc.width_bound(), 1);
        assert!(fine.tasks > coarse.tasks);
    }

    #[test]
    fn flat_family_expands_without_a_graph() {
        let shape = ShapedWork::Graph {
            family: GraphFamily::Flat,
            total_iters: 1_000,
            payload_bytes: 0,
            seed: 1,
            cov: Cov::Uniform,
        };
        let e = shape.expand(100);
        assert!(e.graph.is_none());
        assert_eq!(e.tasks, 10);
    }
}
