//! Bridge from storm plans to graph-shaped job bodies.
//!
//! [`grain_sim::storm`] describes *who submits what, when* — including,
//! per tenant, a [`GraphFamily`]. This module turns a planned event's
//! `(family, tasks, grain)` into a concrete [`GraphSpec`] (and a
//! ready-to-submit job body), so a storm replayed against the service
//! (the storm property test in `tests/properties.rs`) runs heterogeneous
//! DAG shapes instead of flat spawn loops.
//!
//! Shapes are deterministic functions of `(family, tasks, seed)`: no
//! randomness is consumed beyond the graph seed itself, so a storm
//! replay re-submits bit-identical job bodies.

use crate::exec_local::spawn_range;
use crate::graph::{GraphKind, GraphSpec, TaskGraph};
use grain_runtime::TaskContext;
use grain_sim::storm::GraphFamily;
use std::sync::Arc;

/// Map a storm family at a task budget onto a concrete graph kind.
/// Returns `None` for [`GraphFamily::Flat`] — the caller keeps the
/// legacy root-spawns-children shape for that one.
pub fn kind_for_family(family: GraphFamily, tasks: u64) -> Option<GraphKind> {
    let tasks = tasks.max(2) as usize;
    let side = (tasks as f64).sqrt().ceil() as usize;
    let steps = tasks.div_ceil(side).saturating_sub(1);
    match family {
        GraphFamily::Flat => None,
        GraphFamily::Stencil => Some(GraphKind::Stencil1d { width: side, steps }),
        GraphFamily::Butterfly => {
            let mut bw = 2usize;
            while bw * 2 * (bw.trailing_zeros() as usize + 2) <= tasks && bw < 1 << 16 {
                bw *= 2;
            }
            Some(GraphKind::Butterfly { width: bw })
        }
        GraphFamily::Tree => Some(GraphKind::TreeReduce {
            leaves: (tasks / 2).max(1),
            fanout: 2,
        }),
        GraphFamily::RandomDag => Some(GraphKind::RandomDag {
            width: side,
            steps,
            max_deps: 3,
        }),
        GraphFamily::Sweep => Some(GraphKind::Sweep { width: side, steps }),
    }
}

/// The graph a storm event's job body executes: family shape at the
/// event's task budget, grain in busy-work iterations, seeded from the
/// storm seed and the event's identity.
pub fn spec_for_event(
    family: GraphFamily,
    tasks: u64,
    grain_iters: u64,
    payload_bytes: u32,
    seed: u64,
) -> Option<GraphSpec> {
    kind_for_family(family, tasks).map(|kind| {
        GraphSpec::shape(kind, seed)
            .grain(grain_iters)
            .payload(payload_bytes)
    })
}

/// Spawn `graph` inside a job's root task: the whole dataflow joins the
/// job's group, so cancellation, deadline budgets, and per-job counters
/// all apply. The checksum is discarded — storm jobs are load, not
/// queries.
pub fn spawn_in_job(ctx: &TaskContext<'_>, graph: &Arc<TaskGraph>) {
    let _ = spawn_range(ctx, graph, 0..graph.len() as u32, |e| {
        unreachable!("full-range spawn has no ghost edges: {e:?}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_runtime::Runtime;

    #[test]
    fn every_family_maps_to_a_kind_except_flat() {
        for family in [
            GraphFamily::Stencil,
            GraphFamily::Butterfly,
            GraphFamily::Tree,
            GraphFamily::RandomDag,
            GraphFamily::Sweep,
        ] {
            let kind = kind_for_family(family, 24).expect("non-flat family maps");
            let g = GraphSpec::shape(kind, 1).build();
            assert!(!g.is_empty(), "{family:?}");
        }
        assert!(kind_for_family(GraphFamily::Flat, 24).is_none());
    }

    #[test]
    fn specs_are_deterministic_in_their_inputs() {
        let a = spec_for_event(GraphFamily::RandomDag, 30, 100, 64, 7).expect("maps");
        let b = spec_for_event(GraphFamily::RandomDag, 30, 100, 64, 7).expect("maps");
        assert_eq!(a, b);
        assert_eq!(a.build().fingerprint(), b.build().fingerprint());
    }

    #[test]
    fn node_budget_stays_close_to_the_event_tasks() {
        for family in [GraphFamily::Stencil, GraphFamily::Tree, GraphFamily::Sweep] {
            for tasks in [2u64, 8, 50, 300] {
                let spec = spec_for_event(family, tasks, 1, 0, 3).expect("maps");
                let n = spec.build().len() as u64;
                assert!(n <= tasks * 3 + 4, "{family:?} at {tasks} built {n} nodes");
            }
        }
    }

    #[test]
    fn spawn_in_job_runs_the_graph_under_a_group() {
        let rt = Runtime::with_workers(2);
        let group = grain_runtime::TaskGroup::new();
        let graph = Arc::new(
            spec_for_event(GraphFamily::Butterfly, 16, 10, 8, 11)
                .expect("maps")
                .build(),
        );
        let g2 = Arc::clone(&graph);
        rt.spawn_in(&group, grain_runtime::Priority::Normal, move |ctx| {
            spawn_in_job(ctx, &g2);
        });
        group.wait();
        assert_eq!(group.completed(), graph.len() as u64 + 1, "root + nodes");
    }
}
