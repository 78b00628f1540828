//! Executor (a): the whole graph on one runtime, via `dataflow`/futures.
//!
//! Node `i`'s future depends on the futures of its predecessors exactly
//! as the graph says; the consuming task expands each incoming edge's
//! payload from the producer's settled value and folds it
//! ([`crate::work`]), so the communication-volume knob costs real memory
//! traffic even in-process. The same spawning core
//! ([`spawn_range`]) is reused by the service executor (spawning through
//! a job's [`TaskContext`]) and by the grain-net executor (spawning each
//! locality's node range, with ghost futures for remote edges).

#![deny(clippy::unwrap_used)]

use crate::graph::{Edge, TaskGraph};
use crate::work;
use grain_metrics::{RunMeta, RunRecord};
use grain_runtime::{when_all, Runtime, SharedFuture, TaskContext, TaskError};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Join deadline for a healthy run; hitting it means a real hang.
pub const JOIN_TIMEOUT: Duration = Duration::from_secs(120);

/// How one dependency future should be interpreted by the consumer.
#[derive(Clone, Copy)]
enum DepKind {
    /// The future carries the producer's raw value; expand the edge
    /// payload locally (salt, len) and fold it.
    Value { salt: u64, len: u32 },
    /// The future already carries the folded contribution (a ghost from
    /// a remote locality; the bytes traveled as a parcel).
    Contrib,
}

/// Anything that can spawn taskbench node tasks: the runtime itself, or
/// a job's [`TaskContext`] (children then join the job's group).
pub trait Spawner {
    /// Spawn a source task (no dependencies).
    fn spawn_source(&self, f: impl FnOnce() -> u64 + Send + 'static) -> SharedFuture<u64>;
    /// Spawn a dependent task via dataflow.
    fn spawn_dataflow(
        &self,
        deps: &[SharedFuture<u64>],
        f: impl FnOnce(Vec<Arc<u64>>) -> u64 + Send + 'static,
    ) -> SharedFuture<u64>;
}

impl Spawner for Runtime {
    fn spawn_source(&self, f: impl FnOnce() -> u64 + Send + 'static) -> SharedFuture<u64> {
        self.async_call(move |_| f())
    }

    fn spawn_dataflow(
        &self,
        deps: &[SharedFuture<u64>],
        f: impl FnOnce(Vec<Arc<u64>>) -> u64 + Send + 'static,
    ) -> SharedFuture<u64> {
        self.dataflow(deps, move |_, vals| f(vals))
    }
}

impl Spawner for TaskContext<'_> {
    fn spawn_source(&self, f: impl FnOnce() -> u64 + Send + 'static) -> SharedFuture<u64> {
        self.async_call(move |_| f())
    }

    fn spawn_dataflow(
        &self,
        deps: &[SharedFuture<u64>],
        f: impl FnOnce(Vec<Arc<u64>>) -> u64 + Send + 'static,
    ) -> SharedFuture<u64> {
        self.dataflow(deps, move |_, vals| f(vals))
    }
}

/// Spawn the node tasks of `range` (a contiguous id block) through
/// `spawner`. Predecessors inside the range resolve to the just-spawned
/// futures; predecessors outside it are resolved by `ghost`, which must
/// return a future of the edge's **contribution** (folded payload).
/// Returns the value futures of the range's nodes, in id order.
pub(crate) fn spawn_range<S: Spawner>(
    spawner: &S,
    graph: &TaskGraph,
    range: Range<u32>,
    mut ghost: impl FnMut(&Edge) -> SharedFuture<u64>,
) -> Vec<SharedFuture<u64>> {
    let spec = graph.spec;
    let mut futs: Vec<SharedFuture<u64>> = Vec::with_capacity(range.len());
    // One scratch list for every node's inputs (`spawn_dataflow` copies
    // what it keeps); only `kinds`, which the task owns, is per node.
    let mut deps: Vec<SharedFuture<u64>> = Vec::new();
    for id in range.clone() {
        let preds = graph.preds(id);
        let seed = work::node_seed(spec.seed, id);
        let iters = spec.node_iters(id);
        if preds.is_empty() {
            futs.push(spawner.spawn_source(move || work::node_value(seed, iters, [])));
            continue;
        }
        deps.clear();
        let mut kinds: Vec<DepKind> = Vec::with_capacity(preds.len());
        for e in preds {
            if range.contains(&e.src) {
                deps.push(futs[(e.src - range.start) as usize].clone());
                kinds.push(DepKind::Value {
                    salt: work::edge_salt(spec.seed, e.src, e.dst),
                    len: e.payload,
                });
            } else {
                deps.push(ghost(e));
                kinds.push(DepKind::Contrib);
            }
        }
        futs.push(spawner.spawn_dataflow(&deps, move |vals| {
            let contribs = vals.iter().zip(kinds.iter()).map(|(v, k)| match *k {
                DepKind::Value { salt, len } => work::contrib_from_value(**v, salt, len),
                DepKind::Contrib => **v,
            });
            work::node_value(seed, iters, contribs)
        }));
    }
    futs
}

/// Fold a block of node-value futures into the partial checksum of ids
/// `range`, where `values[i]` belongs to node `range.start + i`.
pub(crate) fn partial_checksum(start: u32, values: &[Arc<u64>]) -> u64 {
    values.iter().enumerate().fold(0u64, |acc, (i, v)| {
        acc.wrapping_add(work::checksum_term(start + i as u32, **v))
    })
}

/// Run the whole graph on `rt` and return its checksum. Blocks the
/// calling (non-worker) thread until the sink settles.
pub fn run_local(rt: &Runtime, graph: &TaskGraph) -> Result<u64, TaskError> {
    let futs = spawn_range(rt, graph, 0..graph.len() as u32, |e| {
        unreachable!("full-range spawn has no ghost edges: {e:?}")
    });
    let all = when_all(&futs);
    let vals = all.wait_timeout(JOIN_TIMEOUT)?;
    Ok(partial_checksum(0, &vals))
}

/// A measured single-runtime run: the checksum plus the paper's raw
/// counter record (Eqs. 1–6 derivable via [`RunRecord`] methods).
#[derive(Debug, Clone)]
pub struct MeasuredRun {
    /// The graph checksum (must equal the reference).
    pub checksum: u64,
    /// Counter record of the measured region.
    pub record: RunRecord,
}

/// Run the graph on `rt` with counters reset at the start of the
/// measured region, and emit the run as a [`RunRecord`]: `nx` carries
/// the grain knob, `np` the width bound, `nt` the level count.
pub fn measure_local(rt: &Runtime, graph: &TaskGraph) -> Result<MeasuredRun, TaskError> {
    rt.wait_idle();
    rt.reset_counters();
    let t0 = Instant::now();
    let checksum = run_local(rt, graph)?;
    rt.wait_idle();
    let wall_s = t0.elapsed().as_secs_f64();
    let meta = RunMeta::workload(
        "host",
        rt.num_workers(),
        graph.spec.grain_iters as usize,
        graph.width_bound(),
        graph.levels(),
    );
    Ok(MeasuredRun {
        checksum,
        record: RunRecord::from_counters(rt, wall_s, meta),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{all_kinds, GraphSpec};

    #[test]
    fn local_matches_reference_for_every_family() {
        let rt = Runtime::with_workers(2);
        for kind in all_kinds(40) {
            let graph = GraphSpec::shape(kind, 0x51de).grain(25).payload(48).build();
            let sum = run_local(&rt, &graph).expect("run settles");
            assert_eq!(sum, graph.checksum_reference(), "{}", kind.name());
        }
    }

    #[test]
    fn measured_run_counts_every_node_as_a_task() {
        let rt = Runtime::with_workers(2);
        let graph = GraphSpec::shape(crate::graph::GraphKind::Stencil1d { width: 6, steps: 5 }, 9)
            .grain(10)
            .build();
        let m = measure_local(&rt, &graph).expect("run settles");
        assert_eq!(m.checksum, graph.checksum_reference());
        assert_eq!(m.record.tasks, graph.len() as u64);
        assert!(m.record.wall_s > 0.0);
        assert!(m.record.sum_func_ns >= m.record.sum_exec_ns);
        assert_eq!(m.record.meta.np, 6);
        assert_eq!(m.record.meta.nt, 6);
    }

    #[test]
    fn dispersed_grains_match_reference_for_every_family() {
        let rt = Runtime::with_workers(2);
        for kind in all_kinds(40) {
            for cov in [
                crate::graph::Cov::Lognormal { cov_centi: 120 },
                crate::graph::Cov::Bimodal {
                    heavy_pct: 15,
                    ratio: 10,
                },
            ] {
                let graph = GraphSpec::shape(kind, 0xd15e)
                    .grain(25)
                    .payload(32)
                    .cov(cov)
                    .build();
                let sum = run_local(&rt, &graph).expect("run settles");
                assert_eq!(
                    sum,
                    graph.checksum_reference(),
                    "{} with {cov:?}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn zero_grain_zero_payload_still_settles() {
        let rt = Runtime::with_workers(1);
        let graph = GraphSpec::shape(
            crate::graph::GraphKind::RandomDag {
                width: 4,
                steps: 4,
                max_deps: 2,
            },
            7,
        )
        .build();
        let sum = run_local(&rt, &graph).expect("run settles");
        assert_eq!(sum, graph.checksum_reference());
    }
}
