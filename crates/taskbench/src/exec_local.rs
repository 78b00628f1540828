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

use crate::graph::{Edge, TaskGraph};
use crate::work;
use grain_runtime::{when_all, Runtime, SharedFuture, TaskContext, TaskError};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

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

/// Inputs whose kinds a node keeps inline; every `Stencil1d` node has at
/// most three.
const INLINE_KINDS: usize = 4;

/// A node's input kinds, in input order: in the task's closure for up to
/// [`INLINE_KINDS`] inputs, on the heap beyond.
enum Kinds {
    Inline(usize, [DepKind; INLINE_KINDS]),
    Heap(Vec<DepKind>),
}

impl Kinds {
    fn of(kinds: impl ExactSizeIterator<Item = DepKind>) -> Self {
        if kinds.len() > INLINE_KINDS {
            return Self::Heap(kinds.collect());
        }
        let mut inline = [DepKind::Contrib; INLINE_KINDS];
        let len = kinds.len();
        for (slot, kind) in inline.iter_mut().zip(kinds) {
            *slot = kind;
        }
        Self::Inline(len, inline)
    }

    fn as_slice(&self) -> &[DepKind] {
        match self {
            Self::Inline(len, kinds) => &kinds[..*len],
            Self::Heap(kinds) => kinds,
        }
    }
}

/// Anything that can spawn taskbench node tasks: the runtime itself, or
/// a job's [`TaskContext`] (children then join the job's group).
pub trait Spawner {
    /// Spawn a source task (no dependencies).
    fn spawn_source(&self, f: impl FnOnce() -> u64 + Send + 'static) -> SharedFuture<u64>;
    /// Spawn a dependent task via dataflow.
    fn spawn_dataflow<'a>(
        &self,
        deps: impl IntoIterator<Item = &'a SharedFuture<u64>>,
        f: impl FnOnce(Vec<Arc<u64>>) -> u64 + Send + 'static,
    ) -> SharedFuture<u64>;
}

impl Spawner for Runtime {
    fn spawn_source(&self, f: impl FnOnce() -> u64 + Send + 'static) -> SharedFuture<u64> {
        self.async_call(move |_| f())
    }

    fn spawn_dataflow<'a>(
        &self,
        deps: impl IntoIterator<Item = &'a SharedFuture<u64>>,
        f: impl FnOnce(Vec<Arc<u64>>) -> u64 + Send + 'static,
    ) -> SharedFuture<u64> {
        self.dataflow(deps, move |_, vals| f(vals))
    }
}

impl Spawner for TaskContext<'_> {
    fn spawn_source(&self, f: impl FnOnce() -> u64 + Send + 'static) -> SharedFuture<u64> {
        self.async_call(move |_| f())
    }

    fn spawn_dataflow<'a>(
        &self,
        deps: impl IntoIterator<Item = &'a SharedFuture<u64>>,
        f: impl FnOnce(Vec<Arc<u64>>) -> u64 + Send + 'static,
    ) -> SharedFuture<u64> {
        self.dataflow(deps, move |_, vals| f(vals))
    }
}

/// Spawn the node tasks of `range` (a contiguous id block) through
/// `spawner`. Predecessors inside the range resolve to the just-spawned
/// futures; predecessors outside it are resolved by `ghost`, which must
/// return a future of the edge's **contribution** (folded payload).
/// Every ghost is made before the first node is spawned, so each node
/// borrows its inputs, local or ghost, and the runtime clones each once.
/// Returns the value futures of the range's nodes, in id order.
pub(crate) fn spawn_range<S: Spawner>(
    spawner: &S,
    graph: &TaskGraph,
    range: Range<u32>,
    ghost: impl FnMut(&Edge) -> SharedFuture<u64>,
) -> Vec<SharedFuture<u64>> {
    let spec = graph.spec;
    let local = |e: &Edge| range.contains(&e.src);
    let ghosts: Vec<SharedFuture<u64>> = range
        .clone()
        .flat_map(|id| graph.preds(id))
        .filter(|e| !local(e))
        .map(ghost)
        .collect();
    let mut ghosts = ghosts.iter();
    let mut futs: Vec<SharedFuture<u64>> = Vec::with_capacity(range.len());
    for id in range.clone() {
        let preds = graph.preds(id);
        let seed = work::node_seed(spec.seed, id);
        let iters = spec.node_iters(id);
        if preds.is_empty() {
            futs.push(spawner.spawn_source(move || work::node_value(seed, iters, [])));
            continue;
        }
        let kinds = Kinds::of(preds.iter().map(|e| {
            if local(e) {
                DepKind::Value {
                    salt: work::edge_salt(spec.seed, e.src, e.dst),
                    len: e.payload,
                }
            } else {
                DepKind::Contrib
            }
        }));
        let deps = preds.iter().map(|e| {
            if local(e) {
                &futs[(e.src - range.start) as usize]
            } else {
                ghosts.next().expect("one ghost per remote edge")
            }
        });
        let fut = spawner.spawn_dataflow(deps, move |vals| {
            let contribs = vals.iter().zip(kinds.as_slice()).map(|(v, k)| match *k {
                DepKind::Value { salt, len } => work::contrib_from_value(**v, salt, len),
                DepKind::Contrib => **v,
            });
            work::node_value(seed, iters, contribs)
        });
        futs.push(fut);
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
