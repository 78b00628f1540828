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
use grain_runtime::{when_all, Inputs, Runtime, SharedFuture, TaskContext, TaskError};
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
        f: impl FnOnce(Inputs<'_, u64>) -> u64 + Send + 'static,
    ) -> SharedFuture<u64>;
}

impl Spawner for Runtime {
    fn spawn_source(&self, f: impl FnOnce() -> u64 + Send + 'static) -> SharedFuture<u64> {
        self.async_call(move |_| f())
    }

    fn spawn_dataflow<'a>(
        &self,
        deps: impl IntoIterator<Item = &'a SharedFuture<u64>>,
        f: impl FnOnce(Inputs<'_, u64>) -> u64 + Send + 'static,
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
        f: impl FnOnce(Inputs<'_, u64>) -> u64 + Send + 'static,
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

/// The join of the node futures `futs` of ids `range` (`futs[i]` is node
/// `range.start + i`): the conjunction of its *sinks*, the nodes with no
/// successor inside `range`. Every other node of the range is an
/// ancestor of a sink, so once the sinks are ready every node is, and a
/// fault anywhere in the range faults a sink on its way down.
pub(crate) fn join_sinks(
    graph: &TaskGraph,
    range: Range<u32>,
    futs: &[SharedFuture<u64>],
) -> SharedFuture<Vec<Arc<u64>>> {
    let mut has_successor = vec![false; futs.len()];
    for e in &graph.edges {
        if range.contains(&e.src) && range.contains(&e.dst) {
            has_successor[(e.src - range.start) as usize] = true;
        }
    }
    let sinks: Vec<SharedFuture<u64>> = futs
        .iter()
        .zip(has_successor)
        .filter(|&(_, has)| !has)
        .map(|(f, _)| f.clone())
        .collect();
    when_all(&sinks)
}

/// The partial checksum of the ids from `start` on, folded from the
/// values of `futs` read in place, where `futs[i]` is node `start + i`.
///
/// # Panics
/// Panics if a node is not ready: call it once [`join_sinks`] is.
pub(crate) fn partial_checksum(start: u32, futs: &[SharedFuture<u64>]) -> u64 {
    futs.iter().enumerate().fold(0u64, |acc, (i, f)| {
        let v = f
            .value()
            .expect("every node is an ancestor of a ready sink");
        acc.wrapping_add(work::checksum_term(start + i as u32, **v))
    })
}

/// Run the whole graph on `rt` and return its checksum. Blocks the
/// calling (non-worker) thread until the sinks settle.
pub fn run_local(rt: &Runtime, graph: &TaskGraph) -> Result<u64, TaskError> {
    run_spawned(rt, graph)
}

/// [`run_local`] through any spawner.
fn run_spawned(spawner: &impl Spawner, graph: &TaskGraph) -> Result<u64, TaskError> {
    let range = 0..graph.len() as u32;
    let futs = spawn_range(spawner, graph, range.clone(), |e| {
        unreachable!("full-range spawn has no ghost edges: {e:?}")
    });
    join_sinks(graph, range, &futs).wait_timeout(JOIN_TIMEOUT)?;
    Ok(partial_checksum(0, &futs))
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

    /// The join of the sinks holds back until every node of the graph is
    /// ready, for every family: the checksum read in place then matches
    /// the reference.
    #[test]
    fn the_sinks_join_the_whole_graph_for_every_family() {
        let rt = Runtime::with_workers(2);
        for kind in all_kinds(40) {
            let graph = GraphSpec::shape(kind, 0x5111).grain(10).payload(16).build();
            let range = 0..graph.len() as u32;
            let futs = spawn_range(&rt, &graph, range.clone(), |e| unreachable!("{e:?}"));
            let sinks = join_sinks(&graph, range, &futs).wait_timeout(JOIN_TIMEOUT);
            let sinks = sinks.expect("the sinks settle");
            let is_sink = |id: usize| !graph.edges.iter().any(|e| e.src as usize == id);
            let want = (0..graph.len()).filter(|&id| is_sink(id)).count();
            assert_eq!(sinks.len(), want, "{}", kind.name());
            assert!(futs.iter().all(SharedFuture::is_ready), "{}", kind.name());
            assert_eq!(
                partial_checksum(0, &futs),
                graph.checksum_reference(),
                "{}",
                kind.name()
            );
        }
    }

    /// Spawns through the runtime, but the `bad`-th dataflow node panics.
    struct Faulty<'a> {
        rt: &'a Runtime,
        bad: usize,
        made: std::cell::Cell<usize>,
    }

    impl Spawner for Faulty<'_> {
        fn spawn_source(&self, f: impl FnOnce() -> u64 + Send + 'static) -> SharedFuture<u64> {
            self.rt.spawn_source(f)
        }

        fn spawn_dataflow<'a>(
            &self,
            deps: impl IntoIterator<Item = &'a SharedFuture<u64>>,
            f: impl FnOnce(Inputs<'_, u64>) -> u64 + Send + 'static,
        ) -> SharedFuture<u64> {
            let n = self.made.replace(self.made.get() + 1);
            if n != self.bad {
                return self.rt.spawn_dataflow(deps, f);
            }
            self.rt
                .dataflow(deps, move |_, _| panic!("node {n} failed"))
        }
    }

    /// A panic anywhere — in a node far from every sink too — reaches the
    /// join: the run returns its message as the root cause, never a
    /// checksum read from a node that is not ready.
    #[test]
    fn a_panicking_node_fails_the_run_with_its_message() {
        let rt = Runtime::with_workers(2);
        let graph = GraphSpec::shape(
            crate::graph::GraphKind::Stencil1d { width: 8, steps: 8 },
            0xbad,
        )
        .grain(10)
        .build();
        for bad in [0, 30, 63] {
            let faulty = Faulty {
                rt: &rt,
                bad,
                made: std::cell::Cell::new(0),
            };
            let err = run_spawned(&faulty, &graph).expect_err("a node panicked");
            assert_eq!(
                err.root_cause(),
                &TaskError::Panicked {
                    message: format!("node {bad} failed"),
                },
                "{err}"
            );
            rt.wait_idle();
        }
        assert_eq!(rt.counters().faulted.sum(), 3);
    }

    /// The schedule of `perf`'s `graph_fine` graph (`Stencil1d` 32 × 32,
    /// 1 056 nodes) on one worker, counted: built in full while a gate
    /// task holds the worker, then run with nobody else searching, so
    /// every count is the same on any host. The first read is taken
    /// while the gate holds; the second by the join, inside the last
    /// node's settle — before that node's phase and task are counted and
    /// before the worker's closing empty searches. The two window edges
    /// cancel: the gate's phase is in, the last node's is out.
    #[test]
    fn graph_fine_schedule_on_one_worker_is_pinned() {
        use grain_counters::sync::{AtomicBool, Ordering};
        use grain_runtime::channel;

        let graph = GraphSpec::shape(
            crate::graph::GraphKind::Stencil1d {
                width: 32,
                steps: 32,
            },
            1,
        )
        .grain(1_000)
        .build();
        let len = graph.len() as u64;
        assert_eq!(len, 32 * 33);
        let rt = Arc::new(Runtime::with_workers(1));

        let (held, go) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let (h, g) = (Arc::clone(&held), Arc::clone(&go));
        rt.spawn(move |_| {
            h.store(true, Ordering::SeqCst);
            while !g.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        while !held.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let futs = spawn_range(&*rt, &graph, 0..len as u32, |e| unreachable!("{e:?}"));
        let sinks: Vec<_> = futs
            .iter()
            .enumerate()
            .filter(|&(id, _)| !graph.edges.iter().any(|e| e.src as usize == id))
            .map(|(_, f)| f.clone())
            .collect();
        assert_eq!(sinks.len(), 32);
        let (promise, at_end) = channel();
        let at_settle = Arc::clone(&rt);
        when_all(&sinks).on_settled(move |_| {
            let window = at_settle.counters().window();
            // The test's handle stays the last: a worker must never drop
            // its own runtime.
            drop(at_settle);
            promise.set(window);
        });
        let before = rt.counters().window();
        go.store(true, Ordering::SeqCst);
        let d = at_end
            .wait_timeout(JOIN_TIMEOUT)
            .expect("the graph settles")
            .since(&before);
        assert_eq!((d.tasks, d.phases), (len, len), "one phase per task: {d:?}");
        // One conversion per node: the 32 sources leave the staged queue
        // converted, every other node is converted by the settle that
        // readies it. Per task, about two pending probes (the empty
        // high-priority queue, then the slot or the own queue) and one
        // staged probe, which finds something 32 times.
        assert_eq!(
            (
                d.converted,
                d.pending_accesses,
                d.pending_misses,
                d.staged_accesses,
                d.staged_misses
            ),
            (1_056, 2_162, 1_106, 1_133, 1_101),
            "graph_fine's schedule moved: {d:?}"
        );
    }
}
