//! Executor (c): the graph partitioned across grain-net localities.
//!
//! Node ids are split into contiguous blocks, one per locality (ids are
//! a topological order, so a block is a level-contiguous slab of the
//! graph). Each locality spawns its own block through the shared
//! spawning core; an edge whose endpoints live on different localities
//! becomes a **remote edge fetch**: the consumer calls the deferred
//! `taskbench/edge` action on the producer's locality and receives the
//! edge's *payload bytes* — the actual communication volume travels as a
//! parcel, then is folded on arrival into the same contribution the
//! in-process executors compute locally. Per-locality partial checksums
//! are combined by `collect`, and wrapping addition makes the total
//! independent of the partitioning.
//!
//! The exchange is pull-based and barrier-free, through a
//! [`grain_net::EdgeBoard`]: either side of an edge may arrive first,
//! and a request for a not-yet-computed edge gets a deferred reply sent
//! when the producing task settles. Dead peers settle ghost futures
//! with `TaskError::Disconnected`, which propagates through the
//! dataflow into the partial checksum — an error, never a hang.

use crate::exec_local::{join_sinks, partial_checksum, spawn_range, JOIN_TIMEOUT};
use crate::graph::TaskGraph;
use crate::work;
use grain_counters::rng::{fnv1a, FNV1A_OFFSET};
use grain_counters::sync::{AtomicBool, Ordering};
use grain_net::bootstrap::Fabric;
use grain_net::locality::Locality;
use grain_net::{block_of, block_owner, EdgeBoard};
use grain_runtime::grain_counters::sync::Mutex;
use grain_runtime::{channel, Promise, RuntimeConfig, SharedFuture, TaskError};
use std::sync::Arc;

/// Name of the deferred edge-payload action.
const ACTION_EDGE: &str = "taskbench/edge";
/// Name of the deferred partial-checksum action.
const ACTION_PARTIAL: &str = "taskbench/partial";

/// State shared between the action handlers and the driving code.
struct BenchState {
    /// Expanded payload bytes keyed by edge `(src, dst)`.
    edges: EdgeBoard<(u32, u32), Vec<u8>>,
    partial: SharedFuture<u64>,
    partial_promise: Mutex<Option<Promise<u64>>>,
    started: AtomicBool,
}

/// A distributed taskbench instance installed on one locality.
///
/// Protocol: [`DistTaskBench::install`] on **every** locality first
/// (registering the actions peers call), then [`DistTaskBench::start`]
/// everywhere, then [`DistTaskBench::collect`] wherever the total is
/// wanted.
pub struct DistTaskBench {
    loc: Locality,
    graph: Arc<TaskGraph>,
    state: Arc<BenchState>,
}

impl DistTaskBench {
    /// Register this locality's actions and prepare (but not start) its
    /// block of the graph.
    ///
    /// Panics if the graph has fewer nodes than the world has
    /// localities (every locality must own at least one node).
    pub fn install(loc: &Locality, graph: Arc<TaskGraph>) -> Self {
        assert!(
            graph.len() >= loc.world(),
            "graph has {} nodes but the world has {} localities",
            graph.len(),
            loc.world()
        );
        let (partial_promise, partial) = channel();
        let state = Arc::new(BenchState {
            edges: EdgeBoard::default(),
            partial,
            partial_promise: Mutex::new(Some(partial_promise)),
            started: AtomicBool::new(false),
        });
        {
            let state = Arc::clone(&state);
            loc.register_deferred_action(ACTION_EDGE, move |_rt, (src, dst): (u32, u32)| {
                state.edges.future_of((src, dst))
            });
        }
        {
            let state = Arc::clone(&state);
            loc.register_deferred_action(ACTION_PARTIAL, move |_rt, (): ()| state.partial.clone());
        }
        Self {
            loc: loc.clone(),
            graph,
            state,
        }
    }

    /// Spawn this locality's block and link every boundary edge: ghost
    /// futures for remote predecessors, published payloads for remote
    /// consumers. Barrier-free; call on every locality.
    pub fn start(&self) {
        assert!(
            !self.state.started.swap(true, Ordering::SeqCst),
            "start() called twice"
        );
        let (offset, count) = block_of(self.loc.id(), self.loc.world(), self.graph.len());
        let range = offset as u32..(offset + count) as u32;
        let futs = {
            let loc = &self.loc;
            let me = self.loc.id();
            let nodes = self.graph.len();
            spawn_range(loc.runtime().as_ref(), &self.graph, range.clone(), |e| {
                let owner = block_owner(e.src as usize, loc.world(), nodes);
                debug_assert_ne!(owner, me, "ghost requested for a local edge");
                ghost_contrib(loc.async_remote(owner, ACTION_EDGE, &(e.src, e.dst)))
            })
        };

        // Publish every edge leaving this block for a remote consumer.
        let spec = self.graph.spec;
        for e in &self.graph.edges {
            if !range.contains(&e.src) || range.contains(&e.dst) {
                continue;
            }
            let (salt, len) = (work::edge_salt(spec.seed, e.src, e.dst), e.payload);
            self.state.edges.publish(
                (e.src, e.dst),
                &futs[(e.src - range.start) as usize],
                move |v| work::edge_payload(*v, salt, len),
            );
        }

        // Fold the block into this locality's partial checksum once its
        // sinks — nodes with no successor in the block — are ready.
        let promise = self.state.partial_promise.lock().take();
        if let Some(promise) = promise {
            let start = range.start;
            let join = join_sinks(&self.graph, range, &futs);
            join.on_settled(move |settled| match settled {
                Ok(_) => promise.set(partial_checksum(start, &futs)),
                Err(e) => promise.fail(e.clone()),
            });
        }
    }

    /// This locality's partial checksum (its block only). A dead peer
    /// surfaces as an `Err` naming the lost locality, never a hang.
    pub fn local_partial(&self) -> Result<u64, TaskError> {
        self.state.partial.wait_timeout(JOIN_TIMEOUT).map(|v| *v)
    }

    /// Collect the full checksum: fetch every locality's partial
    /// (including our own, via the self-call fast path) and combine
    /// with wrapping addition — partition-independent by construction.
    pub fn collect(&self) -> Result<u64, TaskError> {
        let world = self.loc.world();
        let futures: Vec<SharedFuture<u64>> = (0..world)
            .map(|k| self.loc.async_remote(k, ACTION_PARTIAL, &()))
            .collect();
        let mut total = 0u64;
        for f in futures {
            total = total.wrapping_add(*f.wait_timeout(JOIN_TIMEOUT)?);
        }
        Ok(total)
    }
}

/// Adapt a remote payload future into a contribution future: fold the
/// parcel's bytes on arrival.
fn ghost_contrib(payload: SharedFuture<Vec<u8>>) -> SharedFuture<u64> {
    let (promise, future) = channel();
    payload.on_settled(move |settled| match settled {
        Ok(bytes) => promise.set(fnv1a(FNV1A_OFFSET, bytes)),
        Err(e) => promise.fail(e.clone()),
    });
    future
}

/// Hermetic convenience runner: a loopback world of `world` localities
/// (`workers_per` workers each), the graph partitioned across it,
/// collected on locality 0, fabric shut down. Returns the checksum.
pub fn run_distributed_loopback(
    world: usize,
    workers_per: usize,
    graph: &Arc<TaskGraph>,
) -> Result<u64, TaskError> {
    let fabric = Fabric::loopback(world, |_| RuntimeConfig::with_workers(workers_per));
    let instances: Vec<DistTaskBench> = (0..world)
        .map(|k| DistTaskBench::install(fabric.locality(k), Arc::clone(graph)))
        .collect();
    for inst in &instances {
        inst.start();
    }
    let total = instances[0].collect();
    fabric.shutdown();
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphKind, GraphSpec};

    #[test]
    fn single_locality_world_matches_reference() {
        let graph = Arc::new(
            GraphSpec::shape(GraphKind::Stencil1d { width: 4, steps: 4 }, 0xd157)
                .grain(15)
                .payload(24)
                .build(),
        );
        let sum = run_distributed_loopback(1, 2, &graph).expect("settles");
        assert_eq!(sum, graph.checksum_reference());
    }

    #[test]
    fn two_locality_world_ships_payloads_and_matches_reference() {
        let graph = Arc::new(
            GraphSpec::shape(
                GraphKind::RandomDag {
                    width: 5,
                    steps: 6,
                    max_deps: 3,
                },
                0xd1572,
            )
            .grain(20)
            .payload(96)
            .build(),
        );
        let fabric = Fabric::loopback(2, |_| RuntimeConfig::with_workers(1));
        let instances: Vec<DistTaskBench> = (0..2)
            .map(|k| DistTaskBench::install(fabric.locality(k), Arc::clone(&graph)))
            .collect();
        for inst in &instances {
            inst.start();
        }
        let total = instances[0].collect().expect("settles");
        assert_eq!(total, graph.checksum_reference());
        // Cross edges actually traveled: bytes were sent somewhere.
        let bytes: u64 = (0..2)
            .map(|k| fabric.locality(k).parcels().bytes_sent.get())
            .sum();
        assert!(bytes > 0, "cross-partition payloads must ride parcels");
        fabric.shutdown();
    }
}
