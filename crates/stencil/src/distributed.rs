//! The distributed stencil — the analog of HPX's `1d_stencil_8`.
//!
//! The partition ring is split into contiguous blocks, one block per
//! locality. Interior partitions depend on their neighbours exactly as
//! in [`crate::futurized`]; at block boundaries the neighbour lives on
//! another locality, so the dependency becomes a **remote edge fetch**:
//! a `stencil/edge` action invoked via `Locality::async_remote`.
//!
//! The exchange is *pull-based*: each locality publishes, per time step,
//! a future for the first element of its first partition and the last
//! element of its last partition (all [`heat_part`] ever reads from a
//! neighbour). A neighbour's request for an edge that is not computed
//! yet receives a deferred reply — sent when the producing task settles
//! — so requests and production may interleave in any order without
//! barriers. Because only edge *elements* cross the wire (as `f64` bit
//! patterns), and the dependency graph is otherwise identical to the
//! single-locality futurized run, the distributed result is
//! **bit-identical** to [`crate::futurized::run_futurized`].
//!
//! Failure semantics ride on the runtime's error chain: a dead peer
//! settles its in-flight edge fetches with `TaskError::Disconnected`,
//! which propagates through the dataflow graph into every dependent
//! partition, so [`DistStencil::local_result_timeout`] returns an error
//! naming the dead locality instead of hanging.

use crate::heat::{heat_part, initial_partition, Partition};
use crate::params::StencilParams;
use grain_net::bootstrap::Fabric;
use grain_net::locality::Locality;
use grain_net::{block_of, EdgeBoard};
use grain_runtime::grain_counters::sync::Mutex;
use grain_runtime::{channel, when_all, Promise, RuntimeConfig, SharedFuture, TaskError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deadline for joining the local block (mirrors the futurized
/// `JOIN_TIMEOUT`): generous enough for any healthy run, so hitting it
/// means a genuine hang — which the error-settling design should have
/// prevented.
pub const JOIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Edge selector: the first element of the locality's first partition
/// (a neighbour's *right* ghost).
const EDGE_FIRST: u8 = 0;
/// Edge selector: the last element of the locality's last partition
/// (a neighbour's *left* ghost).
const EDGE_LAST: u8 = 1;

/// Name of the deferred edge-fetch action.
const ACTION_EDGE: &str = "stencil/edge";
/// Name of the deferred block-gather action.
const ACTION_COLLECT: &str = "stencil/collect";

/// State shared between the action handlers and the driving code.
struct StencilState {
    /// Edge elements keyed by `(step, EDGE_FIRST | EDGE_LAST)`.
    edges: EdgeBoard<(u64, u8), f64>,
    /// Settled with this locality's flattened final block.
    result: SharedFuture<Vec<f64>>,
    result_promise: Mutex<Option<Promise<Vec<f64>>>>,
    started: AtomicBool,
}

/// A distributed stencil instance installed on one locality.
///
/// Protocol: [`DistStencil::install`] on **every** locality first (this
/// registers the actions peers will call), then [`DistStencil::start`]
/// everywhere, then [`DistStencil::local_result_timeout`] /
/// [`DistStencil::gather`].
pub struct DistStencil {
    loc: Locality,
    params: StencilParams,
    state: Arc<StencilState>,
}

impl DistStencil {
    /// Register this locality's stencil actions and prepare (but do not
    /// start) the computation.
    ///
    /// Panics if the parameters are invalid or there are fewer
    /// partitions than localities (every locality must own at least one
    /// partition for the ring exchange to close).
    pub fn install(loc: &Locality, params: StencilParams) -> Self {
        params.validate().expect("invalid stencil parameters");
        assert!(
            params.np >= loc.world(),
            "np ({}) must be >= world ({}): every locality needs a partition",
            params.np,
            loc.world()
        );
        let (result_promise, result) = channel();
        let state = Arc::new(StencilState {
            edges: EdgeBoard::default(),
            result,
            result_promise: Mutex::new(Some(result_promise)),
            started: AtomicBool::new(false),
        });
        {
            let state = Arc::clone(&state);
            loc.register_deferred_action(ACTION_EDGE, move |_rt, (step, which): (u64, u8)| {
                state.edges.future_of((step, which))
            });
        }
        {
            let state = Arc::clone(&state);
            loc.register_deferred_action(ACTION_COLLECT, move |_rt, (): ()| state.result.clone());
        }
        Self {
            loc: loc.clone(),
            params,
            state,
        }
    }

    /// Build this locality's entire dependency graph (all `nt` steps)
    /// and set it running. Remote edge fetches for every step are issued
    /// up front — the runtime's dataflow scheduling overlaps them with
    /// computation exactly as `1d_stencil_8` overlaps communication and
    /// computation.
    pub fn start(&self) {
        assert!(
            !self.state.started.swap(true, Ordering::SeqCst),
            "start() called twice"
        );
        let world = self.loc.world();
        let me = self.loc.id();
        let np = self.params.np;
        let coeff = self.params.coefficient();
        let (offset, count) = block_of(me, world, np);
        let rt = self.loc.runtime();

        let mut current: Vec<SharedFuture<Partition>> = (offset..offset + count)
            .map(|i| SharedFuture::ready(initial_partition(i, self.params.nx)))
            .collect();

        if world == 1 {
            // Whole ring is local: identical to the futurized run.
            for _ in 0..self.params.nt {
                current = crate::futurized::step_partitions(rt, &current, coeff);
            }
        } else {
            let left_peer = (me + world - 1) % world;
            let right_peer = (me + 1) % world;
            self.publish_edges(0, &current);
            for step in 0..self.params.nt as u64 {
                // The left neighbour's last element is our left ghost;
                // the right neighbour's first element is our right ghost.
                let left_ghost = ghost(self.loc.async_remote(
                    left_peer,
                    ACTION_EDGE,
                    &(step, EDGE_LAST),
                ));
                let right_ghost = ghost(self.loc.async_remote(
                    right_peer,
                    ACTION_EDGE,
                    &(step, EDGE_FIRST),
                ));
                let mut next = Vec::with_capacity(count);
                for j in 0..count {
                    let left = if j == 0 {
                        left_ghost.clone()
                    } else {
                        current[j - 1].clone()
                    };
                    let right = if j == count - 1 {
                        right_ghost.clone()
                    } else {
                        current[j + 1].clone()
                    };
                    let deps = [left, current[j].clone(), right];
                    next.push(rt.dataflow(&deps, move |_ctx, vals: Vec<Arc<Partition>>| {
                        heat_part(coeff, &vals[0], &vals[1], &vals[2])
                    }));
                }
                current = next;
                self.publish_edges(step + 1, &current);
            }
        }

        // Flatten the final block into the result future.
        let promise = self.state.result_promise.lock().take();
        if let Some(promise) = promise {
            when_all(&current).on_settled(move |settled| match settled {
                Ok(parts) => {
                    let total = parts.iter().map(|p| p.len()).sum();
                    let mut flat = Vec::with_capacity(total);
                    for p in parts.iter() {
                        flat.extend_from_slice(p);
                    }
                    promise.set(flat);
                }
                Err(e) => promise.fail(e.clone()),
            });
        }
    }

    /// Link this step's two edge elements to the partitions that
    /// produce them.
    fn publish_edges(&self, step: u64, current: &[SharedFuture<Partition>]) {
        let edges = &self.state.edges;
        edges.publish((step, EDGE_FIRST), &current[0], |part| part[0]);
        edges.publish((step, EDGE_LAST), &current[current.len() - 1], |part| {
            part[part.len() - 1]
        });
    }

    /// The locality hosting this instance.
    pub fn locality(&self) -> &Locality {
        &self.loc
    }

    /// Global partition range `(offset, count)` owned by this locality.
    pub fn block(&self) -> (usize, usize) {
        block_of(self.loc.id(), self.loc.world(), self.params.np)
    }

    /// Wait for this locality's block of the final grid (flattened, in
    /// global order). A dead peer surfaces here as an `Err` whose cause
    /// chain names the lost locality — never as a hang beyond `timeout`.
    pub fn local_result_timeout(&self, timeout: Duration) -> Result<Vec<f64>, TaskError> {
        self.state
            .result
            .wait_timeout(timeout)
            .map(|v| v.as_ref().clone())
    }

    /// Collect the full final grid by fetching every locality's block
    /// (including our own, via the self-call fast path) and
    /// concatenating in locality order — which *is* global partition
    /// order, because blocks are contiguous and ascending.
    pub fn gather(&self) -> Result<Vec<f64>, TaskError> {
        let world = self.loc.world();
        let futures: Vec<SharedFuture<Vec<f64>>> = (0..world)
            .map(|k| self.loc.async_remote(k, ACTION_COLLECT, &()))
            .collect();
        let mut grid = Vec::with_capacity(self.params.total_points());
        for f in futures {
            grid.extend_from_slice(&f.wait_timeout(JOIN_TIMEOUT)?);
        }
        Ok(grid)
    }
}

/// Adapt a remote edge-element future into a single-element ghost
/// partition, which is all [`heat_part`] reads from a neighbour.
fn ghost(edge: SharedFuture<f64>) -> SharedFuture<Partition> {
    let (promise, future) = channel();
    edge.on_settled(move |settled| match settled {
        Ok(v) => promise.set(vec![**v].into_boxed_slice()),
        Err(e) => promise.fail(e.clone()),
    });
    future
}

/// Hermetic convenience runner: build a loopback world of `world`
/// localities (`workers_per` workers each), run the stencil across it,
/// gather on locality 0, shut the fabric down, and return the final
/// grid.
pub fn run_distributed_loopback(
    world: usize,
    workers_per: usize,
    params: &StencilParams,
) -> Vec<f64> {
    let fabric = Fabric::loopback(world, |_| RuntimeConfig::with_workers(workers_per));
    let instances: Vec<DistStencil> = (0..world)
        .map(|k| DistStencil::install(fabric.locality(k), *params))
        .collect();
    for inst in &instances {
        inst.start();
    }
    let grid = instances[0]
        .gather()
        .unwrap_or_else(|e| panic!("distributed stencil failed: {e}"));
    fabric.shutdown();
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_locality_world_matches_futurized() {
        let params = StencilParams::new(7, 5, 9);
        let rt = grain_runtime::Runtime::with_workers(2);
        let expect = crate::futurized::run_futurized(&rt, &params);
        let got = run_distributed_loopback(1, 2, &params);
        assert_eq!(got, expect);
    }
}
