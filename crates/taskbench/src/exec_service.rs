//! Executor (b): the graph as a grain-service **job**.
//!
//! The job's root task spawns the same dataflow the single-runtime
//! executor builds — through its [`TaskContext`], so every node task
//! joins the job's group and inherits its tenant, counters, deadline
//! budget, and cancellation. The checksum leaves the job through a
//! promise (not the group latch), so the caller observes the value
//! race-free even though `JobHandle::wait` only joins the group.

use crate::exec_local::{join_sinks, partial_checksum, spawn_range, JOIN_TIMEOUT};
use crate::graph::TaskGraph;
use grain_runtime::grain_counters::sync::Mutex;
use grain_runtime::{channel, TaskError};
use grain_service::{JobService, JobSpec, JobState};
use std::sync::Arc;

/// Submit `graph` as one job under `spec` and wait for its checksum.
///
/// Errors surface the job's terminal state: a rejected/shed/timed-out
/// job returns `Err` with that state rather than a checksum. The job
/// body is re-runnable, so it composes with
/// [`grain_service::FailurePolicy::RetryWithBackoff`].
pub fn run_service_job(
    service: &JobService,
    spec: JobSpec,
    graph: &Arc<TaskGraph>,
) -> Result<u64, JobError> {
    let spec = spec.estimated_tasks(graph.len() as u64 + 1);
    let (promise, sink) = channel::<u64>();
    let slot = Arc::new(Mutex::new(Some(promise)));
    let graph2 = Arc::clone(graph);
    let handle = service.submit(spec, move |ctx| {
        let graph = Arc::clone(&graph2);
        let slot = Arc::clone(&slot);
        let range = 0..graph.len() as u32;
        let futs = spawn_range(ctx, &graph, range.clone(), |e| {
            unreachable!("full-range spawn has no ghost edges: {e:?}")
        });
        join_sinks(&graph, range, &futs).on_settled(move |settled| {
            let promise = slot.lock().take();
            if let Some(promise) = promise {
                match settled {
                    Ok(_) => promise.set(partial_checksum(0, &futs)),
                    Err(e) => promise.fail(e.clone()),
                }
            }
        });
    });
    let outcome = handle.wait();
    if outcome.state != JobState::Completed {
        return Err(JobError::NotCompleted {
            state: outcome.state,
            fault: outcome.fault,
        });
    }
    match sink.wait_timeout(JOIN_TIMEOUT) {
        Ok(v) => Ok(*v),
        Err(e) => Err(JobError::Sink(e)),
    }
}

/// Why a service-executed graph produced no checksum.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The job ended in a non-`Completed` terminal state.
    NotCompleted {
        /// The terminal state.
        state: JobState,
        /// The first task fault, when the state is fault-related.
        fault: Option<TaskError>,
    },
    /// The job completed but the checksum future faulted (should be
    /// impossible for a completed job; surfaced rather than hidden).
    Sink(TaskError),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::NotCompleted {
                state,
                fault: Some(e),
            } => {
                write!(f, "job ended {state:?}: {e}")
            }
            JobError::NotCompleted { state, fault: None } => write!(f, "job ended {state:?}"),
            JobError::Sink(e) => write!(f, "checksum future faulted: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{all_kinds, GraphSpec};

    #[test]
    fn service_job_matches_reference_for_every_family() {
        let service = JobService::with_workers(2);
        for kind in all_kinds(32) {
            let graph = Arc::new(GraphSpec::shape(kind, 0x10b).grain(20).payload(32).build());
            let sum = run_service_job(&service, JobSpec::new(kind.name(), "bench"), &graph)
                .expect("job completes");
            assert_eq!(sum, graph.checksum_reference(), "{}", kind.name());
        }
    }

    #[test]
    fn per_job_counters_see_the_graph_tasks() {
        let service = JobService::with_workers(2);
        let graph = Arc::new(
            GraphSpec::shape(crate::graph::GraphKind::Sweep { width: 4, steps: 3 }, 5)
                .grain(10)
                .build(),
        );
        let sum =
            run_service_job(&service, JobSpec::new("sweep", "t"), &graph).expect("job completes");
        assert_eq!(sum, graph.checksum_reference());
    }
}
