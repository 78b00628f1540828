//! The `sys/stats` action: one locality's load, pollable by any other.
//!
//! Placement needs a cheap, uniform view of every worker's pressure;
//! rather than gossiping raw counter dumps, each worker samples its own
//! `/service/pressure/{level,overhead,queue-fill}` and
//! `/autotune/converged` counters (from the service registry) and its
//! queue length into a compact [`WorkerStats`] and serves it as a
//! registered remote action. The action is useful standalone:
//! `async_remote::<(), WorkerStats>` against any locality that
//! registered it returns its live load.

use crate::wire::{WorkerStats, ACTION_STATS};
use grain_counters::sync::{AtomicBool, Ordering};
use grain_net::Locality;
use grain_service::JobService;
use std::sync::Arc;

/// Sample one worker's load into a [`WorkerStats`] report.
///
/// Counter reads go through the service registry (the same surface a
/// dashboard would scrape), so the report is exactly what the counter
/// paths publish; a missing counter reads as 0 rather than failing the
/// poll.
fn sample_stats(service: &JobService, draining: bool) -> WorkerStats {
    let sreg = service.registry();
    let read = |path: &str| sreg.query(path).map(|v| v.value).unwrap_or(0.0);
    WorkerStats {
        draining,
        pressure_level: read("/service/pressure/level") as u8,
        overhead: read("/service/pressure/overhead"),
        queue_fill: read("/service/pressure/queue-fill"),
        queued_jobs: service.queue_len() as u64,
        // A worker with no autotune subsystem registered reports
        // converged: nothing on it is probing, so placement should not
        // penalize it. The query error (not the 0.0 fallback) is the
        // discriminator.
        autotune_converged: sreg
            .query("/autotune/converged")
            .map(|v| v.value >= 1.0)
            .unwrap_or(true),
    }
}

/// Register the `sys/stats` action on `locality`, serving live samples
/// of `service`. The `draining` flag is shared with the caller (the
/// fleet worker flips it on drain) so polled reports advertise drains
/// without a second action.
pub fn register_sys_stats(
    locality: &Locality,
    service: Arc<JobService>,
    draining: Arc<AtomicBool>,
) {
    locality.register_action(ACTION_STATS, move |(): ()| {
        sample_stats(&service, draining.load(Ordering::SeqCst))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_net::Fabric;
    use grain_runtime::RuntimeConfig;
    use grain_service::{JobSpec, ServiceConfig};

    #[test]
    fn stats_poll_round_trips_between_localities() {
        let fabric = Fabric::loopback(2, |i| RuntimeConfig {
            workers: 1,
            locality_id: i,
        });
        let mut cfg = ServiceConfig::with_workers(1);
        cfg.runtime.locality_id = 1;
        let service = Arc::new(JobService::new(cfg));
        // Run something so the pressure loop has samples.
        let h = service.submit(JobSpec::new("warm", "t"), |ctx| {
            for _ in 0..4 {
                ctx.spawn(|_| {
                    std::hint::black_box(grain_taskbench::work::busy_work(1, 2_000));
                });
            }
        });
        h.wait();
        let draining = Arc::new(AtomicBool::new(false));
        register_sys_stats(
            fabric.locality(1),
            Arc::clone(&service),
            Arc::clone(&draining),
        );
        let polled: WorkerStats = (*fabric
            .locality(0)
            .async_remote::<(), WorkerStats>(1, ACTION_STATS, &())
            .wait()
            .expect("stats poll settles"))
        .clone();
        assert!(!polled.draining);
        assert!(polled.pressure_level <= 2);
        assert!(polled.overhead >= 0.0 && polled.queue_fill >= 0.0);
        draining.store(true, Ordering::SeqCst);
        let polled: WorkerStats = (*fabric
            .locality(0)
            .async_remote::<(), WorkerStats>(1, ACTION_STATS, &())
            .wait()
            .expect("stats poll settles"))
        .clone();
        assert!(polled.draining, "drain flag rides the same action");
        fabric.shutdown();
    }
}
