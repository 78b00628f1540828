//! The autotune subsystem behind a real [`JobService`], wired as the
//! README's quickstart wires it: `Autotune::new`, its `policy_hook` as
//! the service's policy, then `attach`.

use grain_autotune::{Autotune, AutotuneConfig, ShapedWork};
use grain_service::{JobService, JobSpec, JobState, ServiceConfig};
use grain_sim::storm::GraphFamily;
use std::sync::Arc;

fn shaped_service() -> (Arc<Autotune>, JobService) {
    let auto = Autotune::new(AutotuneConfig::default());
    let service = JobService::new(ServiceConfig {
        policy: Some(auto.policy_hook()),
        ..ServiceConfig::with_workers(2)
    });
    auto.attach(&service).expect("attach");
    (auto, service)
}

#[test]
fn completed_shaped_jobs_feed_the_tenant_controller() {
    let (auto, service) = shaped_service();
    let shape = ShapedWork::ParallelFor {
        elements: 256,
        iters_per_element: 50,
        seed: 7,
    };
    for i in 0..3 {
        let job = auto.submit_shaped(&service, &format!("j{i}"), "ten-a", &shape);
        let outcome = job.wait();
        assert_eq!(outcome.state, JobState::Completed);
    }
    assert_eq!(auto.jobs("ten-a"), 3, "hook saw every completion");
    let reg = service.registry();
    assert!(reg.query("/autotune/tenants/ten-a/grain").is_ok());
    assert!(reg.query("/autotune/grain").is_ok());
    assert!(reg.query("/autotune/converged").is_ok());
}

#[test]
fn unshaped_jobs_do_not_touch_controllers() {
    let (auto, service) = shaped_service();
    let job = service.submit(JobSpec::new("plain", "ten-b"), |ctx| {
        ctx.spawn(|_| {});
    });
    assert_eq!(job.wait().state, JobState::Completed);
    assert!(auto.tenants().is_empty(), "no shape, no tenant entry");
}

#[test]
fn graph_shapes_round_trip_through_the_service() {
    let (auto, service) = shaped_service();
    let shape = ShapedWork::Graph {
        family: GraphFamily::Stencil,
        total_iters: 50_000,
        payload_bytes: 16,
        seed: 3,
        cov: grain_taskbench::Cov::Lognormal { cov_centi: 80 },
    };
    let outcome = auto.submit_shaped(&service, "g", "ten-c", &shape).wait();
    assert_eq!(outcome.state, JobState::Completed);
    assert!(outcome.tasks_completed > 1);
    assert_eq!(auto.jobs("ten-c"), 1);
}
