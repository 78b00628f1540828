//! # grain-service — a multi-tenant job-serving layer
//!
//! The paper's runtime executes one application at a time: a `main` owns
//! the [`grain_runtime::Runtime`], spawns its task DAG, and drains it.
//! This crate turns that runtime into a *served* resource: a
//! [`JobService`] accepts task DAGs as first-class **jobs** — each with a
//! tenant, a priority, an optional deadline, and its own counter
//! namespace — and multiplexes them onto one shared runtime.
//!
//! ## Lifecycle
//!
//! ```text
//! Queued ──▶ Admitted ──▶ Running ──▶ Completed
//!    ▲                       ├──────▶ Cancelled   (JobHandle::cancel)
//!    │                       ├──────▶ TimedOut    (deadline expiry)
//!    │                       ├──────▶ Failed      (task fault, FailurePolicy)
//!    │                       └──╮
//!    ╰──────── retry ───────────╯                 (RetryWithBackoff)
//!    └──────────────────────────────▶ Rejected    (admission control)
//! ```
//!
//! * **Admission control** ([`AdmissionConfig`]) bounds the queued-job
//!   count (backpressure: excess submissions come back `Rejected`) and
//!   the total in-flight task budget, and drains tenant queues in
//!   fair-share (stride) order.
//! * **Overload resilience**, always on: a pressure control loop
//!   ([`pressure`]) folds the runtime's overhead fraction and the
//!   queue fill into a smoothed [`PressureSignal`], adaptively shrinks
//!   the in-flight budget (AIMD) under sustained overhead, and sheds
//!   queued jobs that can no longer meet their deadlines
//!   ([`RejectReason::Shed`]); per-tenant circuit breakers
//!   ([`Breakers`], the fleet gateway's too) trip on rolling failure
//!   rate so one flapping tenant cannot starve the others' retry budget.
//! * **Cancellation and deadlines** ride on
//!   [`grain_runtime::TaskGroup`]: every task a job spawns joins the
//!   job's group, so [`JobHandle::cancel`] skips the job's queued tasks
//!   and releases its dormant dataflow nodes without touching other
//!   jobs, and [`JobHandle::wait`] joins *one job*, not the runtime.
//! * **Per-job counters** live under `/jobs{name#id}/threads/...` beside
//!   service-wide `/service/...` counters on the service's
//!   [`Registry`](grain_counters::Registry).
//! * **Failure policies** ([`FailurePolicy`]) decide what a task fault
//!   (an isolated panic, or an inherited dependency fault) does to its
//!   job: fail fast (default), let the remaining tasks finish, or retry
//!   the whole job with exponential backoff through admission control.
//!
//! ## Example
//!
//! ```
//! use grain_service::{JobService, JobSpec};
//!
//! let service = JobService::with_workers(2);
//! let job = service.submit(JobSpec::new("sum", "tenant-a"), |ctx| {
//!     for i in 0..8u64 {
//!         ctx.spawn(move |_| {
//!             std::hint::black_box(i * i);
//!         });
//!     }
//! });
//! let outcome = job.wait();
//! assert_eq!(outcome.tasks_completed, 9); // root + 8 children
//! ```

pub mod admission;
pub mod breaker;
pub mod counters;
pub mod job;
pub mod pressure;
pub mod service;

pub use admission::{AdmissionConfig, AdmissionError, RejectReason};
pub use breaker::{BreakerConfig, BreakerDecision, BreakerState, Breakers};
pub use counters::{JobCounters, ServiceCounters};
pub use job::{
    FailurePolicy, JobHandle, JobId, JobOutcome, JobPriority, JobShape, JobSpec, JobState,
};
pub use pressure::{PressureLevel, PressureSignal};
pub use service::{JobService, PolicyHook, ServiceConfig};

// Re-export the layers underneath so service users need one dependency.
pub use grain_counters;
pub use grain_runtime;
