//! grain-fleet: a distributed serving plane where jobs survive
//! locality death.
//!
//! The [`grain_service`] crate runs a multi-tenant job service on *one*
//! locality; [`grain_net`] gives us remote actions between localities.
//! This crate composes the two into a serving fleet:
//!
//! * A **gateway** ([`FleetGateway`]) accepts tenant jobs and routes
//!   them to worker localities over the parcelport. Placement is
//!   pressure-driven: workers publish their load through the
//!   [`wire::ACTION_STATS`] remote action (sampled from the service's
//!   `/service/pressure/*` counters and the runtime's idle-rate), and
//!   the gateway polls, caches, and scores.
//! * Each worker locality installs a [`FleetWorker`], which adapts
//!   incoming [`wire::FleetJob`] descriptions into local
//!   [`grain_service::JobService`] submissions and pushes terminal
//!   outcomes back.
//! * Every routed job carries an **idempotency key** and a **submission
//!   epoch**. The gateway leases each dispatch; when a worker dies
//!   (severed links, liveness expiry) its leases are orphaned and
//!   re-dispatched under a bumped epoch. Completion accounting is
//!   exactly-once *at the gateway*: a push carrying a stale epoch is
//!   fenced, a second push for a settled job is a counted duplicate,
//!   and the ledger identity `submitted == completed + failed +
//!   timed-out + cancelled + rejected + shed` holds at quiescence.
//! * Failure handling stacks: per-worker retry with backoff, optional
//!   lease-timeout hedging, per-locality circuit breakers in the gateway
//!   ([`grain_service::Breakers`]) whose state survives peer death, graceful
//!   drain with zero-loss hand-back, and quorum-based degradation that
//!   sheds deadline-carrying jobs with
//!   [`grain_service::RejectReason::FleetUnavailable`] instead of
//!   letting them hang.
//!
//! The `fleetstorm` binary (crates/bench) drives a seeded multi-tenant
//! storm through kill / drain / partition / heal chaos and asserts the
//! ledger conservation and replay determinism end to end.

pub mod gateway;
pub mod stats;
pub mod wire;
pub mod worker;

pub use gateway::{
    FleetConfig, FleetCounters, FleetGateway, FleetJobHandle, FleetJobSpec, FleetLedger, Placement,
};
pub use stats::register_sys_stats;
pub use wire::{DrainReport, FleetJob, FleetOutcome, SubmitAck, SubmitVerdict, WorkerStats};
pub use worker::{FleetWorker, FleetWorkerConfig, WorkerCounters};
