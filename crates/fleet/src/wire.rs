//! Wire-format types for the fleet protocol.
//!
//! Everything the gateway and workers exchange is a hand-encoded
//! [`Wire`] struct: a load report ([`WorkerStats`]), a routed job
//! description ([`FleetJob`]), the worker's admission verdict
//! ([`SubmitAck`]), the pushed completion ([`FleetOutcome`]), and the
//! drain hand-back ([`DrainReport`]). Job *bodies* never cross the wire
//! — a [`FleetJob`] is a declarative workload (a `grain-taskbench`
//! graph family plus shape/grain/payload/seed) that the worker expands
//! locally, so local and remote execution compute bit-identical DAGs.
//!
//! Encodings are versionless and positional like the rest of the
//! parcelport codec; every struct round-trips exactly (asserted by the
//! tests below) and decodes defensively — a truncated or hostile frame
//! surfaces as a [`CodecError`], never a panic.

use grain_net::codec::{Reader, Writer};
use grain_net::{CodecError, Wire};
use grain_service::{JobState, RejectReason};
use grain_sim::storm::GraphFamily;
use std::time::Duration;

/// Action name a worker registers for load polling.
pub const ACTION_STATS: &str = "sys/stats";
/// Action name a worker registers for routed job submission.
pub const ACTION_SUBMIT: &str = "fleet/submit";
/// Action name a worker registers for graceful drain.
pub const ACTION_DRAIN: &str = "fleet/drain";
/// Action name the *gateway* registers for completion pushes.
pub const ACTION_COMPLETE: &str = "fleet/complete";

/// Compact load report returned by the `sys/stats` action: the
/// `/service/pressure/{level,overhead,queue-fill}` counters of one
/// locality and its queue, sampled at call time — what the gateway's
/// placement score weighs, and nothing else.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Whether the worker has announced a drain (stops accepting).
    pub draining: bool,
    /// `/service/pressure/level`: 0 nominal, 1 elevated, 2 critical.
    pub pressure_level: u8,
    /// `/service/pressure/overhead` (EWMA overhead fraction, Eq. 1
    /// applied to the service window).
    pub overhead: f64,
    /// `/service/pressure/queue-fill` (0.0..=1.0).
    pub queue_fill: f64,
    /// Jobs waiting in the worker's admission queues.
    pub queued_jobs: u64,
    /// `/autotune/converged` == 1.0: every autotune tenant on the
    /// worker sits in its hysteresis band. Workers without autotune
    /// report `true` (nothing is probing there).
    pub autotune_converged: bool,
}

impl Wire for WorkerStats {
    fn encode(&self, w: &mut Writer) {
        w.u8(u8::from(self.draining));
        w.u8(self.pressure_level);
        w.f64(self.overhead);
        w.f64(self.queue_fill);
        w.u64(self.queued_jobs);
        w.u8(u8::from(self.autotune_converged));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            draining: r.u8()? != 0,
            pressure_level: r.u8()?,
            overhead: r.f64()?,
            queue_fill: r.f64()?,
            queued_jobs: r.u64()?,
            autotune_converged: r.u8()? != 0,
        })
    }
}

/// Wire code of a [`GraphFamily`].
pub fn family_code(f: GraphFamily) -> u8 {
    match f {
        GraphFamily::Flat => 0,
        GraphFamily::Stencil => 1,
        GraphFamily::Butterfly => 2,
        GraphFamily::Tree => 3,
        GraphFamily::RandomDag => 4,
        GraphFamily::Sweep => 5,
    }
}

/// Inverse of [`family_code`]; unknown codes fall back to `Flat` (a
/// forward-compatible degraded shape rather than a decode error).
pub fn family_of_code(c: u8) -> GraphFamily {
    match c {
        1 => GraphFamily::Stencil,
        2 => GraphFamily::Butterfly,
        3 => GraphFamily::Tree,
        4 => GraphFamily::RandomDag,
        5 => GraphFamily::Sweep,
        _ => GraphFamily::Flat,
    }
}

/// A routed job: idempotency key, fencing epoch, and a declarative
/// workload the worker expands into a real task DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetJob {
    /// Gateway-assigned idempotency key, unique per logical job. A
    /// worker receiving a key twice must not execute the body twice.
    pub key: u64,
    /// Submission epoch, bumped by the gateway on every dispatch
    /// attempt. Completions carrying an epoch older than the gateway's
    /// current lease are fenced (never double-counted).
    pub epoch: u64,
    /// Human-readable job name.
    pub name: String,
    /// Owning tenant (worker-side admission accounts to it).
    pub tenant: String,
    /// Graph family code ([`family_code`]); 0 = flat spawn loop.
    pub family: u8,
    /// Task budget (children for flat, graph size target otherwise).
    pub tasks: u64,
    /// Busy-work iterations per task.
    pub grain_iters: u64,
    /// Bytes flowing along each graph edge.
    pub payload_bytes: u32,
    /// Graph seed (shape + per-node work derivation).
    pub seed: u64,
    /// Deadline in milliseconds relative to worker admission; 0 = none.
    pub deadline_ms: u64,
    /// Chaos: the body panics instead of working (storm fault windows).
    pub faulty: bool,
    /// Test hook: the body parks on the worker's release latch before
    /// working, pinning the job "in flight" deterministically.
    pub park: bool,
}

impl FleetJob {
    /// The job's deadline as a [`Duration`], if any.
    pub fn deadline(&self) -> Option<Duration> {
        (self.deadline_ms > 0).then(|| Duration::from_millis(self.deadline_ms))
    }
}

impl Wire for FleetJob {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.key);
        w.u64(self.epoch);
        w.string(&self.name);
        w.string(&self.tenant);
        w.u8(self.family);
        w.u64(self.tasks);
        w.u64(self.grain_iters);
        w.u32(self.payload_bytes);
        w.u64(self.seed);
        w.u64(self.deadline_ms);
        w.u8(u8::from(self.faulty));
        w.u8(u8::from(self.park));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            key: r.u64()?,
            epoch: r.u64()?,
            name: r.string()?,
            tenant: r.string()?,
            family: r.u8()?,
            tasks: r.u64()?,
            grain_iters: r.u64()?,
            payload_bytes: r.u32()?,
            seed: r.u64()?,
            deadline_ms: r.u64()?,
            faulty: r.u8()? != 0,
            park: r.u8()? != 0,
        })
    }
}

/// Coarse refusal class in wire form, mirroring
/// [`grain_service::RejectReason`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireReject {
    /// 0 queue-full, 1 shed, 2 breaker-open, 3 shutting-down,
    /// 4 fleet-unavailable.
    pub code: u8,
    /// Suggested back-off in milliseconds (breaker / fleet refusals).
    pub retry_after_ms: u64,
}

impl WireReject {
    /// Encode a [`RejectReason`].
    pub fn of(reason: RejectReason) -> Self {
        match reason {
            RejectReason::QueueFull => Self {
                code: 0,
                retry_after_ms: 0,
            },
            RejectReason::Shed => Self {
                code: 1,
                retry_after_ms: 0,
            },
            RejectReason::BreakerOpen => Self {
                code: 2,
                retry_after_ms: 0,
            },
            RejectReason::ShuttingDown => Self {
                code: 3,
                retry_after_ms: 0,
            },
            RejectReason::FleetUnavailable { retry_after } => Self {
                code: 4,
                retry_after_ms: retry_after.as_millis() as u64,
            },
        }
    }

    /// Decode back to a [`RejectReason`]; unknown codes degrade to
    /// `Shed` (refused under load) rather than failing the frame.
    pub fn reason(self) -> RejectReason {
        match self.code {
            0 => RejectReason::QueueFull,
            2 => RejectReason::BreakerOpen,
            3 => RejectReason::ShuttingDown,
            4 => RejectReason::FleetUnavailable {
                retry_after: Duration::from_millis(self.retry_after_ms),
            },
            _ => RejectReason::Shed,
        }
    }
}

impl Wire for WireReject {
    fn encode(&self, w: &mut Writer) {
        w.u8(self.code);
        w.u64(self.retry_after_ms);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            code: r.u8()?,
            retry_after_ms: r.u64()?,
        })
    }
}

/// Worker verdict on a routed submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitVerdict {
    /// Admitted (or already running under this key — idempotent).
    Accepted,
    /// The key already completed here; the recorded outcome was
    /// re-pushed under the submission's epoch.
    AlreadyDone,
    /// The submission's epoch is older than one this worker has seen:
    /// a stale duplicate, dropped.
    Fenced,
    /// The worker is draining and accepts no new work.
    Draining,
    /// Worker-side admission refused the job.
    Rejected,
}

impl SubmitVerdict {
    fn code(self) -> u8 {
        match self {
            SubmitVerdict::Accepted => 0,
            SubmitVerdict::AlreadyDone => 1,
            SubmitVerdict::Fenced => 2,
            SubmitVerdict::Draining => 3,
            SubmitVerdict::Rejected => 4,
        }
    }

    fn of_code(c: u8) -> Result<Self, CodecError> {
        Ok(match c {
            0 => SubmitVerdict::Accepted,
            1 => SubmitVerdict::AlreadyDone,
            2 => SubmitVerdict::Fenced,
            3 => SubmitVerdict::Draining,
            4 => SubmitVerdict::Rejected,
            other => return Err(CodecError::Tag(other)),
        })
    }
}

/// Reply to `fleet/submit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitAck {
    /// The answering worker.
    pub origin: u64,
    /// What the worker decided.
    pub verdict: SubmitVerdict,
    /// For [`SubmitVerdict::Rejected`]/`Draining`: the refusal class.
    pub reject: Option<WireReject>,
}

impl Wire for SubmitAck {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.origin);
        w.u8(self.verdict.code());
        self.reject.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            origin: r.u64()?,
            verdict: SubmitVerdict::of_code(r.u8()?)?,
            reject: Option::<WireReject>::decode(r)?,
        })
    }
}

/// Terminal-state wire codes for [`JobState`].
fn state_code(s: JobState) -> u8 {
    match s {
        JobState::Completed => 0,
        JobState::Failed => 1,
        JobState::Cancelled => 2,
        JobState::TimedOut => 3,
        JobState::Rejected => 4,
        // Non-terminal states never cross the wire; encode defensively
        // as Failed rather than panicking in a network thread.
        _ => 1,
    }
}

/// Inverse of [`state_code`].
fn state_of_code(c: u8) -> Result<JobState, CodecError> {
    Ok(match c {
        0 => JobState::Completed,
        1 => JobState::Failed,
        2 => JobState::Cancelled,
        3 => JobState::TimedOut,
        4 => JobState::Rejected,
        other => return Err(CodecError::Tag(other)),
    })
}

/// A completion push: the worker-side [`grain_service::JobOutcome`]
/// projected onto the wire, tagged with the job's key, the epoch the
/// worker last saw, and the originating locality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetOutcome {
    /// The finished job's idempotency key.
    pub key: u64,
    /// The newest epoch the worker saw for this key; the gateway fences
    /// pushes older than its current lease epoch.
    pub epoch: u64,
    /// The worker the job actually ran on.
    pub origin: u64,
    /// Terminal state.
    pub state: JobState,
    /// Tasks that ran to completion.
    pub tasks_completed: u64,
    /// Total tasks entered into the job's group.
    pub tasks_spawned: u64,
    /// Tasks faulted in the last attempt.
    pub tasks_faulted: u64,
    /// Σt_exec over the job's phases, ns.
    pub exec_ns: u64,
    /// Σt_func over the job's phases, ns.
    pub func_ns: u64,
    /// Worker-side retries.
    pub retries: u64,
    /// Root-cause message of the first fault, if the job failed.
    pub fault_msg: Option<String>,
    /// Refusal class for worker-side rejections.
    pub reject: Option<WireReject>,
}

impl Wire for FleetOutcome {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.key);
        w.u64(self.epoch);
        w.u64(self.origin);
        w.u8(state_code(self.state));
        w.u64(self.tasks_completed);
        w.u64(self.tasks_spawned);
        w.u64(self.tasks_faulted);
        w.u64(self.exec_ns);
        w.u64(self.func_ns);
        w.u64(self.retries);
        self.fault_msg.encode(w);
        self.reject.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            key: r.u64()?,
            epoch: r.u64()?,
            origin: r.u64()?,
            state: state_of_code(r.u8()?)?,
            tasks_completed: r.u64()?,
            tasks_spawned: r.u64()?,
            tasks_faulted: r.u64()?,
            exec_ns: r.u64()?,
            func_ns: r.u64()?,
            retries: r.u64()?,
            fault_msg: Option::<String>::decode(r)?,
            reject: Option::<WireReject>::decode(r)?,
        })
    }
}

/// Reply to `fleet/drain`: the worker stopped accepting; every job that
/// was still *queued* (never started) was cancelled locally and its key
/// handed back for re-dispatch. Running jobs finish and push normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// The draining worker.
    pub origin: u64,
    /// Keys of queued jobs handed back (zero-loss: each goes back to
    /// the gateway's pending set).
    pub handed_back: Vec<u64>,
}

impl Wire for DrainReport {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.origin);
        self.handed_back.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            origin: r.u64()?,
            handed_back: Vec::<u64>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_net::codec::{from_bytes, to_bytes};

    fn job() -> FleetJob {
        FleetJob {
            key: 42,
            epoch: 3,
            name: "alpha-7".into(),
            tenant: "alpha".into(),
            family: family_code(GraphFamily::RandomDag),
            tasks: 24,
            grain_iters: 1000,
            payload_bytes: 64,
            seed: 7,
            deadline_ms: 250,
            faulty: false,
            park: true,
        }
    }

    #[test]
    fn all_types_round_trip() {
        let stats = WorkerStats {
            draining: true,
            pressure_level: 1,
            overhead: 0.25,
            queue_fill: 0.5,
            queued_jobs: 3,
            autotune_converged: false,
        };
        assert_eq!(to_bytes(&stats).len(), 27, "the stats reply's size");
        assert_eq!(from_bytes::<WorkerStats>(&to_bytes(&stats)).unwrap(), stats);
        assert_eq!(from_bytes::<FleetJob>(&to_bytes(&job())).unwrap(), job());
        let ack = SubmitAck {
            origin: 1,
            verdict: SubmitVerdict::Rejected,
            reject: Some(WireReject {
                code: 2,
                retry_after_ms: 40,
            }),
        };
        assert_eq!(from_bytes::<SubmitAck>(&to_bytes(&ack)).unwrap(), ack);
        let done = FleetOutcome {
            key: 42,
            epoch: 4,
            origin: 2,
            state: JobState::Completed,
            tasks_completed: 25,
            tasks_spawned: 25,
            tasks_faulted: 0,
            exec_ns: 123_456,
            func_ns: 234_567,
            retries: 0,
            fault_msg: None,
            reject: None,
        };
        assert_eq!(from_bytes::<FleetOutcome>(&to_bytes(&done)).unwrap(), done);
        let drain = DrainReport {
            origin: 1,
            handed_back: vec![1, 2, 3],
        };
        assert_eq!(from_bytes::<DrainReport>(&to_bytes(&drain)).unwrap(), drain);
    }

    #[test]
    fn truncated_frames_error_instead_of_panicking() {
        let bytes = to_bytes(&job());
        for cut in 0..bytes.len() {
            assert!(from_bytes::<FleetJob>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn reject_codes_round_trip_reasons() {
        for reason in [
            RejectReason::QueueFull,
            RejectReason::Shed,
            RejectReason::BreakerOpen,
            RejectReason::ShuttingDown,
            RejectReason::FleetUnavailable {
                retry_after: Duration::from_millis(75),
            },
        ] {
            assert_eq!(WireReject::of(reason).reason(), reason);
        }
    }

    #[test]
    fn family_codes_round_trip() {
        for f in [
            GraphFamily::Flat,
            GraphFamily::Stencil,
            GraphFamily::Butterfly,
            GraphFamily::Tree,
            GraphFamily::RandomDag,
            GraphFamily::Sweep,
        ] {
            assert_eq!(family_of_code(family_code(f)), f);
        }
    }
}
