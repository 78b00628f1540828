//! The worker loop: dispatch, timing, starvation accounting, parking.
//!
//! Timing follows the paper's counter semantics (§II-A):
//!
//! * `t_exec` — the closure time of each phase, accumulated into
//!   `Σt_exec` (`/threads/time/cumulative-exec`);
//! * `t_func` — "the total time to complete each HPX-thread": measured
//!   from the end of the previous dispatch (i.e. including the search
//!   for work, conversion, dequeue, state transitions) to the end of the
//!   current phase.
//!
//! A worker whose search comes up empty spins `spin_rounds` times, then
//! parks in one of two ways, chosen by the in-flight count it reads
//! just before parking:
//!
//! * *starving* — a task is in flight somewhere: it naps at most 200 µs
//!   and searches again, and charges the search and the nap to
//!   `Σt_func`, so coarse-grained runs show the rising idle-rate of
//!   Fig. 4/5's right-hand side;
//! * *quiescent* — nothing is in flight: it sleeps until a spawn, resume,
//!   throttle change or shutdown wakes it, and charges nothing, even when
//!   a spawn is what ended the sleep — otherwise the counters would drift
//!   between benchmark runs. A throttled worker sleeps the same way.
//!
//! The worker reads the clock exactly twice per executed phase: once
//! immediately before the body and once immediately after it. The second
//! read ends `t_exec` *and* is the new `Σt_func` mark, so both sums are
//! exact and a worker's `Σt_exec` can never exceed its `Σt_func`. The
//! park, quiescent and throttle paths take their own reads.
//!
//! Every phase runs under `catch_unwind`: a panicking body terminates
//! only its task (→ `Faulted`, promise settled with
//! [`TaskError::Panicked`], group notified), never the worker. The
//! worker settles a task node's output itself on both exits that run no
//! closure to the end — the panic and the cancellation skip. The one
//! deliberate exception is the `Poll::Suspend`-without-registration
//! programming error below, which stays worker-fatal — the dead-worker
//! detection in [`crate::Runtime`] exists to surface exactly that class
//! of bug loudly instead of hanging.
//!
//! The worker's search state — its *next* slot and the streak and yield
//! marks ([`SearchState`]) — is a local of this loop. A worker never
//! sleeps, stands down or exits with a task in its slot, which no other
//! worker can see: on each of those paths it first moves the task to its
//! pending queue and wakes the pool.

use crate::fault::{self, TaskError};
use crate::runtime::{Inner, Resumer, TaskContext};
use crate::scheduler::{Provenance, SearchState};
use crate::task::{Poll, Task, TaskState};
use crate::trace::TraceEventKind;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub(crate) fn worker_loop(inner: Arc<Inner>, w: usize) {
    inner.bind_worker(w);
    let counters = &inner.counters;
    let mut mark = Instant::now();
    let mut failed_rounds: u32 = 0;
    // What the last act of a phase hands off; emptied after every phase.
    let mut released = Vec::new();
    let mut search = SearchState::default();

    loop {
        // Eventcount ticket, taken before any probe of this iteration:
        // any wake() fired after this point (spawn, resume, throttle
        // change, shutdown) makes a later park() of this iteration
        // return immediately instead of sleeping through the event.
        let ticket = inner.park_ticket();
        if w >= inner.active_limit.load(Ordering::SeqCst) {
            inner.publish_next(w, &mut search);
            if inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Throttled: park without taking work; throttled time is
            // deliberate and never charged as starvation.
            inner.park_throttled(ticket);
            mark = Instant::now();
            failed_rounds = 0;
            continue;
        }
        match inner.scheduler.find_work(w, counters, &mut search) {
            Some((mut task, prov)) => {
                failed_rounds = 0;
                if prov == Provenance::HighPriority {
                    // The search stopped short of the next slot: what is
                    // in it must not sit unseen behind this body.
                    inner.publish_next(w, &mut search);
                }
                let skip = task.group.as_ref().and_then(|g| {
                    if g.is_cancelled() {
                        Some((std::sync::Arc::clone(g), false))
                    } else if g.budget_exhausted() {
                        // Deadline budget propagation: the job this task
                        // belongs to has already spent its deadline, so
                        // running the body would be work nobody collects.
                        Some((std::sync::Arc::clone(g), true))
                    } else {
                        None
                    }
                });
                if let Some((group, over_budget)) = skip {
                    // Cooperative cancellation: the body never runs. The
                    // task still terminates (legally) so in-flight counts
                    // — runtime-wide and group — stay balanced. A node's
                    // output, or a promise the frame holds, faults with
                    // `Cancelled` instead of `BrokenPromise`.
                    task.transition(TaskState::Active);
                    task.transition(TaskState::Terminated);
                    task.body.abandon(TaskError::Cancelled);
                    inner.task_done();
                    if over_budget {
                        group.exit_over_budget();
                    } else {
                        group.exit_skipped();
                    }
                    // Skipping is part of the search-to-search interval,
                    // charged to Σt_func by the next successful dispatch
                    // via `mark`.
                    continue;
                }
                if inner.tracer.enabled() {
                    if let Some(victim) = prov.victim() {
                        let steal = TraceEventKind::Steal {
                            from: victim as u32,
                        };
                        inner.tracer.record(w, task.id, steal);
                    }
                    inner.tracer.record(w, task.id, TraceEventKind::PhaseStart);
                }
                task.transition(TaskState::Active);
                let mut ctx = TaskContext {
                    inner: &inner,
                    worker: w,
                    task_id: task.id,
                    phase: task.phases,
                    suspend_registration: None,
                    group: task.group.clone(),
                    released: &mut released,
                };
                let exec_start = Instant::now();
                // Isolate the phase: a panicking body must terminate only
                // this task. The scope arms the panic hook so the message
                // is captured (and not printed) and reachable by promise
                // drop glue running inside the unwind.
                let result = {
                    let _scope = fault::PhaseScope::enter();
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        task.body.run(&mut ctx)
                    }))
                };
                let now = Instant::now();
                let exec_ns = now.duration_since(exec_start).as_nanos() as u64;
                if inner.tracer.enabled() {
                    inner.tracer.record(w, task.id, TraceEventKind::PhaseEnd);
                }
                let registration = ctx.suspend_registration.take();

                task.phases += 1;
                task.exec_ns += exec_ns;
                counters.phases.incr(w);
                counters.exec_ns.add(w, exec_ns);
                counters.exec_histogram.record(w, exec_ns);
                if let Some(g) = &task.group {
                    g.add_exec_ns(exec_ns);
                }

                counters
                    .func_ns
                    .add(w, now.duration_since(mark).as_nanos() as u64);
                mark = now;
                if !released.is_empty() {
                    inner.place_released(w, &mut released, &mut search);
                }

                match result {
                    Ok(Poll::Complete) => {
                        fault::take_captured_panic();
                        task.transition(TaskState::Terminated);
                        counters.tasks.incr(w);
                        let Task { body, group, .. } = task;
                        drop(body); // free the frame before signalling idle
                        inner.task_done();
                        if let Some(g) = group {
                            g.exit_completed();
                        }
                    }
                    Ok(Poll::Yield) => {
                        fault::take_captured_panic();
                        task.transition(TaskState::Pending);
                        inner.scheduler.queues.push_pending(w, task);
                        // The next pass looks at the staged queue first:
                        // on a one-worker runtime the pending queue would
                        // hand this task back ahead of anything staged
                        // for as long as it yields.
                        search.staged_first = true;
                        inner.wake();
                    }
                    Ok(Poll::Suspend) => {
                        fault::take_captured_panic();
                        task.transition(TaskState::Suspended);
                        let registration = registration.expect(
                            "task returned Poll::Suspend without calling \
                             TaskContext::suspend_until first",
                        );
                        registration(Resumer {
                            inner: Arc::clone(&inner),
                            task: Some(task),
                        });
                    }
                    Err(payload) => {
                        // The panic is contained: this task faults, the
                        // worker carries on. A promise the closure owned
                        // settled during the unwind (with the captured
                        // message); a node's output, and a promise a
                        // phased body still holds, fault here.
                        let message = fault::take_captured_panic()
                            .unwrap_or_else(|| fault::payload_message(payload.as_ref()));
                        drop(payload);
                        let error = TaskError::Panicked { message };
                        task.transition(TaskState::Faulted);
                        counters.faulted.incr(w);
                        let Task { body, group, .. } = task;
                        body.abandon(error.clone());
                        inner.task_done();
                        if let Some(g) = group {
                            g.exit_faulted(error);
                        }
                    }
                }
            }
            None => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                failed_rounds += 1;
                if failed_rounds <= inner.config.spin_rounds {
                    std::hint::spin_loop();
                    continue;
                }
                failed_rounds = 0;
                // Starving: work is in flight somewhere but this worker
                // found none. Quiescent otherwise: nothing can end the
                // nap but a wake, and the elapsed window is discarded so
                // the counters don't drift while nothing is happening.
                let starving = inner.in_flight.load(Ordering::SeqCst) > 0;
                if !starving {
                    mark = Instant::now();
                }
                // An empty search took whatever was in the next slot, and
                // only a phase fills it; this is the rule, kept anyway.
                inner.publish_next(w, &mut search);
                // The ticket predates this iteration's (empty) search: a
                // spawn that raced it bumped the generation and voids the
                // park — the lost-wakeup window is closed.
                inner.park(ticket, starving);
                let now = Instant::now();
                if starving {
                    // Genuine starvation: charge the search + nap time to
                    // Σt_func (the paper: at coarse grain "cores have no
                    // work to do … but the thread scheduler continues to
                    // look for work"). A quiescent park charges nothing,
                    // even when a spawn is what ended it.
                    counters
                        .func_ns
                        .add(w, now.duration_since(mark).as_nanos() as u64);
                }
                mark = now;
            }
        }
    }
    inner.publish_next(w, &mut search);
    inner.unbind_worker();
}
