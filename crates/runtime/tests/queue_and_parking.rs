//! Stress tests for the lock-free scheduler queues and the eventcount
//! parking protocol.
//!
//! The queue tests hammer [`MpmcQueue`] directly with many producers and
//! consumers and assert the two properties the scheduler relies on: no
//! item is ever lost or duplicated, and each producer's items come out in
//! the order that producer pushed them (observed per consumer — the only
//! vantage point from which FIFO is even meaningful under concurrency).
//!
//! The parking tests drive whole runtimes, as shipped, through
//! spawn-then-quiesce cycles. A worker that parks while nothing is in
//! flight sleeps with no timeout, so the *only* thing that can get it
//! running again is a correct wake. A spawn that slipped between a
//! worker's final empty search and its park would leave that worker
//! asleep through the work; the generation ticket closes that window —
//! these tests hang (and are killed by the guard thread) if it reopens.
//! The window is narrow: with the ticket re-checks removed, about one
//! run in a few hundred hangs (EXPERIMENTS.md, "One observation path").
//! A worker that parks while work is in flight elsewhere still naps at
//! most 200 µs, so a wake lost to it would show here as delay, not as a
//! hang.
//!
//! The condvar test does the same to `sync::Condvar`, whose notifies
//! return without a system call when its waiter count reads zero: a
//! bounded hand-off whose threads wait without a timeout, so one notify
//! skipped while somebody was waiting hangs it.

use grain_counters::sync::{AtomicU64, AtomicUsize, Ordering};
use grain_runtime::grain_counters::sync::{Condvar, Mutex};
use grain_runtime::queue::{MpmcQueue, BLOCK_CAP};
use grain_runtime::{Runtime, RuntimeConfig};
use std::sync::Arc;
use std::time::Duration;

/// N producers × N consumers; every item tagged (producer, seq). Asserts
/// conservation (no loss, no duplication) and per-producer FIFO within
/// each consumer's pop sequence.
#[test]
fn queue_contention_no_loss_no_dup_per_producer_fifo() {
    const PRODUCERS: usize = 8;
    const CONSUMERS: usize = 8;
    const PER_PRODUCER: u64 = 20_000;

    let q = Arc::new(MpmcQueue::new());
    let remaining = Arc::new(AtomicU64::new(PRODUCERS as u64 * PER_PRODUCER));

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = Arc::clone(&q);
            grain_counters::sync::spawn("producer", move || {
                for seq in 0..PER_PRODUCER {
                    q.push((p, seq));
                    if seq % 512 == 0 {
                        std::thread::yield_now(); // shuffle interleavings
                    }
                }
            })
            .unwrap()
        })
        .collect();

    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let q = Arc::clone(&q);
            let remaining = Arc::clone(&remaining);
            grain_counters::sync::spawn("consumer", move || {
                // Per-producer counts and last-seen sequence numbers.
                let mut counts = [0u64; PRODUCERS];
                let mut last_seq = [None::<u64>; PRODUCERS];
                loop {
                    match q.pop() {
                        Some((p, seq)) => {
                            remaining.fetch_sub(1, Ordering::SeqCst);
                            counts[p] += 1;
                            if let Some(prev) = last_seq[p] {
                                assert!(
                                    seq > prev,
                                    "per-producer FIFO violated: producer {p} \
                                     seq {seq} popped after {prev}"
                                );
                            }
                            last_seq[p] = Some(seq);
                        }
                        None => {
                            if remaining.load(Ordering::SeqCst) == 0 {
                                return counts;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            })
            .unwrap()
        })
        .collect();

    for p in producers {
        p.join().expect("producer panicked");
    }
    let mut totals = [0u64; PRODUCERS];
    for c in consumers {
        let counts = c.join().expect("consumer panicked");
        for (t, n) in totals.iter_mut().zip(counts) {
            *t += n;
        }
    }
    for (p, t) in totals.iter().enumerate() {
        assert_eq!(
            *t, PER_PRODUCER,
            "producer {p}: popped {t} of {PER_PRODUCER} items"
        );
    }
    assert!(q.is_empty() && q.pop().is_none());
}

/// Producers and consumers crossing segment boundaries while the queue
/// population oscillates around a multiple of BLOCK_CAP — the regime
/// where segment install/advance/destroy races are most likely.
#[test]
fn queue_contention_across_segment_boundaries() {
    let q = Arc::new(MpmcQueue::new());
    // Standing population just under two segments.
    let standing = 2 * BLOCK_CAP - 3;
    for i in 0..standing as u64 {
        q.push(i);
    }
    let pushed = Arc::new(AtomicU64::new(standing as u64));
    let popped = Arc::new(AtomicU64::new(0));
    const OPS: u64 = 50_000;

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let q = Arc::clone(&q);
            let pushed = Arc::clone(&pushed);
            let popped = Arc::clone(&popped);
            grain_counters::sync::spawn("pusher-popper", move || {
                // Each thread alternates push/pop, keeping the population
                // hovering at the boundary.
                for _ in 0..OPS {
                    q.push(pushed.fetch_add(1, Ordering::Relaxed));
                    while q.pop().is_none() {
                        std::thread::yield_now();
                    }
                    popped.fetch_add(1, Ordering::Relaxed);
                }
            })
            .unwrap()
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert_eq!(popped.load(Ordering::SeqCst), 4 * OPS);
    assert_eq!(q.len(), standing, "population must be conserved");
}

/// Run `f` but fail loudly if it takes longer than `limit` — the
/// signature of a worker asleep through available work (a quiescent park
/// has no timeout, so a lost wakeup turns into an endless stall instead
/// of a silently slow test).
fn bounded(limit: Duration, name: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let t = grain_counters::sync::spawn(name, move || {
        f();
        let _ = tx.send(());
    })
    .expect("spawn the test body");
    match rx.recv_timeout(limit) {
        Ok(()) => t.join().expect("test body panicked"),
        Err(_) => panic!("{name}: exceeded {limit:?} — a worker likely slept through work"),
    }
}

/// Spawn-then-quiesce cycles with quiescent parks that never time out:
/// every cycle's completion proves no worker slept through its spawns.
#[test]
fn no_lost_wakeups_across_spawn_quiesce_cycles() {
    bounded(Duration::from_secs(60), "spawn/quiesce cycles", || {
        let r = Runtime::new(RuntimeConfig::with_workers(2));
        let hits = Arc::new(AtomicUsize::new(0));
        let mut expected = 0;
        for round in 0..2_000 {
            // Alternate burst sizes so rounds end with workers racing
            // into park at different phases.
            let batch = 1 + (round % 7);
            for _ in 0..batch {
                let h = Arc::clone(&hits);
                r.spawn(move |_| {
                    h.fetch_add(1, Ordering::SeqCst);
                });
            }
            expected += batch;
            r.wait_idle();
            assert_eq!(hits.load(Ordering::SeqCst), expected);
        }
    });
}

/// The same race, attacked from outside the runtime: an external thread
/// spawning single tasks back-to-back against workers that park
/// quiescent between them. Any one lost wakeup stalls the whole chain.
#[test]
fn single_task_chain_never_stalls() {
    bounded(Duration::from_secs(60), "single-task chain", || {
        let r = Runtime::new(RuntimeConfig::with_workers(4));
        for i in 0..5_000u64 {
            let f = r.async_call(move |_| i * 2);
            let v = f.wait().expect("task must not fault");
            assert_eq!(*v, i * 2);
        }
    });
}

/// Throttled workers must wake promptly when the limit is raised (the
/// throttle park aborts on a generation bump), and a throttled runtime
/// must still finish its work with the surviving active workers.
#[test]
fn throttle_and_unthrottle_never_strands_work() {
    bounded(Duration::from_secs(60), "throttle cycling", || {
        let r = Runtime::new(RuntimeConfig::with_workers(4));
        let hits = Arc::new(AtomicUsize::new(0));
        let mut expected = 0;
        for round in 0..200 {
            r.set_active_workers(1 + round % 4);
            for _ in 0..20 {
                let h = Arc::clone(&hits);
                r.spawn(move |_| {
                    h.fetch_add(1, Ordering::SeqCst);
                });
            }
            expected += 20;
            r.wait_idle();
            assert_eq!(hits.load(Ordering::SeqCst), expected);
        }
    });
}

/// 8 producers hand 10⁵ items to 8 consumers through a 4-slot buffer
/// guarded by `sync::Mutex` and two `sync::Condvar`s, every
/// `wait_until` un-timed. Both sides block constantly, so nearly every notify races a
/// waiter on its way into `wait`; a notify that wrongly saw "no waiter"
/// leaves that thread asleep for good and the guard thread fails the
/// test.
#[test]
fn condvar_handoff_loses_no_wakeup() {
    const SIDES: u64 = 8;
    const PER_PRODUCER: u64 = 12_500;
    const SLOTS: usize = 4;

    struct Buffer {
        items: Mutex<std::collections::VecDeque<u64>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    bounded(Duration::from_secs(60), "condvar hand-off", || {
        let buf = Arc::new(Buffer {
            items: Mutex::new(std::collections::VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        let producers: Vec<_> = (0..SIDES)
            .map(|p| {
                let buf = Arc::clone(&buf);
                grain_counters::sync::spawn("producer", move || {
                    for i in 0..PER_PRODUCER {
                        let mut items = buf.items.lock();
                        buf.not_full
                            .wait_until(&mut items, None, |items| items.len() < SLOTS);
                        items.push_back(p * PER_PRODUCER + i);
                        drop(items);
                        buf.not_empty.notify_one();
                    }
                })
                .unwrap()
            })
            .collect();
        let consumers: Vec<_> = (0..SIDES)
            .map(|_| {
                let buf = Arc::clone(&buf);
                grain_counters::sync::spawn("consumer", move || {
                    let mut sum = 0u64;
                    for _ in 0..PER_PRODUCER {
                        let mut items = buf.items.lock();
                        buf.not_empty
                            .wait_until(&mut items, None, |items| !items.is_empty());
                        let item = items.pop_front().expect("woken on an item");
                        drop(items);
                        buf.not_full.notify_one();
                        sum += item;
                    }
                    sum
                })
                .unwrap()
            })
            .collect();
        for p in producers {
            p.join().expect("producer panicked");
        }
        let total: u64 = consumers
            .into_iter()
            .map(|c| c.join().expect("consumer panicked"))
            .sum();
        let n = SIDES * PER_PRODUCER;
        assert_eq!(total, n * (n - 1) / 2, "an item was lost or duplicated");
    });
}
