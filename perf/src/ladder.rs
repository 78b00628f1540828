//! The layer ladder: short fixed-count timings of public functions of
//! each layer. Counts come from the layers' own counters and from the
//! counting allocator.
//!
//! Every traced run climbs the whole ladder, whatever its workload:
//! the benchmark contract wants every per-layer metric in every traced
//! result, so a rung cannot be left out of the runs whose workload does
//! not use its layer. End-to-end numbers come from untraced runs only,
//! so the ladder's time is not what limits the epoch count.
//!
//! Rungs are cheap on purpose (the whole ladder is a few seconds); they
//! are per-layer numbers without a bound, not the gated metrics.

use crate::host::{self, HostSample};
use crate::spec::{self, Kind, Reference, Scale, Workload, TENANTS};
use crate::stats;
use crate::trace::{count_allocs, Tracer};
use crate::workloads::{
    build_graph, closed_loop, time_reference, DistStack, FleetStack, GraphStack, Phase,
    ServiceStack, Stack, World, OP_TIMEOUT,
};
use grain_autotune::{Autotune, AutotuneConfig, ShapedWork};
use grain_net::codec::Frame;
use grain_runtime::queue::MpmcQueue;
use grain_runtime::{channel, Runtime};
use grain_service::{JobService, JobSpec};
use grain_sim::storm::GraphFamily;
use grain_stencil::{run_futurized, run_sequential, StencilParams};
use grain_taskbench::graph::Cov;
use grain_taskbench::TaskGraph;
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A rung's name (one of `spec::PER_LAYER`) and value.
pub type Rung = (&'static str, f64);

/// A job that is as close to nothing as a graph job gets: two
/// zero-grain tasks. Prices a layer's fixed cost per job.
const EMPTY_JOB: Workload = Workload {
    name: "empty_job",
    why: "",
    kind: Kind::ServiceJobs,
    lanes: 2,
    steps: 0,
    grain_iters: 0,
    payload_bytes: 0,
    ops: 200,
    warmup: 20,
    outstanding: 1,
    reference: Reference::Measured,
};

/// The grains (busy-work iterations per task) METG is searched over.
const METG_GRAINS: [(u64, u64); 6] = [
    // (grain_iters, operations timed at that grain)
    (250, 40),
    (750, 30),
    (2_000, 20),
    (6_000, 10),
    (20_000, 4),
    (64_000, 2),
];

/// Counts of this scale: `full ÷ ops_divisor`, at least 2.
fn n(scale: Scale, full: u64) -> u64 {
    (full / scale.ops_divisor).max(2)
}

/// ns per iteration of `f` over `count` iterations.
fn ns_per(count: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..count {
        f(i);
    }
    ns_each(t0, count)
}

/// ns per operation of `count` operations started at `t0`.
fn ns_each(t0: Instant, count: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / count as f64
}

fn median_us(tracer: &Tracer, span: &str) -> f64 {
    stats::median(&tracer.durations_us(span))
}

/// The graph of `w` and its reference checksum.
fn graph_of(w: &Workload, seed: u64) -> (Arc<TaskGraph>, u64) {
    let graph = Arc::new(build_graph(w, seed));
    let expected = graph.checksum_reference();
    (graph, expected)
}

/// Warm `stack` up with a tenth of `ops`, then drive `ops` operations
/// through it; a rung whose operations fail has measured nothing.
fn drive<S: Stack>(
    stack: &mut S,
    ops: u64,
    outstanding: usize,
    tracer: Option<&mut Tracer>,
) -> Phase {
    closed_loop(stack, 0, ops / 10 + 1, outstanding, None);
    let phase = closed_loop(stack, 0, ops, outstanding, tracer);
    assert_eq!(phase.failed, 0, "a ladder rung's operation failed");
    phase
}

/// Run every rung and return them (order is not significant).
pub fn run(seed: u64, scale: Scale) -> io::Result<Vec<Rung>> {
    let mut out = Vec::new();
    runtime_rungs(&mut out, seed, scale);
    metg_rung(&mut out, seed, scale);
    stencil_rungs(&mut out, scale);
    let service_p50_us = service_rungs(&mut out, seed, scale);
    net_rungs(&mut out, seed, scale)?;
    fleet_rungs(&mut out, seed, scale, service_p50_us)?;
    autotune_rung(&mut out, seed, scale);
    Ok(out)
}

fn workload(name: &str) -> &'static Workload {
    spec::workload(name).expect("ladder names only workloads of spec::WORKLOADS")
}

fn runtime_rungs(out: &mut Vec<Rung>, seed: u64, scale: Scale) {
    let count = n(scale, 200_000);
    let queue: MpmcQueue<u64> = MpmcQueue::new();
    let push_pop = ns_per(count, |i| {
        queue.push(i);
        black_box(queue.pop());
    });
    out.push(("runtime.queue.push_pop_ns", push_pop));

    let settle = {
        let pairs: Vec<_> = (0..count).map(|_| channel::<u64>()).collect();
        let t0 = Instant::now();
        for (promise, future) in pairs {
            future.on_settled(|v| {
                black_box(v.is_ok());
            });
            promise.set(1);
        }
        ns_each(t0, count)
    };
    out.push(("runtime.future.settle_ns", settle));

    let rt = Runtime::with_workers(host::nproc());
    let count = n(scale, 50_000);
    let t0 = Instant::now();
    for _ in 0..count {
        rt.spawn(|_| {});
    }
    rt.wait_idle();
    out.push(("runtime.spawn.task_ns", ns_each(t0, count)));

    let t0 = Instant::now();
    let futures: Vec<_> = (0..count).map(|i| rt.async_call(move |_| i)).collect();
    for f in &futures {
        black_box(f.get());
    }
    out.push(("runtime.async.call_ns", ns_each(t0, count)));
    drop(futures);

    // A dependency chain: every node waits for the one before it, so
    // this is the latency of create → trigger → dispatch → settle.
    let count = n(scale, 20_000);
    let t0 = Instant::now();
    let mut tail = rt.async_call(|_| 0u64);
    for _ in 0..count {
        tail = rt.dataflow(&[tail], |_, v| *v[0] + 1);
    }
    assert_eq!(*tail.get(), count, "dataflow chain lost a node");
    out.push(("runtime.dataflow.node_ns", ns_each(t0, count)));

    let query = ns_per(n(scale, 20_000), |_| {
        black_box(
            rt.registry()
                .query("/threads{locality#0/total}/idle-rate")
                .ok(),
        );
    });
    out.push(("counters.query_ns", query));
    drop(rt);

    // One worker, left alone long enough to park, then handed a task:
    // from the spawn call to the task's first instruction.
    let rt = Runtime::with_workers(1);
    let wakes: Vec<f64> = (0..n(scale, 200))
        .map(|_| {
            std::thread::sleep(Duration::from_millis(1));
            let t0 = Instant::now();
            let first = rt.async_call(|_| Instant::now()).get();
            first.saturating_duration_since(t0).as_secs_f64() * 1e6
        })
        .collect();
    out.push(("runtime.wake_us", stats::median(&wakes)));
    drop(rt);

    let w = workload("graph_fine");
    let (graph, expected) = graph_of(w, seed);
    let mut stack = GraphStack::new(host::nproc(), graph, expected);
    let ops = n(scale, 20);
    let (_, allocs) = count_allocs(|| drive(&mut stack, ops, 1, None));
    out.push((
        "runtime.allocs_per_task",
        allocs as f64 / (ops * w.tasks_per_op()) as f64,
    ));
}

/// Efficiency of the `graph_fine` shape at each pinned grain, and by
/// interpolation the smallest task duration (serial-reference µs) at
/// which it reaches one half: Task Bench's METG(50 %).
fn metg_rung(out: &mut Vec<Rung>, seed: u64, scale: Scale) {
    let shape = workload("graph_fine");
    let workers = host::nproc();
    // (task µs by the serial reference, efficiency), ascending grain.
    let points: Vec<(f64, f64)> = METG_GRAINS
        .iter()
        .map(|&(grain_iters, ops)| {
            let w = Workload {
                grain_iters,
                ..*shape
            };
            let graph = Arc::new(build_graph(&w, seed));
            let (expected, ref_ns) = time_reference(&graph, scale.reference_min / 10, workers);
            let mut stack = GraphStack::new(workers, Arc::clone(&graph), expected);
            let ops = n(scale, ops);
            let phase = drive(&mut stack, ops, 1, None);
            let serial_s = ref_ns * (ops * w.tasks_per_op()) as f64 / 1e9;
            (
                ref_ns / 1e3,
                serial_s / (workers as f64 * phase.wall.as_secs_f64()),
            )
        })
        .collect();
    out.push(("taskbench.metg_us", metg(&points)));
}

/// The task duration at which efficiency first reaches 0.5, linear in
/// (log duration, efficiency) between the two grains around it. Every
/// grain efficient: the smallest duration; none: the largest.
fn metg(points: &[(f64, f64)]) -> f64 {
    let Some(hit) = points.iter().position(|&(_, eff)| eff >= 0.5) else {
        return points[points.len() - 1].0;
    };
    if hit == 0 {
        return points[0].0;
    }
    let ((d0, e0), (d1, e1)) = (points[hit - 1], points[hit]);
    let share = (0.5 - e0) / (e1 - e0);
    (d0.ln() + share * (d1.ln() - d0.ln())).exp()
}

fn stencil_rungs(out: &mut Vec<Rung>, scale: Scale) {
    // 16 partitions of 20 000 points: 0.3 ms of work per task, far on
    // the coarse side of the paper's U-curve.
    let params = StencilParams::new(n(scale, 20_000) as usize, 16, 50);
    let updates = (params.total_points() * params.nt) as f64;
    let t0 = Instant::now();
    let sequential = run_sequential(&params);
    out.push((
        "stencil.seq_points_per_s",
        updates / t0.elapsed().as_secs_f64(),
    ));
    let rt = Runtime::with_workers(host::nproc());
    let t0 = Instant::now();
    let futurized = run_futurized(&rt, &params);
    out.push((
        "stencil.heat_points_per_s",
        updates / t0.elapsed().as_secs_f64(),
    ));
    assert_eq!(
        sequential, futurized,
        "futurized heat diverged from sequential"
    );
}

/// Service rungs; returns the p50 (µs) of a `fleet_tcp`-shaped job on a
/// one-worker service, which the fleet rung subtracts.
fn service_rungs(out: &mut Vec<Rung>, seed: u64, scale: Scale) -> f64 {
    let w = workload("service_jobs");
    let workers = host::nproc();
    let (graph, expected) = graph_of(w, seed);
    let jobs = n(scale, 300);

    // The same graph straight on a runtime: what a job costs without
    // the service around it.
    let mut local = GraphStack::new(workers, Arc::clone(&graph), expected);
    let local_p50 = stats::median(&drive(&mut local, jobs, 1, None).lat_us);
    drop(local);

    let mut stack = ServiceStack::new(workers, graph, expected);
    let (closed, allocs) = count_allocs(|| drive(&mut stack, jobs, w.outstanding, None));
    let mut tracer = Tracer::new();
    drive(&mut stack, jobs, w.outstanding, Some(&mut tracer));
    out.push((
        "service.submit_call_ns",
        median_us(&tracer, "service.submit") * 1e3,
    ));
    out.push((
        "service.queue_to_start_us",
        median_us(&tracer, "service.queue_to_start"),
    ));
    out.push((
        "service.settle_to_wake_us",
        median_us(&tracer, "service.settle_to_wake"),
    ));
    out.push(("service.allocs_per_job", allocs as f64 / jobs as f64));
    out.push((
        "service.overhead_us_per_job",
        stats::median(&closed.lat_us) - local_p50,
    ));

    // The same service, driven by a schedule instead of by completions.
    let closed_rate = jobs as f64 / closed.wall.as_secs_f64();
    let open_jobs = n(scale, 600);
    let mut late_us = Vec::new();
    for (name, share) in [
        ("service.open_p99_us_r50", 0.5),
        ("service.open_p99_us_r80", 0.8),
    ] {
        let (lat, late) = open_loop(&mut stack, open_jobs, closed_rate * share);
        out.push((name, stats::percentile(&lat, 99.0)));
        late_us.extend(late);
    }
    out.push(("service.gen_late_p99_us", stats::percentile(&late_us, 99.0)));

    let counters = stack.service().counters();
    let admission_ns = counters.admission_latency.quantile_floor(0.5);
    out.push(("service.admission_wait_p50_us", admission_ns as f64 / 1e3));
    out.push(("service.rejected", counters.rejected.get() as f64));
    out.push(("service.shed", counters.shed.get() as f64));
    drop(stack);

    let (empty, expected) = graph_of(&EMPTY_JOB, seed);
    let mut stack = ServiceStack::new(workers, empty, expected);
    let phase = drive(&mut stack, n(scale, EMPTY_JOB.ops), 1, None);
    out.push(("service.empty_job_us", stats::median(&phase.lat_us)));
    drop(stack);

    let (graph, expected) = graph_of(workload("fleet_tcp"), seed);
    let mut stack = ServiceStack::new(1, graph, expected);
    stats::median(&drive(&mut stack, n(scale, 50), 1, None).lat_us)
}

/// Submit `jobs` jobs to `stack` at `rate` per second whether or not
/// earlier ones have finished. Returns each job's latency from the
/// instant it was due to the instant its last task finished, and how
/// late the generator submitted it (both µs).
fn open_loop(stack: &mut ServiceStack, jobs: u64, rate: f64) -> (Vec<f64>, Vec<f64>) {
    let t0 = Instant::now() + Duration::from_millis(1);
    let mut late_us = Vec::with_capacity(jobs as usize);
    let tickets: Vec<_> = (0..jobs)
        .map(|i| {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            late_us.push(due.elapsed().as_secs_f64() * 1e6);
            (due, stack.submit_stamped(i))
        })
        .collect();
    let lat_us = tickets
        .into_iter()
        .map(|(due, ticket)| {
            let stamps = ticket.stamps.clone().expect("submit_stamped always stamps");
            assert!(
                stack.wait(ticket, None),
                "service rung: an open-loop job failed"
            );
            let done = *stamps.done.get().expect("a completed job ran its body");
            done.saturating_duration_since(due).as_secs_f64() * 1e6
        })
        .collect();
    (lat_us, late_us)
}

fn net_rungs(out: &mut Vec<Rung>, seed: u64, scale: Scale) -> io::Result<()> {
    // The frame a 64-byte taskbench edge reply travels in.
    let frame = Frame::Reply {
        call_id: 1,
        outcome: Ok(vec![0x5a; 64]),
    };
    let bytes = frame.encode();
    let count = n(scale, 100_000);
    out.push((
        "net.codec.encode_ns",
        ns_per(count, |_| drop(black_box(frame.encode()))),
    ));
    out.push((
        "net.codec.decode_ns",
        ns_per(count, |_| drop(black_box(Frame::decode(&bytes)))),
    ));
    out.push(("net.codec.frame_bytes", bytes.len() as f64));

    let loopback = World::loopback(2);
    let calls = n(scale, 2_000);
    echo_rtts(&loopback, calls / 10 + 1);
    let (rtts, allocs) = count_allocs(|| echo_rtts(&loopback, calls));
    out.push(("net.loopback.rtt_us", stats::median(&rtts)));
    out.push(("net.allocs_per_parcel", allocs as f64 / (2 * calls) as f64));
    loopback.shutdown();

    let (graph, expected) = graph_of(workload("dist_graph"), seed);
    let mut stack = DistStack::new(graph, expected);
    // No warm-up: every parcel of the world belongs to a counted op.
    let ops = n(scale, 20);
    let phase = closed_loop(&mut stack, 0, ops, 1, None);
    assert_eq!(phase.failed, 0, "a distributed graph run failed");
    let unbalanced = stack.world().sent_minus_received();
    let (sent, bytes_sent) = stack.world().localities().fold((0, 0), |(s, b), loc| {
        let p = loc.parcels();
        (s + p.sent.get(), b + p.bytes_sent.get())
    });
    out.push(("net.parcels_per_op", sent as f64 / ops as f64));
    out.push(("net.bytes_per_parcel", bytes_sent as f64 / sent as f64));
    out.push(("net.sent_minus_received", unbalanced as f64));
    stack.teardown();

    let tcp = World::tcp(2)?;
    echo_rtts(&tcp, 2);
    out.push((
        "net.tcp.rtt_us",
        stats::median(&echo_rtts(&tcp, n(scale, 8))),
    ));
    let calls = n(scale, 2_000);
    let before = HostSample::take();
    let t0 = Instant::now();
    let futures: Vec<_> = (0..calls)
        .map(|i| tcp.locality(0).async_remote::<u64, u64>(1, "echo", &i))
        .collect();
    for (i, f) in futures.iter().enumerate() {
        let reply = f.wait_timeout(OP_TIMEOUT);
        assert!(
            reply.is_ok_and(|v| *v == i as u64),
            "net rung: echo {i} came back wrong"
        );
    }
    let wall = t0.elapsed().as_secs_f64();
    let switches = HostSample::take()
        .ctx_switches
        .saturating_sub(before.ctx_switches);
    out.push(("net.tcp.stream_parcels_per_s", (2 * calls) as f64 / wall));
    out.push((
        "net.tcp.ctx_switches_per_parcel",
        switches as f64 / (2 * calls) as f64,
    ));
    tcp.shutdown();
    Ok(())
}

/// `calls` sequential echo round trips from locality 0 to 1, µs each.
fn echo_rtts(world: &World, calls: u64) -> Vec<f64> {
    world.locality(1).register_action("echo", |x: u64| x);
    (0..calls)
        .map(|i| {
            let t0 = Instant::now();
            let reply = world.locality(0).async_remote::<u64, u64>(1, "echo", &i);
            let reply = reply.wait_timeout(OP_TIMEOUT);
            assert!(
                reply.is_ok_and(|v| *v == i),
                "net rung: echo {i} came back wrong"
            );
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn fleet_rungs(
    out: &mut Vec<Rung>,
    seed: u64,
    scale: Scale,
    service_p50_us: f64,
) -> io::Result<()> {
    let w = workload("fleet_tcp");
    let workers = spec::FLEET_WORKERS + 1;

    // Loopback: the fleet layer's own price, without the TCP stall.
    let polling = FleetStack::default_stats_max_age();
    let mut stack = FleetStack::new(World::loopback(workers), &EMPTY_JOB, seed, polling);
    let jobs = n(scale, 100);
    closed_loop(&mut stack, 0, jobs / 10 + 1, 1, None);
    let mut tracer = Tracer::new();
    let calls_before = stack.world().locality(0).parcels().calls_issued.get();
    let dispatches_before = stack.gateway().ledger().dispatches;
    let phase = closed_loop(&mut stack, 0, jobs, 1, Some(&mut tracer));
    let calls = stack.world().locality(0).parcels().calls_issued.get() - calls_before;
    let dispatches = stack.gateway().ledger().dispatches - dispatches_before;
    out.push((
        "fleet.submit_call_ns",
        median_us(&tracer, "fleet.submit") * 1e3,
    ));
    out.push(("fleet.empty_job_loopback_us", stats::median(&phase.lat_us)));
    out.push(("fleet.dispatches_per_job", dispatches as f64 / jobs as f64));
    // The gateway locality issues two kinds of call: dispatches and polls.
    let polls = calls.saturating_sub(dispatches);
    out.push(("fleet.stats_polls_per_job", polls as f64 / jobs as f64));
    // `teardown` counts a ledger that is not conserved.
    let mut broken = phase.failed + stack.teardown();

    let mut stack = FleetStack::new(World::loopback(workers), w, seed, polling);
    let phase = drive(&mut stack, n(scale, 50), 1, None);
    out.push((
        "fleet.overhead_us_per_job",
        stats::median(&phase.lat_us) - service_p50_us,
    ));
    broken += stack.teardown();

    let pinned = spec::FLEET_STATS_MAX_AGE;
    let mut stack = FleetStack::new(World::tcp(workers)?, &EMPTY_JOB, seed, pinned);
    let phase = drive(&mut stack, n(scale, 6), 1, None);
    out.push(("fleet.empty_job_tcp_us", stats::median(&phase.lat_us)));
    broken += stack.teardown();
    out.push(("fleet.ledger_conserved", f64::from(u8::from(broken == 0))));
    Ok(())
}

/// What the autotune policy adds to a submission: `submit_shaped`
/// (controller lookup + expansion + submit) against a plain `submit` of
/// a job that was expanded beforehand. Autotune is off, so both submit
/// the same job every time.
fn autotune_rung(out: &mut Vec<Rung>, seed: u64, scale: Scale) {
    let w = workload("service_jobs");
    let service = JobService::with_workers(host::nproc());
    let auto = Autotune::new(AutotuneConfig {
        enabled: false,
        ..AutotuneConfig::default()
    });
    auto.attach(&service)
        .expect("fresh service registry has no /autotune counters");
    let tenant = TENANTS[0];
    let shape = ShapedWork::Graph {
        family: GraphFamily::Stencil,
        total_iters: w.tasks_per_op() * w.grain_iters,
        payload_bytes: 0,
        seed,
        cov: Cov::Uniform,
    };
    let (mut shaped_us, mut plain_us) = (Vec::new(), Vec::new());
    for _ in 0..n(scale, 100) {
        let t0 = Instant::now();
        let handle = auto.submit_shaped(&service, "shaped", tenant, &shape);
        shaped_us.push(t0.elapsed().as_secs_f64() * 1e6);
        handle.wait();

        let expanded = shape.expand(auto.grain_for(tenant));
        let spec = JobSpec::new("plain", tenant).estimated_tasks(expanded.tasks + 1);
        let mut body = expanded.body;
        let t0 = Instant::now();
        let handle = service.submit(spec, move |ctx| body(ctx));
        plain_us.push(t0.elapsed().as_secs_f64() * 1e6);
        handle.wait();
    }
    let overhead = stats::median(&shaped_us) - stats::median(&plain_us);
    out.push(("autotune.submit_shaped_overhead_us", overhead));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metg_interpolates_between_the_grains_around_one_half() {
        // Efficiency crosses 0.5 halfway (in log duration) between 1 and 4 µs.
        let points = [(0.25, 0.1), (1.0, 0.3), (4.0, 0.7), (16.0, 0.9)];
        assert!((metg(&points) - 2.0).abs() < 1e-9);
        // Exactly on a grain.
        assert_eq!(metg(&[(1.0, 0.2), (2.0, 0.5), (4.0, 0.8)]), 2.0);
    }

    #[test]
    fn metg_saturates_at_the_ends_of_the_grain_range() {
        assert_eq!(metg(&[(1.0, 0.6), (2.0, 0.8)]), 1.0);
        assert_eq!(metg(&[(1.0, 0.1), (2.0, 0.3)]), 2.0);
    }

    #[test]
    fn the_empty_job_is_the_shape_the_fleet_builds_for_its_task_count() {
        // FleetStack asks the worker for `tasks_per_op` stencil tasks;
        // the worker must build the same graph the reference uses.
        for w in [&EMPTY_JOB, workload("fleet_tcp")] {
            let kind =
                grain_taskbench::storm::kind_for_family(GraphFamily::Stencil, w.tasks_per_op());
            assert_eq!(Some(build_graph(w, 1).spec.kind), kind, "{}", w.name);
        }
    }
}
