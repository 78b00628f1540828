//! Randomized-property tests over the core invariants.
//!
//! The seed used `proptest` here; to keep tier-1 builds offline these are
//! now plain seeded sweeps over the in-repo [`Pcg32`] generator: each test
//! draws a few dozen random configurations from a fixed seed (fully
//! deterministic, so failures reproduce) and asserts the same invariants
//! the proptest versions did. On failure the offending configuration is
//! part of the panic message.

use grain::counters::{equations, CounterPath, Pcg32, SampleStats};
use grain::metrics::{simulate, SimConfig};
use grain::runtime::Runtime;
use grain::stencil::{run_futurized, run_sequential, stencil_workload, total_heat, StencilParams};
use grain::topology::presets;
use grain::topology::NumaTopology;

/// Draw a usize uniformly from `[lo, hi)`.
fn draw(rng: &mut Pcg32, lo: usize, hi: usize) -> usize {
    lo + rng.range_u64((hi - lo) as u64) as usize
}

/// The futurized dataflow execution is bit-identical to the sequential
/// oracle for arbitrary problem shapes and worker counts.
#[test]
fn futurized_matches_sequential() {
    let mut rng = Pcg32::seed_from_u64(0xF07);
    for case in 0..32 {
        let nx = draw(&mut rng, 1, 48);
        let np = draw(&mut rng, 1, 24);
        let nt = draw(&mut rng, 0, 12);
        let workers = draw(&mut rng, 1, 5);
        let params = StencilParams::new(nx, np, nt);
        let rt = Runtime::with_workers(workers);
        let fut = run_futurized(&rt, &params);
        let seq = run_sequential(&params);
        assert_eq!(
            fut, seq,
            "case {case}: nx={nx} np={np} nt={nt} workers={workers}"
        );
    }
}

/// The ring scheme conserves total heat for any shape.
#[test]
fn heat_is_conserved() {
    let mut rng = Pcg32::seed_from_u64(0x4EA7);
    for case in 0..32 {
        let nx = draw(&mut rng, 1, 64);
        let np = draw(&mut rng, 1, 32);
        let nt = draw(&mut rng, 0, 20);
        let params = StencilParams::new(nx, np, nt);
        let grid = run_sequential(&params);
        let expect: f64 = (0..params.total_points())
            .map(|g| (g / params.nx) as f64)
            .sum();
        let got = total_heat([&grid[..]]);
        assert!(
            (got - expect).abs() <= 1e-9 * expect.max(1.0) * nt.max(1) as f64,
            "case {case}: nx={nx} np={np} nt={nt}: {got} vs {expect}"
        );
    }
}

/// Diffusion is a contraction: the value range never widens.
#[test]
fn diffusion_never_widens_the_range() {
    let mut rng = Pcg32::seed_from_u64(0xD1FF);
    for case in 0..32 {
        let nx = draw(&mut rng, 1, 32);
        let np = draw(&mut rng, 2, 16);
        let nt = draw(&mut rng, 1, 16);
        let params = StencilParams::new(nx, np, nt);
        let grid = run_sequential(&params);
        let lo = grid.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = grid.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo >= 0.0 - 1e-12, "case {case}: nx={nx} np={np} nt={nt}");
        assert!(
            hi <= (np - 1) as f64 + 1e-12,
            "case {case}: nx={nx} np={np} nt={nt}"
        );
    }
}

/// Counter paths round-trip through parse/format for arbitrary
/// well-formed components.
#[test]
fn counter_path_roundtrip() {
    let mut rng = Pcg32::seed_from_u64(0xBA7);
    let word = |rng: &mut Pcg32| {
        let len = 1 + rng.range_u64(10) as usize;
        let mut s = String::new();
        for i in 0..len {
            let c = if i == 0 {
                b'a' + rng.range_u64(26) as u8
            } else {
                // [a-z0-9-]
                match rng.range_u64(37) {
                    d @ 0..=25 => b'a' + d as u8,
                    d @ 26..=35 => b'0' + (d - 26) as u8,
                    _ => b'-',
                }
            };
            s.push(c as char);
        }
        s
    };
    for case in 0..64 {
        let object = word(&mut rng);
        let mut name = word(&mut rng);
        if rng.next_f64() < 0.5 {
            name = format!("{name}/{}", word(&mut rng));
        }
        let mut path = CounterPath::new(object, name);
        if rng.next_f64() < 0.5 {
            let w = rng.range_u64(64) as usize;
            path = path.with_instance(CounterPath::worker_instance(w));
        }
        let s = path.to_string();
        let parsed: CounterPath = s.parse().unwrap();
        assert_eq!(parsed, path, "case {case}: `{s}`");
    }
}

/// Welford merge equals sequential accumulation for any split point.
#[test]
fn stats_merge_is_split_invariant() {
    let mut rng = Pcg32::seed_from_u64(0x57A7);
    for case in 0..64 {
        let len = draw(&mut rng, 1, 64);
        let data: Vec<f64> = (0..len).map(|_| rng.range_f64(-1e6, 1e6)).collect();
        let split = draw(&mut rng, 0, len + 1);
        let whole = SampleStats::from_iter(data.iter().copied());
        let mut a = SampleStats::from_iter(data[..split].iter().copied());
        let b = SampleStats::from_iter(data[split..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), whole.count(), "case {case}");
        assert!(
            (a.mean() - whole.mean()).abs() < 1e-6 * whole.mean().abs().max(1.0),
            "case {case}: split {split}/{len}"
        );
        assert!(
            (a.stddev() - whole.stddev()).abs() < 1e-6 * whole.stddev().abs().max(1.0),
            "case {case}: split {split}/{len}"
        );
    }
}

/// Eqs. 1–3 identities: t_d + t_o reconstructs Σt_func / n_t, and the
/// idle-rate equals t_o / (t_d + t_o).
#[test]
fn equations_are_mutually_consistent() {
    let mut rng = Pcg32::seed_from_u64(0xE95);
    for case in 0..64 {
        let sum_exec = rng.range_u64(1_000_000_000);
        let extra = rng.range_u64(1_000_000_000);
        let tasks = 1 + rng.range_u64(999_999);
        let sum_func = sum_exec + extra;
        let td = equations::task_duration_ns(sum_exec, tasks);
        let to = equations::task_overhead_ns(sum_exec, sum_func, tasks);
        let ir = equations::idle_rate(sum_exec, sum_func);
        assert!(
            ((td + to) * tasks as f64 - sum_func as f64).abs() < 1.0,
            "case {case}"
        );
        if sum_func > 0 {
            assert!(
                (ir - to / (td + to).max(f64::MIN_POSITIVE)).abs() < 1e-9,
                "case {case}"
            );
        }
        // Eq. 6 consistency with Eq. 5.
        let tw = equations::wait_per_task_ns(td, 100.0);
        let tw_total = equations::wait_time_s(td, 100.0, tasks, 4);
        assert!(
            (tw_total - tw * tasks as f64 / 4.0 * 1e-9).abs() < 1e-9 * tw.abs().max(1.0),
            "case {case}"
        );
    }
}

/// NUMA block placement always partitions workers completely and
/// near-evenly.
#[test]
fn numa_block_partitions_workers() {
    let mut rng = Pcg32::seed_from_u64(0x40A1);
    for case in 0..64 {
        let workers = draw(&mut rng, 1, 128);
        let domains = draw(&mut rng, 1, 8);
        let t = NumaTopology::block(workers, domains);
        assert_eq!(t.workers(), workers, "case {case}");
        let counts: Vec<usize> = (0..t.domains()).map(|d| t.workers_in(d).count()).collect();
        assert_eq!(counts.iter().sum::<usize>(), workers, "case {case}");
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "case {case}: uneven split {counts:?}");
        // Peer sets partition all other workers.
        for w in 0..workers {
            let mut all = t.same_domain_peers(w);
            all.extend(t.remote_domain_peers(w));
            all.sort_unstable();
            let expect: Vec<usize> = (0..workers).filter(|&x| x != w).collect();
            assert_eq!(all, expect, "case {case}: worker {w}");
        }
    }
}

/// The simulator completes every valid stencil DAG, is deterministic,
/// and preserves the counter invariants.
#[test]
fn simulator_invariants() {
    let mut rng = Pcg32::seed_from_u64(0x51AB);
    for case in 0..16 {
        let nx = draw(&mut rng, 1_000, 200_000);
        let steps = draw(&mut rng, 1, 6);
        let workers = draw(&mut rng, 1, 16);
        let seed = rng.range_u64(1_000);
        let params = StencilParams::for_total(400_000, nx, steps);
        let wl = stencil_workload(&params);
        let cfg = SimConfig { seed };
        let a = simulate(&presets::haswell(), workers, &wl, &cfg);
        let ctx = format!("case {case}: nx={nx} steps={steps} workers={workers} seed={seed}");
        let w = a.window;
        assert_eq!(w.tasks as usize, params.total_tasks(), "{ctx}");
        assert!(w.func_ns >= w.exec_ns, "{ctx}");
        assert!(w.pending_accesses >= w.pending_misses, "{ctx}");
        assert!(w.staged_accesses >= w.staged_misses, "{ctx}");
        assert!(w.converted == w.tasks, "{ctx}");
        assert!(a.wall_ns > 0.0, "{ctx}");
        assert_eq!(a.tasks_per_worker.iter().sum::<u64>(), w.tasks, "{ctx}");
        // Determinism.
        let b = simulate(&presets::haswell(), workers, &wl, &cfg);
        assert_eq!(a, b, "{ctx}");
    }
}

/// Adding workers never makes the simulated stencil dramatically slower
/// (steal costs are bounded), and at medium grain it helps.
#[test]
fn more_workers_do_not_catastrophically_hurt() {
    let params = StencilParams::for_total(2_000_000, 25_000, 4);
    let wl = stencil_workload(&params);
    let cfg = SimConfig::default();
    let one = simulate(&presets::haswell(), 1, &wl, &cfg);
    let mut rng = Pcg32::seed_from_u64(0xC04E);
    for case in 0..8 {
        let workers = draw(&mut rng, 2, 24);
        let many = simulate(&presets::haswell(), workers, &wl, &cfg);
        assert!(
            many.wall_ns < one.wall_ns * 1.2,
            "case {case}: {workers} workers: {} vs 1 worker {}",
            many.wall_ns,
            one.wall_ns
        );
    }
}

/// Seeded random DAGs execute correctly on both engines: the native
/// dataflow run reproduces the graph's sequential checksum, and the
/// simulator completes every task of the lowered graph.
#[test]
fn random_dags_execute_correctly_on_both_engines() {
    let mut rng = Pcg32::seed_from_u64(0xDA6);
    for case in 0..24 {
        let layers = draw(&mut rng, 1, 6);
        let width = draw(&mut rng, 1, 10);
        let seed = rng.range_u64(500);
        let workers = draw(&mut rng, 1, 4);
        let ctx =
            format!("case {case}: layers={layers} width={width} seed={seed} workers={workers}");
        let kind = GraphKind::RandomDag {
            width,
            steps: layers - 1,
            max_deps: 3,
        };
        let graph = GraphSpec::shape(kind, seed).grain(10).build();

        let rt = Runtime::with_workers(workers);
        let sum = run_local(&rt, &graph).expect("run settles");
        assert_eq!(sum, graph.checksum_reference(), "{ctx}");
        rt.wait_idle();
        assert_eq!(rt.counters().tasks.sum() as usize, graph.len(), "{ctx}");

        let report = simulate(
            &presets::haswell(),
            workers.min(presets::haswell().usable_cores),
            &graph.sim_workload(),
            &SimConfig::default(),
        );
        assert_eq!(report.window.tasks as usize, graph.len(), "{ctx}");
    }
}

/// Under any seeded overload storm the job ledger conserves —
/// `admitted + rejected + shed == submitted` — every shed and breaker
/// refusal is metered exactly once, and the in-flight task budget is
/// exactly restored at quiescence. `alpha` submits 1-D stencil graphs
/// with deadlines, so jobs with dependencies go through shedding and
/// deadlines too; `chaos` panics through the first half of the horizon.
#[test]
fn storms_conserve_job_accounting_and_restore_the_budget() {
    use grain::service::{
        AdmissionConfig, FailurePolicy, JobService, JobSpec, RejectReason, ServiceConfig,
    };
    use grain::sim::storm::GraphFamily;
    use grain::sim::{StormPlan, TenantStorm};
    use grain::taskbench::storm::{spawn_in_job, spec_for_event};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // 10 ms of real time per virtual second keeps the sweep quick.
    const SCALE: f64 = 0.01;
    // Busy-work iterations per graph node: a fixed count, so the bodies
    // depend on the plan alone (~50 µs at 1 ns an iteration, the order
    // of the flat jobs' scaled grains).
    const GRAPH_ITERS: u64 = 50_000;
    let mut seeds = Pcg32::seed_from_u64(0x570B);
    for case in 0..4 {
        let seed = seeds.next_u64();
        let tenants = vec![
            TenantStorm::steady(
                "alpha",
                Duration::from_millis(40),
                (1, 6),
                (Duration::from_millis(5), Duration::from_millis(20)),
            )
            .deadline(Duration::from_secs(1))
            .family(GraphFamily::Stencil),
            TenantStorm::steady(
                "beta",
                Duration::from_millis(60),
                (2, 8),
                (Duration::from_millis(10), Duration::from_millis(30)),
            ),
            TenantStorm::steady(
                "chaos",
                Duration::from_millis(20),
                (1, 3),
                (Duration::from_millis(5), Duration::from_millis(10)),
            )
            .faulting_during(0.0, 0.5),
        ];
        let plan = StormPlan::generate(seed, Duration::from_secs(2), &tenants);
        let mut config = ServiceConfig {
            admission: AdmissionConfig {
                max_in_flight_tasks: 8,
                max_queued_jobs: 16,
            },
            ..ServiceConfig::with_workers(2)
        };
        config.breaker.min_samples = 4;
        config.breaker.open_for = Duration::from_millis(20);
        let service = JobService::new(config);

        let started = Instant::now();
        let handles: Vec<_> = plan
            .events
            .iter()
            .enumerate()
            .map(|(idx, e)| {
                if let Some(sleep) = e.at.mul_f64(SCALE).checked_sub(started.elapsed()) {
                    std::thread::sleep(sleep);
                }
                let graph = spec_for_event(e.family, e.tasks, GRAPH_ITERS, 32, idx as u64)
                    .map(|spec| Arc::new(spec.build()));
                let tasks = graph.as_ref().map_or(e.tasks, |g| g.len() as u64);
                let mut spec =
                    JobSpec::new(e.name.clone(), e.tenant.clone()).estimated_tasks(tasks + 1);
                if let Some(d) = e.deadline {
                    spec = spec.deadline(d.mul_f64(SCALE));
                }
                if e.faulty {
                    spec = spec.failure_policy(FailurePolicy::RetryWithBackoff {
                        max_attempts: 2,
                        base: Duration::from_micros(200),
                        cap: Duration::from_millis(1),
                    });
                }
                let (faulty, grain) = (e.faulty, e.grain.mul_f64(SCALE));
                service.submit(spec, move |ctx| {
                    if faulty {
                        panic!("storm fault");
                    }
                    match &graph {
                        Some(graph) => spawn_in_job(ctx, graph),
                        None => {
                            for _ in 0..tasks {
                                ctx.spawn(move |_| {
                                    let t0 = Instant::now();
                                    while t0.elapsed() < grain {
                                        std::hint::spin_loop();
                                    }
                                });
                            }
                        }
                    }
                })
            })
            .collect();
        service.wait_all();

        let ctx = format!("case {case}: seed {seed:#x}");
        let (mut shed_outcomes, mut breaker_outcomes) = (0u64, 0u64);
        for (i, h) in handles.iter().enumerate() {
            let o = h.wait();
            assert!(o.state.is_terminal(), "{ctx}: job {i} not terminal");
            assert!(o.exec_ns <= o.func_ns, "{ctx}: job {i}: {o:?}");
            match o.reject_reason {
                Some(RejectReason::Shed) => shed_outcomes += 1,
                Some(RejectReason::BreakerOpen) => breaker_outcomes += 1,
                _ => {}
            }
        }
        let c = service.counters();
        assert_eq!(c.submitted.get(), handles.len() as u64, "{ctx}");
        assert_eq!(
            c.admitted.get() + c.rejected.get() + c.shed.get(),
            c.submitted.get(),
            "{ctx}: admitted {} + rejected {} + shed {} must equal submitted {}",
            c.admitted.get(),
            c.rejected.get(),
            c.shed.get(),
            c.submitted.get()
        );
        assert_eq!(c.shed.get(), shed_outcomes, "{ctx}: shed counter");
        assert_eq!(
            service.breaker_rejections(),
            breaker_outcomes,
            "{ctx}: breaker rejections"
        );
        assert_eq!(service.queue_len(), 0, "{ctx}: queue not drained");
        assert_eq!(service.running_len(), 0, "{ctx}: running set not drained");
        let in_use = service
            .registry()
            .query("/service/tasks/budget-in-use")
            .expect("registered")
            .value;
        assert_eq!(in_use, 0.0, "{ctx}: in-flight budget not restored");
    }
}

/// parallel_reduce equals the sequential fold for any range/grain.
#[test]
fn parallel_reduce_matches_sequential() {
    use grain::runtime::algorithms::parallel_reduce;
    let mut rng = Pcg32::seed_from_u64(0x4ED);
    for case in 0..24 {
        let len = draw(&mut rng, 0, 2_000);
        let grain = draw(&mut rng, 1, 500);
        let workers = draw(&mut rng, 1, 4);
        let rt = Runtime::with_workers(workers);
        let sum = parallel_reduce(
            &rt,
            0..len,
            grain,
            0u64,
            |i| (i as u64) * 3 + 1,
            |a, b| a + b,
        );
        let expect: u64 = (0..len).map(|i| (i as u64) * 3 + 1).sum();
        assert_eq!(
            *sum.get(),
            expect,
            "case {case}: len={len} grain={grain} workers={workers}"
        );
    }
}

// ---------------------------------------------------------------------
// Wire-codec properties (grain-net)
// ---------------------------------------------------------------------

use grain::net::codec::{self, Frame, WireFault};

/// Draw a random ASCII string of length `[0, max)`.
fn draw_string(rng: &mut Pcg32, max: usize) -> String {
    let len = draw(rng, 0, max);
    (0..len)
        .map(|_| char::from(b' ' + (rng.range_u64(95)) as u8))
        .collect()
}

/// Draw a random byte payload of length `[0, max)`.
fn draw_bytes(rng: &mut Pcg32, max: usize) -> Vec<u8> {
    let len = draw(rng, 0, max);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

/// Draw a random frame covering every variant and every fault kind.
fn draw_frame(rng: &mut Pcg32) -> Frame {
    match rng.range_u64(7) {
        0 => Frame::Hello {
            listen_addr: draw_string(rng, 40),
        },
        1 => Frame::Welcome {
            locality_id: rng.next_u32(),
            world: rng.next_u32(),
            peers: (0..draw(rng, 0, 5))
                .map(|_| (rng.next_u32(), draw_string(rng, 24)))
                .collect(),
        },
        2 => Frame::PeerHello {
            locality_id: rng.next_u32(),
        },
        3 => Frame::Call {
            call_id: rng.next_u64(),
            origin: rng.next_u32(),
            action: draw_string(rng, 32),
            args: draw_bytes(rng, 64),
        },
        4 => Frame::Reply {
            call_id: rng.next_u64(),
            outcome: Ok(draw_bytes(rng, 64)),
        },
        5 => Frame::Reply {
            call_id: rng.next_u64(),
            outcome: Err(match rng.range_u64(6) {
                0 => WireFault::Panicked(draw_string(rng, 48)),
                1 => WireFault::Cancelled,
                2 => WireFault::BrokenPromise,
                3 => WireFault::UnknownAction(draw_string(rng, 24)),
                4 => WireFault::BadArguments(draw_string(rng, 24)),
                _ => WireFault::Other(draw_string(rng, 48)),
            }),
        },
        _ => Frame::Goodbye {
            locality_id: rng.next_u32(),
        },
    }
}

/// Encode → decode is the identity for every frame type.
#[test]
fn codec_frames_roundtrip() {
    let mut rng = Pcg32::seed_from_u64(0xC0DEC);
    for case in 0..200 {
        let frame = draw_frame(&mut rng);
        let bytes = frame.encode();
        let back = Frame::decode(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e} ({frame:?})"));
        assert_eq!(back, frame, "case {case}");
    }
}

/// Every strict prefix of a valid frame is an error — never a panic,
/// never a bogus success.
#[test]
fn codec_truncation_always_errors() {
    let mut rng = Pcg32::seed_from_u64(0x7A11);
    for case in 0..50 {
        let frame = draw_frame(&mut rng);
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            assert!(
                Frame::decode(&bytes[..cut]).is_err(),
                "case {case}: prefix of {cut}/{} decoded",
                bytes.len()
            );
        }
    }
}

/// Randomly corrupted frames must never panic the decoder; corrupting
/// the header always yields an error.
#[test]
fn codec_corruption_never_panics() {
    let mut rng = Pcg32::seed_from_u64(0xBADF);
    for case in 0..200 {
        let frame = draw_frame(&mut rng);
        let mut bytes = frame.encode();
        let idx = draw(&mut rng, 0, bytes.len());
        let flip = (rng.range_u64(255) + 1) as u8;
        bytes[idx] ^= flip;
        // Total decoder: any outcome is fine except a panic. A payload
        // flip may still decode (to a different frame) — that is a
        // transport-integrity concern, not a codec one.
        let result = Frame::decode(&bytes);
        if idx < 5 {
            // Magic (4 bytes) or version byte corrupted: must reject.
            assert!(result.is_err(), "case {case}: corrupted header accepted");
        }
        // Appending garbage after a valid frame must also reject.
        let mut extended = frame.encode();
        extended.push(flip);
        assert!(
            Frame::decode(&extended).is_err(),
            "case {case}: trailing byte accepted"
        );
    }
}

/// NetPlan-style stream chaos — seeded drop, duplicate, and bounded
/// reorder of *whole frames* — never corrupts framing: every message
/// that survives still decodes to exactly the frame it was encoded
/// from, because each frame is a self-contained envelope and the chaos
/// fabric (like TCP beneath the real parcelport) only permutes and
/// copies messages, never splices them.
#[test]
fn codec_stream_chaos_preserves_every_surviving_frame() {
    let mut rng = Pcg32::seed_from_u64(0x57A6);
    for case in 0..40 {
        let originals: Vec<Frame> = (0..draw(&mut rng, 4, 24))
            .map(|_| draw_frame(&mut rng))
            .collect();
        // Each message remembers which original it carries.
        let mut stream: Vec<(usize, Vec<u8>)> = originals
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.encode()))
            .collect();
        // Drop (p = 0.2), then duplicate (p = 0.2) — the dup rides
        // directly behind its original, like a fabric re-send.
        stream.retain(|_| rng.next_f64() >= 0.2);
        let mut shaken: Vec<(usize, Vec<u8>)> = Vec::new();
        for m in stream {
            let dup = rng.next_f64() < 0.2;
            shaken.push(m.clone());
            if dup {
                shaken.push(m);
            }
        }
        // Bounded reorder: swap adjacent messages with p = 0.5.
        let mut i = 0;
        while i + 1 < shaken.len() {
            if rng.next_f64() < 0.5 {
                shaken.swap(i, i + 1);
            }
            i += 1;
        }
        for (idx, bytes) in &shaken {
            let back = Frame::decode(bytes)
                .unwrap_or_else(|e| panic!("case {case}: surviving frame {idx} broke: {e}"));
            assert_eq!(
                back, originals[*idx],
                "case {case}: frame {idx} mutated in flight"
            );
        }
    }
}

/// Corrupting payload bytes (anything past magic + version + tag) must
/// never change *which variant* a frame parses as, and any successful
/// decode must stay canonical: re-encoding reproduces the mutated bytes
/// exactly. A flipped length prefix or inner tag errors out; it never
/// reinterprets a Call as a Reply.
#[test]
fn codec_payload_mutations_never_switch_variants() {
    let mut rng = Pcg32::seed_from_u64(0xF1A7);
    let mut survived = 0u32;
    for case in 0..400 {
        let frame = draw_frame(&mut rng);
        let mut bytes = frame.encode();
        // Mutate 1–3 bytes strictly inside the payload (index >= 6).
        if bytes.len() <= 6 {
            continue;
        }
        for _ in 0..draw(&mut rng, 1, 4) {
            let idx = draw(&mut rng, 6, bytes.len());
            bytes[idx] ^= (rng.range_u64(255) + 1) as u8;
        }
        match Frame::decode(&bytes) {
            Err(_) => {} // rejected cleanly — always acceptable
            Ok(mutant) => {
                survived += 1;
                assert_eq!(
                    std::mem::discriminant(&mutant),
                    std::mem::discriminant(&frame),
                    "case {case}: payload corruption switched {frame:?} into {mutant:?}"
                );
                assert_eq!(
                    mutant.encode(),
                    bytes,
                    "case {case}: decode accepted a non-canonical encoding"
                );
            }
        }
    }
    // The corpus must actually exercise the accepted-mutant path (value
    // flips inside fixed-width fields survive decoding).
    assert!(survived > 0, "mutation corpus never produced a survivor");
}

/// Splicing two frames into one buffer must error (`Trailing`), never
/// silently decode the first and discard the second — a dedup or replay
/// defense cannot work if concatenation smuggles frames past it.
#[test]
fn codec_spliced_frames_rejected() {
    let mut rng = Pcg32::seed_from_u64(0x5711C);
    for case in 0..50 {
        let a = draw_frame(&mut rng);
        let b = draw_frame(&mut rng);
        let mut spliced = a.encode();
        spliced.extend_from_slice(&b.encode());
        assert!(
            Frame::decode(&spliced).is_err(),
            "case {case}: spliced {a:?}+{b:?} decoded"
        );
    }
}

// ---------------------------------------------------------------------
// Taskbench graph-generator properties (grain-taskbench)
// ---------------------------------------------------------------------

use grain::taskbench::{run_local, GraphKind, GraphSpec};

/// Draw a random graph spec covering every family with bounded shapes.
fn draw_spec(rng: &mut Pcg32) -> GraphSpec {
    let kind = match rng.range_u64(5) {
        0 => GraphKind::Stencil1d {
            width: draw(rng, 1, 12),
            steps: draw(rng, 0, 10),
        },
        1 => GraphKind::Butterfly {
            width: draw(rng, 1, 33),
        },
        2 => GraphKind::TreeReduce {
            leaves: draw(rng, 1, 40),
            fanout: draw(rng, 2, 5),
        },
        3 => GraphKind::RandomDag {
            width: draw(rng, 1, 10),
            steps: draw(rng, 0, 10),
            max_deps: draw(rng, 1, 5),
        },
        _ => GraphKind::Sweep {
            width: draw(rng, 1, 12),
            steps: draw(rng, 0, 10),
        },
    };
    GraphSpec::shape(kind, rng.next_u64())
        .grain(rng.range_u64(100))
        .payload(rng.range_u64(512) as u32)
}

/// The same seed reproduces the graph bit-identically — nodes, edges,
/// and per-edge payload sizes — while a different seed changes the
/// fingerprint.
#[test]
fn taskbench_same_seed_rebuilds_identical_graphs() {
    let mut rng = Pcg32::seed_from_u64(0x6EA9);
    for case in 0..32 {
        let spec = draw_spec(&mut rng);
        let a = spec.build();
        let b = spec.build();
        let ctx = format!("case {case}: {spec:?}");
        assert_eq!(a.nodes, b.nodes, "{ctx}");
        assert_eq!(a.edges, b.edges, "{ctx}: edges (incl. payload sizes)");
        assert_eq!(a.fingerprint(), b.fingerprint(), "{ctx}");
        assert_eq!(a.checksum_reference(), b.checksum_reference(), "{ctx}");
        let reseeded = GraphSpec {
            seed: spec.seed ^ 1,
            ..spec
        }
        .build();
        assert_ne!(a.fingerprint(), reseeded.fingerprint(), "{ctx}: reseed");
    }
}

/// Every generated graph is acyclic (edges go strictly forward, between
/// adjacent levels) and width-bounded: no level is wider than the
/// spec-derived bound.
#[test]
fn taskbench_graphs_are_acyclic_and_width_bounded() {
    let mut rng = Pcg32::seed_from_u64(0xDA61);
    for case in 0..32 {
        let spec = draw_spec(&mut rng);
        let g = spec.build();
        let ctx = format!("case {case}: {spec:?}");
        assert!(!g.nodes.is_empty(), "{ctx}");
        for e in &g.edges {
            assert!(e.src < e.dst, "{ctx}: edge {e:?} not forward");
            assert_eq!(
                g.nodes[e.src as usize].step + 1,
                g.nodes[e.dst as usize].step,
                "{ctx}: edge {e:?} skips a level"
            );
        }
        assert!(
            g.max_level_width() <= g.width_bound(),
            "{ctx}: level width {} exceeds bound {}",
            g.max_level_width(),
            g.width_bound()
        );
        // Node ids are level-ordered, so id order is a topological order.
        for w in g.nodes.windows(2) {
            assert!(w[0].step <= w[1].step, "{ctx}: ids not level-ordered");
        }
    }
}

/// `Wire` values — including every f64 bit pattern — roundtrip exactly.
#[test]
fn codec_wire_values_roundtrip() {
    let mut rng = Pcg32::seed_from_u64(0xB175);
    for case in 0..200 {
        // f64 via raw bit patterns: NaNs, infinities, subnormals.
        let bits = rng.next_u64();
        let x = f64::from_bits(bits);
        let back: f64 = codec::from_bytes(&codec::to_bytes(&x))
            .unwrap_or_else(|e| panic!("case {case}: f64 decode failed: {e}"));
        assert_eq!(back.to_bits(), bits, "case {case}: f64 bits changed");

        let v: Vec<u64> = (0..draw(&mut rng, 0, 16)).map(|_| rng.next_u64()).collect();
        let back: Vec<u64> = codec::from_bytes(&codec::to_bytes(&v)).expect("vec roundtrip");
        assert_eq!(back, v, "case {case}");

        let pair = (draw_string(&mut rng, 20), rng.next_u64());
        let back: (String, u64) =
            codec::from_bytes(&codec::to_bytes(&pair)).expect("tuple roundtrip");
        assert_eq!(back, pair, "case {case}");

        let opt = if rng.next_f64() < 0.5 {
            None
        } else {
            Some(rng.next_u32())
        };
        let back: Option<u32> = codec::from_bytes(&codec::to_bytes(&opt)).expect("option");
        assert_eq!(back, opt, "case {case}");
    }
}
