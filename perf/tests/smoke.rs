//! Every workload and the traced path, driven end to end at smoke scale.
//!
//! The tests share the process-wide allocation counter and the host's
//! cores, so they run one at a time. Unlike the `perf` binary they are
//! not pinned to one CPU: they check results, not speed.

use perf::run::{run_traced, run_untraced, spans_path};
use perf::spec::{self, Scale, PER_LAYER, SMOKE_EPOCHS, WORKLOADS};
use perf::trace;
use perf::workloads::run_epoch;
use std::sync::Mutex;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn one_smoke_epoch_of_every_workload_has_no_failed_operation() {
    let _guard = serial();
    for w in &WORKLOADS {
        let e = run_epoch(w, Scale::SMOKE, 1, 0, None).expect("epoch runs");
        let (ops, warmup) = (Scale::SMOKE.ops(w), Scale::SMOKE.warmup_ops(w));
        assert_eq!(e.failed, 0, "{}", w.name);
        assert_eq!(e.attempted, ops + warmup, "{}", w.name);
        assert_eq!(e.lat_us.len() as u64, ops, "{}", w.name);
        assert_eq!(e.done_us.len() as u64, ops, "{}", w.name);
        assert!(e.done_us.windows(2).all(|p| p[0] <= p[1]), "{}", w.name);
        let windows = (ops / (2 * w.outstanding as u64)).clamp(1, 10);
        assert_eq!(e.windows().len() as u64, windows, "{}", w.name);
        assert_eq!(e.tasks, ops * w.tasks_per_op(), "{}", w.name);
        // A worker counts a task just after settling its future, so the
        // sample may miss the last task of each worker.
        assert!(
            e.threads.tasks + e.task_threads as u64 >= e.tasks,
            "{}: /threads saw {} of {} tasks",
            w.name,
            e.threads.tasks,
            e.tasks
        );
        assert!(e.tasks_per_s() > 0.0 && e.efficiency() > 0.0, "{}", w.name);
        assert!(e.setup_s > 0.0 && e.op_p50_us() > 0.0, "{}", w.name);
    }
}

#[test]
fn the_counting_allocator_is_off_in_untraced_runs() {
    let _guard = serial();
    let before = trace::allocs();
    let r = run_untraced(&WORKLOADS[0], Scale::SMOKE, 2, SMOKE_EPOCHS).expect("run");
    assert_eq!(r.failed, 0);
    assert_eq!(
        trace::allocs(),
        before,
        "an untraced run counted allocations"
    );
    // `black_box` keeps the optimiser from eliding the allocations.
    let (v, counted) = trace::count_allocs(|| std::hint::black_box(vec![1u8; 64]));
    assert_eq!(v.len(), 64);
    assert!(counted >= 1, "counting is on inside count_allocs");
    let after = trace::allocs();
    drop(std::hint::black_box(vec![2u8; 64]));
    assert_eq!(trace::allocs(), after, "counting is off again afterwards");
}

#[test]
fn two_runs_at_one_seed_do_the_same_work() {
    let _guard = serial();
    let w = spec::workload("service_jobs").expect("named in spec");
    let a = run_untraced(w, Scale::SMOKE, 7, SMOKE_EPOCHS).expect("run");
    let b = run_untraced(w, Scale::SMOKE, 7, SMOKE_EPOCHS).expect("run");
    assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
    let tasks = |r: &perf::run::RunResult| r.epochs.iter().map(|e| e.tasks).collect::<Vec<_>>();
    assert_eq!(tasks(&a), tasks(&b));
    assert_eq!(a.tail.percentile, b.tail.percentile);
}

#[test]
fn the_result_line_has_exactly_the_end_to_end_metrics_when_untraced() {
    let _guard = serial();
    let r = run_untraced(&WORKLOADS[1], Scale::SMOKE, 3, SMOKE_EPOCHS).expect("run");
    let json = r.to_json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    for (m, _) in &spec::END_TO_END {
        let key = format!("\"{}\": {{\"value\": ", m.name);
        assert_eq!(json.matches(&key).count(), 1, "{}: {json}", m.name);
    }
    assert_eq!(json.matches("\"unit\"").count(), spec::END_TO_END.len());
    assert!(
        r.end_to_end
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0),
        "{json}"
    );
    assert!(!json.contains('\n') && !json.contains("NaN") && !json.contains("inf"));
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_writes_its_spans() {
    let _guard = serial();
    let w = spec::workload("service_jobs").expect("named in spec");
    let r = run_traced(w, Scale::SMOKE, 4, SMOKE_EPOCHS).expect("run");
    assert_eq!(r.failed, 0);
    let layer = r
        .per_layer
        .as_ref()
        .expect("traced runs have per-layer metrics");
    let names: Vec<&str> = layer.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    let value = |name: &str| layer.iter().find(|m| m.name == name).expect(name).value;
    assert!(layer.iter().all(|m| m.value.is_finite()), "{layer:?}");
    assert_eq!(value("fleet.ledger_conserved"), 1.0);
    assert_eq!(value("net.sent_minus_received"), 0.0);
    assert_eq!(value("service.rejected") + value("service.shed"), 0.0);
    assert_eq!(value("fleet.dispatches_per_job"), 1.0);
    assert!(value("trace.spans") > 0.0);

    let json = r.to_json();
    assert_eq!(json.matches("\"unit\"").count(), PER_LAYER.len());
    assert!(
        !json.contains("\"efficiency\""),
        "traced result carries only per-layer metrics"
    );

    // Only the even epochs are traced: one root span per timed
    // operation, each with the service's four children.
    let spans = std::fs::read_to_string(spans_path(w.name)).expect("spans file");
    let ops = Scale::SMOKE.ops(w) as usize * SMOKE_EPOCHS.div_ceil(2);
    assert_eq!(
        spans
            .lines()
            .filter(|l| l.contains("\"name\":\"op\""))
            .count(),
        ops
    );
    for child in [
        "service.submit",
        "service.queue_to_start",
        "service.body",
        "service.settle_to_wake",
    ] {
        let needle = format!("\"name\":\"{child}\"");
        assert_eq!(
            spans.lines().filter(|l| l.contains(&needle)).count(),
            ops,
            "{child}"
        );
    }
    assert_eq!(
        spans
            .lines()
            .filter(|l| l.contains("\"name\":\"graph.build\""))
            .count(),
        1
    );
}
