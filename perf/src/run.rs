//! One run of one workload: the epochs, their quiet levels, the report.

use crate::host;
use crate::ladder;
use crate::spec::{Better, Scale, Workload, END_TO_END, PER_LAYER};
use crate::stats::{self, Tail};
use crate::trace::Tracer;
use crate::workloads::{run_epoch, Epoch, Window};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// A named value with its unit, as printed and as put in the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The number as measured.
    pub value: f64,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations run and verified, all epochs.
    pub attempted: u64,
    /// Operations that failed, all epochs.
    pub failed: u64,
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Value>,
    /// The per-layer metrics, in `BENCHMARK.json` order; traced runs
    /// only.
    pub per_layer: Option<Vec<Value>>,
    /// The run's serial reference, ns per task: the quiet level of its
    /// epochs' reference timings.
    pub reference_ns: f64,
    /// The tail percentile the epochs used (the operation count per
    /// epoch is fixed, so they all use the same one).
    pub tail: Tail,
    /// The epochs, in order.
    pub epochs: Vec<Epoch>,
}

impl RunResult {
    /// The result line of the driver's contract: the per-layer metrics
    /// of a traced run, the end-to-end metrics of an untraced one.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .per_layer
            .as_ref()
            .unwrap_or(&self.end_to_end)
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median across `epochs` of `f(epoch)`.
fn epoch_median<'a>(epochs: impl IntoIterator<Item = &'a Epoch>, f: impl Fn(&Epoch) -> f64) -> f64 {
    stats::median(&epochs.into_iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics of a run as ratios of quiet levels
/// ([`stats::quiet`]): the run's serial reference is the quiet level of
/// its 2 x epochs reference timings, throughput and median latency are
/// the quiet levels of its windows, `setup_s` that of its epochs.
fn summarize(epochs: Vec<Epoch>, per_layer: Option<Vec<Value>>) -> RunResult {
    let windows: Vec<Window> = epochs.iter().flat_map(Epoch::windows).collect();
    let quiet = |values: Vec<f64>, better| stats::quiet(&values, better);
    let reference_ns = quiet(
        epochs
            .iter()
            .flat_map(|e| e.reference_ns_per_task)
            .collect(),
        Better::Lower,
    );
    let tasks_per_s = quiet(
        windows.iter().map(|w| w.tasks_per_s).collect(),
        Better::Higher,
    );
    let op_p50_us = quiet(windows.iter().map(|w| w.op_p50_us).collect(), Better::Lower);
    let first = &epochs[0];
    let serial_op_us = reference_ns * (first.tasks / first.ops) as f64 / 1e3;
    let values = [
        tasks_per_s * reference_ns / 1e9 / first.cores as f64,
        op_p50_us / serial_op_us,
        quiet(epochs.iter().map(|e| e.setup_s).collect(), Better::Lower),
    ];
    let end_to_end = END_TO_END.iter().zip(values);
    RunResult {
        attempted: epochs.iter().map(|e| e.attempted).sum(),
        failed: epochs.iter().map(|e| e.failed).sum(),
        end_to_end: end_to_end
            .map(|((m, _), value)| Value {
                name: m.name,
                unit: m.unit,
                value,
            })
            .collect(),
        per_layer,
        reference_ns,
        tail: first.op_tail(),
        epochs,
    }
}

/// Run `epochs` untraced epochs of `w` and report the end-to-end
/// metrics as the quiet level across them.
pub fn run_untraced(w: &Workload, scale: Scale, seed: u64, epochs: usize) -> io::Result<RunResult> {
    let epochs = (0..epochs as u64)
        .map(|e| run_epoch(w, scale, seed, e, None))
        .collect::<io::Result<_>>()?;
    Ok(summarize(epochs, None))
}

/// Where a traced run of `workload` writes its spans.
pub fn spans_path(workload: &str) -> PathBuf {
    [
        env!("CARGO_MANIFEST_DIR"),
        "out",
        &format!("spans-{workload}.jsonl"),
    ]
    .iter()
    .collect()
}

/// Run `epochs` epochs of `w`, every other one with spans recorded,
/// then the layer ladder; report the per-layer metrics and write the
/// spans to [`spans_path`].
pub fn run_traced(w: &Workload, scale: Scale, seed: u64, epochs: usize) -> io::Result<RunResult> {
    let mut tracer = Tracer::new();
    let epochs: Vec<Epoch> = (0..epochs as u64)
        .map(|e| run_epoch(w, scale, seed, e, (e % 2 == 0).then_some(&mut tracer)))
        .collect::<io::Result<_>>()?;
    let traced = || epochs.iter().step_by(2);
    let untraced = || epochs.iter().skip(1).step_by(2);

    let ops = scale.ops(w) as f64;
    let mut values = ladder::run(seed, scale)?;
    // A comparison inside the run, so quiet level against quiet level:
    // medians of six epochs a side differ by more than tracing costs.
    let quiet_tasks_per_s = |epochs: &mut dyn Iterator<Item = &Epoch>| {
        let windows: Vec<f64> = epochs
            .flat_map(Epoch::windows)
            .map(|w| w.tasks_per_s)
            .collect();
        stats::quiet(&windows, Better::Higher)
    };
    let overhead = 1.0 - quiet_tasks_per_s(&mut traced()) / quiet_tasks_per_s(&mut untraced());
    values.extend([
        ("raw.tasks_per_s", epoch_median(&epochs, Epoch::tasks_per_s)),
        ("raw.op_p50_us", epoch_median(&epochs, Epoch::op_p50_us)),
        (
            "raw.op_tail_us",
            epoch_median(&epochs, |e| e.op_tail().value),
        ),
        (
            "op_tail_vs_serial",
            epoch_median(&epochs, Epoch::op_tail_vs_serial),
        ),
        (
            "runtime.t_o_ns",
            epoch_median(&epochs, |e| e.threads.t_o_ns()),
        ),
        (
            "runtime.t_d_ns",
            epoch_median(&epochs, |e| e.threads.t_d_ns()),
        ),
        (
            "runtime.idle_rate",
            epoch_median(&epochs, |e| e.threads.idle_rate()),
        ),
        (
            "runtime.pending_miss_ratio",
            epoch_median(&epochs, |e| e.threads.pending_miss_ratio()),
        ),
        (
            "runtime.steals",
            epoch_median(&epochs, |e| e.threads.stolen as f64),
        ),
        ("taskbench.build_us", epoch_median(&epochs, |e| e.build_us)),
        (
            "taskbench.serial_ns_per_task",
            epoch_median(&epochs, Epoch::reference_ns),
        ),
        (
            "host.ref_drift_pct",
            epoch_median(&epochs, Epoch::reference_drift_pct),
        ),
        (
            "process.threads",
            epochs.iter().map(|e| e.host.threads).max().unwrap_or(0) as f64,
        ),
        (
            "process.peak_rss_mb",
            epochs
                .iter()
                .map(|e| e.host.peak_rss_mb)
                .fold(0.0, f64::max),
        ),
        (
            "process.cpu_s_per_mtask",
            epoch_median(&epochs, |e| e.cpu_s / e.tasks as f64 * 1e6),
        ),
        (
            "process.ctx_switches_per_op",
            epoch_median(&epochs, |e| e.ctx_switches as f64 / ops),
        ),
        ("trace.spans", tracer.spans().len() as f64),
        ("trace.overhead_pct", overhead * 100.0),
    ]);
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            let found = values.iter().find(|(name, _)| *name == m.name);
            let (_, value) = found.unwrap_or_else(|| panic!("no code measures {}", m.name));
            Value {
                name: m.name,
                unit: m.unit,
                value: *value,
            }
        })
        .collect();

    // The spans are a by-product; a read-only checkout must not cost
    // the run its result.
    if let Err(e) = write_spans(&tracer, &spans_path(w.name)) {
        eprintln!("perf: spans not written: {e}");
    }
    Ok(summarize(epochs, Some(per_layer)))
}

fn write_spans(tracer: &Tracer, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    tracer.write_jsonl(io::BufWriter::new(std::fs::File::create(path)?))
}

/// The human-readable report of a run: every epoch, every metric by
/// name with its unit, the tail percentile used, attempted and failed.
pub fn report(w: &Workload, scale: Scale, seed: u64, r: &RunResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "perf {}: seed {seed}, {} epochs x {} ops (+{} warm-up), {} outstanding, {} tasks/op, grain_iters {}, payload {} B",
        w.name,
        r.epochs.len(),
        scale.ops(w),
        scale.warmup_ops(w),
        w.outstanding,
        w.tasks_per_op(),
        w.grain_iters,
        w.payload_bytes,
    );
    let _ = writeln!(
        s,
        "{:>5} {:>10} {:>10} {:>10} {:>8} {:>12} {:>11} {:>11} {:>19} {:>9} {:>8} {:>6}",
        "epoch",
        "efficiency",
        "p50/serial",
        "tail/serial",
        "setup_s",
        "tasks_per_s",
        "op_p50_us",
        "op_tail_us",
        "ref_ns/task pre/post",
        "t_d_ns",
        "t_o_ns",
        "failed"
    );
    for (i, e) in r.epochs.iter().enumerate() {
        let _ = writeln!(
            s,
            "{i:>5} {:>10.4} {:>10.4} {:>10.4} {:>8.4} {:>12.0} {:>11.1} {:>11.1} {:>9.1}/{:<9.1} {:>9.1} {:>8.1} {:>6}",
            e.efficiency(),
            e.op_p50_vs_serial(),
            e.op_tail_vs_serial(),
            e.setup_s,
            e.tasks_per_s(),
            e.op_p50_us(),
            e.op_tail().value,
            e.reference_ns_per_task[0],
            e.reference_ns_per_task[1],
            e.threads.t_d_ns(),
            e.threads.t_o_ns(),
            e.failed
        );
    }
    for m in &r.end_to_end {
        let _ = writeln!(s, "{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        s,
        "the tail is p{} of the {} operations of an epoch ({} beyond it); the epoch rows are whole-epoch numbers against the epoch's own reference",
        r.tail.percentile, r.tail.n, r.tail.beyond
    );
    let _ = writeln!(
        s,
        "the end-to-end values are quiet levels (the value a tenth of the way in from the better end): of the run's {} windows for the two ratios, against the quiet level of its {} reference timings, {:.1} ns/task; of its epochs for setup_s; {} core(s)",
        r.epochs.iter().map(|e| e.windows().len()).sum::<usize>(),
        2 * r.epochs.len(),
        r.reference_ns,
        host::nproc(),
    );
    if let Some(per_layer) = &r.per_layer {
        for m in per_layer {
            let _ = writeln!(s, "{:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(s, "spans written to {}", spans_path(w.name).display());
    }
    let _ = writeln!(
        s,
        "operations: {} attempted, {} failed",
        r.attempted, r.failed
    );
    s
}
