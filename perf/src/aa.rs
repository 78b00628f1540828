//! `perf aa`: the whole suite N times on the same code, and how far
//! the N values of each metric lie apart.

use crate::run::run_untraced;
use crate::spec::{epochs_for, Scale, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats;
use std::io;

/// The spread the issue asked every workload × metric pair to repeat
/// within. Pairs beyond it are marked in the table; the exit code
/// follows the metric's own bound.
const TARGET: f64 = 0.10;

/// Run every workload `sets` times untraced (set `i` with seed `i + 1`)
/// and print, per workload and metric, the values, their median and
/// quartiles, the worst-to-best spread and the quartile distance as
/// shares of the median, and the bound. Returns whether every
/// worst-to-best spread stayed within its metric's bound and no
/// operation failed. The quartile distance is what the acceptance check
/// of the benchmark contract computes (over ten runs); it is printed
/// for comparison and does not decide.
pub fn run(sets: usize) -> io::Result<bool> {
    let epochs = epochs_for(RUN_SECONDS);
    // values[workload][metric][set]
    let mut values = vec![vec![Vec::with_capacity(sets); END_TO_END.len()]; WORKLOADS.len()];
    let mut failed = 0;
    for set in 0..sets {
        for (w, per_metric) in WORKLOADS.iter().zip(values.iter_mut()) {
            let t0 = std::time::Instant::now();
            let r = run_untraced(w, Scale::FULL, set as u64 + 1, epochs)?;
            failed += r.failed;
            for (m, v) in r.end_to_end.iter().zip(per_metric.iter_mut()) {
                v.push(m.value);
            }
            eprintln!(
                "set {set} {}: {:.1} s, {} failed",
                w.name,
                t0.elapsed().as_secs_f64(),
                r.failed
            );
        }
    }

    let (mut over_bound, mut over_target) = (0, 0);
    println!(
        "| workload | metric | median | q1 | q3 | worst-to-best | iqr/median | bound | values |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for (w, per_metric) in WORKLOADS.iter().zip(&values) {
        for ((m, bound), v) in END_TO_END.iter().zip(per_metric) {
            let (q1, q3) = stats::quartiles(v);
            let spread = stats::spread(v);
            over_bound += usize::from(spread > *bound);
            over_target += usize::from(spread > TARGET);
            let mark = match spread {
                s if s > *bound => " OVER",
                s if s > TARGET => " *",
                _ => "",
            };
            let list: Vec<String> = v.iter().map(|x| format!("{x:.5}")).collect();
            println!(
                "| {} | {} | {:.5} | {:.5} | {:.5} | {:.4}{mark} | {:.4} | {} | {} |",
                w.name,
                m.name,
                stats::median(v),
                q1,
                q3,
                spread,
                stats::iqr_share(v),
                bound,
                list.join(" ")
            );
        }
    }
    let pairs = WORKLOADS.len() * END_TO_END.len();
    println!(
        "{sets} sets, {failed} failed operations; worst-to-best over its bound (OVER): {over_bound} of {pairs} pairs, over {TARGET} (*): {over_target}"
    );
    Ok(failed == 0 && over_bound == 0)
}
