//! `perf`: run one workload of the benchmark, the smoke suite, the A/A
//! check, or print `BENCHMARK.json`.

use perf::run::{report, run_traced, run_untraced};
use perf::spec::{self, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage:
  perf --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
  perf --smoke [--seed <n>] [--trace <0|1>]     every workload at ops/50, 2 epochs
  perf aa [--sets <n>]                          the suite n times (default 5), worst-to-best against bounds
  perf benchmark-json                           the text of BENCHMARK.json
workloads: graph_fine graph_coarse service_jobs dist_graph fleet_tcp";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    sets: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        smoke: false,
        sets: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Some(spec::workload(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--sets" => parsed.sets = number()?.max(2) as usize,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// Run one workload, print the report and, last, the result line.
/// Returns whether every operation was correct.
fn run_one(w: &Workload, args: &Args) -> std::io::Result<bool> {
    let (scale, epochs) = if args.smoke {
        (Scale::SMOKE, spec::SMOKE_EPOCHS)
    } else {
        (Scale::FULL, spec::epochs_for(args.seconds))
    };
    let run = if args.trace { run_traced } else { run_untraced };
    let result = run(w, scale, args.seed, epochs)?;
    print!("{}", report(w, scale, args.seed, &result));
    println!("{}", result.to_json());
    Ok(result.failed == 0)
}

fn main() -> ExitCode {
    // Before any thread exists, so that every thread inherits it.
    match perf::host::pin_to_one_cpu() {
        Some(cpu) => eprintln!("perf: pinned to cpu {cpu}"),
        None => eprintln!("perf: not pinned, running on {} cores", perf::host::nproc()),
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match argv.first().map(String::as_str) {
        Some(c @ ("aa" | "benchmark-json")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let args = match parse(flags) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perf: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (command, args.workload) {
        ("benchmark-json", _) => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        ("aa", _) => perf::aa::run(args.sets),
        // The result line carries `correct`; the exit code says only
        // that a result was printed.
        (_, Some(w)) => run_one(w, &args).map(|_| true),
        (_, None) if args.smoke => spec::WORKLOADS
            .iter()
            .try_fold(true, |ok, w| Ok(run_one(w, &args)? && ok)),
        (_, None) => {
            eprintln!("perf: no workload named\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}
