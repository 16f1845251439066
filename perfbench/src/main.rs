//! The repository's benchmark: end-to-end metrics (tracing off) and
//! per-layer metrics (a separate traced run) of training BertMini to a
//! perplexity target under each of four compression schemes.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload bert-fp16|bert-topkc|bert-thc|bert-powersgd \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! The last line of standard output is one JSON object: the correctness
//! verdict, operations attempted and failed, and the metrics with units.
//! Everything is measured from outside the program, by timing calls into
//! its public functions.

mod json;
mod rec;
mod train;
mod wrap;

use std::time::Duration;

use rec::Report;
use train::SCHEMES;

#[global_allocator]
static ALLOC: gcs_alloc::CountingAlloc = gcs_alloc::CountingAlloc;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload's scheme, as an index into [`SCHEMES`].
    pub scheme: usize,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn workload_name(scheme: usize) -> String {
    format!("bert-{}", SCHEMES[scheme])
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = String::new();
    let mut args = Args {
        scheme: 0,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<String> = (0..SCHEMES.len()).map(workload_name).collect();
    args.scheme = names
        .iter()
        .position(|n| *n == workload)
        .ok_or(format!("--workload must be one of {}", names.join(", ")))?;
    Ok(args)
}

/// Pins the compute runtime's thread count to the machine's parallelism,
/// so every run of every workload uses the same setting.
fn pin_threads() -> usize {
    let n = rec::nproc();
    std::env::set_var("GCS_THREADS", n.to_string());
    n
}

fn run(spec: train::Spec, args: &Args) -> Report {
    if args.trace {
        train::run_traced(spec, args)
    } else {
        train::run(spec, args)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let threads = pin_threads();
    if argv.first().map(String::as_str) == Some("--selftest") {
        std::process::exit(selftest(threads));
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = run(train::spec(args.scheme), &args);
    println!(
        "workload={} seed={} seconds={} trace={} GCS_THREADS={threads}",
        workload_name(args.scheme),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.json());
}

/// Runs every workload briefly, traced and untraced, and checks that each
/// run prints every metric named in `BENCHMARK.json` for its mode, with its
/// unit and nothing else; then that a run whose target cannot be met fails
/// the correctness gate. Returns the exit code.
fn selftest(threads: usize) -> i32 {
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|s| json::metric_units(&s))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("selftest: cannot read BENCHMARK.json: {e}");
            return 1;
        }
    };
    let mut problems = Vec::new();
    for trace in [false, true] {
        let wanted = if trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        for scheme in 0..SCHEMES.len() {
            let w = workload_name(scheme);
            let args = Args {
                scheme,
                seed: 3,
                seconds: 1.0,
                trace,
            };
            let report = run(train::tiny(train::spec(scheme)), &args);
            if !report.correct {
                problems.push(format!(
                    "{w} trace={trace}: gate failed: {:?}",
                    report.notes
                ));
            }
            println!(
                "selftest {w} trace={} GCS_THREADS={threads}: {}",
                trace as u8,
                report.json()
            );
            for (name, unit) in wanted {
                match report.metrics.iter().find(|m| &m.0 == name) {
                    None => problems.push(format!("{w}: metric {name} not printed (trace={trace})")),
                    Some(m) if m.2 != unit => problems.push(format!(
                        "{w}: metric {name} printed in {}, declared {unit}",
                        m.2
                    )),
                    Some(m) if !m.1.is_finite() => {
                        problems.push(format!("{w}: metric {name} is {}", m.1))
                    }
                    Some(_) => {}
                }
            }
            for m in &report.metrics {
                if !wanted.iter().any(|(name, _)| name == &m.0) {
                    problems.push(format!(
                        "{w}: metric {} printed but not declared (trace={trace})",
                        m.0
                    ));
                }
            }
        }
    }
    let args = Args {
        scheme: 0,
        seed: 3,
        seconds: 1.0,
        trace: false,
    };
    let missed = run(train::unreachable(train::spec(0)), &args);
    if missed.correct || missed.failed == 0 {
        problems.push("a run that missed its target passed the correctness gate".into());
    }
    for p in &problems {
        println!("selftest FAILED: {p}");
    }
    if problems.is_empty() {
        println!("selftest passed");
        0
    } else {
        1
    }
}
