//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--gcube <path>]`
//!
//! Runs one workload. With `--trace 0` it measures the end-to-end
//! metrics; with `--trace 1` it measures each layer by timing the calls
//! into it from here. Every run checks the program's outputs. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! name each metric with its unit and sample count. A failed check is
//! named on standard error and makes the exit code 1.
//!
//! `--gcube` is the `gcube` CLI binary whose `serve` daemon the socket
//! phases start (default `target/release/gcube`); `run.py` builds it.

mod engine;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::Workload;

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub gcube: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut gcube = PathBuf::from("target/release/gcube");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--gcube" => gcube = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        gcube,
    })
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(String, f64, &'static str, usize)>,
    /// Operations issued to the program (simulation runs or requests).
    pub attempted: u64,
    /// Operations the program answered with an error.
    pub failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    /// Record `name = value unit`, measured over `samples` samples.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name.to_string(), value, unit, samples));
    }

    /// Record a correctness check; a failing one is named in the output.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }
}

/// `VmHWM` (peak resident set) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} host_cores {cores}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
    );
    let mut out = Outcome::default();
    let run = match args.workload {
        Workload::ServeSessions => serve::run(&args, &mut out),
        _ => engine::run(&args, &mut out),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if args.trace {
        out.metric("host.cores", cores as f64, "count", 1);
    }

    let mut json = String::new();
    let mut unmeasured = Vec::new();
    for (name, value, unit, samples) in &out.metrics {
        println!("# metric {name} = {value} {unit} (samples {samples})");
        if !json.is_empty() {
            json.push(',');
        }
        let value = if value.is_finite() {
            *value
        } else {
            unmeasured.push(name.clone());
            0.0
        };
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    out.check("metrics_measured", unmeasured.is_empty(), || {
        format!("no finite value for {}", unmeasured.join(", "))
    });
    for f in &out.failures {
        eprintln!("perfbench: CHECK FAILED {f}");
        println!("# check failed: {f}");
    }
    let correct = out.failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        out.attempted, out.failed,
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
