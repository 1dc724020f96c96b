//! The repo benchmark. One command runs a workload and prints every
//! metric by name with its unit, checks the outputs, and ends with the
//! one-line result object `BENCHMARK.json`'s driver parses:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` is the untraced engine run and prints the end-to-end
//! metrics; `--trace 1` is the separate traced pass and prints the
//! per-layer metrics. Without `--workload` every workload runs; without
//! `--trace` both passes run. See `benchmark/README.md`.

mod choreo;
mod cohort;
mod layers;
mod loopback;
mod report;
mod resident;
mod spans;
mod stats;
mod tmp;
mod workload;

use report::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

#[global_allocator]
static ALLOC: ptf_tensor::alloc::CountingAlloc = ptf_tensor::alloc::CountingAlloc;

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u32 = 22;

const WORKLOADS: [&str; 4] =
    ["ml100k-mf-resident", "ml64-neumf-ngcf", "scale100k-cohort-disk", "ml100k-mf-loopback"];

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u32,
    /// `None` = both passes.
    trace: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 2024,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}; one of {WORKLOADS:?}"));
                }
                args.workloads = vec![value];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds =
                    value.parse().ok().filter(|s| (1..=60).contains(s)).ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn build(name: &str, seed: u64, out_dir: PathBuf) -> Box<dyn Workload> {
    match name {
        "ml100k-mf-resident" => Box::new(resident::Resident::ml100k_mf(seed, out_dir)),
        "ml64-neumf-ngcf" => Box::new(resident::Resident::ml64_neumf_ngcf(seed, out_dir)),
        "scale100k-cohort-disk" => Box::new(cohort::Cohort::new(seed, out_dir)),
        "ml100k-mf-loopback" => Box::new(loopback::Loopback::new(seed, out_dir)),
        _ => unreachable!("parse_args admits only WORKLOADS"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("ptf-benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    // the vector kernels, whatever PTF_KERNEL says
    ptf_tensor::kernels::set_backend(ptf_tensor::kernels::Backend::Vector);
    // spans and scratch files live beside the benchmark's sources, inside
    // the checkout the binary was built in
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");

    let mut all_correct = true;
    for name in &args.workloads {
        let w = build(name, args.seed, out_dir.clone());
        for trace in [false, true] {
            if args.trace.is_some_and(|only| only != trace) {
                continue;
            }
            let (outcome, registry) = if trace {
                (w.trace(), PER_LAYER)
            } else {
                (workload::end_to_end(w.as_ref(), args.seconds), END_TO_END)
            };
            all_correct &= outcome.correct();
            outcome.print(w.name(), args.seed, registry);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
