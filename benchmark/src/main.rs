//! The repository benchmark: runs one workload against the public APIs of
//! `enhancenet-models`, `enhancenet` and `enhancenet-data`, checks the
//! outputs, and prints one JSON result line (last line of stdout).
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload train-la --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. A failed output check prints the
//! result with `"correct": false` and exits with status 1. See README.md.

mod host;
mod openloop;
mod report;
mod setup;
mod stats;
mod trace;
mod workloads;

/// The workloads, with the reason each was chosen.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "train-la",
        "paper-scale D-DA-GRNN training on the LA analogue (N=207, batch 8) plus single-window predict: tape-bound (backward ~63% of a step); no top-k, no SpMM, no serving",
    ),
    (
        "grid-4k",
        "sparse top-k D-DA-GTCN training and predict at N=4000: the only workload on the O(N^2 M) top-k pattern build, CSR SpMM and sparse VJPs, so a gain there shows only here",
    ),
    (
        "serve-us",
        "open-loop fleet serving of D-DA-GTCN on the US analogue (N=36): plan executor, queues, \
         micro-batching and replies at 50 and 175 req/s; no backward, no top-k",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| bad("a positive integer"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Compute-pool width used unless `RAYON_NUM_THREADS` is set. On the
/// 2-vCPU reference VM the second vCPU's availability swings with
/// neighbouring load: with the default two threads, ten runs of one
/// workload spread by 15-30 % (interquartile range over median); with one
/// thread, by 2-6 %. One thread per process keeps the figures comparable
/// from run to run; set the variable to measure parallel scaling instead.
const DEFAULT_RAYON_THREADS: &str = "1";

fn main() {
    let pinned = std::env::var_os("RAYON_NUM_THREADS").is_none();
    if pinned {
        // Before any parallel call: the pool reads the variable once.
        std::env::set_var("RAYON_NUM_THREADS", DEFAULT_RAYON_THREADS);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!(
                "usage: enhancenet-benchmark --workload <train-la|serve-us|grid-4k> --seed <n> \
                 [--seconds <s>] [--trace <0|1>]"
            );
            std::process::exit(2);
        }
    };
    let why = WORKLOADS.iter().find(|(name, _)| *name == args.workload).map_or("", |(_, w)| w);
    println!(
        "{}",
        host::facts_json(&args.workload, args.seed, args.seconds, args.trace, pinned, why)
    );
    let seconds = args.seconds as f64;
    let report = if args.trace {
        trace::run(&args.workload, args.seed, seconds)
    } else {
        match args.workload.as_str() {
            "train-la" => workloads::train_la(args.seed, seconds),
            "serve-us" => workloads::serve_us(args.seed, seconds),
            _ => workloads::grid_4k(args.seed, seconds),
        }
    };
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
