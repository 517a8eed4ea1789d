//! The maxwarp benchmark: one workload per process.
//!
//! ```text
//! maxwarp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with the span
//! recorder off; with `--trace 1` it makes the traced run that yields the
//! per-layer metrics and writes `<out-dir>/<workload>.trace.json`. Either
//! way every output is checked against an oracle, and the last line of
//! standard output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. See README.md.

mod batch;
mod family_sweep;
mod oracle;
mod probes;
mod report;
mod rmat_large;
mod serve;
mod shard_bsp;
mod sim;
mod spec;
mod trace;
mod util;

use report::{Args, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use util::{json_num, json_obj, json_str};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u32 = 10;

struct Cli {
    workload: String,
    args: Args,
    out_dir: PathBuf,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        args: Args {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: false,
        },
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !spec::WORKLOADS.iter().any(|w| w.name == cli.workload) {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if !(cli.args.seconds.is_finite() && cli.args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(cli)
}

/// `Gpu::new`, `ServerConfig::new`, `LinkConfig::from_env`, `Tracer::new` and
/// the graph cache read `MAXWARP_*`; a set variable would silently change
/// what is measured, so the benchmark refuses to start.
fn refuse_env_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MAXWARP_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset {} first: the benchmark is hermetic",
            set.join(", ")
        ))
    }
}

/// Write the run's record — configuration, counts, metrics and, for a traced
/// run, the spans — under `out_dir`.
fn write_record(cli: &Cli, rep: &Report, correct: bool) -> std::io::Result<()> {
    std::fs::create_dir_all(&cli.out_dir)?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload", json_str(&cli.workload)),
        ("seed", cli.args.seed.to_string()),
        ("seconds", json_num(cli.args.seconds)),
        ("trace", cli.args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("correct", correct.to_string()),
        ("attempted", rep.attempted.to_string()),
        ("failed", rep.failed.to_string()),
        ("config", json_obj(&rep.config)),
        ("metrics", rep.metrics.to_json()),
    ];
    let kind = if cli.args.trace {
        fields.push(("self_ms_by_layer", rep.trace.self_ms_json()));
        fields.push(("spans", rep.trace.spans_json()));
        "trace"
    } else {
        "result"
    };
    let path: &Path = &cli.out_dir.join(format!("{}.{kind}.json", cli.workload));
    std::fs::write(path, json_obj(&fields) + "\n")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--print-benchmark-json"] {
        print!("{}", spec::benchmark_json(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&argv).and_then(|c| refuse_env_knobs().map(|()| c)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("maxwarp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match cli.workload.as_str() {
        "family_sweep" => family_sweep::run(&cli.args),
        "rmat_large" => rmat_large::run(&cli.args),
        "shard_bsp" => shard_bsp::run(&cli.args),
        "serve_cold" => serve::run(serve::Mode::Cold, &cli.args),
        _ => serve::run(serve::Mode::Hot, &cli.args),
    };
    let correct = rep.failed == 0 && rep.attempted > 0 && rep.metrics.all_finite();
    if let Err(e) = write_record(&cli, &rep, correct) {
        eprintln!(
            "maxwarp-benchmark: cannot write under {}: {e}",
            cli.out_dir.display()
        );
        return ExitCode::from(2);
    }
    println!(
        "workload {} seed {} trace {} ops {} failed {} spans {}",
        cli.workload,
        cli.args.seed,
        cli.args.trace as u8,
        rep.attempted,
        rep.failed,
        rep.trace.len()
    );
    print!("{}", rep.metrics.to_text());
    println!(
        "{}",
        json_obj(&[
            ("correct", correct.to_string()),
            ("attempted", rep.attempted.max(1).to_string()),
            ("failed", rep.failed.to_string()),
            ("metrics", rep.metrics.to_json()),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
