//! The repository benchmark: three workloads, each measured end to end
//! and layer by layer.
//!
//! ```text
//! perfbench --workload serve-hot|scan-cold|ingest-live --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures with tracing off and ends with the end-to-end
//! metrics; `--trace 1` records spans around every layer call, writes
//! them and the per-layer self-time table under `perfbench/out/`,
//! reports the tracing overhead against the last untraced run of the
//! same workload and seed, and ends with the per-layer metrics. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. Any failed correctness check exits with code 1.

mod common;
mod http;
mod ingest_live;
mod metrics;
mod scan_cold;
mod serve_hot;
mod stats;
mod trace;

use common::{checkout_root, nproc, source_identity, Config, Sizes};
use metrics::{result_line, Def, Report, END_TO_END, PER_LAYER, WORKLOAD_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["serve-hot", "scan-cold", "ingest-live"];

const USAGE: &str = "usage: perfbench --workload serve-hot|scan-cold|ingest-live \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if map.insert(key, value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let need = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = need("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: f64 = need("seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match need("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: need("seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = checkout_root().join("perfbench/out");
    match run(&args, Sizes::FULL, &out) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload and print its report; `Ok(false)` when a
/// correctness check failed.
fn run(args: &Args, sizes: Sizes, out: &Path) -> Result<bool, String> {
    let work = out.join(format!("work-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let _cleanup = RemoveOnDrop(work.clone());
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        sizes,
        work,
    };
    let tracer = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "serve-hot" => serve_hot::run(&cfg, &tracer)?,
        "scan-cold" => scan_cold::run(&cfg, &tracer)?,
        _ => ingest_live::run(&cfg, &tracer)?,
    };
    report.set(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    let (commit, source) = source_identity();
    let mut context = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc().to_string()),
        ("commit", commit),
        ("source_xxh64", source),
    ];
    context.append(&mut report.context);
    report.context = context;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    if args.trace {
        trace_outputs(&tracer, out, &args.workload, &stem)?;
    }
    let required: &[Def] = if args.trace { PER_LAYER } else { END_TO_END };
    let missing: Vec<&str> = required
        .iter()
        .filter(|d| !report.values.contains_key(d.name))
        .map(|d| d.name)
        .collect();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {missing:?}"));
    }
    print_report(&report);
    let saved = render_values(&report);
    let _ = std::fs::write(
        out.join(format!("{stem}-trace{}.txt", u8::from(args.trace))),
        &saved,
    );
    if args.trace {
        print_overhead(&report, &out.join(format!("{stem}-trace0.txt")));
    }
    println!("{}", result_line(&report, &report.select(required)));
    Ok(report.correct())
}

/// Removes the run's work directory however the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Write the spans (one file per workload, overwritten by its next
/// traced run: they run to 100 MB) and the per-layer self-time table.
fn trace_outputs(tracer: &Tracer, out: &Path, workload: &str, stem: &str) -> Result<(), String> {
    let (spans, dropped) = tracer.take();
    let table = trace::layer_table(&spans);
    let spans_path = out.join(format!("{workload}-spans.tsv"));
    trace::write_spans(&spans_path, &spans)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let mut text = format!(
        "per-layer self time ({} spans, {dropped} dropped past the cap; spans in {})\n\
         {:<32} {:>10} {:>12} {:>12} {:>12}\n",
        spans.len(),
        spans_path.display(),
        "span",
        "count",
        "total_ms",
        "self_ms",
        "self_us/op"
    );
    for (name, row) in &table {
        text.push_str(&format!(
            "{name:<32} {:>10} {:>12.3} {:>12.3} {:>12.3}\n",
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.self_us()
        ));
    }
    print!("{text}");
    let table_path = out.join(format!("{stem}-layers.txt"));
    std::fs::write(&table_path, &text).map_err(|e| format!("writing {}: {e}", table_path.display()))
}

/// Every metric set, by name, with its unit and sample note.
fn print_report(report: &Report) {
    println!("context:");
    for (k, v) in &report.context {
        println!("  {k:<22} {v}");
    }
    println!("checks:");
    for (name, ok, detail) in &report.checks {
        println!("  [{}] {name} ({detail})", if *ok { "ok" } else { "FAIL" });
    }
    println!(
        "operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    for (title, defs) in [
        ("end-to-end", END_TO_END),
        ("per-layer", PER_LAYER),
        ("per-layer, this workload's layers only", WORKLOAD_LAYER),
    ] {
        println!("{title}:");
        for (d, v) in report.select(defs) {
            if !report.values.contains_key(d.name) {
                continue;
            }
            let note = report.notes.get(d.name).map_or("", String::as_str);
            println!("  {:<36} {v:>14.4} {:<6} {note}", d.name, d.unit);
        }
    }
}

/// `name value` lines, read back by the traced run.
fn render_values(report: &Report) -> String {
    report
        .values
        .iter()
        .map(|(k, v)| format!("{k} {v:?}\n"))
        .collect()
}

/// Tracing overhead: each end-to-end metric of this traced run against
/// the last untraced run of the same workload and seed.
fn print_overhead(report: &Report, untraced: &Path) {
    let Ok(text) = std::fs::read_to_string(untraced) else {
        println!(
            "tracing overhead: no untraced run at {} to compare with",
            untraced.display()
        );
        return;
    };
    let before: BTreeMap<&str, f64> = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
        .collect();
    println!("tracing overhead (traced / untraced - 1, same workload and seed):");
    for d in END_TO_END {
        if let (Some(b), Some(a)) = (before.get(d.name), report.values.get(d.name)) {
            println!(
                "  {:<36} {:>+9.2}%   ({b:.4} -> {a:.4} {})",
                d.name,
                (a / b - 1.0) * 100.0,
                d.unit
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both modes of one workload at tiny sizes; the traced run also
    /// finds the untraced run's values for its overhead report.
    fn tiny(workload: &str) {
        let out = checkout_root().join(format!(
            "perfbench/out/smoke-{workload}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&out).unwrap();
        let results: Vec<_> = [false, true]
            .into_iter()
            .map(|trace| {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 0.5,
                    trace,
                };
                run(&args, Sizes::TINY, &out)
            })
            .collect();
        let _ = std::fs::remove_dir_all(&out);
        assert_eq!(
            results,
            [Ok(true), Ok(true)],
            "{workload} smoke runs failed their checks"
        );
    }

    #[test]
    fn serve_hot_smoke() {
        tiny("serve-hot");
    }

    #[test]
    fn scan_cold_smoke() {
        tiny("scan-cold");
    }

    #[test]
    fn ingest_live_smoke() {
        tiny("ingest-live");
    }

    #[test]
    fn arguments_are_strict() {
        let a = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(a("--workload serve-hot --seed 3 --seconds 10 --trace 0").is_ok());
        assert!(a("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(a("--workload serve-hot --seed 3 --seconds 10 --trace 2").is_err());
        assert!(a("--workload serve-hot --seed 3 --seed 4 --seconds 10 --trace 0").is_err());
        assert!(a("--workload serve-hot --seconds 10 --trace 0").is_err());
        assert!(a("--workload serve-hot --seed 3 --seconds 10 --trace 0 --x 1").is_err());
    }
}
