//! The repo benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! perfbench [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--check-repeat]
//! ```
//!
//! With `--workload` it runs that workload in this process and prints its
//! metrics, ending with one JSON object on the last line of standard
//! output. Without, it runs all five in two passes (`A B C D E A B C D E`,
//! each workload pass a child process of its own: own heap, own `VmHWM`),
//! merges the passes and prints one table; `--check-repeat` does that twice
//! and fails when the two results disagree by more than the benchmark's
//! own bounds. See `perfbench/README.md`.

mod alloc;
mod contract;
mod host;
mod layers;
mod measure;
mod span;
mod stats;
mod workloads;

use contract::{Metric, END_TO_END, PER_LAYER};
use measure::{Outcome, Sizing};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::WorkloadId;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

struct Args {
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        check_repeat: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(WorkloadId::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be within (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.check_repeat && (args.workload.is_some() || args.trace) {
        return Err("--check-repeat runs every workload untraced; drop --workload/--trace".into());
    }
    Ok(args)
}

/// Where result and trace files go: under the build directory, which is
/// inside the checkout and ignored by git.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("benchmark")
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result object the driver reads: exactly these four keys.
fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        json_metrics(&o.metrics)
    )
}

/// What a child process reported on its last line.
struct Reported {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`.
    metrics: Vec<(String, f64, String)>,
}

impl Reported {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Reads back what [`result_line`] wrote. Understands exactly that shape,
/// nothing more of JSON.
fn parse_result_line(line: &str) -> Option<Reported> {
    let field = |key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")?.parse().ok()?;
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut metrics = Vec::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for entry in body.split("\"}").filter(|e| e.contains("{\"value\": ")) {
        let (name, rest) = entry.split_once("\": {\"value\": ")?;
        let name = &name[name.rfind('"')? + 1..];
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
    }
    Some(Reported {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn print_outcome(o: &Outcome, args: &Args, host: &str) {
    println!(
        "workload {}  seed {}  trace {}  samples {}  host {host}",
        o.id.name(),
        args.seed,
        u8::from(args.trace),
        o.primary_ms.len()
    );
    for (name, value, unit) in &o.metrics {
        let note = match *name {
            "run_ms_p50" => format!("  (n={})", o.primary_ms.len()),
            "run_ms_p90" => format!("  (p{} of n={})", o.tail_pct, o.primary_ms.len()),
            _ => String::new(),
        };
        println!("  {name:<40} {value:>16.4} {unit}{note}");
    }
    if args.trace {
        println!("  self time by span name:");
        for (name, ms, count) in span::self_ms_by_name(&o.spans) {
            println!("    {name:<36} {ms:>12.3} ms  in {count} spans");
        }
    }
    for reason in &o.failures {
        println!("  FAILED RUN: {reason}");
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(id: WorkloadId, args: &Args) -> Result<ExitCode, String> {
    let host = host::fingerprint_json();
    let sizing = if args.smoke {
        Sizing::smoke(args.seconds)
    } else {
        Sizing::full(args.seconds)
    };
    let outcome = measure::run(id, args.seed, &sizing, args.trace)?;
    if let Some((name, value, _)) = outcome.metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not a number ({value})"));
    }
    print_outcome(&outcome, args, &host);
    let dir = out_dir();
    let line = result_line(&outcome);
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {host}, \"result\": {line}, \"primary_ms\": {:?}, \"pairs_ms\": {:?}}}\n",
            id.name(),
            args.seed,
            args.trace,
            outcome.primary_ms,
            outcome
                .pairs_ms
                .iter()
                .map(|p| [p.0, p.1])
                .collect::<Vec<_>>()
        );
        std::fs::write(dir.join(format!("result-{}.json", id.name())), record)?;
        if args.trace {
            let trace = span::trace_json(id.name(), &host, &outcome.spans);
            std::fs::write(dir.join(format!("trace-{}.json", id.name())), trace)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not write under {}: {e}", dir.display());
    }
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// One workload's row of a table: `None` when a child did not report.
type Row = (WorkloadId, Option<Reported>);

/// Passes a result is merged from when every workload runs. Each pass
/// measures for `--seconds / PASSES`, so the five workloads together take
/// as long as five single-workload runs.
const PASSES: u32 = 2;

/// Runs every workload once for `seconds`, each in a child process, and
/// returns what each reported.
fn run_pass(args: &Args, seconds: f64) -> Result<Vec<Row>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut rows = Vec::new();
    for id in WorkloadId::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", id.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start {}: {e}", id.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = if out.status.success() {
            lines.pop()
        } else {
            None
        };
        for l in lines {
            println!("{l}");
        }
        let row = last.and_then(parse_result_line);
        if row.is_none() {
            println!("workload {} did not report ({})", id.name(), out.status);
        }
        rows.push((id, row));
    }
    Ok(rows)
}

/// Merges one workload's passes into one result: the counts add up and
/// each metric is the median of the passes' values, except the memory
/// peak, which is the largest any pass saw.
fn merge(passes: &[Reported]) -> Reported {
    let metrics = passes[0]
        .metrics
        .iter()
        .map(|(name, _, unit)| {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.value(name)).collect();
            let merged = if name == "peak_rss_mb" {
                values.iter().copied().fold(f64::MIN, f64::max)
            } else {
                stats::median(&values)
            };
            (name.clone(), merged, unit.clone())
        })
        .collect();
    Reported {
        correct: passes.iter().all(|p| p.correct),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics,
    }
}

/// Runs every workload in passes at different times (`A B C D E A B C D E`),
/// so slow host drift meets each workload twice, and merges the passes.
/// The traced benchmark makes one pass: its layer drivers need the whole
/// of `--seconds`, and each pass overwrites the trace files.
fn run_merged(args: &Args) -> Result<Vec<Row>, String> {
    let passes = if args.trace { 1 } else { PASSES };
    let mut reported: Vec<(WorkloadId, Vec<Reported>)> =
        WorkloadId::ALL.iter().map(|id| (*id, Vec::new())).collect();
    for _ in 0..passes {
        let pass = run_pass(args, args.seconds / f64::from(passes))?;
        for ((_, seen), (_, row)) in reported.iter_mut().zip(pass) {
            seen.extend(row);
        }
    }
    Ok(reported
        .into_iter()
        .map(|(id, seen)| {
            let complete = seen.len() == passes as usize;
            (id, complete.then(|| merge(&seen)))
        })
        .collect())
}

fn print_table(table: &[Metric], rows: &[Row]) {
    let mut head = format!("{:<42}{:<9}", "metric", "unit");
    for (id, _) in rows {
        let _ = write!(head, "{:>18}", id.name());
    }
    println!("{head}");
    let cell = |row: &Option<Reported>, name: &str| {
        row.as_ref()
            .and_then(|r| r.value(name))
            .map_or("-".to_string(), |v| format!("{v:.4}"))
    };
    for m in table {
        let mut line = format!("{:<42}{:<9}", m.name, m.unit);
        for (_, row) in rows {
            let _ = write!(line, "{:>18}", cell(row, m.name));
        }
        println!("{line}");
    }
    let mut line = format!("{:<42}{:<9}", "failed/attempted", "runs");
    for (_, row) in rows {
        let runs = row
            .as_ref()
            .map_or("-".to_string(), |r| format!("{}/{}", r.failed, r.attempted));
        let _ = write!(line, "{runs:>18}");
    }
    println!("{line}");
}

/// Compares two results of the same build, metric by metric, against the
/// benchmark's own bounds. Returns the number of breaches.
fn compare(a: &[Row], b: &[Row]) -> usize {
    let mut breaches = 0;
    println!(
        "{:<18}{:<24}{:>14}{:>14}{:>10}{:>9}",
        "workload", "metric", "first", "second", "change", "bound"
    );
    for ((id, ra), (_, rb)) in a.iter().zip(b) {
        let (Some(ra), Some(rb)) = (ra, rb) else {
            println!("{:<18}did not report both times", id.name());
            breaches += 1;
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (ra.value(m.name), rb.value(m.name)) else {
                continue;
            };
            // Two results of one build have no better or worse side: a
            // move either way beyond the bound is a breach.
            let change = stats::worsening(va, vb, m.lower_is_better);
            let bound = m.bound.unwrap_or(0.0);
            let breach = change.abs() > bound;
            breaches += usize::from(breach);
            println!(
                "{:<18}{:<24}{va:>14.4}{vb:>14.4}{:>9.2}%{:>8.3}%{}",
                id.name(),
                m.name,
                change * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    breaches
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    println!("host {}", host::fingerprint_json());
    let table: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let first = run_merged(args)?;
    print_table(table, &first);
    let mut ok = first
        .iter()
        .all(|(_, row)| row.as_ref().is_some_and(|r| r.correct));
    if args.check_repeat {
        let second = run_merged(args)?;
        print_table(table, &second);
        ok &= second
            .iter()
            .all(|(_, row)| row.as_ref().is_some_and(|r| r.correct));
        let breaches = compare(&first, &second);
        println!("check-repeat: {breaches} breach(es)");
        ok &= breaches == 0;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let done = match args.workload {
        Some(id) => run_one(id, &args),
        None => run_all(&args),
    };
    done.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let o = Outcome {
            id: WorkloadId::DesFineFf,
            attempted: 280,
            failed: 0,
            failures: Vec::new(),
            metrics: vec![
                ("setup_s", 0.812_734_561, "s"),
                ("tasks_per_s", 104_512.25, "tasks/s"),
                ("core.engine.loopback_ms.none", 0.0, "ms"),
            ],
            primary_ms: vec![1.5; 140],
            pairs_ms: Vec::new(),
            tail_pct: 90,
            spans: Vec::new(),
        };
        let line = result_line(&o);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 280, \"failed\": 0, \"metrics\": {"));
        let Reported {
            correct,
            attempted,
            failed,
            metrics,
        } = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (280, 0));
        assert_eq!(metrics.len(), 3);
        assert_eq!(
            metrics[0],
            ("setup_s".to_string(), 0.812_734_561, "s".to_string())
        );
        assert_eq!(metrics[1].2, "tasks/s");
        assert_eq!(metrics[2].0, "core.engine.loopback_ms.none");
    }

    #[test]
    fn passes_merge_by_median_and_the_memory_peak_by_maximum() {
        let pass = |p50: f64, rss: f64, failed: u64| Reported {
            correct: failed == 0,
            attempted: 100,
            failed,
            metrics: vec![
                ("run_ms_p50".to_string(), p50, "ms".to_string()),
                ("peak_rss_mb".to_string(), rss, "MB".to_string()),
            ],
        };
        let merged = merge(&[pass(40.0, 22.0, 0), pass(44.0, 23.0, 1)]);
        assert_eq!(merged.value("run_ms_p50"), Some(42.0));
        assert_eq!(merged.value("peak_rss_mb"), Some(23.0));
        assert_eq!((merged.attempted, merged.failed), (200, 1));
        assert!(!merged.correct);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload proc_chain_ff --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(WorkloadId::ProcChainFf));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--check-repeat --trace 1")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }
}
