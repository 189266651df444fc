//! `splice-trace` — canonical-trace tooling on the command line.
//!
//! Four subcommands over the deterministic backends:
//!
//! * `record`  — run a `(backend, workload, plan)` with full tracing and
//!   write the canonical event stream plus the report fingerprint to a
//!   file;
//! * `replay`  — re-execute a recording's inputs and verify the trace and
//!   report reproduce, printing the first divergent event otherwise;
//! * `diff`    — run the same `(workload, plan)` on two backends and print
//!   where their canonical traces first disagree (and whether their
//!   verdict/value/semantic checksums agree);
//! * `shrink`  — delta-debug a failing fault plan (an inline spec or an
//!   archived reproducer by name) down to a minimal plan that still fails,
//!   printing a ready-to-paste regression test.
//!
//! Specs are tiny and positional-free: workloads are `name:arg:arg`
//! (`fib:12`, `dcsum:0:48`, `quicksort:24:7`, `nqueens:5`, `tak:8:4:2`,
//! `mapreduce:0:16:6`), plans are comma-separated `victim@time:kind`
//! events (`2@3000:crash,1@4000:corrupt`) or `none`. Configurations use
//! the deterministic test shape: round-robin placement, load beacons off.

use splice_applicative::Workload;
use splice_sim::replay::{archived_plan, execute, record, Backend, Recording};
use splice_sim::MachineConfig;
use splice_simnet::fault::{FaultKind, FaultPlan};
use splice_simnet::shrink::{plan_literal, regression_test_literal, shrink};
use splice_simnet::time::VirtualTime;
use splice_simnet::trace::{first_divergence, TraceEvent, TraceKind, TraceMode};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  splice-trace record --backend B --workload W [--procs N] [--threads T] \\
                      [--seed S] [--batch U] --plan P --out FILE
  splice-trace replay FILE
  splice-trace diff   --left B --right B --workload W [--procs N] \\
                      [--threads T] [--seed S] [--batch U] --plan P
  splice-trace shrink (--plan P | --archived NAME) --workload W \\
                      [--backend B] [--procs N] [--threads T]

  B = des | parallel   (the one-thread reactor is `parallel --threads 1`)
  W = fib:N | dcsum:LO:HI | quicksort:LEN:SEED | nqueens:N | tak:X:Y:Z | mapreduce:LO:HI:WORK
  P = victim@time:crash|corrupt[,...] | none"
    );
    ExitCode::from(2)
}

/// One parsed `--flag value` map (every flag takes exactly one value).
struct Args {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Option<Args> {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(flag) = a.strip_prefix("--") {
                let v = it.next()?;
                pairs.push((flag.to_string(), v.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Some(Args { pairs, positional })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, flag: &str, default: u64) -> Option<u64> {
        match self.get(flag) {
            None => Some(default),
            Some(v) => v.parse().ok(),
        }
    }
}

fn parse_workload(spec: &str) -> Option<Workload> {
    let mut parts = spec.split(':');
    let name = parts.next()?;
    let args: Vec<i64> = parts.map(|p| p.parse().ok()).collect::<Option<_>>()?;
    match (name, args.as_slice()) {
        ("fib", [n]) => Some(Workload::fib(*n)),
        ("dcsum", [lo, hi]) => Some(Workload::dcsum(*lo, *hi)),
        ("quicksort", [len, seed]) => Some(Workload::quicksort(*len as usize, *seed as u64)),
        ("nqueens", [n]) => Some(Workload::nqueens(*n)),
        ("tak", [x, y, z]) => Some(Workload::tak(*x, *y, *z)),
        ("mapreduce", [lo, hi, work]) => Some(Workload::mapreduce(*lo, *hi, *work)),
        _ => None,
    }
}

fn parse_plan(spec: &str) -> Option<FaultPlan> {
    let mut plan = FaultPlan::none();
    if spec == "none" {
        return Some(plan);
    }
    for ev in spec.split(',') {
        let (victim, rest) = ev.split_once('@')?;
        let (at, kind) = rest.split_once(':')?;
        let kind = match kind {
            "crash" => FaultKind::Crash,
            "corrupt" => FaultKind::Corrupt,
            _ => return None,
        };
        plan = plan.and(victim.parse().ok()?, VirtualTime(at.parse().ok()?), kind);
    }
    Some(plan)
}

fn plan_spec(plan: &FaultPlan) -> String {
    if plan.events.is_empty() {
        return "none".to_string();
    }
    plan.events
        .iter()
        .map(|e| {
            let kind = match e.kind {
                FaultKind::Crash => "crash",
                FaultKind::Corrupt => "corrupt",
            };
            format!("{}@{}:{kind}", e.victim, e.at.ticks())
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The deterministic test configuration every subcommand uses: round-robin
/// placement, beacons off — no stochastic placer, no beacon traffic.
fn config(args: &Args) -> Option<MachineConfig> {
    let mut c = MachineConfig::new(args.num("procs", 4)? as u32);
    c.policy = splice_gradient::Policy::RoundRobin;
    c.recovery.load_beacon_period = 0;
    c.threads = args.num("threads", 2)? as u32;
    c.seed = args.num("seed", 1)?;
    c.batch_window = args.num("batch", 0)?;
    Some(c)
}

/// Stable one-line encoding of an event (round-trips through
/// `parse_event`; the human-readable `Display` form is for diagnostics).
fn encode_event(ev: &TraceEvent) -> String {
    let (tag, fields) = match ev.kind {
        TraceKind::Deliver { to, kind, digest } => {
            ("d", vec![u64::from(to), u64::from(kind), digest])
        }
        TraceKind::Bounce { sender, dead, kind } => (
            "b",
            vec![u64::from(sender), u64::from(dead), u64::from(kind)],
        ),
        TraceKind::TimerFire { owner, digest } => ("t", vec![u64::from(owner), digest]),
        TraceKind::Fault {
            victim,
            kind,
            applied,
        } => (
            "f",
            vec![u64::from(victim), u64::from(kind), u64::from(applied)],
        ),
        TraceKind::Wave { owner, work } => ("w", vec![u64::from(owner), work]),
        TraceKind::Complete { owner, digest } => ("c", vec![u64::from(owner), digest]),
        TraceKind::RootFailover { rank } => ("r", vec![u64::from(rank)]),
        TraceKind::Policy { kind, every } => ("p", vec![u64::from(kind), u64::from(every)]),
    };
    let mut line = format!("{} {} {tag}", ev.at.ticks(), ev.seq);
    for f in fields {
        line.push(' ');
        line.push_str(&f.to_string());
    }
    line
}

fn parse_event(line: &str) -> Option<TraceEvent> {
    let mut it = line.split(' ');
    let at = VirtualTime(it.next()?.parse().ok()?);
    let seq = it.next()?.parse().ok()?;
    let tag = it.next()?;
    let fields: Vec<u64> = it.map(|f| f.parse().ok()).collect::<Option<_>>()?;
    let kind = match (tag, fields.as_slice()) {
        ("d", [to, kind, digest]) => TraceKind::Deliver {
            to: *to as u32,
            kind: *kind as u8,
            digest: *digest,
        },
        ("b", [sender, dead, kind]) => TraceKind::Bounce {
            sender: *sender as u32,
            dead: *dead as u32,
            kind: *kind as u8,
        },
        ("t", [owner, digest]) => TraceKind::TimerFire {
            owner: *owner as u32,
            digest: *digest,
        },
        ("f", [victim, kind, applied]) => TraceKind::Fault {
            victim: *victim as u32,
            kind: *kind as u8,
            applied: *applied != 0,
        },
        ("w", [owner, work]) => TraceKind::Wave {
            owner: *owner as u32,
            work: *work,
        },
        ("c", [owner, digest]) => TraceKind::Complete {
            owner: *owner as u32,
            digest: *digest,
        },
        ("r", [rank]) => TraceKind::RootFailover { rank: *rank as u32 },
        ("p", [kind, every]) => TraceKind::Policy {
            kind: *kind as u8,
            every: *every as u32,
        },
        _ => return None,
    };
    Some(TraceEvent { at, seq, kind })
}

fn encode_recording(rec: &Recording, workload_spec: &str) -> String {
    let s = rec.report.trace;
    let mut out = String::new();
    out.push_str("splice-trace v1\n");
    out.push_str(&format!("backend {}\n", rec.backend));
    out.push_str(&format!("workload {workload_spec}\n"));
    out.push_str(&format!("procs {}\n", rec.cfg.topology.len()));
    out.push_str(&format!("threads {}\n", rec.cfg.threads));
    out.push_str(&format!("seed {}\n", rec.cfg.seed));
    out.push_str(&format!("batch {}\n", rec.cfg.batch_window));
    out.push_str(&format!("plan {}\n", plan_spec(&rec.plan)));
    out.push_str(&format!(
        "report completed={} stalled={} finish={} events={} delivered={}\n",
        rec.report.completed,
        rec.report.stalled,
        rec.report.finish.ticks(),
        rec.report.events,
        rec.report.delivered,
    ));
    out.push_str(&format!(
        "checksums stream={:#018x} semantic={:#018x} events={} dropped={}\n",
        s.stream, s.semantic, s.events, s.dropped
    ));
    for ev in &rec.events {
        out.push_str(&encode_event(ev));
        out.push('\n');
    }
    out
}

fn field<'a>(lines: &'a [&str], key: &str) -> Option<&'a str> {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
}

fn cmd_record(args: &Args) -> Option<ExitCode> {
    let backend = Backend::parse(args.get("backend")?)?;
    let spec = args.get("workload")?;
    let workload = parse_workload(spec)?;
    let plan = parse_plan(args.get("plan").unwrap_or("none"))?;
    let cfg = config(args)?;
    let out_path = args.get("out")?;
    let rec = record(backend, cfg, &workload, &plan);
    std::fs::write(out_path, encode_recording(&rec, spec)).ok()?;
    println!(
        "recorded {} events from {} on `{}` (completed={}, finish={})",
        rec.events.len(),
        spec,
        backend,
        rec.report.completed,
        rec.report.finish
    );
    Some(ExitCode::SUCCESS)
}

fn cmd_replay(args: &Args) -> Option<ExitCode> {
    let path = args.positional.first()?;
    let text = std::fs::read_to_string(path).ok()?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.first() != Some(&"splice-trace v1") {
        eprintln!("{path}: not a splice-trace recording");
        return Some(ExitCode::FAILURE);
    }
    let backend = Backend::parse(field(&lines, "backend")?)?;
    let workload = parse_workload(field(&lines, "workload")?)?;
    let plan = parse_plan(field(&lines, "plan")?)?;
    let mut cfg = MachineConfig::new(field(&lines, "procs")?.parse().ok()?);
    cfg.policy = splice_gradient::Policy::RoundRobin;
    cfg.recovery.load_beacon_period = 0;
    cfg.threads = field(&lines, "threads")?.parse().ok()?;
    cfg.seed = field(&lines, "seed")?.parse().ok()?;
    cfg.batch_window = field(&lines, "batch")?.parse().ok()?;
    cfg.trace = TraceMode::Full;
    let recorded: Vec<TraceEvent> = lines
        .iter()
        .skip_while(|l| !l.starts_with("checksums "))
        .skip(1)
        .map(|l| parse_event(l))
        .collect::<Option<_>>()?;
    let (fresh_report, fresh_events) = execute(backend, cfg, &workload, &plan);
    let report_line = format!(
        "report completed={} stalled={} finish={} events={} delivered={}",
        fresh_report.completed,
        fresh_report.stalled,
        fresh_report.finish.ticks(),
        fresh_report.events,
        fresh_report.delivered,
    );
    let report_matches = lines.contains(&report_line.as_str());
    match first_divergence(&recorded, &fresh_events) {
        None if report_matches => {
            println!(
                "replay OK: {} events reproduced bit-identically on `{backend}`",
                recorded.len()
            );
            Some(ExitCode::SUCCESS)
        }
        None => {
            println!("replay FAILED: trace identical but report changed:\n  fresh: {report_line}");
            Some(ExitCode::FAILURE)
        }
        Some(d) => {
            println!("replay FAILED:\n{d}");
            Some(ExitCode::FAILURE)
        }
    }
}

fn cmd_diff(args: &Args) -> Option<ExitCode> {
    let left = Backend::parse(args.get("left")?)?;
    let right = Backend::parse(args.get("right")?)?;
    let workload = parse_workload(args.get("workload")?)?;
    let plan = parse_plan(args.get("plan").unwrap_or("none"))?;
    let mut cfg = config(args)?;
    cfg.trace = TraceMode::Full;
    let (lr, le) = execute(left, cfg.clone(), &workload, &plan);
    let (rr, re) = execute(right, cfg, &workload, &plan);
    println!(
        "`{left}`:  completed={} result={:?} semantic={:#018x} ({} events)",
        lr.completed,
        lr.result,
        lr.trace.semantic,
        le.len()
    );
    println!(
        "`{right}`:  completed={} result={:?} semantic={:#018x} ({} events)",
        rr.completed,
        rr.result,
        rr.trace.semantic,
        re.len()
    );
    let verdicts_agree = lr.completed == rr.completed && lr.result == rr.result;
    match first_divergence(&le, &re) {
        None => println!("traces identical"),
        Some(d) => println!("{d}"),
    }
    Some(if verdicts_agree {
        ExitCode::SUCCESS
    } else {
        println!("BACKENDS DISAGREE on verdict/value");
        ExitCode::FAILURE
    })
}

fn cmd_shrink(args: &Args) -> Option<ExitCode> {
    let (plan, default_procs) = match args.get("archived") {
        Some(name) => {
            let Some(found) = archived_plan(name) else {
                eprintln!("unknown archived plan `{name}`");
                return Some(ExitCode::FAILURE);
            };
            found
        }
        None => (parse_plan(args.get("plan")?)?, 4),
    };
    let workload = parse_workload(args.get("workload")?)?;
    let backend = match args.get("backend") {
        Some(b) => Backend::parse(b)?,
        None => Backend::Des,
    };
    let mut cfg = MachineConfig::new(args.num("procs", u64::from(default_procs))? as u32);
    cfg.policy = splice_gradient::Policy::RoundRobin;
    cfg.recovery.load_beacon_period = 0;
    cfg.threads = args.num("threads", 2)? as u32;
    // The oracle: "failing" = the run does not complete. Shrinking keeps
    // the smallest sub-plan that still prevents completion.
    if execute(backend, cfg.clone(), &workload, &plan).0.completed {
        println!("plan is not failing on `{backend}` (run completes); nothing to shrink");
        return Some(ExitCode::FAILURE);
    }
    let mut oracle = |p: &FaultPlan| !execute(backend, cfg.clone(), &workload, p).0.completed;
    let report = shrink(&plan, &mut oracle);
    println!(
        "shrunk {} faults -> {} in {} probes",
        report.from_faults,
        report.plan.events.len(),
        report.probes
    );
    println!("minimal plan:\n{}", plan_literal(&report.plan));
    println!(
        "\n{}",
        regression_test_literal(
            "shrunken_reproducer_stays_failing",
            &format!(
                "shrunk from {} faults by splice-trace; run must not complete on `{backend}`",
                report.from_faults
            ),
            &report.plan
        )
    );
    Some(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let Some(args) = Args::parse(rest) else {
        return usage();
    };
    let out = match cmd.as_str() {
        "record" => cmd_record(&args),
        "replay" => cmd_replay(&args),
        "diff" => cmd_diff(&args),
        "shrink" => cmd_shrink(&args),
        _ => return usage(),
    };
    out.unwrap_or_else(usage)
}
