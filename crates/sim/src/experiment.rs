//! The experiment suite: one `eNN_*` function per experiment, each building
//! the table the `experiments` binary prints.
//!
//! The paper has no quantitative tables — its figures are conceptual — so
//! each experiment either *executes* a figure as a checked scenario or
//! *quantifies* one of the paper's comparative claims. Every function here
//! is deterministic; the `experiments` binary prints the tables that
//! EXPERIMENTS.md records, and the criterion benches time the underlying
//! runs.

use crate::baseline::{restart_time_with_fault, GlobalCheckpointModel};
use crate::figure1;
use crate::machine::{run_workload, MachineConfig};
use splice_applicative::Workload;
use splice_core::config::{CheckpointFilter, RecoveryMode, ReplicaSpec, VoteMode};
use splice_gradient::Policy;
use splice_simnet::fault::{FaultKind, FaultPlan};
use splice_simnet::time::VirtualTime;
use splice_simnet::topology::Topology;
use std::fmt;

// ---------------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------------

/// A printable experiment table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id + description.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:w$} |", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

fn fmt_f(x: f64) -> String {
    format!("{x:.2}")
}

/// The default experiment machine: 8 processors, complete graph, gradient
/// placement.
pub fn default_config(n: u32, mode: RecoveryMode) -> MachineConfig {
    let mut cfg = MachineConfig::new(n);
    cfg.recovery.mode = mode;
    cfg
}

// ---------------------------------------------------------------------------
// E1 — Figure 1
// ---------------------------------------------------------------------------

/// E1: the Figure-1 scenario under both algorithms plus the no-filter
/// ablation.
pub fn e01_figure1() -> Table {
    let mut t = Table::new(
        "E1 (Figure 1): processor B fails mid-evaluation; three fragments",
        &[
            "recovery",
            "completed",
            "correct",
            "reissues",
            "suicides",
            "aborted",
            "salvaged",
            "tasks",
            "finish",
        ],
    );
    for (name, mode, filter) in [
        (
            "rollback/topmost",
            RecoveryMode::Rollback,
            CheckpointFilter::Topmost,
        ),
        (
            "rollback/all",
            RecoveryMode::Rollback,
            CheckpointFilter::All,
        ),
        ("splice", RecoveryMode::Splice, CheckpointFilter::Topmost),
    ] {
        let out = figure1::run(mode, filter);
        t.row(vec![
            name.into(),
            out.report.completed.to_string(),
            out.correct().to_string(),
            out.report.stats.reissues.to_string(),
            out.report.stats.orphans_suicided.to_string(),
            out.report.stats.tasks_aborted.to_string(),
            out.report.stats.salvaged_results.to_string(),
            out.report.stats.tasks_created.to_string(),
            out.report.finish.ticks().to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E3 — checkpoint table & topmost rule
// ---------------------------------------------------------------------------

/// E3: reissue counts and wasted work with and without the topmost rule,
/// on Figure 1 and on a random-placement workload.
pub fn e03_topmost_rule() -> Table {
    let mut t = Table::new(
        "E3 (§3.2): topmost rule vs reissue-all (rollback)",
        &["scenario", "filter", "reissues", "total work", "finish"],
    );
    for (filter, name) in [
        (CheckpointFilter::Topmost, "topmost"),
        (CheckpointFilter::All, "all"),
    ] {
        let out = figure1::run(RecoveryMode::Rollback, filter);
        t.row(vec![
            "figure1".into(),
            name.into(),
            out.report.stats.reissues.to_string(),
            out.report.total_work().to_string(),
            out.report.finish.ticks().to_string(),
        ]);
    }
    let w = Workload::dcsum(0, 256);
    for (filter, name) in [
        (CheckpointFilter::Topmost, "topmost"),
        (CheckpointFilter::All, "all"),
    ] {
        let mut cfg = default_config(8, RecoveryMode::Rollback);
        cfg.recovery.ckpt_filter = filter;
        let fault_free = run_workload(cfg.clone(), &w, &FaultPlan::none());
        let crash = VirtualTime(fault_free.finish.ticks() / 2);
        let r = run_workload(cfg, &w, &FaultPlan::crash_at(5, crash));
        t.row(vec![
            w.name.clone(),
            name.into(),
            r.stats.reissues.to_string(),
            r.total_work().to_string(),
            r.finish.ticks().to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E5 — the eight orderings, statistically
// ---------------------------------------------------------------------------

/// E5 (Figure 5): sweep the crash instant and classify how salvage landed —
/// before the twin's demand (cases 4/5), after it (cases 6/7), or not at
/// all (fragments finished or never started). The deterministic per-case
/// forcing lives in `tests/eight_cases.rs`; this table shows all orderings
/// occur in the wild.
pub fn e05_case_mix(w: &Workload, steps: u32) -> Table {
    let mut t = Table::new(
        format!(
            "E5 (Figure 5): salvage-ordering mix over crash instants [{}]",
            w.name
        ),
        &[
            "crash@%",
            "correct",
            "salvaged",
            "before-spawn(4/5)",
            "after-spawn(6/7)",
            "dup-ignored",
            "stranded",
        ],
    );
    let cfg = default_config(8, RecoveryMode::Splice);
    let fault_free = run_workload(cfg.clone(), w, &FaultPlan::none());
    let total = fault_free.finish.ticks();
    for i in 1..steps {
        let frac = i as f64 / steps as f64;
        let crash = VirtualTime((total as f64 * frac) as u64);
        let r = run_workload(cfg.clone(), w, &FaultPlan::crash_at(5, crash));
        let correct = r.result == Some(w.reference_result().unwrap());
        t.row(vec![
            format!("{:.0}%", frac * 100.0),
            correct.to_string(),
            r.stats.salvaged_results.to_string(),
            r.stats.salvage_before_spawn.to_string(),
            r.stats.salvage_after_spawn.to_string(),
            r.stats.duplicate_results_ignored.to_string(),
            r.stats.stranded_orphans.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E6 — residue-freedom across the whole spawn state machine
// ---------------------------------------------------------------------------

/// E6 (Figures 6–7): fine crash-time sweep; the answer must be correct at
/// *every* instant, whatever spawn/ack/result state the fault interrupts.
pub fn e06_residue(w: &Workload, steps: u32) -> Table {
    let mut t = Table::new(
        format!(
            "E6 (Figures 6-7): correctness across all fault instants [{}]",
            w.name
        ),
        &[
            "mode",
            "instants",
            "completed",
            "correct",
            "min finish",
            "max finish",
        ],
    );
    for mode in [RecoveryMode::Rollback, RecoveryMode::Splice] {
        let cfg = default_config(6, mode);
        let fault_free = run_workload(cfg.clone(), w, &FaultPlan::none());
        let total = fault_free.finish.ticks();
        let mut completed = 0;
        let mut correct = 0;
        let mut min_finish = u64::MAX;
        let mut max_finish = 0;
        for i in 0..steps {
            let crash = VirtualTime(total * i as u64 / steps as u64 + 1);
            let r = run_workload(cfg.clone(), w, &FaultPlan::crash_at(4, crash));
            if r.completed {
                completed += 1;
                min_finish = min_finish.min(r.finish.ticks());
                max_finish = max_finish.max(r.finish.ticks());
            }
            if r.result == Some(w.reference_result().unwrap()) {
                correct += 1;
            }
        }
        t.row(vec![
            format!("{mode:?}"),
            steps.to_string(),
            completed.to_string(),
            correct.to_string(),
            min_finish.to_string(),
            max_finish.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E7 — recovery cost vs fault timing
// ---------------------------------------------------------------------------

/// One row of the E7 sweep.
#[derive(Clone, Debug)]
pub struct FaultTimingPoint {
    /// Fault instant as a fraction of the fault-free completion time.
    pub fraction: f64,
    /// Slowdown of rollback vs fault-free.
    pub rollback_slowdown: f64,
    /// Slowdown of splice vs fault-free.
    pub splice_slowdown: f64,
    /// Slowdown of whole-program restart (model).
    pub restart_slowdown: f64,
    /// Slowdown of periodic global checkpointing (model).
    pub gcp_slowdown: f64,
    /// Redundant work fraction, rollback.
    pub rollback_redundant: f64,
    /// Redundant work fraction, splice.
    pub splice_redundant: f64,
    /// Results salvaged by splice.
    pub splice_salvaged: u64,
}

/// E7 sweep data (also used by the bench).
pub fn e07_points(w: &Workload, steps: u32, n_procs: u32) -> Vec<FaultTimingPoint> {
    let base_cfg = default_config(n_procs, RecoveryMode::Splice);
    let fault_free = run_workload(base_cfg.clone(), w, &FaultPlan::none());
    let total = fault_free.finish.ticks();
    let gcp = GlobalCheckpointModel::with_interval(total / 10);
    // Crash the busiest processor: under locality-preserving placement the
    // highest-numbered one may never host work at all.
    let victim = fault_free
        .per_proc
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.tasks_created)
        .map(|(i, _)| i as u32)
        .unwrap_or(0);
    let mut points = Vec::new();
    for i in 1..steps {
        let fraction = i as f64 / steps as f64;
        let crash = VirtualTime((total as f64 * fraction) as u64);
        let faults = FaultPlan::crash_at(victim, crash);
        let rollback = run_workload(default_config(n_procs, RecoveryMode::Rollback), w, &faults);
        let splice = run_workload(default_config(n_procs, RecoveryMode::Splice), w, &faults);
        points.push(FaultTimingPoint {
            fraction,
            rollback_slowdown: rollback.slowdown_vs(&fault_free),
            splice_slowdown: splice.slowdown_vs(&fault_free),
            restart_slowdown: restart_time_with_fault(&fault_free, crash.ticks()) as f64
                / total.max(1) as f64,
            gcp_slowdown: gcp.time_with_fault(&fault_free, crash.ticks()) as f64
                / total.max(1) as f64,
            rollback_redundant: rollback.redundant_work_vs(&fault_free),
            splice_redundant: splice.redundant_work_vs(&fault_free),
            splice_salvaged: splice.stats.salvaged_results,
        });
    }
    points
}

/// E7: the table.
pub fn e07_fault_timing(w: &Workload, steps: u32) -> Table {
    let mut t = Table::new(
        format!(
            "E7 (§6): recovery cost vs fault instant [{}] — slowdown vs fault-free",
            w.name
        ),
        &[
            "fault@%",
            "rollback",
            "splice",
            "restart(model)",
            "gcp(model)",
            "redo-work rb",
            "redo-work sp",
            "salvaged",
        ],
    );
    for p in e07_points(w, steps, 8) {
        t.row(vec![
            format!("{:.0}%", p.fraction * 100.0),
            fmt_f(p.rollback_slowdown),
            fmt_f(p.splice_slowdown),
            fmt_f(p.restart_slowdown),
            fmt_f(p.gcp_slowdown),
            fmt_f(p.rollback_redundant),
            fmt_f(p.splice_redundant),
            p.splice_salvaged.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E8 — fault-free overhead
// ---------------------------------------------------------------------------

/// E8: fault-free overhead of functional checkpointing vs no fault
/// tolerance vs the periodic global checkpoint model.
pub fn e08_overhead(workloads: &[Workload]) -> Table {
    let mut t = Table::new(
        "E8 (§2): fault-free overhead — functional vs periodic global checkpointing",
        &[
            "workload",
            "scheme",
            "finish",
            "slowdown",
            "msgs",
            "bytes",
            "ckpt peak entries",
            "ckpt peak bytes",
        ],
    );
    for w in workloads {
        let none = run_workload(default_config(8, RecoveryMode::None), w, &FaultPlan::none());
        for (name, mode) in [
            ("none", RecoveryMode::None),
            ("rollback", RecoveryMode::Rollback),
            ("splice", RecoveryMode::Splice),
        ] {
            let r = run_workload(default_config(8, mode), w, &FaultPlan::none());
            t.row(vec![
                w.name.clone(),
                name.into(),
                r.finish.ticks().to_string(),
                fmt_f(r.slowdown_vs(&none)),
                r.stats.total_sent().to_string(),
                r.stats.bytes_sent.to_string(),
                r.ckpt_peak_entries.to_string(),
                r.ckpt_peak_bytes.to_string(),
            ]);
        }
        for interval_div in [20u64, 10, 5] {
            let interval = (none.finish.ticks() / interval_div).max(1);
            let gcp = GlobalCheckpointModel::with_interval(interval);
            let time = gcp.fault_free_time(&none);
            t.row(vec![
                w.name.clone(),
                format!("global-ckpt I=T/{interval_div}"),
                time.to_string(),
                fmt_f(time as f64 / none.finish.ticks().max(1) as f64),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// E9 — multiple faults and ancestor depth
// ---------------------------------------------------------------------------

/// E9a: multiple faults on different branches (splice recovers in parallel).
pub fn e09_different_branches(w: &Workload) -> Table {
    let mut t = Table::new(
        format!(
            "E9a (§5.2): multiple faults on different branches [{}]",
            w.name
        ),
        &[
            "faults",
            "mode",
            "completed",
            "correct",
            "reissues",
            "salvaged",
            "finish",
        ],
    );
    for k in [1usize, 2, 3] {
        for mode in [RecoveryMode::Rollback, RecoveryMode::Splice] {
            let cfg = default_config(12, mode);
            let fault_free = run_workload(cfg.clone(), w, &FaultPlan::none());
            let total = fault_free.finish.ticks();
            let faults = FaultPlan::random_crashes(
                k,
                12,
                (VirtualTime(total / 4), VirtualTime(3 * total / 4)),
                &[],
                99,
            );
            let r = run_workload(cfg, w, &faults);
            let correct = r.result == Some(w.reference_result().unwrap());
            t.row(vec![
                k.to_string(),
                format!("{mode:?}"),
                r.completed.to_string(),
                correct.to_string(),
                r.stats.reissues.to_string(),
                r.stats.salvaged_results.to_string(),
                r.finish.ticks().to_string(),
            ]);
        }
    }
    t
}

/// E9b: parent *and* grandparent die simultaneously (Figure 1's B and C);
/// sweep the ancestor-chain depth. Depth 2 (the paper's base scheme)
/// strands the orphans; depth ≥ 3 (the §5.2 extension) salvages through
/// the great-grandparent. Completion is achieved either way — stranding
/// only costs the salvage.
pub fn e09_chain_depth() -> Table {
    let mut t = Table::new(
        "E9b (§5.2): B and C fail together; ancestor-chain depth sweep (figure-1 tree)",
        &[
            "depth",
            "completed",
            "correct",
            "stranded",
            "salvaged",
            "finish",
        ],
    );
    for depth in [2usize, 3, 4] {
        let crash_at = figure1::crash_instant();
        let w = figure1::workload();
        let assignments = figure1::stamps();
        let mut cfg = MachineConfig::new(4);
        cfg.policy = Policy::RoundRobin;
        cfg.recovery.mode = RecoveryMode::Splice;
        cfg.recovery.ancestor_depth = depth;
        cfg.recovery.load_beacon_period = 0;
        let m = crate::machine::Machine::with_placer_factory(cfg, &w, move |_| {
            let mut sp = splice_core::place::ScriptedPlacer::new(vec![
                figure1::B,
                figure1::D,
                figure1::A,
                figure1::C,
            ]);
            for (_, stamp, proc) in &assignments {
                sp.assign(stamp.clone(), *proc);
            }
            Box::new(sp)
        });
        let faults = FaultPlan::crash_at(figure1::B.0, crash_at).and(
            figure1::C.0,
            crash_at,
            FaultKind::Crash,
        );
        let r = m.run(&faults);
        let correct = r.result == Some(splice_applicative::Value::Int(figure1::TREE_SIZE));
        t.row(vec![
            depth.to_string(),
            r.completed.to_string(),
            correct.to_string(),
            r.stats.stranded_orphans.to_string(),
            r.stats.salvaged_results.to_string(),
            r.finish.ticks().to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E10 — replicated tasks
// ---------------------------------------------------------------------------

/// E10 (§5.3): replicated critical tasks with a corrupting processor.
/// `n = 1` shows unprotected corruption propagating to the answer; majority
/// voting masks it; `WaitAll` shows the synchronous-redundancy latency.
pub fn e10_replication() -> Table {
    let mut t = Table::new(
        "E10 (§5.3): replicated tasks, one corrupting processor",
        &[
            "replication",
            "correct",
            "votes ok",
            "votes conflicted",
            "replica results",
            "finish",
        ],
    );
    let w = Workload::mapreduce(0, 16, 8);
    // Replicate the splitter itself: the root's two child subtrees each run
    // as one replica group (whole-subtree critical sections, §5.3).
    let mapred = w.program.lookup("mapred").unwrap();
    let expected = w.reference_result().unwrap();
    for (name, n, vote) in [
        ("n=1 (unprotected)", 1u32, VoteMode::Majority),
        ("n=3 majority", 3, VoteMode::Majority),
        ("n=3 wait-all", 3, VoteMode::WaitAll),
        ("n=5 majority", 5, VoteMode::Majority),
    ] {
        let mut cfg = default_config(8, RecoveryMode::Splice);
        // Round-robin spreads replicas across all processors, so the
        // corrupting node demonstrably participates.
        cfg.policy = Policy::RoundRobin;
        cfg.recovery
            .replicate
            .insert(mapred, ReplicaSpec { n, vote });
        // Processor 0 hosts the root, so the round-robin rotor places the
        // first replica of the first group there deterministically — and
        // processor 0 corrupts every replica result it emits.
        let faults = FaultPlan {
            events: vec![splice_simnet::fault::FaultEvent {
                at: VirtualTime(0),
                victim: 0,
                kind: FaultKind::Corrupt,
            }],
            root_events: Vec::new(),
        };
        let r = run_workload(cfg, &w, &faults);
        let correct = r.result == Some(expected.clone());
        t.row(vec![
            name.into(),
            correct.to_string(),
            r.stats.votes_decided.to_string(),
            r.stats.votes_conflicted.to_string(),
            r.stats.replica_results.to_string(),
            r.finish.ticks().to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E11 — scalability with checkpointing on/off
// ---------------------------------------------------------------------------

/// E11: speedup over processor counts, with and without functional
/// checkpointing (the Rediflow-style scaling context of [9]).
pub fn e11_scalability(w: &Workload, proc_counts: &[u32]) -> Table {
    let mut t = Table::new(
        format!("E11: scalability with checkpointing on/off [{}]", w.name),
        &[
            "procs",
            "finish none",
            "finish splice",
            "speedup none",
            "speedup splice",
            "ckpt overhead",
        ],
    );
    let base_none = run_workload(default_config(1, RecoveryMode::None), w, &FaultPlan::none());
    let base_splice = run_workload(
        default_config(1, RecoveryMode::Splice),
        w,
        &FaultPlan::none(),
    );
    for &n in proc_counts {
        let none = run_workload(default_config(n, RecoveryMode::None), w, &FaultPlan::none());
        let splice = run_workload(
            default_config(n, RecoveryMode::Splice),
            w,
            &FaultPlan::none(),
        );
        t.row(vec![
            n.to_string(),
            none.finish.ticks().to_string(),
            splice.finish.ticks().to_string(),
            fmt_f(base_none.finish.ticks() as f64 / none.finish.ticks().max(1) as f64),
            fmt_f(base_splice.finish.ticks() as f64 / splice.finish.ticks().max(1) as f64),
            fmt_f(splice.finish.ticks() as f64 / none.finish.ticks().max(1) as f64),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E12 — placement policies
// ---------------------------------------------------------------------------

/// E12 (§3.3): load-balance quality per placement policy, fault-free and
/// with one mid-run crash (recovery placement transparency).
pub fn e12_policies(w: &Workload, topology: Topology) -> Table {
    let mut t = Table::new(
        format!(
            "E12 (§3.3): placement policies [{}] on {:?}",
            w.name, topology
        ),
        &[
            "policy",
            "finish",
            "imbalance",
            "msgs",
            "crash finish",
            "crash correct",
        ],
    );
    let n = topology.len();
    for policy in Policy::ALL {
        let mut cfg = default_config(n, RecoveryMode::Splice);
        cfg.topology = topology.clone();
        cfg.policy = policy;
        let fault_free = run_workload(cfg.clone(), w, &FaultPlan::none());
        let crash = VirtualTime(fault_free.finish.ticks() / 2);
        let crashed = run_workload(cfg, w, &FaultPlan::crash_at(n - 1, crash));
        let correct = crashed.result == Some(w.reference_result().unwrap());
        t.row(vec![
            policy.name().into(),
            fault_free.finish.ticks().to_string(),
            fmt_f(fault_free.work_imbalance()),
            fault_free.stats.total_sent().to_string(),
            crashed.finish.ticks().to_string(),
            correct.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E13 — splice grace period (extension)
// ---------------------------------------------------------------------------

/// E13 (extension): eager vs deferred twin creation. Eager splice (the
/// paper's scheme, grace = 0) regenerates twins at the failure notice and
/// can duplicate orphan subtrees still in flight (§4.1 cases 6/7); a grace
/// period lets orphan results land first (cases 4/5), trading recovery
/// latency for less redundant work. The sweep quantifies that trade.
pub fn e13_splice_grace(w: &Workload, graces: &[u64]) -> Table {
    let mut t = Table::new(
        format!(
            "E13 (extension): splice twin-creation grace period [{}]",
            w.name
        ),
        &[
            "grace",
            "correct",
            "finish",
            "slowdown",
            "redo-work",
            "salvaged",
            "before-spawn(4/5)",
            "after-spawn(6/7)",
            "twins",
        ],
    );
    let base_cfg = default_config(8, RecoveryMode::Splice);
    let fault_free = run_workload(base_cfg.clone(), w, &FaultPlan::none());
    let crash = VirtualTime(fault_free.finish.ticks() / 2);
    for &grace in graces {
        let mut cfg = base_cfg.clone();
        cfg.recovery.splice_grace = grace;
        let r = run_workload(cfg, w, &FaultPlan::crash_at(6, crash));
        let correct = r.result == Some(w.reference_result().unwrap());
        t.row(vec![
            grace.to_string(),
            correct.to_string(),
            r.finish.ticks().to_string(),
            fmt_f(r.slowdown_vs(&fault_free)),
            fmt_f(r.redundant_work_vs(&fault_free)),
            r.stats.salvaged_results.to_string(),
            r.stats.salvage_before_spawn.to_string(),
            r.stats.salvage_after_spawn.to_string(),
            r.stats.step_parents_created.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E14 — sharded substrate (extension)
// ---------------------------------------------------------------------------

/// E14a (extension): whole-shard failure vs shard count, at 16 processors.
///
/// The paper argues recovery cost scales with the number of processors, but
/// a flat interconnect hides the cost of recovering *across* a partition
/// boundary. Here the 16 processors are split into 2/4/8 shards behind an
/// inter-shard router and the entire last shard dies mid-run: the surviving
/// shards must splice-recover the lost subtrees through the router.
pub fn e14_sharding(w: &Workload) -> Table {
    let mut t = Table::new(
        format!(
            "E14a (extension): whole-shard crash vs shard count, 16 procs [{}]",
            w.name
        ),
        &[
            "shards",
            "ff finish",
            "inter msgs",
            "inter share",
            "crash finish",
            "slowdown",
            "correct",
            "reissues",
            "salvaged",
        ],
    );
    for shards in [2u32, 4, 8] {
        let per_shard = 16 / shards;
        let mut cfg = MachineConfig::sharded(shards, per_shard, 400);
        cfg.recovery.mode = RecoveryMode::Splice;
        // Round-robin spreads the tree across every shard, so the dying
        // shard demonstrably holds live work (gradient placement keeps
        // most of a small tree at home, making the crash vacuous).
        cfg.policy = Policy::RoundRobin;
        let fault_free = run_workload(cfg.clone(), w, &FaultPlan::none());
        let crash = VirtualTime(fault_free.finish.ticks() / 2);
        let faults = FaultPlan::crash_shard(shards - 1, per_shard, crash);
        let r = run_workload(cfg, w, &faults);
        let correct = r.result == Some(w.reference_result().unwrap());
        let total = fault_free.shard_msgs_intra + fault_free.shard_msgs_inter;
        t.row(vec![
            shards.to_string(),
            fault_free.finish.ticks().to_string(),
            fault_free.shard_msgs_inter.to_string(),
            fmt_f(fault_free.shard_msgs_inter as f64 / total.max(1) as f64),
            r.finish.ticks().to_string(),
            fmt_f(r.slowdown_vs(&fault_free)),
            correct.to_string(),
            r.stats.reissues.to_string(),
            r.stats.salvaged_results.to_string(),
        ]);
    }
    t
}

/// E14b (extension): recovery latency vs inter-shard router latency, on a
/// fixed 4×4 sharded machine losing one whole shard mid-run. The router
/// surcharge is paid by every *worker-to-worker* message that crosses the
/// boundary — reissued spawns, their acks, salvage relays between
/// surviving engines — so recovery slows as the partitions move "further"
/// apart (the driver link to the super-root and the detector's failure
/// notices are out-of-band and stay unrouted). To keep router latency the
/// only variable, every row runs with the same ack timeout, sized for the
/// largest latency in the sweep.
pub fn e14_router_latency(w: &Workload, latencies: &[u64]) -> Table {
    let max_lat = latencies.iter().copied().max().unwrap_or(0);
    let mut t = Table::new(
        format!(
            "E14b (extension): whole-shard crash vs router latency, 4×4 [{}]",
            w.name
        ),
        &[
            "router latency",
            "ff finish",
            "crash finish",
            "slowdown",
            "correct",
            "inter msgs (crash)",
        ],
    );
    for &lat in latencies {
        let mut cfg = MachineConfig::sharded(4, 4, lat);
        cfg.recovery.mode = RecoveryMode::Splice;
        cfg.policy = Policy::RoundRobin;
        // Uniform timeout across rows (sharded() scales it with the row's
        // own latency, which would confound the sweep's single axis).
        cfg.recovery.ack_timeout = MachineConfig::sharded(4, 4, max_lat).recovery.ack_timeout;
        let fault_free = run_workload(cfg.clone(), w, &FaultPlan::none());
        let crash = VirtualTime(fault_free.finish.ticks() / 2);
        let r = run_workload(cfg, w, &FaultPlan::crash_shard(3, 4, crash));
        let correct = r.result == Some(w.reference_result().unwrap());
        t.row(vec![
            lat.to_string(),
            fault_free.finish.ticks().to_string(),
            r.finish.ticks().to_string(),
            fmt_f(r.slowdown_vs(&fault_free)),
            correct.to_string(),
            r.shard_msgs_inter.to_string(),
        ]);
    }
    t
}

/// E14c (extension): recovery vs super-root replica count. Each row
/// crashes the acting primary, then each successor in turn, until one
/// replica remains (`n = 1` has no successor: its lone primary is
/// crashed and the machine must stall as a verdict). Fault-free finish
/// is invariant in the replica count — the quorum layer adds zero events
/// until a root fault fires — while each faulted run pays one reissued
/// root wave per takeover, so recovery latency grows with the length of
/// the succession chain the plan forces.
pub fn e14_root_replicas(w: &Workload, replica_counts: &[u32]) -> Table {
    let mut t = Table::new(
        format!(
            "E14c (extension): primary crashes vs root-replica count [{}]",
            w.name
        ),
        &[
            "replicas",
            "ff finish",
            "primary crashes",
            "verdict",
            "crash finish",
            "slowdown",
            "failovers",
            "root reissues",
            "correct",
        ],
    );
    for &n in replica_counts {
        let mut cfg = default_config(8, RecoveryMode::Splice);
        cfg.policy = Policy::RoundRobin;
        cfg.recovery.root_replicas = n;
        let fault_free = run_workload(cfg.clone(), w, &FaultPlan::none());
        let t0 = fault_free.finish.ticks() / 2;
        let step = (fault_free.finish.ticks() / 8).max(1);
        let crashes = if n == 1 { 1 } else { n - 1 };
        let mut plan = FaultPlan::none();
        for r in 0..crashes {
            plan = plan.crash_root_replica(r, VirtualTime(t0 + u64::from(r) * step));
        }
        let r = run_workload(cfg, w, &plan);
        let verdict = if r.completed {
            "completed"
        } else if r.stalled {
            "stalled"
        } else {
            "budget"
        };
        let correct = r.result == Some(w.reference_result().unwrap());
        t.row(vec![
            n.to_string(),
            fault_free.finish.ticks().to_string(),
            crashes.to_string(),
            verdict.into(),
            r.finish.ticks().to_string(),
            fmt_f(r.slowdown_vs(&fault_free)),
            r.root_failovers.to_string(),
            r.root_reissues.to_string(),
            correct.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E15 — batched delivery (extension)
// ---------------------------------------------------------------------------

/// E15 (extension): protocol sensitivity to delivery batching.
///
/// A batching bus coalesces the worker messages of one pump into
/// per-destination envelopes delivered `window` ticks late (HEAL-style
/// delivery batching). Batching amortizes per-message overhead on a real
/// interconnect, but the recovery protocol's spawn/ack round trips and
/// splice relays sit directly on the delayed path — this sweep quantifies
/// how completion (fault-free) and recovery (one mid-run crash) latency
/// degrade as the flush window widens, and how much coalescing the bus
/// actually achieves on this traffic (mean messages per envelope). The ack
/// timeout is held uniform across rows (sized for the largest window) so
/// the window is the only variable.
pub fn e15_batching(w: &Workload, windows: &[u64]) -> Table {
    let max_window = windows.iter().copied().max().unwrap_or(0);
    let mut t = Table::new(
        format!(
            "E15 (extension): completion and recovery vs batch flush window, 8 procs [{}]",
            w.name
        ),
        &[
            "flush window",
            "ff finish",
            "mean batch",
            "crash finish",
            "slowdown",
            "correct",
            "reissues",
            "salvaged",
        ],
    );
    for &window in windows {
        let mut cfg = MachineConfig::batched(8, window);
        cfg.recovery.mode = RecoveryMode::Splice;
        // Uniform timeout across rows (batched() scales it with the row's
        // own window, which would confound the sweep's single axis).
        cfg.recovery.ack_timeout = MachineConfig::batched(8, max_window).recovery.ack_timeout;
        let fault_free = run_workload(cfg.clone(), w, &FaultPlan::none());
        let crash = VirtualTime(fault_free.finish.ticks() / 2);
        let r = run_workload(cfg, w, &FaultPlan::crash_at(2, crash));
        let correct = r.result == Some(w.reference_result().unwrap());
        let mean_batch = if fault_free.batch_envelopes == 0 {
            0.0
        } else {
            fault_free.batch_msgs as f64 / fault_free.batch_envelopes as f64
        };
        t.row(vec![
            window.to_string(),
            fault_free.finish.ticks().to_string(),
            fmt_f(mean_batch),
            r.finish.ticks().to_string(),
            fmt_f(r.slowdown_vs(&fault_free)),
            correct.to_string(),
            r.stats.reissues.to_string(),
            r.stats.salvaged_results.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E16 — the cooperative reactor at scale
// ---------------------------------------------------------------------------

/// E16 (extension): completion and recovery latency versus engine count on
/// the cooperative reactor — one thread, no thread-per-processor limit.
/// Each row runs fault-free and with a mid-run crash of one engine (splice
/// recovery); virtual finish times come from the reactor's parallel-charge
/// clock, wall milliseconds are the real single-thread pump cost.
pub fn e16_reactor(w: &Workload, engine_counts: &[u32]) -> Table {
    let mut t = Table::new(
        format!(
            "E16 (extension): reactor completion and recovery vs engine count [{}]",
            w.name
        ),
        &[
            "engines",
            "ff finish",
            "ff wall ms",
            "crash finish",
            "slowdown",
            "correct",
            "tasks",
            "delivered",
        ],
    );
    for &engines in engine_counts {
        let mut cfg = MachineConfig::new(engines);
        cfg.recovery.mode = RecoveryMode::Splice;
        cfg.policy = Policy::RoundRobin;
        cfg.recovery.load_beacon_period = 0;
        let t0 = std::time::Instant::now();
        let fault_free = crate::reactor::run_reactor(cfg.clone(), w, &FaultPlan::none());
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let crash = VirtualTime((fault_free.finish.ticks() / 2).max(1));
        let r = crate::reactor::run_reactor(cfg, w, &FaultPlan::crash_at(engines / 2, crash));
        let correct = fault_free.result == Some(w.reference_result().unwrap())
            && r.result == Some(w.reference_result().unwrap());
        t.row(vec![
            engines.to_string(),
            fault_free.finish.ticks().to_string(),
            fmt_f(wall_ms),
            r.finish.ticks().to_string(),
            fmt_f(r.slowdown_vs(&fault_free)),
            correct.to_string(),
            r.stats.tasks_completed.to_string(),
            r.delivered.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// E18 — recovery-policy zoo (extension)
// ---------------------------------------------------------------------------

/// E18 (extension): the pluggable recovery policies head to head, swept
/// across fault rate and topology. Eager is the paper's scheme (reissue
/// lost children at the failure notice); Lazy marks them lost and rebuilds
/// only when the owner's own progress demands the value; MultiCheckpoint
/// re-checkpoints incrementally so a reissued twin replays fewer waves.
/// Every cell must stay correct — the policies trade recovery *cost*
/// (finish, redone work, reissues), never the answer.
pub fn e18_recovery_policies(w: &Workload, topologies: &[Topology]) -> Table {
    use splice_core::policy::{PolicyKind, PolicySpec};
    let mut t = Table::new(
        format!(
            "E18 (extension): recovery policies x fault rate x topology [{}]",
            w.name
        ),
        &[
            "topology",
            "crashes",
            "policy",
            "correct",
            "finish",
            "slowdown",
            "redo-work",
            "reissues",
            "lazy-rebuilds",
            "reckpts",
        ],
    );
    for topology in topologies {
        let n = topology.len();
        for kind in PolicyKind::ALL {
            let mut cfg = default_config(n, RecoveryMode::Splice);
            cfg.topology = topology.clone();
            cfg.recovery.policy = PolicySpec::of(kind);
            // Per-policy fault-free baseline: MultiCheckpoint pays its
            // checkpoint traffic even without faults, and that overhead is
            // part of what the sweep measures.
            let fault_free = run_workload(cfg.clone(), w, &FaultPlan::none());
            let mid = VirtualTime(fault_free.finish.ticks() / 2);
            let late = VirtualTime(fault_free.finish.ticks() * 3 / 4);
            let plans = [
                (0u32, FaultPlan::none()),
                (1, FaultPlan::crash_at(n - 1, mid)),
                (
                    2,
                    FaultPlan::crash_at(n - 1, mid).and(n - 2, late, FaultKind::Crash),
                ),
            ];
            for (crashes, plan) in plans {
                let r = run_workload(cfg.clone(), w, &plan);
                let correct = r.result == Some(w.reference_result().unwrap());
                t.row(vec![
                    format!("{topology:?}"),
                    crashes.to_string(),
                    kind.label().into(),
                    correct.to_string(),
                    r.finish.ticks().to_string(),
                    fmt_f(r.slowdown_vs(&fault_free)),
                    fmt_f(r.redundant_work_vs(&fault_free)),
                    r.stats.reissues.to_string(),
                    r.stats.lazy_rebuilds.to_string(),
                    r.stats.recheckpoints.to_string(),
                ]);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("| a | long-header |"));
        assert!(s.contains("| x | 1           |"));
    }

    #[test]
    fn e01_reproduces_figure1_claims() {
        let t = e01_figure1();
        assert_eq!(t.rows.len(), 3);
        // Every configuration completes correctly.
        for row in &t.rows {
            assert_eq!(row[1], "true", "{row:?}");
            assert_eq!(row[2], "true", "{row:?}");
        }
        // rollback/topmost reissues exactly 4; rollback/all at least 5.
        assert_eq!(t.rows[0][3], "4");
        assert!(t.rows[1][3].parse::<u64>().unwrap() >= 5);
        // splice salvages.
        assert!(t.rows[2][6].parse::<u64>().unwrap() > 0);
    }

    #[test]
    fn e07_has_the_papers_shape() {
        // "if a fault happens at a later stage of the evaluation, the
        // rollback recovery may be costly" — and restart costlier still:
        // restart's cost grows monotonically with the fault instant, and
        // at the latest instant checkpoint-based recovery (either
        // algorithm) beats restarting the program.
        let w = Workload::fib(13);
        let pts = e07_points(&w, 4, 6);
        assert_eq!(pts.len(), 3);
        // Restart's cost grows monotonically with the fault instant.
        assert!(pts.last().unwrap().restart_slowdown > pts[0].restart_slowdown);
        // Rollback's redone work grows as the fault moves later (the §6
        // caveat: "if a fault happens at a later stage ... rollback
        // recovery may be costly").
        assert!(
            pts.last().unwrap().rollback_redundant > pts[0].rollback_redundant,
            "{pts:?}"
        );
        // Splice actually salvages something at the mid-run fault.
        assert!(pts[1].splice_salvaged > 0, "{:?}", pts[1]);
        // The global-checkpoint model is never free.
        for p in &pts {
            assert!(p.gcp_slowdown > 1.0, "{p:?}");
        }
    }

    #[test]
    fn e13_grace_reduces_duplication_and_stays_correct() {
        let w = Workload::mapreduce(0, 32, 8);
        let t = e13_splice_grace(&w, &[0, 2_000, 10_000]);
        for row in &t.rows {
            assert_eq!(row[1], "true", "grace={} must stay correct", row[0]);
        }
        // With a generous grace, more salvage lands before the twin spawns
        // the duplicate.
        let before_eager: u64 = t.rows[0][6].parse().unwrap();
        let before_lazy: u64 = t.rows[2][6].parse().unwrap();
        assert!(
            before_lazy >= before_eager,
            "grace should move salvage to the before-spawn cases: {t}"
        );
    }

    #[test]
    fn e14_survives_whole_shard_loss_at_every_scale() {
        let w = Workload::fib(12);
        let t = e14_sharding(&w);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert_eq!(row[6], "true", "shards={} must stay correct", row[0]);
            assert!(
                row[2].parse::<u64>().unwrap() > 0,
                "shards={}: no router traffic",
                row[0]
            );
        }
    }

    #[test]
    fn e14_recovery_pays_for_router_latency() {
        let w = Workload::fib(12);
        let t = e14_router_latency(&w, &[0, 2_000]);
        for row in &t.rows {
            assert_eq!(row[4], "true", "latency={} must stay correct", row[0]);
        }
        let near: u64 = t.rows[0][2].parse().unwrap();
        let far: u64 = t.rows[1][2].parse().unwrap();
        assert!(
            far > near,
            "a further router must slow the recovered run: {near} vs {far}"
        );
    }

    #[test]
    fn e15_batching_stays_correct_and_coalesces() {
        let w = Workload::fib(11);
        let t = e15_batching(&w, &[0, 500]);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert_eq!(row[5], "true", "window={} must stay correct", row[0]);
        }
        // Window 0 is a pass-through (no envelopes at all); a real window
        // must coalesce at least one multi-message envelope on this tree.
        assert_eq!(t.rows[0][2], "0.00");
        let mean: f64 = t.rows[1][2].parse().unwrap();
        assert!(mean >= 1.0, "window 500 saw no envelopes: {mean}");
        let near: u64 = t.rows[0][1].parse().unwrap();
        let far: u64 = t.rows[1][1].parse().unwrap();
        assert!(far > near, "flush window must slow completion");
    }

    #[test]
    fn e10_votes_mask_corruption() {
        let t = e10_replication();
        // Unprotected run is corrupted...
        assert_eq!(t.rows[0][1], "false", "{:?}", t.rows[0]);
        // ...while every replicated configuration masks it.
        for row in &t.rows[1..] {
            assert_eq!(row[1], "true", "{row:?}");
        }
    }

    #[test]
    fn e16_reactor_scales_and_stays_correct() {
        let w = Workload::fib(12);
        let t = e16_reactor(&w, &[8, 128]);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert_eq!(row[5], "true", "{} engines must stay correct", row[0]);
            let slowdown: f64 = row[4].parse().unwrap();
            assert!(
                slowdown >= 1.0,
                "{} engines: a crash cannot speed the run up",
                row[0]
            );
        }
    }

    #[test]
    fn e18_every_policy_cell_is_correct_and_the_policies_differ() {
        let w = Workload::fib(12);
        let t = e18_recovery_policies(&w, &[Topology::Complete { n: 6 }]);
        // 3 policies × 3 fault rates on one topology.
        assert_eq!(t.rows.len(), 9);
        for row in &t.rows {
            assert_eq!(
                row[3], "true",
                "policy={} crashes={} must stay correct",
                row[2], row[1]
            );
        }
        let cell = |policy: &str, crashes: &str, col: usize| -> u64 {
            t.rows
                .iter()
                .find(|r| r[2] == policy && r[1] == crashes)
                .unwrap()[col]
                .parse()
                .unwrap()
        };
        // Fault-free, no policy reissues or rebuilds anything…
        for p in ["eager", "lazy", "multickpt"] {
            assert_eq!(cell(p, "0", 7), 0, "{p}: fault-free reissues");
            assert_eq!(cell(p, "0", 8), 0, "{p}: fault-free lazy rebuilds");
        }
        // …but MultiCheckpoint pays checkpoint traffic even fault-free,
        // while the others never re-checkpoint.
        assert!(cell("multickpt", "0", 9) > 0);
        assert_eq!(cell("eager", "2", 9), 0);
        assert_eq!(cell("lazy", "2", 9), 0);
        // Under faults Eager reissues at the notice and never via the lazy
        // path; Lazy's recovery reissues are demand-driven rebuilds.
        assert!(cell("eager", "1", 7) > 0);
        assert!(cell("lazy", "1", 8) > 0);
        assert!(cell("lazy", "1", 8) <= cell("lazy", "1", 7));
        assert_eq!(cell("eager", "1", 8), 0);
    }
}
