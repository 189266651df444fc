//! The wave evaluator: demand-driven, suspendable task evaluation.
//!
//! A *task* is the application of one combinator to evaluated argument values
//! — exactly the paper's task packet. A task evaluates its body in **waves**:
//!
//! 1. Walk the body, computing everything local (literals, variables,
//!    primitives, satisfied `if`s and `let`s).
//! 2. Every user-function call whose arguments are fully evaluated but whose
//!    result is unknown becomes a **demand** — the `DEMAND_IT` of the paper's
//!    §4.2 protocol. All demands of a wave are discovered in a single
//!    deterministic left-to-right walk, which is what lets sibling subtrees
//!    be spawned and evaluated in parallel.
//! 3. The task suspends until *all* of the wave's demands have results, then
//!    re-walks. (The wave barrier makes demand discovery order — and hence
//!    the level stamps assigned to children — independent of the order in
//!    which results arrive. Splice recovery's result salvaging relies on
//!    this: a regenerated twin assigns the same stamps to the same children
//!    as its dead original.)
//!
//! Demands are memoised per task by `(function, arguments)`: the same call
//! appearing twice in one body spawns one child. Referential transparency
//! (§2.1) makes this sound.
//!
//! Divergence caveat: within a single wave the walker evaluates *all* strict
//! subexpressions, so an expression that errors locally (e.g. `1/0`) aborts
//! the task even if the reference evaluator would have diverged in an
//! earlier sibling first. For terminating, error-free programs — all shipped
//! workloads — wave and reference semantics agree, and the `determinacy`
//! property tests assert it.

use crate::ast::{Expr, FnId, Program};
use crate::env::Env;
use crate::error::EvalError;
use crate::fxhash::{FxHashMap, FxHasher};
use crate::value::Value;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A child-task demand: a combinator applied to fully evaluated arguments.
/// This is the payload of a task packet.
///
/// The argument list is shared, not owned: the issuing frame's call cache,
/// the parent's child record (the functional checkpoint), the spawn packet
/// and the child frame that accepts it all hold the one allocation the
/// walker made, and cloning a demand copies no values. `Arc<[Value]>`
/// hashes and compares as the slice, so a demand's identity is its
/// combinator and argument values, as before.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Demand {
    /// The demanded combinator.
    pub fun: FnId,
    /// Its evaluated arguments.
    pub args: Arc<[Value]>,
}

impl Demand {
    /// Creates a demand, moving `args` into a shared list. The empty
    /// list is `Arc::default()`, which owns no heap memory.
    pub fn new(fun: FnId, args: Vec<Value>) -> Demand {
        let args = if args.is_empty() {
            Arc::default()
        } else {
            args.into()
        };
        Demand::shared(fun, args)
    }

    /// Creates a demand on an existing shared argument list.
    pub fn shared(fun: FnId, args: Arc<[Value]>) -> Demand {
        Demand { fun, args }
    }
}

/// Result of evaluating one wave.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaveResult {
    /// The task finished with this value.
    Done(Value),
    /// The task is blocked; `new_demands` are the child tasks discovered by
    /// this wave (deduplicated, in deterministic discovery order). It may be
    /// empty if the task is blocked solely on previously issued demands.
    Blocked {
        /// Newly discovered demands, in walk order.
        new_demands: Vec<Demand>,
    },
}

/// Recycled evaluation scratch: retired task frames (their call caches
/// keep their capacity), the shared value stack the walker evaluates on,
/// demand out-buffers, and environments. One pool serves one evaluation
/// context (a protocol engine, a `run_local` call tree); everything drawn
/// from it is returned on retirement, so steady-state wave evaluation
/// performs no heap allocation beyond genuinely new data.
#[derive(Debug, Default)]
pub struct FramePool {
    evals: Vec<TaskEval>,
    envs: Vec<Env>,
    demand_bufs: Vec<Vec<Demand>>,
    vals: Vec<Value>,
}

impl FramePool {
    /// An empty pool. Allocates nothing until frames are retired into it.
    pub fn new() -> FramePool {
        FramePool::default()
    }

    /// A task frame applying `fun` to the shared list `args`, recycled if
    /// possible.
    pub fn take_eval(&mut self, fun: FnId, args: Arc<[Value]>) -> TaskEval {
        match self.evals.pop() {
            Some(mut e) => {
                e.reset(fun, args);
                e
            }
            None => TaskEval::new(fun, args),
        }
    }

    /// Retires a finished frame; its allocations are reused by the next
    /// [`FramePool::take_eval`]. It keeps its argument list until then:
    /// the next frame replaces it.
    pub fn put_eval(&mut self, mut eval: TaskEval) {
        eval.cache.clear();
        self.evals.push(eval);
    }

    /// A cleared demand out-buffer for [`TaskEval::step_pooled`].
    pub fn take_demands(&mut self) -> Vec<Demand> {
        self.demand_bufs.pop().unwrap_or_default()
    }

    /// Returns a demand buffer to the pool.
    pub fn put_demands(&mut self, mut buf: Vec<Demand>) {
        buf.clear();
        self.demand_bufs.push(buf);
    }
}

/// Entries a task's call cache holds inline before spilling to buckets.
/// Most tasks demand a handful of children; a linear scan over a short
/// vector beats hashing the demand key on every `Call` node the walker
/// revisits — and lets lookups key on `(FnId, &[Value])` without ever
/// materializing an owned [`Demand`].
const CACHE_SPILL: usize = 24;

/// The within-task call cache: `(function, arguments) → result slot`,
/// where `None` marks an issued-but-unanswered demand.
///
/// Small tasks stay in `small` (insertion order, linear scan). Tasks with
/// many demands (wide map steps) spill into `big`, a bucket map keyed by
/// a precomputed [`FxHasher`] hash of the demand, which keeps lookups
/// borrow-only: the probe hashes `(fun, args)` directly off the walker's
/// value stack.
#[derive(Clone, Debug, Default)]
struct DemandCache {
    small: Vec<(Demand, Option<Value>)>,
    big: FxHashMap<u64, Vec<(Demand, Option<Value>)>>,
    big_len: usize,
}

fn demand_key_hash(fun: FnId, args: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    fun.hash(&mut h);
    args.hash(&mut h);
    h.finish()
}

impl DemandCache {
    fn len(&self) -> usize {
        self.small.len() + self.big_len
    }

    fn clear(&mut self) {
        self.small.clear();
        self.big.clear();
        self.big_len = 0;
    }

    /// Borrow-only lookup: no owned key is built on either tier.
    fn lookup(&self, fun: FnId, args: &[Value]) -> Option<&Option<Value>> {
        self.entry(fun, args).map(|(_, slot)| slot)
    }

    /// The cached key and slot for `(fun, args)`.
    fn entry(&self, fun: FnId, args: &[Value]) -> Option<&(Demand, Option<Value>)> {
        if let Some(e) = self
            .small
            .iter()
            .find(|(d, _)| d.fun == fun && d.args[..] == *args)
        {
            return Some(e);
        }
        if self.big_len == 0 {
            return None;
        }
        self.big
            .get(&demand_key_hash(fun, args))?
            .iter()
            .find(|(d, _)| d.fun == fun && d.args[..] == *args)
    }

    fn slot_mut(&mut self, demand: &Demand) -> Option<&mut Option<Value>> {
        if let Some(i) = self
            .small
            .iter()
            .position(|(d, _)| d.fun == demand.fun && d.args == demand.args)
        {
            return Some(&mut self.small[i].1);
        }
        if self.big_len == 0 {
            return None;
        }
        let bucket = self
            .big
            .get_mut(&demand_key_hash(demand.fun, &demand.args))?;
        bucket
            .iter_mut()
            .find(|(d, _)| d.fun == demand.fun && d.args == demand.args)
            .map(|(_, slot)| slot)
    }

    /// Inserts a key known to be absent (callers look up first).
    fn insert(&mut self, demand: Demand, slot: Option<Value>) {
        if self.small.len() < CACHE_SPILL {
            self.small.push((demand, slot));
        } else {
            let hash = demand_key_hash(demand.fun, &demand.args);
            self.big.entry(hash).or_default().push((demand, slot));
            self.big_len += 1;
        }
    }

    /// One-pass preload: fills an existing empty slot (`Supplied`), leaves
    /// a filled slot alone (`Known`), or inserts a fresh satisfied entry
    /// (`New`). Index-based so the miss path can insert without a second
    /// scan (a returned slot reference would pin the borrow across arms).
    fn preload(&mut self, demand: Demand, value: Value) -> Preload {
        fn fill(slot: &mut Option<Value>, value: Value) -> Preload {
            if slot.is_none() {
                *slot = Some(value);
                Preload::Supplied
            } else {
                Preload::Known
            }
        }
        if let Some(i) = self
            .small
            .iter()
            .position(|(d, _)| d.fun == demand.fun && d.args == demand.args)
        {
            return fill(&mut self.small[i].1, value);
        }
        if self.big_len > 0 {
            let hash = demand_key_hash(demand.fun, &demand.args);
            if let Some(bucket) = self.big.get_mut(&hash) {
                if let Some(i) = bucket
                    .iter()
                    .position(|(d, _)| d.fun == demand.fun && d.args == demand.args)
                {
                    return fill(&mut bucket[i].1, value);
                }
            }
        }
        self.insert(demand, Some(value));
        Preload::New
    }
}

/// Outcome of [`DemandCache::preload`].
enum Preload {
    /// The demand was not in the cache; a satisfied entry was inserted.
    New,
    /// The demand was outstanding; its slot was filled.
    Supplied,
    /// The demand already had a value; nothing changed.
    Known,
}

/// One task's suspendable evaluation state: the task packet plus the call
/// cache accumulated so far. The arguments are the packet's shared list,
/// taken over without a copy; the call cache's keys share the lists of the
/// demands this task issued.
#[derive(Clone, Debug)]
pub struct TaskEval {
    fun: FnId,
    args: Arc<[Value]>,
    cache: DemandCache,
    outstanding: usize,
    waves: u32,
    work: u64,
}

impl TaskEval {
    /// Creates the evaluation state for applying `fun` to the shared list
    /// `args` (a packet's), without copying it.
    pub fn new(fun: FnId, args: Arc<[Value]>) -> TaskEval {
        TaskEval {
            fun,
            args,
            cache: DemandCache::default(),
            outstanding: 0,
            waves: 0,
            work: 0,
        }
    }

    /// The task's combinator.
    pub fn fun(&self) -> FnId {
        self.fun
    }

    /// The task's arguments.
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// Number of demands issued but not yet supplied.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// True when every issued demand has a result, i.e. the next wave can
    /// run. (Also true before the first wave.)
    pub fn ready(&self) -> bool {
        self.outstanding == 0
    }

    /// Number of waves run so far.
    pub fn waves(&self) -> u32 {
        self.waves
    }

    /// Total AST nodes visited across all waves — the task's abstract work,
    /// used by the simulator's cost model.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Reinitializes a recycled frame for applying `fun` to the shared
    /// list `args`, keeping the call cache's allocations.
    pub fn reset(&mut self, fun: FnId, args: Arc<[Value]>) {
        self.fun = fun;
        self.args = args;
        self.cache.clear();
        self.outstanding = 0;
        self.waves = 0;
        self.work = 0;
    }

    /// Moves the argument list out of a frame being retired (the engine
    /// builds the completed task's result demand from it). The frame is
    /// left with the empty list, which owns no heap memory.
    pub fn take_args(&mut self) -> Arc<[Value]> {
        std::mem::take(&mut self.args)
    }

    /// Runs one wave. New demands are recorded as outstanding; the caller
    /// must eventually [`TaskEval::supply`] each one.
    ///
    /// Calling `step` while demands are outstanding is allowed (it is how a
    /// twin task consults salvaged results), but the shipped drivers enforce
    /// the wave barrier and only step when [`TaskEval::ready`].
    pub fn step(&mut self, prog: &Program) -> Result<WaveResult, EvalError> {
        let mut pool = FramePool::new();
        let mut new_demands = Vec::new();
        match self.step_pooled(prog, &mut pool, &mut new_demands)? {
            Some(v) => Ok(WaveResult::Done(v)),
            None => Ok(WaveResult::Blocked { new_demands }),
        }
    }

    /// Runs one wave on pooled scratch — the allocation-free hot path
    /// behind [`TaskEval::step`]. Newly discovered demands are *appended*
    /// to `new_demands` (the caller's reusable buffer) and recorded as
    /// outstanding. Returns `Ok(Some(value))` when the task finished and
    /// `Ok(None)` while it is blocked.
    pub fn step_pooled(
        &mut self,
        prog: &Program,
        pool: &mut FramePool,
        new_demands: &mut Vec<Demand>,
    ) -> Result<Option<Value>, EvalError> {
        let def = prog.def(self.fun);
        if def.params.len() != self.args.len() {
            return Err(EvalError::CallArity {
                name: def.name.clone(),
                expected: def.params.len(),
                got: self.args.len(),
            });
        }
        self.waves += 1;
        let mut env = pool.envs.pop().unwrap_or_default();
        env.rebind(&def.params, &self.args);
        let mut vals = std::mem::take(&mut pool.vals);
        let start = new_demands.len();
        let mut walker = Walker {
            prog,
            cache: &self.cache,
            new_demands,
            start,
            vals: &mut vals,
            visited: 0,
        };
        let out = walker.walk(&def.body, &mut env);
        let visited = walker.visited;
        // Restore the pooled scratch before propagating any error (an
        // aborted walk leaves values on the stack; clear releases them).
        vals.clear();
        pool.vals = vals;
        env.rebind(&[], &[]);
        pool.envs.push(env);
        self.work += visited;
        match out? {
            Walked::Val(v) => {
                debug_assert!(
                    new_demands.len() == start,
                    "a completed walk cannot discover demands"
                );
                Ok(Some(v))
            }
            Walked::Blocked => {
                for d in &new_demands[start..] {
                    self.cache.insert(d.clone(), None);
                    self.outstanding += 1;
                }
                Ok(None)
            }
        }
    }

    /// Supplies the result of a previously issued demand. Returns `true` if
    /// the demand was outstanding and is now satisfied; `false` if the demand
    /// was unknown or already satisfied (duplicate results are ignored, per
    /// the paper's case-6/7 analysis: "the second copy is simply ignored").
    pub fn supply(&mut self, demand: &Demand, value: Value) -> bool {
        match self.cache.slot_mut(demand) {
            Some(slot @ None) => {
                *slot = Some(value);
                self.outstanding -= 1;
                true
            }
            _ => false,
        }
    }

    /// Pre-loads a result *before* the demand is discovered, so the next wave
    /// finds it already satisfied and never spawns the child. This is how
    /// splice recovery injects salvaged orphan results (paper §4.1 cases 4–5:
    /// "P' will not spawn C' because the answer is already there").
    ///
    /// Returns `true` if the entry was new.
    pub fn preload(&mut self, demand: Demand, value: Value) -> bool {
        match self.cache.preload(demand, value) {
            Preload::New => true,
            Preload::Supplied => {
                // The demand was already issued: treat as a normal supply.
                self.outstanding -= 1;
                false
            }
            Preload::Known => false,
        }
    }

    /// Looks up a cached result.
    pub fn cached(&self, demand: &Demand) -> Option<&Value> {
        self.cache
            .lookup(demand.fun, &demand.args)
            .and_then(|s| s.as_ref())
    }

    /// The call cache's own copy of `demand`, if it was issued or
    /// preloaded: the key whose argument list the cache shares.
    pub fn cached_demand(&self, demand: &Demand) -> Option<&Demand> {
        self.cache.entry(demand.fun, &demand.args).map(|(d, _)| d)
    }

    /// Number of cache entries (issued + preloaded).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

enum Walked {
    Val(Value),
    Blocked,
}

/// The per-wave body walker. All transient state lives on borrowed,
/// pooled buffers: `vals` is a shared value *stack* — arguments of the
/// node being evaluated sit above `base`, the stack length at node entry —
/// and call-cache lookups key on `(FnId, &[Value])` straight off that
/// stack, so a revisited `Call` node costs no allocation and no owned key.
/// Within-wave demand deduplication is a linear scan over the demands this
/// walk appended (`new_demands[start..]`): waves discover a handful of
/// demands, where a hash set costs an allocation per wave and wins
/// nothing.
struct Walker<'a> {
    prog: &'a Program,
    cache: &'a DemandCache,
    new_demands: &'a mut Vec<Demand>,
    start: usize,
    vals: &'a mut Vec<Value>,
    visited: u64,
}

impl<'a> Walker<'a> {
    /// Walks every argument expression, pushing results onto the value
    /// stack. Returns whether any argument blocked (siblings keep walking
    /// regardless: all of a wave's demands are discovered together so
    /// sibling subtrees run in parallel).
    fn walk_args(&mut self, args: &[Expr], env: &mut Env) -> Result<bool, EvalError> {
        let mut blocked = false;
        for a in args {
            match self.walk(a, env)? {
                Walked::Val(v) => self.vals.push(v),
                Walked::Blocked => blocked = true,
            }
        }
        Ok(blocked)
    }

    fn walk(&mut self, e: &Expr, env: &mut Env) -> Result<Walked, EvalError> {
        self.visited += 1;
        match e {
            Expr::Lit(v) => Ok(Walked::Val(v.clone())),
            Expr::Var(name) => Ok(Walked::Val(env.lookup(name)?.clone())),
            Expr::Prim(op, args) => {
                // Binary primitives are the bulk of every body; evaluate
                // their operands into locals and skip the value stack.
                // Both operands are always walked — a blocked left sibling
                // must not hide the right subtree's demands.
                if let [l, r] = &args[..] {
                    let a = self.walk(l, env)?;
                    let b = self.walk(r, env)?;
                    return match (a, b) {
                        (Walked::Val(x), Walked::Val(y)) => Ok(Walked::Val(op.apply2(x, y)?)),
                        _ => Ok(Walked::Blocked),
                    };
                }
                let base = self.vals.len();
                if self.walk_args(args, env)? {
                    self.vals.truncate(base);
                    return Ok(Walked::Blocked);
                }
                let out = op.apply(&self.vals[base..]);
                self.vals.truncate(base);
                Ok(Walked::Val(out?))
            }
            Expr::If(c, t, els) => match self.walk(c, env)? {
                // A blocked condition blocks the whole `if`: branches are
                // never walked speculatively, so recursion stays guarded.
                Walked::Blocked => Ok(Walked::Blocked),
                Walked::Val(cond) => match cond.truthy() {
                    Some(true) => self.walk(t, env),
                    Some(false) => self.walk(els, env),
                    None => Err(EvalError::NonBoolCondition(cond.type_name())),
                },
            },
            Expr::Call(f, args) => {
                let base = self.vals.len();
                if self.walk_args(args, env)? {
                    self.vals.truncate(base);
                    return Ok(Walked::Blocked);
                }
                let def = self.prog.def(*f);
                if def.params.len() != self.vals.len() - base {
                    let got = self.vals.len() - base;
                    self.vals.truncate(base);
                    return Err(EvalError::CallArity {
                        name: def.name.clone(),
                        expected: def.params.len(),
                        got,
                    });
                }
                // Probe the cache by (function, argument slice) straight
                // off the value stack — no owned key, no allocation. Only
                // a genuinely new demand materializes a `Demand`.
                let argv = &self.vals[base..];
                let out = match self.cache.lookup(*f, argv) {
                    Some(Some(v)) => Walked::Val(v.clone()),
                    Some(None) => Walked::Blocked,
                    None => {
                        let dup = self.new_demands[self.start..]
                            .iter()
                            .any(|d| d.fun == *f && d.args[..] == *argv);
                        if !dup {
                            // One allocation, moved straight off the stack:
                            // the cache, the child record and the packet
                            // all share it.
                            let args = if base == self.vals.len() {
                                Arc::default()
                            } else {
                                self.vals.drain(base..).collect()
                            };
                            self.new_demands.push(Demand::shared(*f, args));
                        }
                        Walked::Blocked
                    }
                };
                self.vals.truncate(base);
                Ok(out)
            }
            Expr::Let(name, bound, body) => match self.walk(bound, env)? {
                // `let` is strict in the binding; the body waits for it.
                Walked::Blocked => Ok(Walked::Blocked),
                Walked::Val(v) => {
                    env.push(name.clone(), v);
                    let r = self.walk(body, env);
                    env.pop();
                    r
                }
            },
        }
    }
}

/// Runs a task to completion on a single processor by recursively satisfying
/// its demands depth-first. This is the smallest possible driver of the wave
/// evaluator and serves as the bridge between the reference semantics and
/// the distributed machines: `run_local` must agree with
/// [`crate::eval::eval_call`] on every terminating, error-free program.
pub fn run_local(prog: &Program, fun: FnId, args: &[Value]) -> Result<Value, EvalError> {
    let mut pool = FramePool::new();
    run_local_depth(prog, fun, Arc::from(args), &mut pool, 0)
}

fn run_local_depth(
    prog: &Program,
    fun: FnId,
    args: Arc<[Value]>,
    pool: &mut FramePool,
    depth: usize,
) -> Result<Value, EvalError> {
    if depth > 100_000 {
        return Err(EvalError::DepthExceeded);
    }
    let mut task = pool.take_eval(fun, args);
    let mut demands = pool.take_demands();
    let result = 'run: loop {
        demands.clear();
        match task.step_pooled(prog, pool, &mut demands) {
            Err(e) => break Err(e),
            Ok(Some(v)) => break Ok(v),
            Ok(None) => {
                if demands.is_empty() && task.ready() {
                    // Blocked with nothing outstanding and nothing new: the
                    // program is stuck, which cannot happen for well-formed
                    // programs.
                    unreachable!("wave evaluator deadlock");
                }
                for d in &demands {
                    match run_local_depth(prog, d.fun, Arc::clone(&d.args), pool, depth + 1) {
                        Ok(v) => task.supply(d, v),
                        Err(e) => break 'run Err(e),
                    };
                }
            }
        }
    };
    // Frames retire into the pool on every exit, so deep recursion reuses
    // a handful of allocations instead of building one per call.
    pool.put_demands(demands);
    pool.put_eval(task);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_call;
    use crate::prim::PrimOp;

    fn fib_program() -> (Program, FnId) {
        let mut p = Program::new();
        let fib = p.declare("fib");
        p.define(
            "fib",
            &["n"],
            Expr::if_(
                Expr::Prim(PrimOp::Lt, vec![Expr::var("n"), Expr::int(2)]),
                Expr::var("n"),
                Expr::Prim(
                    PrimOp::Add,
                    vec![
                        Expr::Call(
                            fib,
                            vec![Expr::Prim(PrimOp::Sub, vec![Expr::var("n"), Expr::int(1)])],
                        ),
                        Expr::Call(
                            fib,
                            vec![Expr::Prim(PrimOp::Sub, vec![Expr::var("n"), Expr::int(2)])],
                        ),
                    ],
                ),
            ),
        );
        (p, fib)
    }

    #[test]
    fn leaf_task_completes_in_one_wave() {
        let (p, fib) = fib_program();
        let mut t = TaskEval::new(fib, [Value::Int(1)].into());
        assert!(matches!(
            t.step(&p).unwrap(),
            WaveResult::Done(Value::Int(1))
        ));
        assert_eq!(t.waves(), 1);
        assert!(t.work() > 0);
    }

    #[test]
    fn interior_task_demands_both_children_in_one_wave() {
        let (p, fib) = fib_program();
        let mut t = TaskEval::new(fib, [Value::Int(5)].into());
        let r = t.step(&p).unwrap();
        match r {
            WaveResult::Blocked { new_demands } => {
                assert_eq!(
                    new_demands,
                    vec![
                        Demand::new(fib, vec![4.into()]),
                        Demand::new(fib, vec![3.into()])
                    ]
                );
            }
            other => panic!("expected blocked, got {other:?}"),
        }
        assert_eq!(t.outstanding(), 2);
        assert!(!t.ready());
    }

    #[test]
    fn supply_then_finish() {
        let (p, fib) = fib_program();
        let mut t = TaskEval::new(fib, [Value::Int(5)].into());
        t.step(&p).unwrap();
        assert!(t.supply(&Demand::new(fib, vec![4.into()]), 3.into()));
        assert!(t.supply(&Demand::new(fib, vec![3.into()]), 2.into()));
        assert!(t.ready());
        match t.step(&p).unwrap() {
            WaveResult::Done(v) => assert_eq!(v, Value::Int(5)),
            other => panic!("expected done, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_supply_is_ignored() {
        let (p, fib) = fib_program();
        let mut t = TaskEval::new(fib, [Value::Int(5)].into());
        t.step(&p).unwrap();
        let d = Demand::new(fib, vec![4.into()]);
        assert!(t.supply(&d, 3.into()));
        assert!(!t.supply(&d, 999.into()), "second copy must be ignored");
        assert!(!t.supply(&Demand::new(fib, vec![77.into()]), 1.into()));
        // First value wins.
        assert_eq!(t.cached(&d), Some(&Value::Int(3)));
    }

    #[test]
    fn preload_prevents_spawn() {
        // Salvage path: preload fib(4) before the first wave; the task then
        // only ever demands fib(3).
        let (p, fib) = fib_program();
        let mut t = TaskEval::new(fib, [Value::Int(5)].into());
        assert!(t.preload(Demand::new(fib, vec![4.into()]), 3.into()));
        match t.step(&p).unwrap() {
            WaveResult::Blocked { new_demands } => {
                assert_eq!(new_demands, vec![Demand::new(fib, vec![3.into()])]);
            }
            other => panic!("expected blocked, got {other:?}"),
        }
        assert!(t.supply(&Demand::new(fib, vec![3.into()]), 2.into()));
        assert!(matches!(
            t.step(&p).unwrap(),
            WaveResult::Done(Value::Int(5))
        ));
    }

    #[test]
    fn preload_of_outstanding_demand_acts_as_supply() {
        let (p, fib) = fib_program();
        let mut t = TaskEval::new(fib, [Value::Int(5)].into());
        t.step(&p).unwrap();
        assert_eq!(t.outstanding(), 2);
        assert!(!t.preload(Demand::new(fib, vec![4.into()]), 3.into()));
        assert_eq!(t.outstanding(), 1);
    }

    #[test]
    fn duplicate_calls_in_one_body_share_a_demand() {
        let mut p = Program::new();
        let g = p.define("g", &["x"], Expr::var("x"));
        let f = p.define(
            "f",
            &["x"],
            Expr::Prim(
                PrimOp::Add,
                vec![
                    Expr::Call(g, vec![Expr::var("x")]),
                    Expr::Call(g, vec![Expr::var("x")]),
                ],
            ),
        );
        let mut t = TaskEval::new(f, [Value::Int(21)].into());
        match t.step(&p).unwrap() {
            WaveResult::Blocked { new_demands } => assert_eq!(new_demands.len(), 1),
            other => panic!("{other:?}"),
        }
        t.supply(&Demand::new(g, vec![21.into()]), 21.into());
        assert!(matches!(
            t.step(&p).unwrap(),
            WaveResult::Done(Value::Int(42))
        ));
    }

    #[test]
    fn run_local_matches_reference_on_fib() {
        let (p, fib) = fib_program();
        for n in 0..15 {
            let reference = eval_call(&p, fib, &[Value::Int(n)]).unwrap();
            let wave = run_local(&p, fib, &[Value::Int(n)]).unwrap();
            assert_eq!(reference, wave, "fib({n})");
        }
    }

    #[test]
    fn nested_calls_take_two_waves() {
        // f(x) = g(g(x)): the outer g can only be demanded after the inner
        // returns.
        let mut p = Program::new();
        let g = p.define(
            "g",
            &["x"],
            Expr::Prim(PrimOp::Add, vec![Expr::var("x"), Expr::int(1)]),
        );
        let f = p.define(
            "f",
            &["x"],
            Expr::Call(g, vec![Expr::Call(g, vec![Expr::var("x")])]),
        );
        let mut t = TaskEval::new(f, [Value::Int(0)].into());
        match t.step(&p).unwrap() {
            WaveResult::Blocked { new_demands } => {
                assert_eq!(new_demands, vec![Demand::new(g, vec![0.into()])]);
            }
            other => panic!("{other:?}"),
        }
        t.supply(&Demand::new(g, vec![0.into()]), 1.into());
        match t.step(&p).unwrap() {
            WaveResult::Blocked { new_demands } => {
                assert_eq!(new_demands, vec![Demand::new(g, vec![1.into()])]);
            }
            other => panic!("{other:?}"),
        }
        t.supply(&Demand::new(g, vec![1.into()]), 2.into());
        assert!(matches!(
            t.step(&p).unwrap(),
            WaveResult::Done(Value::Int(2))
        ));
        assert_eq!(t.waves(), 3);
    }

    #[test]
    fn blocked_condition_does_not_speculate() {
        // h(n) = if g(n) then diverge(n) else 0 — the diverging branch must
        // not be demanded while the condition is blocked.
        let mut p = Program::new();
        let g = p.define("g", &["x"], Expr::bool(false));
        let dv = p.declare("diverge");
        p.define("diverge", &["x"], Expr::Call(dv, vec![Expr::var("x")]));
        let h = p.define(
            "h",
            &["n"],
            Expr::if_(
                Expr::Call(g, vec![Expr::var("n")]),
                Expr::Call(dv, vec![Expr::var("n")]),
                Expr::int(0),
            ),
        );
        let mut t = TaskEval::new(h, [Value::Int(1)].into());
        match t.step(&p).unwrap() {
            WaveResult::Blocked { new_demands } => {
                assert_eq!(new_demands, vec![Demand::new(g, vec![1.into()])]);
            }
            other => panic!("{other:?}"),
        }
        t.supply(&Demand::new(g, vec![1.into()]), false.into());
        assert!(matches!(
            t.step(&p).unwrap(),
            WaveResult::Done(Value::Int(0))
        ));
    }
}
