//! Pluggable recovery policies: the paper's protocol as one point in a
//! measured design space.
//!
//! The paper hard-codes a single strategy — checkpoint the full task frame
//! at spawn time, reissue eagerly the moment a failure notice arrives. The
//! [`RecoveryPolicy`] trait extracts the two decisions that strategy
//! bundles together, so rivals can be swapped in without touching the
//! protocol loop:
//!
//! 1. **What to do on death discovery** ([`RecoveryPolicy::eager_on_death`]):
//!    reissue now (the paper), or mark the subtree *lost* and rebuild it
//!    only when its result is actually demanded — the weak-recovery scheme
//!    shown observationally equivalent by Fabbretti et al.
//! 2. **Whether long-lived tasks re-checkpoint incrementally**
//!    ([`RecoveryPolicy::recheckpoint_every`]): a parent that streams its
//!    children's completed results back to its own checkpoint owner lets a
//!    reissued twin preload those results and replay strictly fewer waves.
//!
//! Every policy persists the full task frame at spawn; *what* to persist
//! (HEAL's persistency-model axis) is the unexplored third decision.
//!
//! Three named policies cover the interesting corners:
//!
//! | policy              | on death        | re-checkpoint |
//! |---------------------|-----------------|---------------|
//! | [`PolicyKind::Eager`]           | reissue now     | never |
//! | [`PolicyKind::Lazy`]            | mark lost       | never |
//! | [`PolicyKind::MultiCheckpoint`] | reissue now     | every k results |
//!
//! `Eager` is bit-identical to the pre-refactor engine (pinned by golden
//! trace checksums in `tests/recovery_policy.rs`); the differential fuzz
//! suite in `tests/backend_fuzz.rs` holds all three to identical final
//! values under identical fault plans on every backend.

use std::fmt;

/// Which named recovery policy a processor runs. Carried in run reports and
/// the multi-process Init handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// The paper's scheme: reissue dead children the moment their death is
    /// discovered. Today's behavior, bit-for-bit.
    #[default]
    Eager,
    /// Weak recovery: a dead child is marked *lost*; its owner rebuilds the
    /// subtree only when every remaining demand is blocked on lost children
    /// (i.e. the result is actually needed). Crashed subtrees whose results
    /// are never demanded — e.g. because the demanding orphan itself dies —
    /// cost zero reissues.
    Lazy,
    /// The paper's eager reissue plus periodic incremental re-checkpointing:
    /// a parent ships every k-th completed child result back to its own
    /// checkpoint owner, so a reissued twin preloads them and replays
    /// strictly fewer waves after a late crash.
    MultiCheckpoint,
}

impl PolicyKind {
    /// All named policies, in wire-tag order.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::Eager,
        PolicyKind::Lazy,
        PolicyKind::MultiCheckpoint,
    ];

    /// Stable short label for reports, traces and experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Eager => "eager",
            PolicyKind::Lazy => "lazy",
            PolicyKind::MultiCheckpoint => "multickpt",
        }
    }

    /// Stable wire tag (Init handshake, trace codec).
    pub fn tag(self) -> u8 {
        match self {
            PolicyKind::Eager => 0,
            PolicyKind::Lazy => 1,
            PolicyKind::MultiCheckpoint => 2,
        }
    }

    /// Inverse of [`PolicyKind::tag`].
    pub fn from_tag(tag: u8) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Serializable recipe for a recovery policy: what `Config` carries, what
/// the Init handshake ships, and what [`PolicySpec::build`] turns into a
/// live [`RecoveryPolicy`] object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PolicySpec {
    /// Named policy selecting the death-discovery behavior.
    pub kind: PolicyKind,
    /// Re-checkpoint period in completed child results; 0 disables. Only
    /// meaningful (and only defaulted non-zero) for `MultiCheckpoint`.
    pub recheckpoint_every: u32,
}

impl Default for PolicySpec {
    fn default() -> Self {
        PolicySpec::eager()
    }
}

impl PolicySpec {
    /// The paper's eager scheme (today's behavior, bit-identical).
    pub fn eager() -> PolicySpec {
        PolicySpec {
            kind: PolicyKind::Eager,
            recheckpoint_every: 0,
        }
    }

    /// Weak recovery: mark lost on death, rebuild on demand.
    pub fn lazy() -> PolicySpec {
        PolicySpec {
            kind: PolicyKind::Lazy,
            recheckpoint_every: 0,
        }
    }

    /// Eager reissue with incremental re-checkpointing every `every`
    /// completed child results (values < 1 are clamped to 1).
    pub fn multi_checkpoint(every: u32) -> PolicySpec {
        PolicySpec {
            kind: PolicyKind::MultiCheckpoint,
            recheckpoint_every: every.max(1),
        }
    }

    /// The spec for a named policy with its canonical knob defaults
    /// (`MultiCheckpoint` re-checkpoints every result).
    pub fn of(kind: PolicyKind) -> PolicySpec {
        match kind {
            PolicyKind::Eager => PolicySpec::eager(),
            PolicyKind::Lazy => PolicySpec::lazy(),
            PolicyKind::MultiCheckpoint => PolicySpec::multi_checkpoint(1),
        }
    }

    /// Build the live policy object the engine consults.
    pub fn build(self) -> Box<dyn RecoveryPolicy> {
        match self.kind {
            PolicyKind::Eager => Box::new(Eager),
            PolicyKind::Lazy => Box::new(Lazy),
            PolicyKind::MultiCheckpoint => Box::new(MultiCheckpoint {
                every: self.recheckpoint_every.max(1),
            }),
        }
    }
}

/// The recovery-decision seam the engine consults instead of hard-coding
/// the paper's strategy. Implementations must be cheap: every method is
/// called on hot protocol paths.
pub trait RecoveryPolicy: Send + Sync {
    /// Which named policy this is (for reports and traces).
    fn kind(&self) -> PolicyKind;

    /// True: reissue a dead child the moment its death is discovered (the
    /// paper). False: mark it lost and rebuild only when demanded.
    fn eager_on_death(&self) -> bool {
        true
    }

    /// Incremental re-checkpoint period in completed child results;
    /// 0 disables re-checkpointing entirely.
    fn recheckpoint_every(&self) -> u32 {
        0
    }
}

/// The paper's scheme. See [`PolicyKind::Eager`].
struct Eager;

impl RecoveryPolicy for Eager {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Eager
    }
}

/// Weak recovery. See [`PolicyKind::Lazy`].
struct Lazy;

impl RecoveryPolicy for Lazy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lazy
    }
    fn eager_on_death(&self) -> bool {
        false
    }
}

/// Eager plus incremental re-checkpointing. See
/// [`PolicyKind::MultiCheckpoint`].
struct MultiCheckpoint {
    every: u32,
}

impl RecoveryPolicy for MultiCheckpoint {
    fn kind(&self) -> PolicyKind {
        PolicyKind::MultiCheckpoint
    }
    fn recheckpoint_every(&self) -> u32 {
        self.every
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_the_paper() {
        let s = PolicySpec::default();
        assert_eq!(s, PolicySpec::eager());
        let p = s.build();
        assert_eq!(p.kind(), PolicyKind::Eager);
        assert!(p.eager_on_death());
        assert_eq!(p.recheckpoint_every(), 0);
    }

    #[test]
    fn lazy_defers_and_multickpt_streams() {
        let lazy = PolicySpec::lazy().build();
        assert!(!lazy.eager_on_death());
        assert_eq!(lazy.recheckpoint_every(), 0);
        let mc = PolicySpec::multi_checkpoint(3).build();
        assert!(mc.eager_on_death());
        assert_eq!(mc.recheckpoint_every(), 3);
        assert_eq!(
            PolicySpec::multi_checkpoint(0).build().recheckpoint_every(),
            1
        );
    }

    #[test]
    fn tags_round_trip() {
        for k in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(PolicyKind::from_tag(9), None);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PolicyKind::Eager.label(), "eager");
        assert_eq!(PolicyKind::Lazy.label(), "lazy");
        assert_eq!(PolicyKind::MultiCheckpoint.label(), "multickpt");
        assert_eq!(format!("{}", PolicyKind::Lazy), "lazy");
    }
}
