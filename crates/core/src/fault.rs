//! Structured aborts and deterministic fault injection.
//!
//! The robustness layer needs two things from the engine core:
//!
//! * **Structured aborts** — when a cooperative limit trips (event budget,
//!   wall-time deadline), the engine unwinds with an [`Abort`] payload
//!   instead of a bare string, so the campaign layer can map the failure
//!   onto a standardized exit reason without parsing panic messages.
//! * **Deterministic fault points** — trapdoors, armed by a [`FaultPlan`],
//!   that fire at *simulation-deterministic* checkpoints (the Nth non-tick
//!   event, a vault poll, a stage digest) so an injected failure lands at
//!   the same point for every `--jobs` value. With no plan armed a fault
//!   point is one `None` check.

use std::any::Any;
use std::panic::panic_any;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why an engine run aborted — the core-side subset of the campaign
/// layer's exit-reason taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The cooperative non-tick event budget was exhausted.
    LimitEvents,
    /// The wall-time deadline passed at a cooperative checkpoint.
    LimitWallTime,
    /// A panic to report as `worker_panic`. The engine raises plain
    /// panics (injected faults, model bugs), which the campaign layer
    /// maps to the same exit reason.
    WorkerPanic,
}

impl AbortReason {
    /// Stable lower-snake name, matching the campaign exit taxonomy.
    pub fn as_str(self) -> &'static str {
        match self {
            AbortReason::LimitEvents => "limit_events",
            AbortReason::LimitWallTime => "limit_wall_time",
            AbortReason::WorkerPanic => "worker_panic",
        }
    }
}

/// The structured panic payload the engine unwinds with at a tripped
/// limit or converted worker panic. Caught by the campaign layer's
/// `catch_unwind` and mapped to a per-run `exit: {reason, detail}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Abort {
    /// What class of failure tripped.
    pub reason: AbortReason,
    /// Human-readable one-liner (deterministic: derived from simulation
    /// state, never from host state).
    pub detail: String,
}

impl Abort {
    /// Unwinds with a structured [`Abort`] payload.
    pub fn throw(reason: AbortReason, detail: impl Into<String>) -> ! {
        panic_any(Abort { reason, detail: detail.into() })
    }
}

/// Best-effort extraction of a caught panic payload: a structured
/// [`Abort`]'s detail, a `&str`/`String` message, or a placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(abort) = payload.downcast_ref::<Abort>() {
        abort.detail.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A deterministic fault plan: which run it targets and what to break.
///
/// Parsed from a manifest `[faults]` block or the `MONDRIAN_FAULT`
/// environment variable by the CLI; the engine only evaluates it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Sweep position (manifest order) the plan applies to.
    pub run: usize,
    /// Panic when the run's engine has processed this many non-tick
    /// events (cumulative across phases and stages).
    pub panic_at_event: Option<u64>,
    /// Stall the engine thread for [`FaultPlan::stall_ms`] at this
    /// non-tick event count (models a hang; proves timeouts fire).
    pub stall_at_event: Option<u64>,
    /// Milliseconds each stall lasts.
    pub stall_ms: u64,
    /// XOR a constant into this stage's recorded output digest.
    pub corrupt_digest_stage: Option<usize>,
    /// Panic just before a vault poll.
    pub panic_in_vault_poll: bool,
    /// How many times the fault fires before disarming (`None` = every
    /// time). `Some(1)` exercises the campaign's bounded retry.
    pub times: Option<u64>,
}

/// A shared, armed fault plan. One handle per faulted run, shared across
/// the run's first attempt and its bounded retry so `times` counts fires
/// across attempts.
#[derive(Debug, Default)]
pub struct FaultHandle {
    /// The plan being evaluated.
    pub plan: FaultPlan,
    fired: AtomicU64,
}

impl PartialEq for FaultHandle {
    fn eq(&self, other: &Self) -> bool {
        self.plan == other.plan
    }
}

impl FaultHandle {
    /// Arms `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan, fired: AtomicU64::new(0) }
    }

    /// Consumes one firing charge; `false` once `times` is exhausted.
    pub fn arm(&self) -> bool {
        match self.plan.times {
            None => true,
            Some(t) => self.fired.fetch_add(1, Ordering::SeqCst) < t,
        }
    }
}

/// A fault-point site, identified by deterministic simulation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// The engine's serial event loop, carrying the machine's cumulative
    /// non-tick event count.
    Event(u64),
    /// A vault poll about to run.
    VaultPoll,
}

/// Evaluates `site` against an armed plan: panics or stalls on a match.
pub fn trip(handle: &FaultHandle, site: Site) {
    match site {
        Site::Event(n) => {
            if handle.plan.panic_at_event == Some(n) && handle.arm() {
                panic!("injected panic at event {n}");
            }
            if handle.plan.stall_at_event == Some(n) && handle.arm() {
                std::thread::sleep(std::time::Duration::from_millis(handle.plan.stall_ms));
            }
        }
        Site::VaultPoll => {
            if handle.plan.panic_in_vault_poll && handle.arm() {
                panic!("injected vault-poll fault");
            }
        }
    }
}

/// The XOR mask to fold into stage `stage`'s recorded output digest —
/// zero unless an armed plan corrupts exactly that stage.
pub fn digest_xor(handle: Option<&FaultHandle>, stage: usize) -> u64 {
    match handle {
        Some(h) if h.plan.corrupt_digest_stage == Some(stage) && h.arm() => 0xdead_beef_dead_beef,
        _ => 0,
    }
}

/// Evaluates a fault [`Site`](crate::fault::Site) against an optional
/// `Option<Arc<FaultHandle>>`-shaped plan. Expands to a guarded call of
/// [`fault::trip`](crate::fault::trip).
#[macro_export]
macro_rules! faultpoint {
    ($handle:expr, $site:expr) => {
        if let Some(h) = ($handle).as_ref() {
            $crate::fault::trip(h, $site);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_round_trips_through_catch_unwind() {
        let caught = std::panic::catch_unwind(|| {
            Abort::throw(AbortReason::LimitEvents, "event budget 10 exhausted")
        })
        .unwrap_err();
        let abort = caught.downcast_ref::<Abort>().expect("structured payload");
        assert_eq!(abort.reason, AbortReason::LimitEvents);
        assert_eq!(panic_message(caught.as_ref()), "event budget 10 exhausted");
    }

    #[test]
    fn panic_message_reads_plain_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("plain message")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "plain message");
        assert_eq!(panic_message(&Box::new(7u32) as &(dyn Any + Send)), "opaque panic payload");
    }

    #[test]
    fn times_bounds_the_fires() {
        let h = FaultHandle::new(FaultPlan { times: Some(2), ..FaultPlan::default() });
        assert!(h.arm());
        assert!(h.arm());
        assert!(!h.arm());
        let unlimited = FaultHandle::new(FaultPlan::default());
        for _ in 0..10 {
            assert!(unlimited.arm());
        }
    }

    #[test]
    fn event_fault_fires_at_exactly_its_event() {
        let h = FaultHandle::new(FaultPlan { panic_at_event: Some(3), ..FaultPlan::default() });
        trip(&h, Site::Event(2));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trip(&h, Site::Event(3));
        }))
        .unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "injected panic at event 3");
    }

    #[test]
    fn digest_corruption_targets_one_stage() {
        let h =
            FaultHandle::new(FaultPlan { corrupt_digest_stage: Some(1), ..FaultPlan::default() });
        assert_eq!(digest_xor(Some(&h), 0), 0);
        assert_ne!(digest_xor(Some(&h), 1), 0);
        assert_eq!(digest_xor(None, 1), 0);
    }
}
