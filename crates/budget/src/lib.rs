//! Resource governance for lcdb evaluation.
//!
//! Kreutzer's complexity results are polynomial only under favourable
//! assumptions: RegPFP is PSPACE-complete and the arrangement `A(S)` has
//! `O(n^d)` faces (Theorem 3.1), so adversarial or merely large inputs can
//! legally drive an evaluator into astronomical iteration counts and memory
//! use. This crate provides the shared vocabulary every layer of the engine
//! uses to stay interruptible:
//!
//! * [`EvalBudget`] — declarative limits: a wall-clock deadline, caps on
//!   fixed-point iterations, tuple tests, materialized faces/regions, an
//!   estimated-memory ceiling, and a shared cancellation token.
//! * [`CancelToken`] — a cheap, clonable `Arc<AtomicBool>` flag that any
//!   thread can trip to abort an evaluation in progress.
//! * [`BudgetError`] — the typed verdict when a limit is hit. Higher layers
//!   (lcdb-core's `EvalError`) wrap it with evaluation statistics.
//! * [`work`] — the work ledger, which is also the budget's clock: every
//!   unit of work charged to a thread's armed ledger checks the token, the
//!   iteration and tuple-test caps and, every [`work::PERIOD`] units, the
//!   deadline. The face and memory caps bound a *size*, not work, and stay
//!   explicit checks.
//!
//! All limits are optional; [`EvalBudget::unlimited`] sets none, which is
//! what the infallible legacy entry points use.

#![forbid(unsafe_code)]

pub mod work;

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag.
///
/// Cloning is cheap and all clones observe the same flag, so a token can be
/// handed to another thread (or a signal handler) while the evaluation
/// charges its work against it.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the flag: every budget sharing this token refuses its next
    /// charge with [`BudgetError::Cancelled`].
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Declarative resource limits for one evaluation.
///
/// The deadline is armed when the budget is constructed (`with_timeout`
/// counts from the call site), so build a fresh budget per query rather than
/// reusing one across a session.
#[derive(Clone, Debug, Default)]
pub struct EvalBudget {
    /// The instant the deadline passes, and the timeout it was set from.
    deadline: Option<(Instant, Duration)>,
    max_fix_iterations: Option<u64>,
    max_tuple_tests: Option<u64>,
    max_faces: Option<usize>,
    max_memory_bytes: Option<usize>,
    cancel: Option<CancelToken>,
}

impl EvalBudget {
    /// A budget with no limits.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Abort with [`BudgetError::DeadlineExceeded`] once `timeout` has
    /// elapsed from this call.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some((Instant::now() + timeout, timeout));
        self
    }

    /// Cap the number of fixed-point stages (across LFP/IFP/PFP loops and
    /// datalog rounds).
    pub fn with_max_fix_iterations(mut self, limit: u64) -> Self {
        self.max_fix_iterations = Some(limit);
        self
    }

    /// Cap the number of tuple membership tests performed by fixed-point
    /// and transitive-closure evaluation.
    pub fn with_max_tuple_tests(mut self, limit: u64) -> Self {
        self.max_tuple_tests = Some(limit);
        self
    }

    /// Cap the number of faces/regions a decomposition may materialize.
    pub fn with_max_faces(mut self, limit: usize) -> Self {
        self.max_faces = Some(limit);
        self
    }

    /// Cap the estimated bytes of any single bulk allocation (tuple-space
    /// enumeration, face tables).
    pub fn with_max_memory_bytes(mut self, limit: usize) -> Self {
        self.max_memory_bytes = Some(limit);
        self
    }

    /// Attach a cancellation token, observed by every charge.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Fail once a decomposition holds more than the face cap.
    pub fn check_faces(&self, faces: usize) -> Result<(), BudgetError> {
        match self.max_faces {
            Some(limit) if faces > limit => Err(BudgetError::FaceLimit {
                limit,
                reached: faces,
            }),
            _ => Ok(()),
        }
    }

    /// Fail if a planned bulk allocation of `estimated_bytes` exceeds the
    /// memory ceiling. `None` (an overflowed size computation) always fails
    /// when any ceiling is set.
    pub fn check_memory_estimate(&self, estimated_bytes: Option<usize>) -> Result<(), BudgetError> {
        let Some(limit) = self.max_memory_bytes else {
            return Ok(());
        };
        match estimated_bytes {
            Some(bytes) if bytes <= limit => Ok(()),
            Some(bytes) => Err(BudgetError::MemoryLimit {
                limit_bytes: limit,
                estimated_bytes: bytes,
            }),
            None => Err(BudgetError::MemoryLimit {
                limit_bytes: limit,
                estimated_bytes: usize::MAX,
            }),
        }
    }
}

/// Typed verdicts for exceeded budgets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BudgetError {
    /// The wall-clock deadline elapsed.
    DeadlineExceeded { limit: Duration },
    /// The fixed-point stage cap was hit (RegPFP is PSPACE-complete; a
    /// divergent or slowly converging induction burns stages first).
    IterationLimit { limit: u64 },
    /// The tuple-test cap was hit.
    TupleTestLimit { limit: u64 },
    /// A decomposition tried to materialize more faces/regions than allowed
    /// (arrangements grow as O(n^d), Theorem 3.1).
    FaceLimit { limit: usize, reached: usize },
    /// A bulk allocation would exceed the memory ceiling.
    MemoryLimit {
        limit_bytes: usize,
        estimated_bytes: usize,
    },
    /// The cancellation token was tripped.
    Cancelled,
    /// A deterministic test fault fired at the named injection site (only
    /// constructed under the `faults` feature, but always present so match
    /// arms do not depend on feature flags).
    InjectedFault {
        /// The injection-site name, e.g. `"arith.overflow"`.
        site: String,
    },
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::DeadlineExceeded { limit } => {
                write!(f, "evaluation deadline exceeded (timeout {limit:?})")
            }
            BudgetError::IterationLimit { limit } => {
                write!(f, "fixed-point iteration limit exceeded (max {limit})")
            }
            BudgetError::TupleTestLimit { limit } => {
                write!(f, "tuple-test limit exceeded (max {limit})")
            }
            BudgetError::FaceLimit { limit, reached } => write!(
                f,
                "face limit exceeded: decomposition reached {reached} faces (max {limit})"
            ),
            BudgetError::MemoryLimit {
                limit_bytes,
                estimated_bytes,
            } => {
                if *estimated_bytes == usize::MAX {
                    write!(
                        f,
                        "memory estimate overflowed (limit {limit_bytes} bytes)"
                    )
                } else {
                    write!(
                        f,
                        "memory limit exceeded: estimated {estimated_bytes} bytes (max {limit_bytes})"
                    )
                }
            }
            BudgetError::Cancelled => write!(f, "evaluation cancelled"),
            BudgetError::InjectedFault { site } => {
                write!(f, "injected fault at site '{site}'")
            }
        }
    }
}

impl std::error::Error for BudgetError {}

/// Deterministic, seeded fault injection (feature `faults`).
///
/// Robustness claims ("every abort surfaces as a typed error with a valid
/// checkpoint, never a panic") are only testable if faults can be provoked
/// *inside* the layers that normally cannot fail — rational arithmetic, the
/// simplex pivot loop, arrangement refinement, fixpoint stage transitions.
/// This module gives those layers named injection sites:
///
/// * fallible code paths call [`check`], which returns
///   [`BudgetError::InjectedFault`] when the armed plan says the site's
///   N-th execution should fail;
/// * infallible hot paths (a `Rational` constructor cannot return `Err`)
///   call [`hit`], which records the fault as *pending*; the next charge to
///   the armed work ledger ([`crate::work::charge`]) turns it into the same
///   typed error.
///
/// Plans are armed per thread ([`FaultPlan::arm`] returns an RAII guard), so
/// parallel tests do not interfere, and each site fires at most once per
/// arming: after the injected failure the run either aborts or quarantines
/// the unit and continues cleanly. [`FaultPlan::seeded`] derives the firing
/// hit-count per site from a seed via SplitMix64, so a CI seed matrix
/// explores different abort positions deterministically.
///
/// A freshly spawned thread starts with *no* armed plan — the
/// `thread_local!` registration is empty — so a server that wants injected
/// faults to keep firing inside the threads it spawns must [`export`] the
/// caller's armed state and [`install`] it in each of them. The state
/// behind a handle is shared, not copied: hit counts accumulate globally,
/// each site still fires at most once per arming no matter which thread
/// reaches it first, and a deferred fault recorded by a worker surfaces at
/// the next clock reading of a charge on *any* participating thread.
///
/// With the feature disabled this module does not exist and the sites
/// compile to nothing.
#[cfg(feature = "faults")]
pub mod faults {
    use super::BudgetError;
    use lcdb_exec::hash::{fingerprint_str, splitmix64};
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    struct SiteState {
        hits: u64,
        fire_on: u64,
        fired: bool,
    }

    /// The armed sites plus the deferred-fault slot, shared by every thread
    /// participating in one arming.
    #[derive(Default)]
    struct ArmedState {
        sites: BTreeMap<String, SiteState>,
        pending: Option<String>,
    }

    thread_local! {
        static INJECTOR: RefCell<Option<Arc<Mutex<ArmedState>>>> = const { RefCell::new(None) };
    }

    fn with_state<R>(f: impl FnOnce(&mut ArmedState) -> R) -> Option<R> {
        let state = INJECTOR.with(|i| i.borrow().clone())?;
        let mut guard = state.lock().unwrap_or_else(|p| p.into_inner());
        Some(f(&mut guard))
    }

    /// Which sites fail, and on which execution. Build one, then [`arm`]
    /// it for the current thread.
    ///
    /// [`arm`]: FaultPlan::arm
    #[derive(Clone, Debug, Default)]
    pub struct FaultPlan {
        sites: Vec<(String, u64)>,
    }

    impl FaultPlan {
        /// An empty plan: no site fails.
        pub fn new() -> Self {
            Self::default()
        }

        /// Make `site` fail on its `nth` execution (1-based; 0 behaves
        /// like 1).
        pub fn fail_on(mut self, site: &str, nth: u64) -> Self {
            self.sites.push((site.to_string(), nth.max(1)));
            self
        }

        /// Derive a plan from a seed: each named site fires on a hit count
        /// in `1..=max_nth` chosen by SplitMix64 over `(seed, site)`. The
        /// same seed always produces the same plan.
        pub fn seeded(seed: u64, sites: &[&str], max_nth: u64) -> Self {
            let mut plan = Self::new();
            for site in sites {
                let nth = splitmix64(seed ^ fingerprint_str(site)) % max_nth.max(1) + 1;
                plan = plan.fail_on(site, nth);
            }
            plan
        }

        /// Build a plan from the `LCDB_FAULT_SITE` environment variable: a
        /// comma-separated list of `site` or `site:nth` entries (`nth`
        /// defaults to 1, malformed counts behave like 1). Returns `None`
        /// when the variable is unset or names no site — this is how a
        /// separate process (the CLI under test) arms injection without an
        /// in-process [`FaultPlan`].
        pub fn from_env() -> Option<Self> {
            let spec = std::env::var("LCDB_FAULT_SITE").ok()?;
            let mut plan = Self::new();
            for entry in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let (site, nth) = match entry.split_once(':') {
                    Some((site, n)) => (site.trim(), n.trim().parse().unwrap_or(1)),
                    None => (entry, 1),
                };
                plan = plan.fail_on(site, nth);
            }
            if plan.sites.is_empty() {
                None
            } else {
                Some(plan)
            }
        }

        /// Arm the plan for the current thread. Dropping the returned guard
        /// disarms it and clears any pending fault, so a panicking test
        /// cannot leak injection state into the next one.
        pub fn arm(self) -> Armed {
            let map: BTreeMap<String, SiteState> = self
                .sites
                .into_iter()
                .map(|(site, fire_on)| {
                    (
                        site,
                        SiteState {
                            hits: 0,
                            fire_on,
                            fired: false,
                        },
                    )
                })
                .collect();
            let state = Arc::new(Mutex::new(ArmedState {
                sites: map,
                pending: None,
            }));
            INJECTOR.with(|i| *i.borrow_mut() = Some(state));
            Armed(())
        }
    }

    /// RAII guard for an armed [`FaultPlan`]; disarms on drop.
    #[must_use = "the plan is disarmed when the guard drops"]
    pub struct Armed(());

    impl Drop for Armed {
        fn drop(&mut self) {
            INJECTOR.with(|i| *i.borrow_mut() = None);
        }
    }

    /// A clonable, `Send` handle to the current thread's armed fault state.
    ///
    /// Obtained with [`export`], handed across a thread boundary, and made
    /// active on the worker with [`install`]. All handles alias the *same*
    /// state as the original arming.
    #[derive(Clone)]
    pub struct ArmedHandle(Arc<Mutex<ArmedState>>);

    /// Export the current thread's armed state (if any) for installation in
    /// a worker thread. Returns `None` when no plan is armed, in which case
    /// workers need no installation.
    pub fn export() -> Option<ArmedHandle> {
        INJECTOR.with(|i| i.borrow().clone()).map(ArmedHandle)
    }

    /// Make an exported arming active on the current (worker) thread.
    /// Dropping the returned guard detaches this thread again; the shared
    /// state itself lives until the original [`Armed`] guard drops.
    pub fn install(handle: &ArmedHandle) -> Installed {
        let previous = INJECTOR.with(|i| i.borrow_mut().replace(handle.0.clone()));
        Installed { previous }
    }

    /// RAII guard for an [`install`]ed fault-state handle.
    #[must_use = "the handle is uninstalled when the guard drops"]
    pub struct Installed {
        previous: Option<Arc<Mutex<ArmedState>>>,
    }

    impl Drop for Installed {
        fn drop(&mut self) {
            let previous = self.previous.take();
            INJECTOR.with(|i| *i.borrow_mut() = previous);
        }
    }

    fn fire(site: &str) -> bool {
        with_state(|st| {
            let Some(state) = st.sites.get_mut(site) else {
                return false;
            };
            if state.fired {
                return false;
            }
            state.hits += 1;
            if state.hits >= state.fire_on {
                state.fired = true;
                true
            } else {
                false
            }
        })
        .unwrap_or(false)
    }

    /// Injection site for infallible code: if the armed plan fires here, the
    /// fault is recorded as pending and surfaces at this thread's next
    /// [`charge`](crate::work::charge) (at the next clock reading on any
    /// other thread sharing the arming). An already pending fault is never
    /// overwritten, so the first deferred site wins deterministically.
    pub fn hit(site: &str) {
        with_state(|st| {
            let Some(state) = st.sites.get_mut(site) else {
                return;
            };
            if state.fired {
                return;
            }
            state.hits += 1;
            if state.hits >= state.fire_on {
                state.fired = true;
                if st.pending.is_none() {
                    st.pending = Some(site.to_string());
                }
                crate::work::check_soon();
            }
        });
    }

    /// Injection site for fallible code: fails immediately with
    /// [`BudgetError::InjectedFault`] when the armed plan fires here.
    pub fn check(site: &str) -> Result<(), BudgetError> {
        if fire(site) {
            Err(BudgetError::InjectedFault {
                site: site.to_string(),
            })
        } else {
            Ok(())
        }
    }

    /// Drain the pending deferred fault, if any. Called by the work
    /// ledger's clock reading; tests normally never need it directly.
    pub fn take_pending() -> Option<BudgetError> {
        with_state(|st| st.pending.take())
            .flatten()
            .map(|site| BudgetError::InjectedFault { site })
    }

    #[cfg(test)]
    #[allow(clippy::unwrap_used)]
    mod tests {
        use super::*;

        #[test]
        fn disarmed_sites_never_fire() {
            assert!(check("x").is_ok());
            hit("x");
            assert!(take_pending().is_none());
        }

        #[test]
        fn fires_on_nth_hit_exactly_once() {
            let _g = FaultPlan::new().fail_on("s", 3).arm();
            assert!(check("s").is_ok());
            assert!(check("s").is_ok());
            assert!(matches!(
                check("s"),
                Err(BudgetError::InjectedFault { site }) if site == "s"
            ));
            // One-shot: the site does not fire again.
            for _ in 0..10 {
                assert!(check("s").is_ok());
            }
        }

        #[test]
        fn deferred_hit_surfaces_via_take_pending() {
            let _g = FaultPlan::new().fail_on("d", 1).arm();
            assert!(take_pending().is_none());
            hit("d");
            assert_eq!(
                take_pending(),
                Some(BudgetError::InjectedFault { site: "d".into() })
            );
            assert!(take_pending().is_none(), "pending drains");
        }

        #[test]
        fn guard_drop_disarms_and_clears_pending() {
            {
                let _g = FaultPlan::new().fail_on("z", 1).arm();
                hit("z");
            }
            assert!(take_pending().is_none());
            assert!(check("z").is_ok());
        }

        #[test]
        fn seeded_plans_are_deterministic_and_bounded() {
            let a = FaultPlan::seeded(7, &["p", "q"], 10);
            let b = FaultPlan::seeded(7, &["p", "q"], 10);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            for (_, nth) in &a.sites {
                assert!((1..=10).contains(nth));
            }
            let c = FaultPlan::seeded(8, &["p", "q"], 1_000_000);
            assert_ne!(format!("{a:?}"), format!("{c:?}"));
        }

        #[test]
        fn export_is_none_when_disarmed() {
            assert!(export().is_none());
        }

        #[test]
        fn exported_state_is_shared_across_threads() {
            let _g = FaultPlan::new().fail_on("w", 2).arm();
            let handle = export().unwrap();
            assert!(check("w").is_ok()); // hit 1 on the arming thread
            let fired_in_worker = std::thread::scope(|s| {
                s.spawn(|| {
                    // A fresh thread sees nothing until the handle installs.
                    assert!(check("w").is_ok());
                    let _i = install(&handle);
                    check("w").is_err() // hit 2: fires here
                })
                .join()
                .unwrap()
            });
            assert!(fired_in_worker);
            // One-shot globally: the arming thread cannot fire it again.
            for _ in 0..5 {
                assert!(check("w").is_ok());
            }
        }

        #[test]
        fn worker_deferred_hit_surfaces_on_arming_thread() {
            let _g = FaultPlan::new().fail_on("d2", 1).arm();
            let handle = export().unwrap();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _i = install(&handle);
                    hit("d2");
                })
                .join()
                .unwrap();
            });
            assert_eq!(
                take_pending(),
                Some(BudgetError::InjectedFault { site: "d2".into() })
            );
        }

        #[test]
        fn the_next_charge_surfaces_a_deferred_fault() {
            use crate::work::{self, Work};
            let _g = FaultPlan::new().fail_on("arith.overflow", 1).arm();
            let _armed = work::arm(&super::super::EvalBudget::unlimited(), [0, 0]);
            hit("arith.overflow");
            assert_eq!(
                work::charge(Work::NodeVisits, 1),
                Err(BudgetError::InjectedFault {
                    site: "arith.overflow".into()
                })
            );
            assert!(work::charge(Work::NodeVisits, 1).is_ok(), "one-shot");
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    use std::time::Duration;
    use work::{arm, charge, snapshot, Work, PERIOD};

    #[test]
    fn unlimited_budget_passes_everything() {
        let b = EvalBudget::unlimited();
        b.check_faces(usize::MAX).unwrap();
        b.check_memory_estimate(None).unwrap();
        let _armed = arm(&b, [u64::MAX, u64::MAX]);
        for _ in 0..10_000 {
            charge(Work::NodeVisits, 1).unwrap();
        }
        charge(Work::FixIterations, 1).unwrap();
        charge(Work::FixTupleTests, u64::MAX).unwrap();
    }

    #[test]
    fn iteration_limit_trips_only_past_cap() {
        let b = EvalBudget::unlimited().with_max_fix_iterations(5);
        let _armed = arm(&b, [3, 0]);
        charge(Work::FixIterations, 2).unwrap();
        let before = snapshot();
        assert_eq!(
            charge(Work::FixIterations, 1),
            Err(BudgetError::IterationLimit { limit: 5 })
        );
        assert_eq!(before.since()[Work::FixIterations], 1, "the stage over the cap counts");
    }

    #[test]
    fn zero_timeout_trips_immediately() {
        let b = EvalBudget::unlimited().with_timeout(Duration::ZERO);
        // The deadline is `now`, so by the time we check, it has passed; a
        // stage is a whole sweep, so its charge reads the clock at once.
        std::thread::sleep(Duration::from_millis(1));
        let _armed = arm(&b, [0, 0]);
        assert!(matches!(
            charge(Work::FixIterations, 1),
            Err(BudgetError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn cancel_token_shared_across_clones() {
        let token = CancelToken::new();
        let _armed = arm(&EvalBudget::unlimited().with_cancel_token(token.clone()), [0, 0]);
        charge(Work::NodeVisits, 1).unwrap();
        let other = token.clone();
        other.cancel();
        assert_eq!(charge(Work::NodeVisits, 1), Err(BudgetError::Cancelled));
    }

    #[test]
    fn meter_observes_cancellation_on_first_tick() {
        let token = CancelToken::new();
        let _armed = arm(&EvalBudget::unlimited().with_cancel_token(token.clone()), [0, 0]);
        token.cancel();
        let before = snapshot();
        // A cancelled budget refuses the very next charge — before the work
        // is counted — not up to PERIOD-1 units later.
        assert_eq!(charge(Work::NodeVisits, 1), Err(BudgetError::Cancelled));
        assert_eq!(before.since()[Work::NodeVisits], 0, "the cancelled charge claims no work");
    }

    #[test]
    fn meter_checks_deadline_on_the_period() {
        // Non-cancellation interrupts (the clock) still amortize: the
        // deadline is only consulted every PERIOD charged units.
        let b = EvalBudget::unlimited().with_timeout(Duration::from_secs(0));
        std::thread::sleep(Duration::from_millis(2));
        let _armed = arm(&b, [0, 0]);
        let mut tripped = None;
        for i in 0..PERIOD {
            if charge(Work::NodeVisits, 1).is_err() {
                tripped = Some(i + 1);
                break;
            }
        }
        assert_eq!(tripped, Some(PERIOD), "trips exactly on the period");
    }

    #[test]
    fn meter_cancel_mid_stream_stops_next_tick() {
        let token = CancelToken::new();
        let _armed = arm(&EvalBudget::unlimited().with_cancel_token(token.clone()), [0, 0]);
        let before = snapshot();
        for _ in 0..10 {
            charge(Work::NodeVisits, 1).expect("not cancelled yet");
        }
        token.cancel();
        assert_eq!(charge(Work::NodeVisits, 1), Err(BudgetError::Cancelled));
        assert_eq!(before.since()[Work::NodeVisits], 10, "no work claimed after cancellation");
    }

    #[test]
    fn meter_count_is_exact_across_threads() {
        // Every thread counts its own work in its own ledger, so each total
        // is exact however many threads charge at once.
        let budget = EvalBudget::unlimited();
        let counts: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (1..=4u64)
                .map(|k| {
                    let budget = &budget;
                    scope.spawn(move || {
                        let _armed = arm(budget, [0, 0]);
                        let before = snapshot();
                        for _ in 0..1000 * k {
                            charge(Work::NodeVisits, 1).expect("unlimited budget never trips");
                        }
                        before.since()[Work::NodeVisits]
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(counts, [1000, 2000, 3000, 4000]);
    }

    #[test]
    fn memory_estimate_overflow_fails_closed() {
        let b = EvalBudget::unlimited().with_max_memory_bytes(1 << 20);
        b.check_memory_estimate(Some(1 << 20)).unwrap();
        assert!(b.check_memory_estimate(Some((1 << 20) + 1)).is_err());
        assert!(b.check_memory_estimate(None).is_err());
    }

    #[test]
    fn face_limit_reports_reached_count() {
        let b = EvalBudget::unlimited().with_max_faces(100);
        b.check_faces(100).unwrap();
        assert_eq!(
            b.check_faces(101),
            Err(BudgetError::FaceLimit {
                limit: 100,
                reached: 101
            })
        );
    }
}
