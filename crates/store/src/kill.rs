//! Environment-armed process kill points for crash-torture testing.
//!
//! A kill point marks a position inside a durability-critical sequence —
//! immediately before a write, between the two halves of a write (a torn
//! write), after the write but before `fsync`, after `fsync`. The torture
//! harness first runs a workload to completion to count the kill points it
//! passes, then re-runs it once per point with the process armed to die
//! there, and asserts recovery lands byte-identically on the pre- or
//! post-write state.
//!
//! Every point belongs to one of the [`SITES`]. Arming is purely
//! environmental, so the instrumentation is always compiled (two relaxed
//! atomic increments and one `OnceLock` read when disarmed) and production
//! binaries are unaffected:
//!
//! * `LCDB_KILL_AT=n` — exit at the `n`-th kill point hit, any site;
//! * `LCDB_KILL_SITE=site:n` — exit at the `n`-th hit of `site`.
//!
//! The process exits with [`KILL_EXIT_CODE`] via `std::process::exit`, which
//! runs no destructors and flushes no buffers — writes already issued stay,
//! writes not yet issued are lost, exactly the torn states recovery must
//! handle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Exit code used when a kill point fires, distinguishable from every exit
/// code the CLI uses.
pub const KILL_EXIT_CODE: i32 = 86;

/// Every kill site: a record append (before / torn / unsynced / after), a
/// compaction copy (before / torn / written; one fsync covers the copies),
/// an index checkpoint (before / image synced / renamed) and a segment
/// delete (before / after).
pub const SITES: [&str; 4] = [
    "store.append",
    "store.compact",
    "store.checkpoint",
    "store.segment_delete",
];

static HITS: AtomicU64 = AtomicU64::new(0);
static SITE_HITS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

enum Mode {
    Off,
    At(u64),
    Site { site: String, nth: u64 },
}

fn mode() -> &'static Mode {
    static MODE: OnceLock<Mode> = OnceLock::new();
    MODE.get_or_init(|| {
        if let Ok(v) = std::env::var("LCDB_KILL_AT") {
            if let Ok(n) = v.trim().parse::<u64>() {
                if n > 0 {
                    return Mode::At(n);
                }
            }
        }
        if let Ok(v) = std::env::var("LCDB_KILL_SITE") {
            if let Some((site, nth)) = v.rsplit_once(':') {
                if let Ok(n) = nth.trim().parse::<u64>() {
                    if n > 0 && !site.is_empty() {
                        return Mode::Site {
                            site: site.to_string(),
                            nth: n,
                        };
                    }
                }
            }
        }
        Mode::Off
    })
}

/// Record passing a kill point of `site` (one of [`SITES`]); exit the
/// process here if armed to.
pub fn point(site: &str) {
    let n = HITS.fetch_add(1, Ordering::Relaxed) + 1;
    let nth_here = SITES
        .iter()
        .position(|s| *s == site)
        .map(|i| SITE_HITS[i].fetch_add(1, Ordering::Relaxed) + 1);
    match mode() {
        Mode::Off => {}
        Mode::At(k) => {
            if n == *k {
                die(site, n);
            }
        }
        Mode::Site { site: want, nth } => {
            if site == want && nth_here == Some(*nth) {
                die(site, *nth);
            }
        }
    }
}

/// Exit at an armed kill point. The process-global flight recorder, if one
/// is installed, is dumped first — `std::process::exit` runs no destructors,
/// so this is the black box's only chance to reach disk. The dump itself is
/// ordinary buffered-then-written I/O and cannot re-enter the store.
fn die(site: &str, hit: u64) -> ! {
    let _ = lcdb_trace::recorder::dump_now(&format!("kill:{site} hit={hit}"));
    std::process::exit(KILL_EXIT_CODE);
}

/// Total kill points passed by this process so far.
pub fn hits() -> u64 {
    HITS.load(Ordering::Relaxed)
}

/// Kill points passed so far at each of [`SITES`], in that order.
pub fn site_hits() -> [(&'static str, u64); 4] {
    std::array::from_fn(|i| (SITES[i], SITE_HITS[i].load(Ordering::Relaxed)))
}
