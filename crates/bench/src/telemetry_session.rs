//! Session-wide telemetry opt-in (the `--telemetry DIR` flag).
//!
//! Rather than thread a directory through every experiment function, the
//! CLI registers one session directory here and each
//! [`Sweep`](crate::Sweep) that was not given an explicit telemetry
//! destination claims the next numbered subdirectory (`sweep000`,
//! `sweep001`, ...). Sweeps execute in program order (one per scenario
//! target), so the numbering — and therefore the whole output tree — is
//! identical across reruns and worker counts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

static SESSION_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static SWEEP_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// Enable session telemetry: every subsequent sweep without its own
/// [`Sweep::telemetry`](crate::Sweep::telemetry) destination writes into
/// a numbered subdirectory of `dir`. Also resets the numbering.
pub fn set_session_dir(dir: impl Into<PathBuf>) {
    *SESSION_DIR.lock().expect("session dir lock") = Some(dir.into());
    SWEEP_COUNTER.store(0, Ordering::Relaxed);
}

/// The registered session directory, if any.
fn session_dir() -> Option<PathBuf> {
    SESSION_DIR.lock().expect("session dir lock").clone()
}

/// Claim the next numbered sweep output directory, if a session
/// directory is registered.
pub(crate) fn next_sweep_dir() -> Option<PathBuf> {
    let dir = session_dir()?;
    let n = SWEEP_COUNTER.fetch_add(1, Ordering::Relaxed);
    Some(dir.join(format!("sweep{n:03}")))
}
