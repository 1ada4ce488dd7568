//! Minimal SIGTERM latch for the serve daemon.
//!
//! The approved dependency set has no `libc`/`signal-hook` crate, so the
//! one POSIX call the daemon needs — `signal(SIGTERM, handler)` — is
//! declared here directly, mirroring the private `sys` module's approach for
//! epoll. The handler only sets a process-global atomic flag (the
//! strictest async-signal-safe discipline), which the daemon's
//! foreground loop polls alongside stdin. This unifies the two shutdown
//! paths: `kill -TERM` and stdin EOF both funnel into the same graceful
//! drain.
//!
//! Non-Unix targets get a stub that never fires; stdin EOF remains the
//! only shutdown trigger there.

#![allow(unsafe_code)] // scoped: one extern decl + one signal(2) call

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the SIGTERM handler; polled by [`term_requested`].
static TERM_FLAG: AtomicBool = AtomicBool::new(false);

/// Latch SIGTERM into a flag readable via [`term_requested`]. Safe to
/// call more than once; later calls re-install the same handler.
/// Returns `false` when the handler could not be installed (or the
/// platform has no signals) — callers should fall back to stdin-only
/// lifecycle control.
pub fn install_term_handler() -> bool {
    #[cfg(unix)]
    {
        const SIGTERM: std::ffi::c_int = 15;
        const SIG_ERR: usize = usize::MAX;
        extern "C" fn on_term(_sig: std::ffi::c_int) {
            TERM_FLAG.store(true, Ordering::Release);
        }
        extern "C" {
            // POSIX signal(2). glibc gives BSD semantics (the handler
            // stays installed, syscalls restart) — exactly why the
            // daemon polls the flag instead of expecting EINTR.
            fn signal(signum: std::ffi::c_int, handler: extern "C" fn(std::ffi::c_int)) -> usize;
        }
        // SAFETY: `on_term` is async-signal-safe (a single relaxed-or-
        // stronger atomic store, no allocation, no locks) and has the
        // exact `extern "C" fn(c_int)` ABI signal(2) expects.
        let prev = unsafe { signal(SIGTERM, on_term) };
        prev != SIG_ERR
    }
    #[cfg(not(unix))]
    {
        false
    }
}

/// Whether a SIGTERM has been delivered since the handler was installed.
pub fn term_requested() -> bool {
    TERM_FLAG.load(Ordering::Acquire)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn sigterm_sets_the_flag() {
        assert!(install_term_handler(), "handler must install");
        assert!(!term_requested());
        // Deliver SIGTERM to ourselves through the real kernel path.
        // SAFETY: raise(3) via kill(2) on our own pid; the installed
        // handler only flips an atomic.
        extern "C" {
            fn kill(pid: i32, sig: std::ffi::c_int) -> std::ffi::c_int;
            fn getpid() -> i32;
        }
        let rc = unsafe { kill(getpid(), 15) };
        assert_eq!(rc, 0, "kill(self, SIGTERM) failed");
        // Signal delivery to the same thread is synchronous on return
        // from the syscall, but give the flag a moment regardless.
        for _ in 0..100 {
            if term_requested() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("SIGTERM never set the flag");
    }
}
