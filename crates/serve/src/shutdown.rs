//! Graceful-shutdown signal hookup, libc-free.
//!
//! The workspace's zero-dependency rule means no `signal-hook` or `libc`
//! crate, so SIGTERM is wired up with a two-line FFI declaration of
//! `signal(2)` and a handler that does the only thing an async-signal-safe
//! handler may do here: one relaxed atomic store. The serving loops poll
//! the flag (see [`crate::ServeOpts::shutdown`]) — on a TCP daemon the
//! 100 ms read-timeout tick picks it up promptly; a stdio session notices
//! at its next line boundary or EOF (blocking `read(2)` on a regular pipe
//! restarts after the handler runs, so a signal alone does not interrupt
//! it — closing stdin does).

use std::sync::atomic::{AtomicBool, Ordering};

static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    // Async-signal-safe by construction: a single atomic store, no
    // allocation, no locks, no formatting.
    TERM.store(true, Ordering::Relaxed);
}

/// Install a SIGTERM handler that flips (and returns) the process-wide
/// drain flag. Idempotent; on non-unix targets it installs nothing and
/// returns the (never-set) flag so callers stay portable.
pub fn install_sigterm() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
        }
    }
    &TERM
}

/// The drain flag itself, for callers that want to poll without
/// (re)installing the handler.
pub fn term_flag() -> &'static AtomicBool {
    &TERM
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn sigterm_flips_the_flag() {
        let flag = install_sigterm();
        assert!(!flag.load(Ordering::Relaxed));
        extern "C" {
            fn raise(sig: i32) -> i32;
        }
        // `raise` signals the calling thread and returns only after the
        // handler ran. `kill(getpid())` would let the kernel pick any test
        // thread, whose handler can run after this thread checks the flag.
        // SAFETY: raise(2) reads only its integer argument; the SIGTERM
        // handler installed above does one atomic store.
        unsafe {
            assert_eq!(raise(15), 0);
        }
        assert!(flag.load(Ordering::Relaxed));
        // Reset for any other test that inspects the flag.
        flag.store(false, Ordering::Relaxed);
    }
}
