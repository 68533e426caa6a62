//! OS readiness polling for the serve reactor: a thin, dependency-free
//! wrapper over `epoll(7)` with a built-in wakeup channel.
//!
//! The implementation issues raw `epoll_create1` / `epoll_ctl` /
//! `epoll_wait` / `eventfd` syscalls through `extern "C"` declarations
//! (std already links libc; no crates.io needed), so the crate is
//! Linux-only. Readiness is strictly a hint: the reactor performs only
//! nonblocking I/O, so a spurious event is harmless.
//!
//! The wakeup channel ([`Poller::waker`]) is what lets another thread —
//! a scheduler worker finishing an inference, or
//! [`Server::trigger_shutdown`] — interrupt a blocked [`Poller::wait`]
//! without connecting to the server's own socket.
//!
//! [`Server::trigger_shutdown`]: crate::server::Server::trigger_shutdown

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or peer hung up / errored — a read will tell).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// Registration mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Level-triggered: fires while readiness persists (used for the
    /// listener so an `accept` error under fd exhaustion self-heals on
    /// the next wait instead of stalling forever).
    Level,
    /// Edge-triggered: fires on readiness transitions (used for
    /// connections; the reactor always reads/writes to `WouldBlock`).
    Edge,
}

#[cfg(not(target_os = "linux"))]
compile_error!("ringcnn-serve polls with epoll(7) and eventfd(2): it builds on Linux only");

// The one unsafe island in the crate (raw epoll/eventfd syscalls);
// every site carries a SAFETY rationale checked by ringcnn-lint.
#[allow(unsafe_code)]
mod epoll;

pub use epoll::{Poller, Waker};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn selected_poller_reports_readable() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 42, Mode::Edge).unwrap();
        a.write_all(b"x").unwrap();
        a.flush().unwrap();
        let mut events = Vec::new();
        // Bounded retries: the loopback byte can take a moment to land.
        for _ in 0..100 {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 42 && e.readable) {
                poller.deregister(b.as_raw_fd()).unwrap();
                return;
            }
        }
        panic!("no readable event for the written byte");
    }

    #[test]
    fn selected_poller_waker_unblocks() {
        let poller = Poller::new().unwrap();
        let waker = poller.waker();
        let started = std::time::Instant::now();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        // A 10 s timeout that the waker must cut short.
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "wake must interrupt the wait"
        );
        t.join().unwrap();
    }
}
