//! The TCP front end: binds, spawns the event reactor, and exposes
//! the service lifecycle (start / trigger_shutdown / wait).
//!
//! All connection handling lives in the private `reactor` module: one nonblocking
//! event loop serves every connection (idle connections cost zero
//! wakeups), speaking line-JSON or the binary frame protocol per
//! connection as negotiated on its first bytes. Shutdown is graceful:
//! the `shutdown` verb (or [`Server::trigger_shutdown`]) wakes the
//! reactor through the poller's wakeup fd — not by connecting to the
//! server's own address, which never worked on `0.0.0.0` binds — stops
//! accepting, answers and flushes every in-flight request, closes every
//! connection, then drains and joins the scheduler.

use crate::error::ServeError;
use crate::lock_unpoisoned;
use crate::protocol::ModelInfo;
use crate::reactor::{Notify, Reactor};
use crate::registry::{ModelRegistry, Precision, PRECISIONS};
use crate::scheduler::{Scheduler, SchedulerConfig};
use ringcnn_trace::{rc_info, rc_warn};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Default longest accepted request (16 MiB ≈ a 2-megapixel float frame
/// in JSON; the same cap applies to one binary frame body). Longer
/// requests are refused as `bad_request`, so a garbage client cannot
/// balloon server memory. Override via [`ServerConfig::max_frame_bytes`].
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7841` (`:0` = ephemeral port).
    pub addr: String,
    /// Scheduler knobs.
    pub scheduler: SchedulerConfig,
    /// Longest accepted request: one JSON line, or one binary frame
    /// body. Defaults to [`MAX_LINE_BYTES`].
    pub max_frame_bytes: usize,
    /// When set, a watcher thread runs a registry
    /// [`ModelRegistry::reload_pass`] at this interval, hot-reloading
    /// changed or added model files without a client having to send the
    /// `reload` verb. `None` (the default) disables polling; `reload`
    /// still works on demand.
    pub reload_poll: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig::default(),
            max_frame_bytes: MAX_LINE_BYTES,
            reload_poll: None,
        }
    }
}

pub(crate) struct ServerShared {
    pub(crate) scheduler: Scheduler,
    pub(crate) shutdown: AtomicBool,
    pub(crate) addr: SocketAddr,
}

impl ServerShared {
    pub(crate) fn model_infos(&self) -> Vec<ModelInfo> {
        self.scheduler
            .registry()
            .entries()
            .iter()
            .map(|e| {
                let topo = e.topo();
                let precisions = PRECISIONS
                    .iter()
                    .filter(|p| p.0 == Precision::Fp64 || e.has_quant());
                let precisions = precisions.map(|p| p.1.to_string()).collect();
                ModelInfo {
                    name: e.name().into(),
                    arch: e.spec().label(),
                    algebra: e.algebra().label(),
                    backend: e.algebra().algebra().conv_backend().label().into(),
                    radius: topo.radius,
                    granularity: topo.granularity,
                    scale: topo.scale,
                    params: e.num_params(),
                    channels_io: e.spec().channels_io(),
                    precisions,
                    quant_psnr: e.quant_psnr(),
                    version: e.version(),
                }
            })
            .collect()
    }
}

/// Stop signal for the reload watcher thread: flag + condvar so
/// shutdown interrupts the poll sleep immediately.
struct WatcherStop {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// A running server. Dropping the handle does NOT stop it — call
/// [`Server::shutdown`] (or let a client send the `shutdown` verb and
/// then [`Server::wait`]).
pub struct Server {
    shared: Arc<ServerShared>,
    notify: Arc<Notify>,
    reactor_thread: Option<std::thread::JoinHandle<()>>,
    watcher_stop: Option<Arc<WatcherStop>>,
    watcher_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `registry` with `cfg`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound (or the
    /// poller cannot be created); [`ServeError::Internal`] when the
    /// reactor thread cannot be spawned — in that case nothing is left
    /// running and the address is released.
    pub fn start(registry: Arc<ModelRegistry>, cfg: ServerConfig) -> Result<Server, ServeError> {
        Self::start_impl(registry, cfg, |reactor| {
            std::thread::Builder::new()
                .name("serve-reactor".into())
                .spawn(move || reactor.run())
        })
    }

    /// [`Server::start`] with an injectable reactor-thread spawner, so
    /// the spawn-failure path (thread exhaustion) is testable.
    fn start_impl(
        registry: Arc<ModelRegistry>,
        cfg: ServerConfig,
        spawner: impl FnOnce(Reactor) -> io::Result<std::thread::JoinHandle<()>>,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            scheduler: Scheduler::start(registry, cfg.scheduler)?,
            shutdown: AtomicBool::new(false),
            addr,
        });
        let reactor = match Reactor::new(listener, shared.clone(), cfg.max_frame_bytes.max(1)) {
            Ok(r) => r,
            Err(e) => {
                shared.scheduler.shutdown();
                return Err(ServeError::Io(format!("cannot create poller: {e}")));
            }
        };
        let notify = reactor.notify();
        match spawner(reactor) {
            Ok(handle) => {
                let (watcher_stop, watcher_thread) = match cfg.reload_poll {
                    Some(interval) => {
                        let stop = Arc::new(WatcherStop {
                            stopped: Mutex::new(false),
                            cv: Condvar::new(),
                        });
                        let thread = spawn_reload_watcher(shared.clone(), stop.clone(), interval);
                        (Some(stop), thread)
                    }
                    None => (None, None),
                };
                Ok(Server {
                    shared,
                    notify,
                    reactor_thread: Some(handle),
                    watcher_stop,
                    watcher_thread,
                })
            }
            Err(e) => {
                // The failed spawn dropped the reactor — and with it the
                // bound listener — so the address is already released.
                // Stop the scheduler workers too: no half-started server
                // survives this path.
                shared.scheduler.shutdown();
                Err(ServeError::Internal(format!(
                    "cannot spawn reactor thread for {addr}: {e}"
                )))
            }
        }
    }

    /// The bound address (useful with an ephemeral `:0` port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The scheduler (for in-process submission alongside TCP clients).
    pub fn scheduler(&self) -> &Scheduler {
        &self.shared.scheduler
    }

    /// Flips the shutdown flag and wakes the reactor through the poller
    /// wakeup fd (works on any bind address, including `0.0.0.0`).
    /// Returns immediately; pair with [`Server::wait`].
    pub fn trigger_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.notify.wake();
    }

    /// Blocks until the server has fully stopped: reload watcher (if
    /// any) and reactor joined (every connection answered, flushed, and
    /// closed), scheduler drained and joined.
    pub fn wait(mut self) {
        if let Some(stop) = self.watcher_stop.take() {
            *lock_unpoisoned(stop.stopped.lock()) = true;
            stop.cv.notify_all();
        }
        if let Some(h) = self.watcher_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reactor_thread.take() {
            let _ = h.join();
        }
        self.shared.scheduler.shutdown();
    }

    /// [`Server::trigger_shutdown`] + [`Server::wait`].
    pub fn shutdown(self) {
        self.trigger_shutdown();
        self.wait();
    }
}

/// The polling hot-reload watcher: sleep on the stop condvar for one
/// interval, run a reload pass, repeat. A failed pass (torn write being
/// raced, transient I/O) is logged at `warn` and retried next
/// interval — the registry's content fingerprints only advance on
/// success, so nothing is lost.
fn spawn_reload_watcher(
    shared: Arc<ServerShared>,
    stop: Arc<WatcherStop>,
    interval: Duration,
) -> Option<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("serve-reload-watch".into())
        .spawn(move || loop {
            {
                let mut stopped = lock_unpoisoned(stop.stopped.lock());
                while !*stopped {
                    let (guard, timeout) = lock_unpoisoned(stop.cv.wait_timeout(stopped, interval));
                    stopped = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
                if *stopped {
                    return;
                }
            }
            match shared.scheduler.registry().reload_pass() {
                Ok(report) if !report.is_noop() => {
                    rc_info!(
                        "reload-watch",
                        "reloaded models",
                        reloaded = format!("{:?}", report.reloaded),
                        added = format!("{:?}", report.added),
                        unchanged = report.unchanged,
                    );
                }
                Ok(_) => {}
                Err(e) => rc_warn!(
                    "reload-watch",
                    "pass failed (will retry)",
                    error = e.to_string()
                ),
            }
        })
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_nn::prelude::*;
    use ringcnn_nn::serialize::{AlgebraSpec, ModelSpec};

    fn registry() -> Arc<ModelRegistry> {
        let alg = Algebra::real();
        let spec = ModelSpec::Vdsr {
            depth: 2,
            width: 8,
            channels_io: 1,
        };
        let reg = ModelRegistry::new();
        reg.register("m", spec, AlgebraSpec::of(&alg), spec.build(&alg, 7))
            .unwrap();
        Arc::new(reg)
    }

    #[test]
    fn spawn_failure_is_internal_error_and_releases_the_listener() {
        let err = match Server::start_impl(registry(), ServerConfig::default(), |reactor| {
            drop(reactor); // What a real failed spawn does with the closure.
            Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "Resource temporarily unavailable",
            ))
        }) {
            Err(e) => e,
            Ok(_) => panic!("start must fail when the reactor thread cannot spawn"),
        };
        assert_eq!(err.code(), "internal", "{err}");
        // The message names the address that was bound; that address
        // must be rebindable — no leaked listener, no leaked reactor.
        // "… for 127.0.0.1:PORT: Resource temporarily unavailable"
        let msg = err.to_string();
        let addr: SocketAddr = msg
            .split("for ")
            .nth(1)
            .and_then(|rest| rest.split(": ").next())
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("no addr in `{msg}`"));
        let rebound = TcpListener::bind(addr);
        assert!(
            rebound.is_ok(),
            "address {addr} still bound after failed start: {rebound:?}"
        );
    }
}
