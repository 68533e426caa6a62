//! The TCP front end: binds, spawns the event reactor and the reload
//! thread, and exposes the service lifecycle (start / trigger_shutdown /
//! wait).
//!
//! All connection handling lives in the private `reactor` module: one nonblocking
//! event loop serves every connection (idle connections cost zero
//! wakeups), speaking line-JSON or the binary frame protocol per
//! connection as negotiated on its first bytes. One reload
//! thread runs every registry reload pass, one at a time: each `reload`
//! verb's and, with [`ServerConfig::reload_poll`], a polling one.
//! Shutdown is graceful: the `shutdown` verb (or
//! [`Server::trigger_shutdown`]) wakes the reactor through the poller's
//! wakeup fd — not by connecting to the server's own address, which
//! never worked on `0.0.0.0` binds — stops accepting, answers and
//! flushes every in-flight request, closes every connection, then joins
//! the reload thread and drains and joins the scheduler.

use crate::error::ServeError;
use crate::protocol::ModelInfo;
use crate::reactor::{Notify, Reactor, ReloadJob};
use crate::registry::{ModelRegistry, Precision, PRECISIONS};
use crate::scheduler::{Scheduler, SchedulerConfig};
use ringcnn_trace::{rc_info, rc_warn};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
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
    /// When set, the server's reload thread also runs a registry
    /// [`ModelRegistry::reload_pass`] whenever this long passes without a
    /// `reload` verb, hot-reloading changed or added model files without
    /// a client having to ask. `None` (the default) disables polling;
    /// `reload` still works on demand, on the same thread.
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

/// A running server. Dropping the handle does NOT stop it — call
/// [`Server::shutdown`] (or let a client send the `shutdown` verb and
/// then [`Server::wait`]).
pub struct Server {
    shared: Arc<ServerShared>,
    notify: Arc<Notify>,
    reactor_thread: JoinHandle<()>,
    reload_thread: JoinHandle<()>,
}

impl Server {
    /// Binds and starts serving `registry` with `cfg`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound (or the
    /// poller cannot be created); [`ServeError::Internal`] when the
    /// reload or the reactor thread cannot be spawned — in that case
    /// nothing is left running and the address is released.
    pub fn start(registry: Arc<ModelRegistry>, cfg: ServerConfig) -> Result<Server, ServeError> {
        Self::start_impl(registry, cfg, |name, body| {
            std::thread::Builder::new().name(name.into()).spawn(body)
        })
    }

    /// [`Server::start`] with an injectable spawner for every thread it
    /// starts (a name and a body), so each spawn-failure path (thread
    /// exhaustion) is testable.
    fn start_impl(
        registry: Arc<ModelRegistry>,
        cfg: ServerConfig,
        mut spawner: impl FnMut(&str, Box<dyn FnOnce() + Send>) -> io::Result<JoinHandle<()>>,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            scheduler: Scheduler::start(registry, cfg.scheduler)?,
            shutdown: AtomicBool::new(false),
            addr,
        });
        let (reload_tx, reload_rx) = mpsc::channel();
        let max_frame = cfg.max_frame_bytes.max(1);
        let reactor = match Reactor::new(listener, shared.clone(), max_frame, reload_tx) {
            Ok(r) => r,
            Err(e) => {
                shared.scheduler.shutdown();
                return Err(ServeError::Io(format!("cannot create poller: {e}")));
            }
        };
        let notify = reactor.notify();
        let mut spawn = |name: &str, body: Box<dyn FnOnce() + Send>| {
            spawner(name, body).map_err(|e| {
                // No half-started server survives a failed spawn: stop
                // the scheduler workers too.
                shared.scheduler.shutdown();
                ServeError::Internal(format!("cannot spawn {name} thread for {addr}: {e}"))
            })
        };
        // The reload thread first: it returns once the reactor's sender
        // is dropped, so a failed reactor spawn below stops it too. If it
        // cannot spawn, returning drops the reactor and its listener.
        let runner_shared = shared.clone();
        let reload_thread = spawn(
            "serve-reload",
            Box::new(move || run_reloads(&runner_shared, &reload_rx, cfg.reload_poll)),
        )?;
        // A failed spawn drops the reactor, and with it the listener and
        // the channel's one sender.
        let reactor_thread = match spawn("serve-reactor", Box::new(move || reactor.run())) {
            Ok(handle) => handle,
            Err(e) => {
                let _ = reload_thread.join();
                return Err(e);
            }
        };
        Ok(Server {
            shared,
            notify,
            reactor_thread,
            reload_thread,
        })
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

    /// Blocks until the server has fully stopped: reactor joined (every
    /// connection answered, flushed, and closed), then the reload thread
    /// (it returns once the reactor has dropped its sender), then the
    /// scheduler drained and joined.
    pub fn wait(self) {
        let _ = self.reactor_thread.join();
        let _ = self.reload_thread.join();
        self.shared.scheduler.shutdown();
    }

    /// [`Server::trigger_shutdown`] + [`Server::wait`].
    pub fn shutdown(self) {
        self.trigger_shutdown();
        self.wait();
    }
}

/// The server's one reload thread: runs a registry
/// [`ModelRegistry::reload_pass`] for every `reload` verb the reactor
/// sends down `jobs`, one at a time, and hands the job the result. With
/// `poll`, a wait that times out runs a pass too. A failed polling pass
/// (a torn write being raced, transient I/O) is retried next interval —
/// the registry's content fingerprints only advance on success, so
/// nothing is lost. It is logged at `warn` when its error is new, and
/// the first pass that succeeds after it at `info`: a file that stays
/// broken logs once, not every interval. Returns once the reactor has
/// dropped the channel's sender.
fn run_reloads(shared: &ServerShared, jobs: &Receiver<ReloadJob>, poll: Option<Duration>) {
    // The error of the failing polling pass last logged.
    let mut failing: Option<String> = None;
    loop {
        let next = match poll {
            Some(interval) => jobs.recv_timeout(interval),
            None => jobs.recv().map_err(RecvTimeoutError::from),
        };
        let job = match next {
            Ok(job) => Some(job),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let result = shared.scheduler.registry().reload_pass();
        if result.is_ok() && failing.take().is_some() {
            rc_info!("reload-watch", "pass succeeded again");
        }
        match (job, result) {
            (Some(reply), result) => reply(result),
            (None, Ok(report)) if !report.is_noop() => rc_info!(
                "reload-watch",
                "reloaded models",
                reloaded = format!("{:?}", report.reloaded),
                added = format!("{:?}", report.added),
                unchanged = report.unchanged,
            ),
            (None, Ok(_)) => {}
            (None, Err(e)) => {
                let error = e.to_string();
                if failing.as_ref() != Some(&error) {
                    rc_warn!("reload-watch", "pass failed (will retry)", error = &error);
                    failing = Some(error);
                }
            }
        }
    }
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
        // The name of every thread a successful start spawns.
        let mut names = Vec::new();
        let server = Server::start_impl(registry(), ServerConfig::default(), |name, body| {
            names.push(name.to_string());
            std::thread::Builder::new().name(name.into()).spawn(body)
        })
        .expect("start");
        server.shutdown();
        assert_eq!(names.len(), 2, "a reload and a reactor thread: {names:?}");
        for failing in &names {
            // One clone per thread the start below spawned that has not
            // ended; each lingers after its body, so only a join by
            // `start` sees it end before `start` returns.
            let alive = Arc::new(());
            let cfg = ServerConfig {
                reload_poll: Some(Duration::from_millis(1)),
                ..ServerConfig::default()
            };
            let started = Server::start_impl(registry(), cfg, |name, body| {
                if name == failing {
                    drop(body); // What a real failed spawn does with the closure.
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "Resource temporarily unavailable",
                    ));
                }
                let alive = alive.clone();
                std::thread::Builder::new()
                    .name(name.into())
                    .spawn(move || {
                        let _alive = alive;
                        body();
                        std::thread::sleep(Duration::from_millis(20));
                    })
            });
            let err = match started {
                Err(e) => e,
                Ok(_) => panic!("start must fail when `{failing}` cannot spawn"),
            };
            assert_eq!(err.code(), "internal", "{err}");
            let msg = err.to_string();
            assert!(msg.contains(failing.as_str()), "`{msg}` names `{failing}`");
            let outlived = Arc::strong_count(&alive) - 1;
            assert_eq!(outlived, 0, "`{failing}`: threads that outlived start");
            // The message names the address that was bound; that address
            // must be rebindable — no leaked listener, no leaked reactor.
            // "… for 127.0.0.1:PORT: Resource temporarily unavailable"
            let addr: SocketAddr = msg
                .split("for ")
                .nth(1)
                .and_then(|rest| rest.split(": ").next())
                .and_then(|a| a.parse().ok())
                .unwrap_or_else(|| panic!("no addr in `{msg}`"));
            let rebound = TcpListener::bind(addr);
            assert!(
                rebound.is_ok(),
                "`{failing}`: address {addr} still bound after failed start: {rebound:?}"
            );
        }
    }
}
