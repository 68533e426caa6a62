//! The event-driven connection core: one thread, one [`Poller`], every
//! connection nonblocking.
//!
//! # Why a reactor
//!
//! The old front end spent a thread per connection and woke each one on
//! a 100 ms tick just to check the shutdown flag — hundreds of idle
//! connections meant thousands of pointless wakeups per second, which
//! is exactly the energy-per-frame budget this project exists to
//! protect. The reactor blocks in one `epoll_wait` with **no timeout**:
//! zero wakeups while idle, and shutdown (or an inference completing on
//! a scheduler worker) interrupts it through the poller's wakeup fd —
//! the old "connect to our own address" poke, which silently failed on
//! `0.0.0.0` binds, is gone.
//!
//! # Threading contract
//!
//! Only the reactor thread touches sockets. Scheduler workers complete
//! an `infer` by *serializing the response themselves* (JSON or binary,
//! whatever the connection negotiated), appending the bytes to the
//! connection's shared output buffer, and nudging the reactor through
//! [`Notify`] — so the expensive part of a response (float formatting /
//! tile framing) lands on the worker that already holds the result hot
//! in cache, never on the single reactor thread.
//!
//! # Ordering
//!
//! A connection processes requests strictly in order: while an `infer`
//! is in flight (`busy`), later requests stay buffered — bytes are
//! still drained off the socket (edge-triggered readiness is only
//! reported once), but nothing is parsed or answered until the
//! completion lands. This preserves the per-connection sequential
//! semantics of the thread-per-connection server, which is what keeps
//! responses matched to requests without per-request IDs.

use crate::error::ServeError;
use crate::frame;
use crate::lock_unpoisoned;
use crate::poll::{Event, Mode, Poller, Waker};
use crate::protocol::{find_newline, HealthReply, Request, Response, Wire};
use crate::registry::ReloadReport;
use crate::scheduler::Done;
use crate::server::ServerShared;
use ringcnn_trace::span;
use ringcnn_trace::{clock, rc_debug};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{SendError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The listener's poll token; connections count up from
/// [`FIRST_CONN_TOKEN`].
const LISTENER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Read chunk size (matches the old per-connection buffer).
const READ_CHUNK: usize = 16 * 1024;

/// The channel scheduler workers (and [`Server::trigger_shutdown`]) use
/// to nudge the reactor: completion tokens plus the poller's waker.
///
/// [`Server::trigger_shutdown`]: crate::server::Server::trigger_shutdown
pub(crate) struct Notify {
    completions: Mutex<Vec<u64>>,
    waker: Waker,
}

impl Notify {
    fn completed(&self, token: u64) {
        lock_unpoisoned(self.completions.lock()).push(token);
        self.waker.wake();
    }

    /// Interrupts the reactor's wait (it re-reads the shutdown flag).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }
}

/// A `reload` verb's reply, sent to the server's reload thread, which
/// calls it with the result of the pass it ran for the verb.
pub(crate) type ReloadJob = Box<dyn FnOnce(Result<ReloadReport, ServeError>) + Send>;

/// What the connection has negotiated so far.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnWire {
    /// Waiting for the first bytes to pick a protocol.
    Negotiating,
    /// Protocol selected.
    Ready(Wire),
}

/// Output state shared between the reactor and completion callbacks.
struct OutState {
    /// Pending response bytes; `[pos..]` is unwritten.
    buf: Vec<u8>,
    pos: usize,
    /// An `infer` is in flight: buffer later requests, answer nothing.
    busy: bool,
    /// Close once `buf` is flushed and no `infer` is in flight.
    close_after_flush: bool,
}

struct Conn {
    stream: TcpStream,
    token: u64,
    wire: ConnWire,
    inbuf: Vec<u8>,
    /// How much of `inbuf` is known to hold no newline (JSON wire).
    scanned: usize,
    /// EOF (or poisoned input) — stop reading, finish writing, close.
    read_closed: bool,
    out: Arc<Mutex<OutState>>,
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Conn {
        Conn {
            stream,
            token,
            wire: ConnWire::Negotiating,
            inbuf: Vec::new(),
            scanned: 0,
            read_closed: false,
            out: Arc::new(Mutex::new(OutState {
                buf: Vec::new(),
                pos: 0,
                busy: false,
                close_after_flush: false,
            })),
        }
    }
}

/// Serializes `resp` onto `buf` in the connection's negotiated protocol.
fn encode_into(resp: &Response, wire: Wire, buf: &mut Vec<u8>) {
    match wire {
        Wire::Json => {
            resp.append_json(buf);
            buf.push(b'\n');
        }
        Wire::Binary => frame::encode_response(resp, buf),
    }
}

/// The event loop state. Built on the caller's thread (so bind and
/// poller errors surface from [`Server::start`]), then moved into the
/// reactor thread and [`Reactor::run`].
///
/// [`Server::start`]: crate::server::Server::start
pub(crate) struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    shared: Arc<ServerShared>,
    notify: Arc<Notify>,
    /// The only sender to the reload thread: dropping the reactor when
    /// [`Reactor::run`] returns is what stops that thread.
    reload: Sender<ReloadJob>,
    max_frame: usize,
}

impl Reactor {
    pub(crate) fn new(
        listener: TcpListener,
        shared: Arc<ServerShared>,
        max_frame: usize,
        reload: Sender<ReloadJob>,
    ) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        listener.set_nonblocking(true)?;
        // Level-triggered on purpose: if `accept` fails under fd
        // exhaustion, the pending connection keeps the listener readable
        // and the next wait retries — an edge would be consumed and the
        // acceptor would stall until the *next* connection arrived.
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Mode::Level)?;
        let notify = Arc::new(Notify {
            completions: Mutex::new(Vec::new()),
            waker: poller.waker(),
        });
        Ok(Reactor {
            poller,
            listener: Some(listener),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            shared,
            notify,
            reload,
            max_frame,
        })
    }

    /// The notification handle (clone before moving the reactor into its
    /// thread).
    pub(crate) fn notify(&self) -> Arc<Notify> {
        self.notify.clone()
    }

    /// Runs until shutdown completes: listener closed, every connection
    /// answered, flushed, and closed.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                if let Some(listener) = self.listener.take() {
                    let _ = self.poller.deregister(listener.as_raw_fd());
                }
                for conn in self.conns.values_mut() {
                    lock_unpoisoned(conn.out.lock()).close_after_flush = true;
                }
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    self.service_conn(token);
                }
                if self.conns.is_empty() {
                    return;
                }
                // Busy/unflushed connections remain: wait for their
                // completions (which wake us) below.
            }
            // No timeout: a wake (completion, shutdown) interrupts, and
            // wakes issued before this call are not lost (the eventfd
            // counter / woken flag persists).
            if self.poller.wait(&mut events, None).is_err() {
                // The poller itself failed — nothing event-driven can
                // continue; drop everything (closing the sockets).
                return;
            }
            // Indexed (`Event` is `Copy`): the handlers need `&mut self`
            // while `events` stays allocated across iterations.
            for i in 0..events.len() {
                let ev = events[i];
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else if ev.readable {
                    self.handle_readable(ev.token);
                } else if ev.writable {
                    self.service_conn(ev.token);
                }
            }
            let done: Vec<u64> =
                std::mem::take(&mut *lock_unpoisoned(self.notify.completions.lock()));
            for token in done {
                self.service_conn(token);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE and friends: the listener stays readable
                    // (level-triggered), so back off briefly instead of
                    // spinning the wait loop at 100% CPU.
                    // lint:allow(no-sleep): deliberate fd-exhaustion
                    // backoff — 10 ms of accept latency beats a
                    // busy-spinning reactor when the process is out of
                    // fds anyway.
                    std::thread::sleep(Duration::from_millis(10));
                    return;
                }
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(stream.as_raw_fd(), token, Mode::Edge)
                .is_err()
            {
                continue; // Dropping the stream refuses the connection.
            }
            self.conns.insert(token, Conn::new(stream, token));
            // Bytes may have landed before registration; with edge
            // triggering that edge is already spent, so probe once.
            self.handle_readable(token);
        }
    }

    /// Drains the socket into `inbuf` (edge-triggered: all the way to
    /// `WouldBlock`), then services the connection.
    fn handle_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.read_closed {
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Hard transport error: the peer is gone. A
                        // late completion finds the token missing and
                        // is dropped, like the old dead-channel send.
                        self.drop_conn(token);
                        return;
                    }
                }
            }
        }
        self.service_conn(token);
    }

    /// Parses and answers whatever `inbuf` holds, flushes output, and
    /// closes the connection once it is fully done.
    fn service_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        process_inbuf(
            conn,
            &self.shared,
            &self.notify,
            &self.reload,
            self.max_frame,
        );
        let closable = {
            let mut out = lock_unpoisoned(conn.out.lock());
            if flush_out(&mut conn.stream, &mut out).is_err() {
                drop(out);
                self.drop_conn(token);
                return;
            }
            let flushed = out.pos >= out.buf.len();
            !out.busy && flushed && (out.close_after_flush || conn.read_closed)
        };
        if closable {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
    }
}

/// Writes `out.buf[pos..]` until done or `WouldBlock`.
fn flush_out(stream: &mut TcpStream, out: &mut OutState) -> io::Result<()> {
    while out.pos < out.buf.len() {
        match stream.write(&out.buf[out.pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => out.pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    out.buf.clear();
    out.pos = 0;
    Ok(())
}

/// Appends an error response and poisons the connection: input is
/// abandoned, pending output flushes, then the socket closes.
fn poison(conn: &mut Conn, wire: Wire, err: ServeError) {
    let mut out = lock_unpoisoned(conn.out.lock());
    encode_into(&Response::Error(err), wire, &mut out.buf);
    out.close_after_flush = true;
    drop(out);
    conn.inbuf.clear();
    conn.scanned = 0;
    conn.read_closed = true;
}

/// Parses every answerable request out of `conn.inbuf`, in order,
/// stopping at incomplete input or an in-flight `infer`.
fn process_inbuf(
    conn: &mut Conn,
    shared: &Arc<ServerShared>,
    notify: &Arc<Notify>,
    reload: &Sender<ReloadJob>,
    max_frame: usize,
) {
    loop {
        if conn.read_closed && conn.inbuf.is_empty() {
            return;
        }
        let wire = match conn.wire {
            ConnWire::Ready(wire) => wire,
            ConnWire::Negotiating => match frame::negotiate(&conn.inbuf) {
                frame::Negotiation::NeedMore => return,
                frame::Negotiation::Json => {
                    conn.wire = ConnWire::Ready(Wire::Json);
                    Wire::Json
                }
                frame::Negotiation::Binary => {
                    conn.inbuf.drain(..frame::MAGIC.len() + 1);
                    conn.wire = ConnWire::Ready(Wire::Binary);
                    Wire::Binary
                }
                frame::Negotiation::BadVersion(v) => {
                    // The magic matched, so answer in the binary frame
                    // protocol the client evidently speaks.
                    poison(
                        conn,
                        Wire::Binary,
                        ServeError::BadRequest(format!(
                            "unsupported binary protocol version {v} (this server speaks {})",
                            frame::VERSION
                        )),
                    );
                    return;
                }
            },
        };
        if lock_unpoisoned(conn.out.lock()).busy {
            return; // Strictly in order: wait for the in-flight infer.
        }
        match wire {
            Wire::Json => {
                let Some(pos) = find_newline(&conn.inbuf, &mut conn.scanned) else {
                    if conn.inbuf.len() > max_frame {
                        poison(
                            conn,
                            wire,
                            ServeError::BadRequest(format!(
                                "request line exceeds {max_frame} bytes"
                            )),
                        );
                    }
                    return;
                };
                if pos > max_frame {
                    poison(
                        conn,
                        wire,
                        ServeError::BadRequest(format!("request line exceeds {max_frame} bytes")),
                    );
                    return;
                }
                // Parsed where it lies (valid UTF-8 borrows; only a line
                // with invalid bytes is copied, lossily), then drained.
                let line = String::from_utf8_lossy(&conn.inbuf[..pos]);
                let decode_start_us = clock::now_us();
                let parsed = (!line.trim().is_empty()).then(|| Request::parse(&line));
                conn.inbuf.drain(..=pos);
                conn.scanned = 0;
                let Some(parsed) = parsed else {
                    continue;
                };
                match parsed {
                    Ok(req) => dispatch(req, conn, wire, shared, notify, reload, decode_start_us),
                    // Matches the old server: a malformed line gets an
                    // error response but the connection survives (the
                    // newline resynchronizes the stream).
                    Err(e) => {
                        let mut out = lock_unpoisoned(conn.out.lock());
                        encode_into(&Response::Error(e), wire, &mut out.buf);
                    }
                }
            }
            Wire::Binary => {
                let decode_start_us = clock::now_us();
                match frame::decode_request(&conn.inbuf, max_frame) {
                    frame::DecodeStep::Incomplete => return,
                    frame::DecodeStep::Item(req, consumed) => {
                        conn.inbuf.drain(..consumed);
                        dispatch(req, conn, wire, shared, notify, reload, decode_start_us);
                    }
                    // Any refused frame — a bad length prefix (no way to
                    // resynchronize) or an intact frame with a bad
                    // payload — is answered, then the connection closes.
                    frame::DecodeStep::Fail(e) => {
                        poison(conn, wire, e);
                        return;
                    }
                }
            }
        }
    }
}

/// Answers one request: control verbs inline on the reactor thread,
/// `infer` through the scheduler with a worker-side completion, and
/// `reload` on the server's reload thread.
/// `decode_start_us` is the trace-clock stamp taken just before the
/// request was parsed off the input buffer (the `decode` span's start).
fn dispatch(
    req: Request,
    conn: &mut Conn,
    wire: Wire,
    shared: &Arc<ServerShared>,
    notify: &Arc<Notify>,
    reload: &Sender<ReloadJob>,
    decode_start_us: u64,
) {
    let resp = match req {
        Request::Infer {
            model,
            precision,
            shape,
            data,
            deadline_ms,
        } => {
            // Sampler election happens per infer request; control verbs
            // are never traced. The root span's ID is reserved here so
            // every stage can parent onto it, but the root itself is
            // recorded from the completion callback (covering decode →
            // response staged) — recording it on this thread would race
            // the worker-side tree capture and could drop the root.
            let trace = span::mint();
            let root_ctx = trace.map(span::reserve_root);
            let input = ringcnn_tensor::tensor::Tensor::from_vec(shape, data);
            if let Some(ctx) = root_ctx {
                span::record_manual(
                    ctx.trace,
                    ctx.span,
                    "decode",
                    decode_start_us,
                    clock::now_us(),
                );
            }
            lock_unpoisoned(conn.out.lock()).busy = true;
            let out = conn.out.clone();
            let notify = notify.clone();
            let token = conn.token;
            let done: Done = Box::new(move |result| {
                let traced_total = match &result {
                    Ok(r) => root_ctx.map(|ctx| (ctx, r.total_ms)),
                    Err(_) => None,
                };
                let resp = match result {
                    Ok(r) => Response::Infer {
                        shape: r.output.shape(),
                        data: r.output.as_slice().to_vec(),
                        queue_ms: r.queue_ms,
                        total_ms: r.total_ms,
                        batch_size: r.batch_size,
                    },
                    Err(e) => Response::Error(e),
                };
                // Serialize on the worker (the reactor thread never
                // formats a payload), then hand the bytes over.
                {
                    let _encode = root_ctx.map(|ctx| span::span_in(ctx, "encode"));
                    let mut out = lock_unpoisoned(out.lock());
                    encode_into(&resp, wire, &mut out.buf);
                    out.busy = false;
                }
                // The request is fully staged for the socket: close the
                // root span (decode start → now), then capture the tree
                // if it crossed the slow threshold, and log it.
                if let Some((ctx, total_ms)) = traced_total {
                    span::record_manual_id(
                        ctx.span,
                        ctx.trace,
                        0,
                        "request",
                        decode_start_us,
                        clock::now_us(),
                    );
                    if let Some(tree) = span::finish_request(ctx.trace, total_ms) {
                        rc_debug!(
                            "trace",
                            "slow request",
                            trace = ctx.trace,
                            total_ms = total_ms,
                            tree = tree.summary(),
                        );
                    }
                }
                notify.completed(token);
            });
            match shared.scheduler.submit_done(
                &model,
                input,
                precision,
                deadline_ms,
                root_ctx,
                done,
            ) {
                Ok(()) => return, // Answered asynchronously.
                Err(e) => {
                    lock_unpoisoned(conn.out.lock()).busy = false;
                    Response::Error(e)
                }
            }
        }
        Request::ListModels => Response::ListModels(shared.model_infos()),
        Request::Stats => {
            // Assembled from per-source snapshots (each lock held only
            // to copy); serialization below touches no lock at all, so a
            // slow stats consumer cannot stall admission.
            Response::Stats(shared.scheduler.stats_snapshot())
        }
        Request::Reload => {
            // A reload pass reads and parses model files — far too slow
            // for the reactor thread. The server's reload thread runs it,
            // reusing the in-flight (`busy`) machinery so this
            // connection's responses stay ordered; other connections
            // keep being serviced meanwhile.
            lock_unpoisoned(conn.out.lock()).busy = true;
            let out = conn.out.clone();
            let notify = notify.clone();
            let token = conn.token;
            let job: ReloadJob = Box::new(move |result| {
                let resp = match result {
                    Ok(report) => Response::Reload(report),
                    Err(e) => Response::Error(e),
                };
                let mut out = lock_unpoisoned(out.lock());
                encode_into(&resp, wire, &mut out.buf);
                out.busy = false;
                drop(out);
                notify.completed(token);
            });
            // The thread outlives this sender unless a pass panicked.
            if let Err(SendError(job)) = reload.send(job) {
                job(Err(ServeError::Internal("reload thread stopped".into())));
            }
            return; // Answered asynchronously.
        }
        Request::Health => Response::Health(HealthReply {
            healthy: !shared.shutdown.load(Ordering::SeqCst),
            models: shared.scheduler.registry().len(),
            queue_depth: shared.scheduler.queue_len(),
            kernel: ringcnn_tensor::gemm::active_kernel().label().to_string(),
            uptime_ms: shared.scheduler.uptime_ms(),
        }),
        Request::Trace { n } => Response::Trace(span::recent_slow(n)),
        Request::Shutdown => {
            // Ack, close this connection once flushed, and start the
            // global drain (the run loop picks the flag up next pass).
            let mut out = lock_unpoisoned(conn.out.lock());
            encode_into(&Response::Shutdown, wire, &mut out.buf);
            out.close_after_flush = true;
            drop(out);
            shared.shutdown.store(true, Ordering::SeqCst);
            return;
        }
    };
    let mut out = lock_unpoisoned(conn.out.lock());
    encode_into(&resp, wire, &mut out.buf);
}
