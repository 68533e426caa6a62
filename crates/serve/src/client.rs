//! A blocking client speaking either wire protocol (used by `loadgen`,
//! the tests, and the examples; any language that can write JSON lines
//! — or length-prefixed frames — to a TCP socket can do what this
//! module does).
//!
//! [`Client::connect`] keeps the original line-JSON behavior;
//! [`Client::connect_wire`] with [`Wire::Binary`] sends the `RCNB`
//! preamble and switches both directions to binary frames, one per
//! request and one per response, which skips ASCII float formatting
//! entirely.

use crate::error::ServeError;
use crate::frame::{self, DecodeStep};
use crate::protocol::{find_newline, HealthReply, ModelInfo, Request, Response, Wire};
use crate::registry::{Precision, ReloadReport};
use crate::server::MAX_LINE_BYTES;
use crate::stats::StatsSnapshot;
use ringcnn_tensor::prelude::*;
use ringcnn_trace::span::TraceTree;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A successful `infer` round trip.
#[derive(Debug)]
pub struct InferReply {
    /// The model output.
    pub output: Tensor,
    /// Server-side admission → dispatch wait.
    pub queue_ms: f64,
    /// Server-side admission → completion latency.
    pub total_ms: f64,
    /// Batch size the request rode in.
    pub batch_size: usize,
}

/// One connection to a `ringcnn-serve` instance.
///
/// # Example
///
/// ```no_run
/// use ringcnn_serve::prelude::*;
/// use ringcnn_tensor::prelude::*;
///
/// # fn main() -> Result<(), ServeError> {
/// let mut client = Client::connect("127.0.0.1:7841")?;
/// let input = Tensor::zeros(Shape4::new(1, 1, 32, 32));
/// // Plain inference…
/// let reply = client.infer("ffdnet_real", &input)?;
/// // …or with a 25 ms latency budget the server may reject on arrival:
/// match client.infer_deadline("ffdnet_real", &input, Precision::Fp64, 25.0) {
///     Ok(reply) => println!("served in {:.2} ms", reply.total_ms),
///     Err(e @ ServeError::Deadline { .. }) => println!("shed: {e}"),
///     Err(e) => return Err(e),
/// }
/// // Admin verbs: force a registry hot-reload pass.
/// let report = client.reload()?;
/// println!("reloaded {:?}, added {:?}", report.reloaded, report.added);
/// # Ok(()) }
/// ```
pub struct Client {
    stream: TcpStream,
    wire: Wire,
    inbuf: Vec<u8>,
}

impl Client {
    /// Connects speaking line-JSON (TCP no-delay: requests are single
    /// small-to-medium messages and latency is the product).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        Client::connect_wire(addr, Wire::Json)
    }

    /// Connects speaking the given protocol (a [`Wire::Binary`] client
    /// sends the `RCNB` preamble immediately).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection fails.
    pub fn connect_wire(addr: impl ToSocketAddrs, wire: Wire) -> Result<Client, ServeError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        if wire == Wire::Binary {
            let mut preamble = Vec::with_capacity(frame::MAGIC.len() + 1);
            frame::encode_preamble(&mut preamble);
            stream.write_all(&preamble)?;
        }
        Ok(Client {
            stream,
            wire,
            inbuf: Vec::new(),
        })
    }

    /// Sets (or clears, with `None`) a deadline on every subsequent
    /// socket read *and* write. Without one, a wedged server — accepted
    /// the connection, never answers — hangs [`Client::infer`] (and
    /// every loadgen connection behind it) forever. With one, a stalled
    /// round trip surfaces as [`ServeError::Timeout`] instead.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the socket rejects the option (a zero
    /// duration, or a closed socket).
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// [`Client::connect_wire`] + [`Client::set_io_timeout`] in one
    /// call, so no request can ever run without a deadline.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection fails or the timeout
    /// cannot be applied.
    pub fn connect_wire_with_timeout(
        addr: impl ToSocketAddrs,
        wire: Wire,
        timeout: Option<Duration>,
    ) -> Result<Client, ServeError> {
        let mut c = Client::connect_wire(addr, wire)?;
        c.set_io_timeout(timeout)?;
        Ok(c)
    }

    /// Connects (line-JSON), retrying for up to `timeout` (startup races
    /// in scripts and CI: the server may still be binding).
    ///
    /// # Errors
    ///
    /// The last connection error once the deadline passes.
    pub fn connect_retry(addr: &str, timeout: Duration) -> Result<Client, ServeError> {
        Client::connect_retry_wire(addr, timeout, Wire::Json)
    }

    /// [`Client::connect_retry`] with an explicit protocol.
    ///
    /// # Errors
    ///
    /// The last connection error once the deadline passes.
    pub fn connect_retry_wire(
        addr: &str,
        timeout: Duration,
        wire: Wire,
    ) -> Result<Client, ServeError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match Client::connect_wire(addr, wire) {
                Ok(c) => return Ok(c),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// The protocol this connection speaks.
    pub fn wire(&self) -> Wire {
        self.wire
    }

    fn send(&mut self, req: &Request) -> Result<(), ServeError> {
        match self.wire {
            Wire::Json => {
                let mut line = req.to_json();
                line.push('\n');
                self.stream.write_all(line.as_bytes()).map_err(map_io)?;
            }
            Wire::Binary => {
                let mut bytes = Vec::new();
                frame::encode_request(req, &mut bytes);
                self.stream.write_all(&bytes).map_err(map_io)?;
            }
        }
        self.stream.flush().map_err(map_io)?;
        Ok(())
    }

    /// Reads one complete response: a line, or a frame of any length
    /// (its buffer grows only by the bytes that arrive).
    fn receive(&mut self) -> Result<Response, ServeError> {
        let mut chunk = [0u8; 16 * 1024];
        // How much of `inbuf` is known to hold no newline.
        let mut scanned = 0;
        loop {
            match self.wire {
                Wire::Json => match find_newline(&self.inbuf, &mut scanned) {
                    Some(pos) => {
                        // Parsed where it lies, then drained.
                        let line = String::from_utf8_lossy(&self.inbuf[..pos]);
                        let parsed = (!line.trim().is_empty()).then(|| Response::parse(&line));
                        self.inbuf.drain(..=pos);
                        scanned = 0;
                        match parsed {
                            Some(resp) => return resp,
                            None => continue,
                        }
                    }
                    // No line this long is a response, and waiting for
                    // its end buffers it all.
                    None if self.inbuf.len() > MAX_LINE_BYTES => {
                        return Err(ServeError::BadRequest(format!(
                            "response line exceeds {MAX_LINE_BYTES} bytes"
                        )));
                    }
                    None => {}
                },
                Wire::Binary => match frame::decode_response(&self.inbuf) {
                    DecodeStep::Item(resp, consumed) => {
                        self.inbuf.drain(..consumed);
                        return Ok(resp);
                    }
                    DecodeStep::Fail(e) => return Err(e),
                    DecodeStep::Incomplete => {}
                },
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ServeError::Io("server closed the connection".into())),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(map_io(e)),
            }
        }
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ServeError> {
        self.send(req)?;
        match self.receive()? {
            Response::Error(e) => Err(e),
            r => Ok(r),
        }
    }

    /// Runs one input through a named model on the float pipeline.
    ///
    /// # Errors
    ///
    /// Service-side rejections ([`ServeError::Overloaded`],
    /// [`ServeError::UnknownModel`], …) or transport failures.
    pub fn infer(&mut self, model: &str, input: &Tensor) -> Result<InferReply, ServeError> {
        self.infer_with(model, input, Precision::Fp64)
    }

    /// Runs one input through a named model at an explicit
    /// [`Precision`] (`quant` needs a loaded `ringcnn-qmodel/v1`).
    ///
    /// # Errors
    ///
    /// Service-side rejections ([`ServeError::Overloaded`],
    /// [`ServeError::UnknownModel`], a `bad_request` for `quant` on a
    /// model without a quantized pipeline, …) or transport failures.
    pub fn infer_with(
        &mut self,
        model: &str,
        input: &Tensor,
        precision: Precision,
    ) -> Result<InferReply, ServeError> {
        self.infer_inner(model, input, precision, None)
    }

    /// [`Client::infer_with`] carrying a `deadline_ms` latency budget:
    /// the server's admission control rejects on arrival (the
    /// `deadline` error code) when its per-model latency EWMA predicts
    /// the budget is already blown, instead of queueing doomed work
    /// (and again at dispatch, if the budget ran out in the queue).
    ///
    /// # Errors
    ///
    /// See [`Client::infer_with`], plus [`ServeError::Deadline`].
    pub fn infer_deadline(
        &mut self,
        model: &str,
        input: &Tensor,
        precision: Precision,
        deadline_ms: f64,
    ) -> Result<InferReply, ServeError> {
        self.infer_inner(model, input, precision, Some(deadline_ms))
    }

    fn infer_inner(
        &mut self,
        model: &str,
        input: &Tensor,
        precision: Precision,
        deadline_ms: Option<f64>,
    ) -> Result<InferReply, ServeError> {
        let req = Request::Infer {
            model: model.into(),
            precision,
            shape: input.shape(),
            data: input.as_slice().to_vec(),
            deadline_ms,
        };
        match self.roundtrip(&req)? {
            Response::Infer {
                shape,
                data,
                queue_ms,
                total_ms,
                batch_size,
            } => Ok(InferReply {
                output: Tensor::from_vec(shape, data),
                queue_ms,
                total_ms,
                batch_size,
            }),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Lists the registered models.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn list_models(&mut self) -> Result<Vec<ModelInfo>, ServeError> {
        let req = Request::ListModels;
        match self.roundtrip(&req)? {
            Response::ListModels(m) => Ok(m),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Fetches service statistics.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServeError> {
        let req = Request::Stats;
        match self.roundtrip(&req)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Probes service health.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn health(&mut self) -> Result<HealthReply, ServeError> {
        let req = Request::Health;
        match self.roundtrip(&req)? {
            Response::Health(reply) => Ok(reply),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Fetches the server's recently captured slow-request span trees
    /// (the `trace` verb): the `n` most recent, newest first, or every
    /// captured tree when `n` is 0. Trees only accumulate on a server
    /// running with a slow threshold (`--trace-slow-ms`).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn trace(&mut self, n: usize) -> Result<Vec<TraceTree>, ServeError> {
        let req = Request::Trace { n };
        match self.roundtrip(&req)? {
            Response::Trace(trees) => Ok(trees),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Forces a registry hot-reload pass on the server and returns what
    /// changed. In-flight requests finish on the versions that admitted
    /// them; the pass is transactional (a torn or corrupt model file
    /// aborts the whole pass with `load_error`, changing nothing).
    ///
    /// # Errors
    ///
    /// [`ServeError::Load`] when the pass aborted, or transport
    /// failures.
    pub fn reload(&mut self) -> Result<ReloadReport, ServeError> {
        let req = Request::Reload;
        match self.roundtrip(&req)? {
            Response::Reload(r) => Ok(r),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Asks the server to drain and exit (acknowledged before the drain
    /// starts).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown_server(&mut self) -> Result<(), ServeError> {
        let req = Request::Shutdown;
        match self.roundtrip(&req)? {
            Response::Shutdown => Ok(()),
            other => Err(unexpected(&req, &other)),
        }
    }
}

/// Maps socket errors onto [`ServeError`], turning deadline expiries
/// ([`std::io::ErrorKind::WouldBlock`] / `TimedOut` — Unix reports a
/// `SO_RCVTIMEO` expiry as `EAGAIN`, i.e. `WouldBlock`) into
/// [`ServeError::Timeout`].
fn map_io(e: std::io::Error) -> ServeError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ServeError::Timeout(e.to_string())
        }
        _ => ServeError::Io(e.to_string()),
    }
}

fn unexpected(req: &Request, got: &Response) -> ServeError {
    ServeError::Io(format!(
        "unexpected response to `{}`: {}",
        req.verb().name,
        got.to_json()
    ))
}
