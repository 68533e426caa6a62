//! The service error type: every way a request can fail, each with a
//! stable wire code so clients can branch without parsing messages.

/// Why the service refused or failed a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The submission queue is full — admission control rejected the
    /// request instead of letting latency grow without bound. Back off
    /// and retry.
    Overloaded {
        /// Queue depth at rejection time.
        depth: usize,
        /// Queue capacity.
        cap: usize,
    },
    /// No registered model has this name.
    UnknownModel(String),
    /// The service is draining and no longer admits work.
    ShuttingDown,
    /// The request carried a `deadline_ms` the scheduler predicts it
    /// cannot meet (per-model latency EWMA × queue pressure), so it was
    /// rejected on arrival instead of queueing doomed work — or one
    /// that ran out in the queue, answered at dispatch. Lower the
    /// deadline expectation, shed load, or retry later.
    Deadline {
        /// The budget the request asked for, milliseconds (rounded).
        budget_ms: u64,
        /// What the scheduler predicted completion would take; at
        /// dispatch, how long the request had already waited.
        estimate_ms: u64,
    },
    /// The request is malformed (bad JSON, wrong shape, …).
    BadRequest(String),
    /// A model file failed to load into the registry.
    Load(String),
    /// An I/O deadline expired (the peer accepted the connection but
    /// stopped responding within the configured read/write timeout).
    /// Distinct from [`ServeError::Io`] so callers can retry a wedged
    /// server without treating it as a dead connection.
    Timeout(String),
    /// Transport failure (connection dropped, bind failed, …).
    Io(String),
    /// The inference itself failed (worker panic) — a server bug, kept
    /// from poisoning the whole service.
    Internal(String),
}

/// One row of [`ServeError::CODES`]: a wire code and the constructor of
/// the variant it decodes to.
pub type WireCode = (&'static str, fn(String) -> ServeError);

impl ServeError {
    /// Stable machine-readable code used on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::UnknownModel(_) => "unknown_model",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Deadline { .. } => "deadline",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Load(_) => "load_error",
            ServeError::Timeout(_) => "timeout",
            ServeError::Io(_) => "io_error",
            ServeError::Internal(_) => "internal",
        }
    }

    /// Every wire code with the variant it decodes to, in the order of
    /// the `docs/PROTOCOL.md` table — the inverse of [`ServeError::code`].
    /// The constructor receives the variant's own message; the variants
    /// that carry numbers instead decode to zeros (codes are the
    /// compatibility surface, messages are not).
    pub const CODES: [WireCode; 9] = [
        ("overloaded", |_| ServeError::Overloaded {
            depth: 0,
            cap: 0,
        }),
        ("unknown_model", ServeError::UnknownModel),
        ("shutting_down", |_| ServeError::ShuttingDown),
        ("deadline", |_| ServeError::Deadline {
            budget_ms: 0,
            estimate_ms: 0,
        }),
        ("bad_request", ServeError::BadRequest),
        ("load_error", ServeError::Load),
        ("timeout", ServeError::Timeout),
        ("io_error", ServeError::Io),
        ("internal", ServeError::Internal),
    ];

    /// Rebuilds the error from a wire `(code, message)` pair (unknown
    /// codes map to [`ServeError::Io`] so old clients survive new codes).
    pub fn from_wire(code: &str, message: &str) -> ServeError {
        let Some((_, build)) = Self::CODES.iter().find(|(c, _)| *c == code) else {
            return ServeError::Io(format!("{code}: {message}"));
        };
        // `message` is the peer's whole `Display` text. Keep only the
        // part the variant stores — what its own `Display` wraps around
        // a marker — so that displaying the relayed error does not
        // repeat the prefix.
        let shell = build("\0".into()).to_string();
        let inner = shell
            .split_once('\0')
            .and_then(|(pre, post)| message.strip_prefix(pre)?.strip_suffix(post))
            .unwrap_or(message);
        build(inner.into())
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth, cap } => {
                write!(f, "queue full ({depth}/{cap} requests)")
            }
            ServeError::UnknownModel(m) => write!(f, "unknown model `{m}`"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Deadline {
                budget_ms,
                estimate_ms,
            } => write!(
                f,
                "deadline {budget_ms}ms cannot be met (estimated {estimate_ms}ms)"
            ),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Load(m) => write!(f, "model load failed: {m}"),
            ServeError::Timeout(m) => write!(f, "i/o timeout: {m}"),
            ServeError::Io(m) => write!(f, "transport error: {m}"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        let errors = [
            ServeError::Overloaded { depth: 4, cap: 4 },
            ServeError::UnknownModel("x".into()),
            ServeError::ShuttingDown,
            ServeError::Deadline {
                budget_ms: 5,
                estimate_ms: 40,
            },
            ServeError::BadRequest("shape".into()),
            ServeError::Load("truncated".into()),
            ServeError::Timeout("no reply in 2s".into()),
            ServeError::Io("connection reset".into()),
            ServeError::Internal("panic".into()),
        ];
        for e in errors {
            let back = ServeError::from_wire(e.code(), &e.to_string());
            assert_eq!(back.code(), e.code());
            // A relayed error reads like the original: the variant's
            // prefix is not stacked a second time.
            let carries_numbers = matches!(
                e,
                ServeError::Overloaded { .. } | ServeError::Deadline { .. }
            );
            if !carries_numbers {
                assert_eq!(back.to_string(), e.to_string());
            }
        }
        assert_eq!(ServeError::from_wire("??", "m").code(), "io_error");
        // `CODES` is the exact inverse of `code()`.
        for (code, build) in ServeError::CODES {
            assert_eq!(build(String::new()).code(), code);
        }
    }
}
