//! The `cmind` client: one request/response round trip per call over a
//! persistent connection, with the same never-accept-wrong-bytes
//! discipline as the cache tier — a [`BuildResponse`] is re-hashed and
//! refused on a fingerprint mismatch.

use crate::protocol::{
    self, BuildRequest, BuildResponse, Counter, ProtocolError, Request, Response, WireError,
    TAG_RESPONSE,
};
use ipra_core::fingerprint::Fnv64;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Client-side failures. [`Server`](ClientError::Server) wraps an in-band
/// daemon error (the connection survives); the rest end the conversation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Connecting, sending, or the daemon hanging up mid-response.
    Io(String),
    /// The daemon sent a frame we reject.
    Protocol(ProtocolError),
    /// The daemon reported a request-level failure.
    Server(WireError),
    /// The response's artifact text does not hash to its declared
    /// fingerprint. The client refuses the bytes (this should be
    /// impossible against an honest daemon; it is the last line of the
    /// never-serve-wrong-bytes argument).
    FingerprintMismatch {
        /// Fingerprint the daemon claimed.
        expect: u64,
        /// Fingerprint the received text hashes to.
        got: u64,
    },
    /// A well-formed response of the wrong variant for the request.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(d) => write!(f, "daemon i/o: {d}"),
            ClientError::Protocol(e) => write!(f, "daemon protocol: {e}"),
            ClientError::Server(e) => write!(f, "daemon: {e}"),
            ClientError::FingerprintMismatch { expect, got } => write!(
                f,
                "daemon response failed its fingerprint cross-check \
                 (claimed {expect:016x}, hashed {got:016x}); refusing the bytes"
            ),
            ClientError::Unexpected(d) => write!(f, "unexpected daemon response: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connection to a running `cmind`.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to the daemon at `socket`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the socket is absent or refuses.
    pub fn connect(socket: impl AsRef<Path>) -> Result<Client, ClientError> {
        let stream = UnixStream::connect(socket.as_ref())
            .map_err(|e| ClientError::Io(format!("{}: {e}", socket.as_ref().display())))?;
        Ok(Client { stream })
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let frame = protocol::encode_request(request);
        self.stream
            .write_all(&frame)
            .and_then(|()| self.stream.flush())
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let frame = protocol::read_frame(&mut self.stream, TAG_RESPONSE, || false)
            .map_err(ClientError::Protocol)?
            .ok_or_else(|| ClientError::Io("daemon closed the connection".to_string()))?;
        protocol::decode_response(&frame).map_err(ClientError::Protocol)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Submits a build and cross-checks the response fingerprint before
    /// returning it.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; notably [`ClientError::FingerprintMismatch`]
    /// when the artifact text does not hash to its declared fingerprint.
    pub fn build(&mut self, request: &BuildRequest) -> Result<BuildResponse, ClientError> {
        match self.round_trip(&Request::Build(request.clone()))? {
            Response::Built(built) => {
                let mut h = Fnv64::new();
                h.write(built.vx.as_bytes());
                let got = h.finish();
                if got != built.fingerprint {
                    return Err(ClientError::FingerprintMismatch {
                        expect: built.fingerprint,
                        got,
                    });
                }
                Ok(built)
            }
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Snapshots the daemon's counters (sorted by name).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn stats(&mut self) -> Result<Vec<Counter>, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(s) => Ok(s.counters),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}
