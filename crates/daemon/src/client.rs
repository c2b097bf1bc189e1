//! The `cmind` client: one request/response round trip per call over a
//! persistent connection, with the same never-accept-wrong-bytes
//! discipline as the cache tier — a [`BuildResponse`] whose `.vx` body
//! does not hash to its header's fingerprint, or whose header fingerprint
//! is not the response's, is refused.

use crate::protocol::{
    self, BuildRequest, BuildResponse, Counter, ProtocolError, Request, Response, WireError,
    TAG_RESPONSE,
};
use ipra_artifact::{ArtifactError, ArtifactKind};
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
    /// The response's artifact text does not verify to its declared
    /// fingerprint. The client refuses the bytes (this should be
    /// impossible against an honest daemon; it is the last line of the
    /// never-serve-wrong-bytes argument).
    FingerprintMismatch {
        /// Fingerprint the daemon claimed.
        expect: u64,
        /// What the received text verifies to
        /// ([`ipra_artifact::verify`]): the fingerprint its header
        /// carries and its body hashes to, or why it does not.
        got: Result<u64, ArtifactError>,
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
            ClientError::FingerprintMismatch { expect, got: Ok(got) } => write!(
                f,
                "daemon response failed its fingerprint cross-check \
                 (claimed {expect:016x}, hashed {got:016x}); refusing the bytes"
            ),
            ClientError::FingerprintMismatch { expect, got: Err(e) } => write!(
                f,
                "daemon response failed its fingerprint cross-check \
                 (claimed {expect:016x}; {e}); refusing the bytes"
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

    /// Sends one encoded request frame and reads the response.
    fn round_trip(&mut self, frame: &[u8]) -> Result<Response, ClientError> {
        self.stream
            .write_all(frame)
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
        match self.round_trip(&protocol::encode_request(&Request::Ping))? {
            Response::Pong => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Submits a build and cross-checks the response fingerprint before
    /// returning it: the `.vx` header's fingerprint must be the response's,
    /// and the body must hash to it. That is one FNV-64 pass over the body,
    /// the check [`ipra_artifact::decode`] runs before it parses.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; notably [`ClientError::FingerprintMismatch`]
    /// when the artifact text does not verify to its declared fingerprint.
    pub fn build(&mut self, request: &BuildRequest) -> Result<BuildResponse, ClientError> {
        match self.round_trip(&protocol::encode_build_request(request))? {
            Response::Built(built) => {
                let got = ipra_artifact::verify(ArtifactKind::Executable, &built.vx);
                if got != Ok(built.fingerprint) {
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
        match self.round_trip(&protocol::encode_request(&Request::Stats))? {
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
        match self.round_trip(&protocol::encode_request(&Request::Shutdown))? {
            Response::ShuttingDown => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixListener;

    /// A response the daemon would send for a one-instruction program.
    fn honest_reply() -> BuildResponse {
        let mut main = vpr::program::MachineFunction::new("main");
        main.push(vpr::inst::Inst::Halt);
        let module = vpr::program::ObjectModule {
            name: "m".into(),
            functions: vec![main],
            globals: vec![],
            ..Default::default()
        };
        let exe = vpr::link(&[module]).expect("link");
        let (vx, fingerprint) = protocol::executable_artifact(&exe);
        BuildResponse { vx, fingerprint, coalesced: false, recompiled: Vec::new() }
    }

    /// Answers one build request on a fresh socket with `reply`, and
    /// returns what [`Client::build`] made of it.
    fn build_against(tag: &str, reply: BuildResponse) -> Result<BuildResponse, ClientError> {
        let socket =
            std::env::temp_dir().join(format!("cmind-client-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket).expect("bind");
        let listener = &listener;
        let got = std::thread::scope(|scope| {
            scope.spawn(move || {
                let (mut stream, _) = listener.accept().expect("accept");
                let request = protocol::read_frame(&mut stream, protocol::TAG_REQUEST, || false);
                assert!(matches!(request, Ok(Some(_))), "one request frame");
                let frame = protocol::encode_response(&Response::Built(reply));
                stream.write_all(&frame).expect("reply");
            });
            let request = BuildRequest {
                config: "L2".to_string(),
                optimize: true,
                sources: Vec::new(),
                training_input: Vec::new(),
            };
            Client::connect(&socket)?.build(&request)
        });
        let _ = std::fs::remove_file(&socket);
        got
    }

    #[test]
    fn build_accepts_only_a_vx_that_verifies_to_the_response_fingerprint() {
        let honest = honest_reply();
        assert_eq!(build_against("honest", honest.clone()), Ok(honest.clone()));

        // The header's token is not the response's fingerprint.
        let claim = honest.fingerprint ^ 1;
        let misclaimed = BuildResponse { fingerprint: claim, ..honest.clone() };
        assert_eq!(
            build_against("misclaimed", misclaimed),
            Err(ClientError::FingerprintMismatch { expect: claim, got: Ok(honest.fingerprint) })
        );

        // The body changed after encoding; header and response still agree.
        let vx = honest.vx.replace("\"main\"", "\"mein\"");
        assert_ne!(vx, honest.vx);
        match build_against("altered", BuildResponse { vx, ..honest.clone() }) {
            Err(ClientError::FingerprintMismatch {
                expect,
                got: Err(ArtifactError::Corrupt { expected, .. }),
            }) => {
                assert_eq!(expect, honest.fingerprint);
                assert_eq!(expected, format!("{:016x}", honest.fingerprint));
            }
            other => panic!("an altered body must be refused: {other:?}"),
        }
    }
}
