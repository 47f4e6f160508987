//! A small blocking client for the `scald-serve` protocol — used by the
//! daemon's own tests and the `loadtest` bench, and usable as a library
//! by anything that wants to talk to a running daemon without writing
//! JSONL by hand.

use crate::proto::{
    DeltaSpec, Frame, Frontend, Hello, Request, Response, SweepSpec, TraceMode, PROTO_VERSION,
};
use scald_trace::json::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A blocking protocol client over any line-framed byte stream.
///
/// Requests are serialized (protocol v1 has no pipelining); trace frames
/// that arrive interleaved with a response are buffered and retrievable
/// via [`take_trace`](Client::take_trace).
pub struct Client {
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
    hello: Hello,
    next_id: u64,
    trace: Vec<(String, Json)>,
}

impl Client {
    /// Connects to a daemon's Unix socket and performs the handshake.
    ///
    /// # Errors
    ///
    /// Connection failure, or a handshake frame that is malformed or
    /// speaks a different protocol version.
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let reader = stream.try_clone()?;
        Client::from_streams(Box::new(BufReader::new(reader)), Box::new(stream))
    }

    /// Wraps an already-connected stream pair (e.g. a child daemon's
    /// stdout/stdin) and performs the handshake.
    ///
    /// # Errors
    ///
    /// As for [`connect_unix`](Client::connect_unix).
    pub fn from_streams(
        mut reader: Box<dyn BufRead + Send>,
        writer: Box<dyn Write + Send>,
    ) -> io::Result<Client> {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad_proto("connection closed before the hello frame"));
        }
        let json = scald_trace::json::parse(line.trim())
            .map_err(|e| bad_proto(format!("malformed hello frame: {e}")))?;
        let Frame::Hello(hello) =
            Frame::parse(json).map_err(|e| bad_proto(format!("bad hello frame: {e}")))?
        else {
            return Err(bad_proto("first frame was not a hello"));
        };
        if hello.proto != PROTO_VERSION {
            return Err(bad_proto(format!(
                "server speaks protocol {}, this client speaks {PROTO_VERSION}",
                hello.proto
            )));
        }
        Ok(Client {
            reader,
            writer,
            hello,
            next_id: 1,
            trace: Vec::new(),
        })
    }

    /// The server's handshake (name and protocol version).
    #[must_use]
    pub fn hello(&self) -> &Hello {
        &self.hello
    }

    /// Sends one request and blocks for its response, buffering any
    /// trace frames that arrive in between.
    ///
    /// # Errors
    ///
    /// I/O failure, an unparseable server frame, or the connection
    /// closing before the response arrives.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let line = request.to_json().to_string();
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Reads frames until a response arrives, buffering trace frames.
    fn read_response(&mut self) -> io::Result<Response> {
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed while waiting for a response",
                ));
            }
            let json = scald_trace::json::parse(line.trim())
                .map_err(|e| bad_proto(format!("malformed server frame: {e}")))?;
            match Frame::parse(json).map_err(|e| bad_proto(format!("bad server frame: {e}")))? {
                Frame::Response(response) => return Ok(response),
                Frame::Trace { session, event } => self.trace.push((session, event)),
                Frame::Hello(_) => return Err(bad_proto("unexpected mid-stream hello")),
            }
        }
    }

    /// Sends one raw line verbatim (no JSON validation) and blocks for
    /// the server's response — for exercising the daemon's handling of
    /// malformed frames.
    ///
    /// # Errors
    ///
    /// As for [`request`](Client::request).
    pub fn request_raw(&mut self, line: &str) -> io::Result<Response> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Drains the trace frames buffered so far, as `(session, event)`
    /// pairs in arrival order.
    pub fn take_trace(&mut self) -> Vec<(String, Json)> {
        std::mem::take(&mut self.trace)
    }

    fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// `open` sugar.
    ///
    /// # Errors
    ///
    /// As for [`request`](Client::request).
    pub fn open_source(
        &mut self,
        source: impl Into<String>,
        label: impl Into<String>,
    ) -> io::Result<Response> {
        let id = self.id();
        self.request(&Request::Open {
            id,
            source: source.into(),
            label: Some(label.into()),
            frontend: Frontend::Scald,
        })
    }

    /// `open` sugar for Verilog sources (the `scald-rtl` frontend).
    ///
    /// # Errors
    ///
    /// As for [`request`](Client::request).
    pub fn open_verilog(
        &mut self,
        source: impl Into<String>,
        label: impl Into<String>,
    ) -> io::Result<Response> {
        let id = self.id();
        self.request(&Request::Open {
            id,
            source: source.into(),
            label: Some(label.into()),
            frontend: Frontend::Verilog,
        })
    }

    /// `apply-delta` sugar.
    ///
    /// # Errors
    ///
    /// As for [`request`](Client::request).
    pub fn apply(&mut self, session: impl Into<String>, delta: DeltaSpec) -> io::Result<Response> {
        let id = self.id();
        self.request(&Request::ApplyDelta {
            id,
            session: session.into(),
            delta,
        })
    }

    /// `run` sugar.
    ///
    /// # Errors
    ///
    /// As for [`request`](Client::request).
    pub fn run(&mut self, session: impl Into<String>) -> io::Result<Response> {
        let id = self.id();
        self.request(&Request::Run {
            id,
            session: session.into(),
            cases: None,
        })
    }

    /// `run` with a case sweep: installs the expanded sweep as the
    /// session's case set and re-verifies, in one request.
    ///
    /// # Errors
    ///
    /// As for [`request`](Client::request).
    pub fn run_sweep(
        &mut self,
        session: impl Into<String>,
        cases: SweepSpec,
    ) -> io::Result<Response> {
        let id = self.id();
        self.request(&Request::Run {
            id,
            session: session.into(),
            cases: Some(cases),
        })
    }

    /// `report` sugar.
    ///
    /// # Errors
    ///
    /// As for [`request`](Client::request).
    pub fn report(&mut self, session: impl Into<String>, effort: bool) -> io::Result<Response> {
        let id = self.id();
        self.request(&Request::Report {
            id,
            session: session.into(),
            effort,
        })
    }

    /// `subscribe-trace` sugar.
    ///
    /// # Errors
    ///
    /// As for [`request`](Client::request).
    pub fn subscribe_trace(
        &mut self,
        session: impl Into<String>,
        mode: TraceMode,
    ) -> io::Result<Response> {
        let id = self.id();
        self.request(&Request::SubscribeTrace {
            id,
            session: session.into(),
            mode,
        })
    }

    /// `close` sugar.
    ///
    /// # Errors
    ///
    /// As for [`request`](Client::request).
    pub fn close(&mut self, session: impl Into<String>) -> io::Result<Response> {
        let id = self.id();
        self.request(&Request::Close {
            id,
            session: session.into(),
        })
    }

    /// `stats` sugar.
    ///
    /// # Errors
    ///
    /// As for [`request`](Client::request).
    pub fn stats(&mut self) -> io::Result<Response> {
        let id = self.id();
        self.request(&Request::Stats { id })
    }

    /// `shutdown` sugar.
    ///
    /// # Errors
    ///
    /// As for [`request`](Client::request).
    pub fn shutdown(&mut self) -> io::Result<Response> {
        let id = self.id();
        self.request(&Request::Shutdown { id })
    }
}

fn bad_proto(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}
