//! The wire protocol: versioned, length-prefixed request/response framing.
//!
//! Every message on the wire is one *frame*: a little-endian `u32` payload
//! length followed by exactly that many payload bytes. Frames longer than
//! [`MAX_FRAME`] are rejected before any allocation happens — a malicious or
//! corrupt length prefix must not be able to reserve gigabytes. Inside a
//! frame, requests and responses share one fixed layout:
//!
//! ```text
//! request:   version:u8  opcode:u8  id:u64  aux:u32  len:u32  text[len]
//! response:  version:u8  code:u8    id:u64  aux:u32  len:u32  body[len]
//! ```
//!
//! `id` is an opaque client-chosen correlation id echoed in the response.
//! `aux` is operation-specific: the request timeout in milliseconds for the
//! evaluation opcodes, the retry hint in milliseconds for
//! [`RespCode::RetryAfter`], and the served-from-cache flag (`1`) on
//! [`RespCode::Ok`] evaluation responses. Text/body are UTF-8.
//!
//! Decoding is total: every byte sequence either decodes or yields a typed
//! [`ProtoError`], never a panic — the proptest suite in
//! `crates/server/tests/proto.rs` drives arbitrary bytes through it.

use std::io::{self, Read, Write};

/// Current protocol version; bumped on any layout change.
pub const PROTO_VERSION: u8 = 1;

/// Hard ceiling on a frame's payload length. A length prefix above this is
/// a protocol error, not an allocation request.
pub const MAX_FRAME: usize = 1 << 20;

/// Fixed part of a request/response payload: version, opcode/code, id, aux,
/// text length.
const HEADER: usize = 1 + 1 + 8 + 4 + 4;

/// Request opcodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Define (or replace) a relation in the session database; the text is
    /// a `NAME(vars) := formula` line, or `spatial NAME` to re-designate
    /// the spatial relation.
    Define = 1,
    /// Evaluate a region-logic sentence to a boolean verdict.
    EvalSentence = 2,
    /// Evaluate an open region-logic query to a quantifier-free formula.
    EvalQuery = 3,
    /// Compile the query and return the rendered plan without evaluating.
    Explain = 4,
    /// Report server counters (sessions, sheds, cache hits, queue depth).
    Status = 5,
    /// Ask the server to shut down gracefully.
    Shutdown = 6,
    /// Scrape the server's metrics registry as a Prometheus-style text
    /// exposition (counters and log₂ latency histograms, sorted by key).
    Metrics = 7,
}

impl OpCode {
    /// Decode an opcode byte.
    pub fn from_u8(b: u8) -> Option<OpCode> {
        match b {
            1 => Some(OpCode::Define),
            2 => Some(OpCode::EvalSentence),
            3 => Some(OpCode::EvalQuery),
            4 => Some(OpCode::Explain),
            5 => Some(OpCode::Status),
            6 => Some(OpCode::Shutdown),
            7 => Some(OpCode::Metrics),
            _ => None,
        }
    }
}

/// Response codes. The one-line contract per code is the authoritative
/// response-code table (mirrored in README.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RespCode {
    /// Success; body is the result (verdict, formula, plan, or status).
    Ok = 0,
    /// The request text failed to parse; body is the parse error.
    ParseError = 1,
    /// Evaluation failed (budget exhaustion other than the deadline, or an
    /// invalid query); body is the error chain.
    EvalError = 2,
    /// The per-request deadline elapsed; body names the limit.
    Timeout = 3,
    /// The server shed the request under load; `aux` is the suggested
    /// retry delay in milliseconds.
    RetryAfter = 4,
    /// An injected fault (or a quarantined session) killed the request.
    Fault = 5,
    /// The frame decoded but the request was malformed (bad opcode, bad
    /// UTF-8, oversized frame); body says what.
    BadRequest = 6,
    /// An internal server error; body is the message.
    Internal = 7,
}

impl RespCode {
    /// Decode a response-code byte.
    pub fn from_u8(b: u8) -> Option<RespCode> {
        match b {
            0 => Some(RespCode::Ok),
            1 => Some(RespCode::ParseError),
            2 => Some(RespCode::EvalError),
            3 => Some(RespCode::Timeout),
            4 => Some(RespCode::RetryAfter),
            5 => Some(RespCode::Fault),
            6 => Some(RespCode::BadRequest),
            7 => Some(RespCode::Internal),
            _ => None,
        }
    }
}

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// What to do.
    pub op: OpCode,
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Timeout in milliseconds for evaluation opcodes (0 = server default).
    pub aux: u32,
    /// The query / definition text.
    pub text: String,
}

/// A decoded response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The verdict class.
    pub code: RespCode,
    /// The request's correlation id (0 for unsolicited responses, e.g. an
    /// accept-time shed).
    pub id: u64,
    /// Code-specific: retry delay (ms) for `RetryAfter`, cache flag for
    /// `Ok`.
    pub aux: u32,
    /// Result or error text.
    pub body: String,
}

/// Typed decoding failures. Every variant is reachable from corrupt bytes;
/// none panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The frame's length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The claimed payload length.
        len: usize,
    },
    /// The payload ended before the fixed header or the declared text.
    Truncated,
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown response-code byte.
    BadCode(u8),
    /// The text/body bytes are not UTF-8.
    BadUtf8,
    /// The declared text length disagrees with the payload length.
    LengthMismatch {
        /// Declared text/body length.
        declared: usize,
        /// Bytes actually present after the header.
        actual: usize,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Oversized { len } => {
                write!(f, "frame length {} exceeds the {} byte cap", len, MAX_FRAME)
            }
            ProtoError::Truncated => write!(f, "truncated payload"),
            ProtoError::BadVersion(v) => write!(f, "unknown protocol version {}", v),
            ProtoError::BadOpcode(b) => write!(f, "unknown opcode {}", b),
            ProtoError::BadCode(b) => write!(f, "unknown response code {}", b),
            ProtoError::BadUtf8 => write!(f, "text is not valid UTF-8"),
            ProtoError::LengthMismatch { declared, actual } => {
                write!(f, "declared text length {} but {} bytes follow", declared, actual)
            }
        }
    }
}

impl std::error::Error for ProtoError {}

fn put_header(out: &mut Vec<u8>, tag: u8, id: u64, aux: u32, text: &str) {
    out.push(PROTO_VERSION);
    out.push(tag);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&aux.to_le_bytes());
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
}

/// Split a payload into `(version, tag, id, aux, text)`.
fn take_header(payload: &[u8]) -> Result<(u8, u8, u64, u32, &[u8]), ProtoError> {
    if payload.len() < HEADER {
        return Err(ProtoError::Truncated);
    }
    let version = payload[0];
    let tag = payload[1];
    let mut id = [0u8; 8];
    id.copy_from_slice(&payload[2..10]);
    let mut aux = [0u8; 4];
    aux.copy_from_slice(&payload[10..14]);
    let mut len = [0u8; 4];
    len.copy_from_slice(&payload[14..18]);
    let declared = u32::from_le_bytes(len) as usize;
    let rest = &payload[HEADER..];
    if declared != rest.len() {
        return Err(ProtoError::LengthMismatch {
            declared,
            actual: rest.len(),
        });
    }
    Ok((version, tag, u64::from_le_bytes(id), u32::from_le_bytes(aux), rest))
}

impl Request {
    /// Encode into a payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER + self.text.len());
        put_header(&mut out, self.op as u8, self.id, self.aux, &self.text);
        out
    }

    /// Decode a payload.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let (version, tag, id, aux, text) = take_header(payload)?;
        if version != PROTO_VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        let op = OpCode::from_u8(tag).ok_or(ProtoError::BadOpcode(tag))?;
        let text = std::str::from_utf8(text).map_err(|_| ProtoError::BadUtf8)?;
        Ok(Request {
            op,
            id,
            aux,
            text: text.to_string(),
        })
    }

    /// Encode into a complete frame (length prefix + payload).
    pub fn to_frame(&self) -> Vec<u8> {
        frame(&self.encode())
    }
}

impl Response {
    /// A success response.
    pub fn ok(id: u64, body: impl Into<String>) -> Response {
        Response {
            code: RespCode::Ok,
            id,
            aux: 0,
            body: body.into(),
        }
    }

    /// An error-class response with a message body.
    pub fn error(code: RespCode, id: u64, body: impl Into<String>) -> Response {
        Response {
            code,
            id,
            aux: 0,
            body: body.into(),
        }
    }

    /// A load-shedding response carrying a retry hint in milliseconds.
    pub fn retry_after(id: u64, retry_ms: u32, body: impl Into<String>) -> Response {
        Response {
            code: RespCode::RetryAfter,
            id,
            aux: retry_ms,
            body: body.into(),
        }
    }

    /// Encode into a payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER + self.body.len());
        put_header(&mut out, self.code as u8, self.id, self.aux, &self.body);
        out
    }

    /// Decode a payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let (version, tag, id, aux, body) = take_header(payload)?;
        if version != PROTO_VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        let code = RespCode::from_u8(tag).ok_or(ProtoError::BadCode(tag))?;
        let body = std::str::from_utf8(body).map_err(|_| ProtoError::BadUtf8)?;
        Ok(Response {
            code,
            id,
            aux,
            body: body.to_string(),
        })
    }

    /// Encode into a complete frame (length prefix + payload).
    pub fn to_frame(&self) -> Vec<u8> {
        frame(&self.encode())
    }
}

/// Prepend the length prefix to a payload.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write one frame as one `write_all`: prefix and payload leave in a single
/// syscall and — the sockets run `TCP_NODELAY` — a single segment, so the
/// peer never sees a length without its payload. The payload must not
/// exceed [`MAX_FRAME`] (all payloads produced by this module are far below
/// it; a text that large is rejected at request-build time by the caller).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame(payload))?;
    w.flush()
}

/// Blocking read of one frame. Returns `Ok(None)` on clean EOF at a frame
/// boundary; EOF mid-frame is an `UnexpectedEof` error. An oversized length
/// prefix is reported as `InvalidData` without reading (or allocating) the
/// claimed payload.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtoError::Oversized { len }.to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental frame assembly for session reads.
///
/// Bytes arrive in arbitrary chunks ([`push`](FrameReader::push)); complete
/// frames are drained with [`next_frame`](FrameReader::next_frame). The
/// reader validates the length prefix *before* buffering the payload, so an
/// oversized prefix poisons the stream immediately instead of accumulating
/// a gigabyte of "pending" bytes.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, `Ok(None)` if more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let mut len = [0u8; 4];
        len.copy_from_slice(&self.buf[..4]);
        let len = u32::from_le_bytes(len) as usize;
        if len > MAX_FRAME {
            return Err(ProtoError::Oversized { len });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }

    /// True when a frame has started arriving but is not yet complete —
    /// this is what distinguishes a *read* timeout (mid-frame stall, cut
    /// the connection) from an *idle* timeout (quiet but healthy client).
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request {
            op: OpCode::EvalSentence,
            id: 42,
            aux: 1500,
            text: "exists R. R subset S".into(),
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::retry_after(7, 120, "queue full");
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let a = Request {
            op: OpCode::Status,
            id: 1,
            aux: 0,
            text: String::new(),
        };
        let b = Request {
            op: OpCode::Define,
            id: 2,
            aux: 0,
            text: "S(x) := 0 < x".into(),
        };
        let mut bytes = a.to_frame();
        bytes.extend_from_slice(&b.to_frame());
        let mut reader = FrameReader::new();
        // Feed one byte at a time: both frames must still come out whole.
        let mut out = Vec::new();
        for byte in bytes {
            reader.push(&[byte]);
            while let Some(p) = reader.next_frame().unwrap() {
                out.push(p);
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(Request::decode(&out[0]).unwrap(), a);
        assert_eq!(Request::decode(&out[1]).unwrap(), b);
        assert!(!reader.mid_frame());
    }

    #[test]
    fn oversized_length_rejected_without_buffering() {
        let mut reader = FrameReader::new();
        reader.push(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            reader.next_frame(),
            Err(ProtoError::Oversized { .. })
        ));
    }

    /// One frame is one `write`: a `Write` that counts its calls (and would
    /// accept any number of bytes per call) sees exactly one per frame.
    #[test]
    fn write_frame_issues_one_write() {
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting::default();
        let resp = Response::ok(3, "x".repeat(10_000));
        write_frame(&mut w, &resp.encode()).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, resp.to_frame());
        write_frame(&mut w, &[]).unwrap();
        assert_eq!(w.writes, 2, "an empty payload is still one write");
    }

    #[test]
    fn blocking_read_frame_eof_and_oversize() {
        let req = Request {
            op: OpCode::Explain,
            id: 9,
            aux: 0,
            text: "true".into(),
        };
        let bytes = req.to_frame();
        let mut cur = io::Cursor::new(bytes.clone());
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), req.encode());
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");
        // EOF mid-frame is an error, not a silent None.
        let mut cur = io::Cursor::new(bytes[..6].to_vec());
        assert!(read_frame(&mut cur).is_err());
        // Oversized prefix fails before allocating.
        let mut cur = io::Cursor::new((u32::MAX).to_le_bytes().to_vec());
        assert!(read_frame(&mut cur).is_err());
    }
}
