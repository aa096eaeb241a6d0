//! Blocking client for the wire protocol, with jittered retry backoff.
//!
//! The client is strictly request/response: one frame out, one frame in.
//! (Responses to queued evaluations and to inline operations travel over
//! the same socket; pipelining could reorder them, so the client never
//! pipelines.) On a [`RespCode::RetryAfter`] shed, [`Client::with_backoff`]
//! sleeps for the server's hint plus deterministic jitter — seeded, so two
//! clients created with different seeds desynchronise instead of
//! re-stampeding the server in lockstep.

use crate::proto::{read_frame, write_frame, OpCode, ProtoError, Request, RespCode, Response};
use lcdb_exec::hash::splitmix64;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// A connected protocol client.
pub struct Client {
    addr: String,
    stream: TcpStream,
    next_id: u64,
    seed: u64,
    /// Shed responses observed across this client's lifetime.
    pub sheds: u64,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            addr: addr.to_string(),
            stream,
            next_id: 1,
            seed: 1,
            sheds: 0,
        })
    }

    /// Set the jitter seed used by [`Client::with_backoff`].
    pub fn with_seed(mut self, seed: u64) -> Client {
        self.seed = seed;
        self
    }

    /// Send one request and block for its response.
    pub fn request(&mut self, op: OpCode, aux: u32, text: &str) -> io::Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request {
            op,
            id,
            aux,
            text: text.to_string(),
        };
        if let Err(e) = write_frame(&mut self.stream, &req.encode()) {
            // The server may have spoken first and hung up — an accept-time
            // shed is an unsolicited `RetryAfter` followed by a close — so
            // the write fails while the answer already sits in our receive
            // buffer. Deliver that frame; without one the write error stands.
            return match e.kind() {
                io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset => {
                    self.read_response().map_err(|_| e)
                }
                _ => Err(e),
            };
        }
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        Response::decode(&payload)
            .map_err(|e: ProtoError| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Define (or replace) a relation: `NAME(vars) := formula`, or
    /// `spatial NAME`.
    pub fn define(&mut self, line: &str) -> io::Result<Response> {
        self.request(OpCode::Define, 0, line)
    }

    /// Evaluate a sentence under an optional deadline (0 = server default).
    pub fn eval_sentence(&mut self, query: &str, timeout_ms: u32) -> io::Result<Response> {
        self.request(OpCode::EvalSentence, timeout_ms, query)
    }

    /// Evaluate an open query under an optional deadline.
    pub fn eval_query(&mut self, query: &str, timeout_ms: u32) -> io::Result<Response> {
        self.request(OpCode::EvalQuery, timeout_ms, query)
    }

    /// Fetch the rendered evaluation plan without evaluating.
    pub fn explain(&mut self, query: &str) -> io::Result<Response> {
        self.request(OpCode::Explain, 0, query)
    }

    /// Fetch server counters and gauges.
    pub fn status(&mut self) -> io::Result<Response> {
        self.request(OpCode::Status, 0, "")
    }

    /// Scrape the metrics registry as a Prometheus-style text exposition.
    pub fn metrics(&mut self) -> io::Result<Response> {
        self.request(OpCode::Metrics, 0, "")
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.request(OpCode::Shutdown, 0, "")
    }

    /// Like [`Client::request`], but on a shed response sleep for the
    /// server's retry hint plus jitter and try again, up to `max_retries`
    /// times. A session-capacity shed (correlation id 0) closes the
    /// connection server-side, so the client reconnects before retrying.
    /// Returns the final response (which is still `RetryAfter` if every
    /// attempt was shed).
    pub fn with_backoff(
        &mut self,
        op: OpCode,
        aux: u32,
        text: &str,
        max_retries: u32,
    ) -> io::Result<Response> {
        let mut attempt: u64 = 0;
        loop {
            let resp = self.request(op, aux, text)?;
            if resp.code != RespCode::RetryAfter {
                return Ok(resp);
            }
            self.sheds += 1;
            if resp.id == 0 {
                // Accept-time shed: the server already closed this socket.
                self.stream = TcpStream::connect(&self.addr)?;
                self.stream.set_nodelay(true).ok();
            }
            if attempt >= max_retries as u64 {
                return Ok(resp);
            }
            // Hint + deterministic jitter in [0, hint/2]: spreads the
            // retrying herd without a shared clock or RNG state.
            let hint = resp.aux as u64;
            let jitter = splitmix64(self.seed ^ (attempt.wrapping_mul(0x9e37_79b9))) % (hint / 2 + 1);
            std::thread::sleep(Duration::from_millis(hint + jitter));
            attempt += 1;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// A server that speaks first and hangs up (the accept-time shed): once
    /// the client has written anything to the dead connection its next write
    /// fails, and `request` must still deliver the frame that was waiting.
    #[test]
    fn write_error_still_delivers_the_pending_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut c = Client::connect(&addr).unwrap();
        {
            let (mut s, _) = listener.accept().unwrap();
            write_frame(&mut s, &Response::retry_after(0, 25, "full").encode()).unwrap();
        }
        // The first bytes after the peer's close go out and draw a reset;
        // only then does a write fail.
        let mut failed = false;
        for _ in 0..200 {
            if c.stream.write_all(&[0]).is_err() {
                failed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(failed, "writes to a reset connection keep succeeding");
        let r = c.status().expect("the pending shed is delivered");
        assert_eq!((r.code, r.id, r.aux), (RespCode::RetryAfter, 0, 25));
        // Nothing pending any more: the write error stands.
        assert!(c.status().is_err());
    }
}
