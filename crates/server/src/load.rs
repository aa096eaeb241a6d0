//! Load generator: N client threads hammering one server, with latency
//! percentiles and a JSON report. Used by the `lcdb-load` binary and the CI
//! overload smoke test.

use crate::client::Client;
use crate::proto::{OpCode, RespCode};
use std::time::Instant;

/// What to throw at the server.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client (after the define preamble).
    pub requests: usize,
    /// Definition lines each client sends before querying.
    pub defines: Vec<String>,
    /// The query text every request evaluates.
    pub query: String,
    /// Which evaluation opcode to use.
    pub op: OpCode,
    /// Per-request deadline in milliseconds (0 = server default).
    pub timeout_ms: u32,
    /// Base seed; client `i` jitters with `seed + i`.
    pub seed: u64,
    /// Backoff retries per request before giving up on a shed.
    pub max_retries: u32,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            clients: 4,
            requests: 16,
            defines: vec!["S(x) := (0 < x and x < 1) or (2 < x and x < 3)".into()],
            query: "exists R. R subset S".into(),
            op: OpCode::EvalSentence,
            timeout_ms: 0,
            seed: 7,
            max_retries: 8,
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests attempted (defines excluded).
    pub sent: u64,
    /// `Ok` responses.
    pub ok: u64,
    /// `Ok` responses served from the result cache (`aux == 1`).
    pub cached: u64,
    /// Shed (`RetryAfter`) responses observed, including retried ones.
    pub sheds: u64,
    /// Requests whose final outcome was still a shed after all retries.
    pub gave_up: u64,
    /// `Timeout` responses.
    pub timeouts: u64,
    /// `ParseError`/`EvalError`/`Fault`/`BadRequest`/`Internal` responses.
    pub errors: u64,
    /// Connection-level failures (connect/read/write).
    pub conn_errors: u64,
    /// Wall-clock for the whole run, microseconds.
    pub wall_us: u64,
    /// Client-observed latency percentiles over completed requests, µs.
    pub p50_us: u64,
    /// 95th percentile latency, µs.
    pub p95_us: u64,
    /// 99th percentile latency, µs.
    pub p99_us: u64,
    /// Completed requests per second over the wall clock.
    pub throughput_rps: f64,
}

impl LoadReport {
    /// One-line JSON rendering (no external serializer).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"sent\":{},\"ok\":{},\"cached\":{},\"sheds\":{},",
                "\"gave_up\":{},\"timeouts\":{},\"errors\":{},",
                "\"conn_errors\":{},\"wall_us\":{},\"p50_us\":{},",
                "\"p95_us\":{},\"p99_us\":{},\"throughput_rps\":{:.2}}}"
            ),
            self.sent,
            self.ok,
            self.cached,
            self.sheds,
            self.gave_up,
            self.timeouts,
            self.errors,
            self.conn_errors,
            self.wall_us,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.throughput_rps,
        )
    }
}

#[derive(Default)]
struct ClientOutcome {
    sent: u64,
    ok: u64,
    cached: u64,
    sheds: u64,
    gave_up: u64,
    timeouts: u64,
    errors: u64,
    conn_errors: u64,
    latencies_us: Vec<u64>,
}

fn drive_one(cfg: &LoadConfig, index: usize) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut client = match Client::connect(&cfg.addr) {
        Ok(c) => c.with_seed(cfg.seed.wrapping_add(index as u64)),
        Err(_) => {
            out.conn_errors += 1;
            return out;
        }
    };
    for line in &cfg.defines {
        match client.define(line) {
            Ok(r) if r.code == RespCode::Ok => {}
            Ok(_) => out.errors += 1,
            Err(_) => {
                out.conn_errors += 1;
                return out;
            }
        }
    }
    for _ in 0..cfg.requests {
        out.sent += 1;
        let started = Instant::now();
        match client.with_backoff(cfg.op, cfg.timeout_ms, &cfg.query, cfg.max_retries) {
            Ok(resp) => {
                out.latencies_us
                    .push(started.elapsed().as_micros() as u64);
                match resp.code {
                    RespCode::Ok => {
                        out.ok += 1;
                        if resp.aux == 1 {
                            out.cached += 1;
                        }
                    }
                    RespCode::RetryAfter => out.gave_up += 1,
                    RespCode::Timeout => out.timeouts += 1,
                    _ => out.errors += 1,
                }
            }
            Err(_) => {
                out.conn_errors += 1;
                return out;
            }
        }
    }
    out.sheds = client.sheds;
    out
}

/// Run the configured load and aggregate the per-client outcomes.
pub fn run(cfg: &LoadConfig) -> LoadReport {
    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|i| scope.spawn(move || drive_one(cfg, i)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall_us = started.elapsed().as_micros() as u64;

    let mut report = LoadReport {
        wall_us,
        ..LoadReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for o in outcomes {
        report.sent += o.sent;
        report.ok += o.ok;
        report.cached += o.cached;
        report.sheds += o.sheds;
        report.gave_up += o.gave_up;
        report.timeouts += o.timeouts;
        report.errors += o.errors;
        report.conn_errors += o.conn_errors;
        latencies.extend(o.latencies_us);
    }
    latencies.sort_unstable();
    report.p50_us = percentile(&latencies, 50);
    report.p95_us = percentile(&latencies, 95);
    report.p99_us = percentile(&latencies, 99);
    if wall_us > 0 {
        report.throughput_rps = (latencies.len() as f64) / (wall_us as f64 / 1e6);
    }
    report
}

/// Nearest-rank percentile over a sorted slice (0 on empty input).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * (sorted.len() as u64 - 1) + 50) / 100;
    sorted[rank.min(sorted.len() as u64 - 1) as usize]
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 51);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[42], 99), 42);
    }

    #[test]
    fn report_json_shape() {
        let r = LoadReport {
            sent: 3,
            ok: 2,
            throughput_rps: 12.5,
            ..LoadReport::default()
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"sent\":3"));
        assert!(j.contains("\"throughput_rps\":12.50"));
    }
}
