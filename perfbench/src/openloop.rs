//! `serve_openloop`: a spawned `grip-serve`, one TCP connection, arrivals
//! sent on a fixed schedule whether or not earlier replies have come back.

use crate::check::{cold_fault, hit_fault, Tally};
use crate::e2e::Record;
use crate::gen::OpenLoopPlan;
use grip_json::Json;
use grip_service::proto::{request_to_json, response_from_json};
use grip_service::ScheduleResponse;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A running `grip-serve` and the one connection to it.
pub struct Server {
    child: Child,
    /// Kept open so the server's log lines never hit a closed pipe.
    _log: BufReader<ChildStderr>,
    conn: TcpStream,
    lines: BufReader<TcpStream>,
}

impl Server {
    /// Launch the server and wait until it answers a stats probe: the
    /// point from which a measured request can be sent.
    pub fn launch(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0", "--shards", &crate::SHARDS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let log = child.stderr.take().expect("stderr is piped");
        let connected = Self::connect(BufReader::new(log));
        match connected {
            Ok((log, conn, lines)) => {
                let mut server = Server { child, _log: log, conn, lines };
                server.command(r#"{"cmd":"stats"}"#)?;
                Ok(server)
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Read the listening address from the server's log and connect.
    fn connect(
        mut log: BufReader<ChildStderr>,
    ) -> Result<(BufReader<ChildStderr>, TcpStream, BufReader<TcpStream>), String> {
        let addr = loop {
            let mut line = String::new();
            if log.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("grip-serve exited before listening".to_string());
            }
            if let Some(a) = line.trim().strip_prefix("[grip-serve] listening on ") {
                break a.to_string();
            }
        };
        let conn = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        let lines = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
        Ok((log, conn, lines))
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.conn, "{line}").and_then(|()| self.conn.flush()).map_err(|e| e.to_string())
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        if self.lines.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("grip-serve closed the connection".to_string());
        }
        Json::parse(line.trim()).map_err(|e| e.to_string())
    }

    /// Send one control command and return its answer.
    pub fn command(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        self.recv()
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::stats::peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    /// Stop the server and reap it; errors are ignored (it may be gone).
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The measured window's outcome.
pub struct OpenLoopRun {
    pub records: Vec<Record>,
    /// Reply to each arrival, in arrival order (`None`: none in time).
    pub replies: Vec<Option<ScheduleResponse>>,
    /// Cold replies to the warm-up, in hot-set order.
    pub warm: Vec<ScheduleResponse>,
    pub gen_late_ms: Vec<f64>,
    /// Answers to the flight-recorder probes sent during the window.
    pub probes: Vec<Json>,
    /// Requests sent but not yet answered when the window closed.
    pub backlog_end: u64,
    /// Every arrival's reply came back before the reader gave up, so the
    /// connection carries nothing more.
    pub drained: bool,
    /// Window start to last reply, in seconds.
    pub measured_s: f64,
}

/// A reply must arrive within this long of its request's due time.
pub const LIMIT: Duration = Duration::from_secs(30);

/// With probing on, a `{"cmd":"events"}` probe goes out once at least this
/// many arrivals have been sent since the last one and every one of them
/// has been answered, so the probe's quiescing waits for nothing...
const PROBE_IDLE_AFTER: usize = 400;
/// ...and after this many regardless, so that no record leaves the
/// recorder's ring (`grip_obs::events::DEFAULT_CAPACITY`) unread.
const PROBE_FORCED_AFTER: usize = 900;

/// Warm the hot set (untimed), then send every arrival at its due time
/// from this thread while a second thread reads the in-order replies.
/// With `probe`, flight-recorder probes interleave with the arrivals (see
/// `PROBE_IDLE_AFTER`); a probe delays the arrivals behind it, so only
/// the traced run probes.
pub fn run(
    server: &mut Server,
    plan: &OpenLoopPlan,
    seconds: f64,
    probe: bool,
    tally: &mut Tally,
) -> Result<OpenLoopRun, String> {
    for r in &plan.hot {
        server.send(&request_to_json(r).line())?;
    }
    let mut warm = Vec::new();
    for _ in &plan.hot {
        let resp = response_from_json(&server.recv()?)?;
        if let Some(f) = cold_fault(&resp) {
            return Err(format!("warm-up reply is wrong: {f}"));
        }
        warm.push(resp);
    }

    let lines: Vec<String> = plan.arrivals.iter().map(|a| request_to_json(&a.req).line()).collect();
    let expected = lines.len();
    let last_due = plan.arrivals.last().map_or(0, |a| a.due_ns);
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + Duration::from_nanos(last_due) + LIMIT;
    let mut reader = server.lines.get_ref().try_clone().map_err(|e| e.to_string())?;
    reader.set_read_timeout(Some(Duration::from_millis(200))).map_err(|e| e.to_string())?;
    let answered = AtomicUsize::new(0);
    let probes_sent = AtomicUsize::new(0);
    let mut sent_at = Vec::with_capacity(expected);
    let (received, probes) = std::thread::scope(|s| -> Result<_, String> {
        let (answered, probes_sent) = (&answered, &probes_sent);
        let handle = s.spawn(move || {
            let mut got = Vec::with_capacity(expected);
            let mut probes = Vec::new();
            let mut buf = BufReader::new(&mut reader);
            let mut line = String::new();
            while (got.len() < expected || probes.len() < probes_sent.load(Ordering::Acquire))
                && Instant::now() < deadline
            {
                match buf.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) if line.ends_with('\n') => {
                        let now = Instant::now();
                        let line = std::mem::take(&mut line);
                        match probe_answer(&line) {
                            Some(j) => probes.push(j),
                            None => {
                                got.push((now, line));
                                answered.store(got.len(), Ordering::Release);
                            }
                        }
                    }
                    // A timed-out read keeps what it read so far in `line`.
                    Ok(_) | Err(_) => {}
                }
            }
            (got, probes)
        });
        let mut last_probe = 0;
        for (i, (a, line)) in plan.arrivals.iter().zip(&lines).enumerate() {
            let due = start + Duration::from_nanos(a.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let since = i - last_probe;
            let idle = answered.load(Ordering::Acquire) == i;
            if probe && (since >= PROBE_FORCED_AFTER || (since >= PROBE_IDLE_AFTER && idle)) {
                probes_sent.fetch_add(1, Ordering::AcqRel);
                let cmd = Json::obj().field("cmd", "events").field("n", since + 64);
                writeln!(server.conn, "{}", cmd.line()).map_err(|e| e.to_string())?;
                last_probe = i;
            }
            let t = Instant::now();
            writeln!(server.conn, "{line}").map_err(|e| e.to_string())?;
            sent_at.push(t);
        }
        Ok(handle.join().expect("reply reader panicked"))
    })?;
    // The reader's timeout is set on the socket, which every clone shares.
    server.conn.set_read_timeout(None).map_err(|e| e.to_string())?;

    let window_end = start + Duration::from_secs_f64(seconds);
    let answered_by_end = received.iter().filter(|(t, _)| *t <= window_end).count();
    let sent_by_end = sent_at.iter().filter(|&&t| t <= window_end).count();
    let gen_late_ms = plan
        .arrivals
        .iter()
        .zip(&sent_at)
        .map(|(a, &t)| t.saturating_duration_since(start + Duration::from_nanos(a.due_ns)))
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let mut records = Vec::with_capacity(expected);
    let mut replies = Vec::with_capacity(expected);
    for (i, a) in plan.arrivals.iter().enumerate() {
        let due = start + Duration::from_nanos(a.due_ns);
        let got = received.get(i).map(|(t, line)| {
            let resp = Json::parse(line.trim())
                .map_err(|e| e.to_string())
                .and_then(|j| response_from_json(&j));
            (t.saturating_duration_since(due), resp)
        });
        let (sojourn, resp, fault) = match got {
            Some((d, _)) if d > LIMIT => (None, None, Some(format!("no reply within {LIMIT:?}"))),
            None => (None, None, Some(format!("no reply within {LIMIT:?}"))),
            Some((_, Err(e))) => (None, None, Some(format!("unreadable reply: {e}"))),
            Some((d, Ok(resp))) => {
                let fault = if resp.id != a.req.id {
                    Some(format!("reply {} out of order, expected {}", resp.id, a.req.id))
                } else {
                    match a.hot {
                        Some(h) => hit_fault(&resp, &warm[h]),
                        None => cold_fault(&resp),
                    }
                };
                (Some(d.as_nanos() as u64), Some(resp), fault)
            }
        };
        records.push(Record {
            cold: a.hot.is_none(),
            sojourn_ns: sojourn,
            engine_ns: resp.as_ref().map_or(0, |r| r.wall_ns),
            ok: fault.is_none(),
        });
        tally.record(fault);
        replies.push(resp);
    }
    let last = received.last().map_or(start, |(t, _)| *t);
    Ok(OpenLoopRun {
        records,
        replies,
        warm,
        gen_late_ms,
        probes,
        backlog_end: sent_by_end.saturating_sub(answered_by_end) as u64,
        drained: received.len() == expected,
        measured_s: last.saturating_duration_since(start).as_secs_f64(),
    })
}

/// The parsed answer to a flight-recorder probe, if `line` is one rather
/// than a reply to a request.
fn probe_answer(line: &str) -> Option<Json> {
    if !line.contains("\"cmd\"") {
        return None;
    }
    Json::parse(line.trim()).ok().filter(|j| j.get("cmd").and_then(Json::as_str) == Some("events"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::good_reply;
    use grip_service::proto::response_to_json;

    #[test]
    fn probe_answers_are_told_apart_from_replies() {
        let answer = |cmd: &str| Json::obj().field("cmd", cmd).field("ok", true).line() + "\n";
        assert!(probe_answer(&answer("events")).is_some());
        assert!(probe_answer(&answer("stats")).is_none());
        assert!(probe_answer(&(response_to_json(&good_reply()).line() + "\n")).is_none());
    }
}
