//! The load generator's side of the socket: one [`Client`] per
//! connection, driven open-loop (paced) or closed-loop (saturation).
//!
//! Every job line sent is remembered by its per-connection job number
//! (the server numbers a connection's job lines in admission order), so
//! each result line read back is matched to the template and due time
//! it answers.
//!
//! Waiting for "an answer or the next due time, whichever comes first"
//! blocks in `read` while the deadline is far: the read returns the
//! moment an answer arrives. Its timeout, though, is kept in whole
//! scheduler ticks (up to about 10 ms late at `HZ = 250`), which would
//! make the open-loop generator that late, so the last
//! [`BLOCKING_MARGIN`] before a deadline polls a non-blocking socket
//! between sleeps of at most [`POLL_STEP`] (a sleep ends within about
//! 60 µs of its target). Plain std calls keep the benchmark free of
//! foreign (`poll(2)`) bindings.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

/// Longest sleep between reads while polling: an answer is read (and
/// timestamped) at most this much after it arrives.
const POLL_STEP: Duration = Duration::from_micros(100);
/// How close to a deadline a wait stops blocking and starts polling:
/// more than a blocking read's timeout can overshoot.
const BLOCKING_MARGIN: Duration = Duration::from_millis(15);

/// One job line sent on a connection.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Template index.
    pub template: usize,
    /// When it was due (open loop) or handed to the write (closed loop).
    pub due: Instant,
    /// When the write started.
    pub start: Instant,
    /// When the write returned.
    pub sent: Instant,
    /// When its answer line was read.
    pub recv: Option<Instant>,
    /// The answer line, reduced to what the checks need.
    pub answer: Option<Answer>,
}

/// What is kept of an answer line: its normalized digest (compared to
/// the reference's) and its service time. Keeping digests rather than
/// lines keeps the generator's memory small next to the service's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// [`crate::check::digest`] of the line.
    pub digest: u64,
    /// The line's `wall_ns`, if it has one.
    pub wall_ns: Option<u64>,
}

impl Sent {
    /// Due-to-answer latency.
    pub fn latency(&self) -> Option<Duration> {
        self.recv.map(|r| r.duration_since(self.due))
    }
}

/// One connection to the service under test.
pub struct Client {
    stream: UnixStream,
    /// Whether `stream` is in blocking mode.
    blocking: bool,
    buf: Vec<u8>,
    /// Job lines in send order; index = server-side job number.
    pub jobs: Vec<Sent>,
    /// Job lines not yet answered.
    pub outstanding: usize,
    /// Answers to `stats` probes, with their read time.
    pub stats: Vec<(Instant, String)>,
    /// Lines that answer no job (protocol refusals), and answers that
    /// report an error or a refusal, kept whole for diagnostics.
    pub stray: Vec<String>,
}

/// How long a drain may wait for the last answers before the run is
/// declared failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

impl Client {
    /// Connects to the service's Unix socket.
    pub fn connect(path: &Path) -> io::Result<Client> {
        Ok(Client {
            stream: UnixStream::connect(path)?,
            blocking: true,
            buf: Vec::with_capacity(1 << 16),
            jobs: Vec::with_capacity(1 << 15),
            outstanding: 0,
            stats: Vec::new(),
            stray: Vec::new(),
        })
    }

    fn send_line(&mut self, text: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(text.len() + 1);
        bytes.extend_from_slice(text.as_bytes());
        bytes.push(b'\n');
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_STEP),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Sends a line that produces no answer (a floorplan definition).
    pub fn define(&mut self, text: &str) -> io::Result<()> {
        self.send_line(text)
    }

    /// Sends a `stats` probe.
    pub fn probe(&mut self) -> io::Result<()> {
        self.send_line(r#"{"type": "stats"}"#)
    }

    /// Sends one job line due at `due`; returns its job number.
    pub fn send_job(&mut self, template: usize, text: &str, due: Instant) -> io::Result<usize> {
        let start = Instant::now();
        self.send_line(text)?;
        self.jobs.push(Sent {
            template,
            due,
            start,
            sent: Instant::now(),
            recv: None,
            answer: None,
        });
        self.outstanding += 1;
        Ok(self.jobs.len() - 1)
    }

    /// Reads whatever arrives before `deadline` and files every complete
    /// line. Returns the number of job answers filed.
    pub fn pump(&mut self, deadline: Instant) -> io::Result<usize> {
        let mut chunk = [0u8; 1 << 16];
        let n = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let block = left > BLOCKING_MARGIN;
            if block != self.blocking {
                self.stream.set_nonblocking(!block)?;
                self.blocking = block;
            }
            if block {
                self.stream.set_read_timeout(Some(left - BLOCKING_MARGIN))?;
            }
            match self.stream.read(&mut chunk) {
                Ok(n) => break n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if left.is_zero() {
                        return Ok(0);
                    }
                    if !block {
                        thread::sleep(left.min(POLL_STEP));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "service closed the connection",
            ));
        }
        let now = Instant::now();
        self.buf.extend_from_slice(&chunk[..n]);
        let mut filed = 0;
        while let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = self.buf.drain(..=end).collect();
            let line = String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
            filed += usize::from(self.file(line, now));
        }
        Ok(filed)
    }

    /// Files one answer line; true when it answered a job.
    fn file(&mut self, line: String, now: Instant) -> bool {
        if line.starts_with(r#"{"type":"stats""#) {
            self.stats.push((now, line));
            return false;
        }
        match crate::check::job_number(&line).and_then(|n| self.jobs.get_mut(n)) {
            Some(job) if job.answer.is_none() => {
                job.recv = Some(now);
                job.answer = Some(Answer {
                    digest: crate::check::digest(&line),
                    wall_ns: crate::check::wall_ns(&line),
                });
                self.outstanding -= 1;
                if line.contains(r#""ok":false"#) || line.contains(r#""refused":"#) {
                    self.stray.push(line);
                }
                true
            }
            _ => {
                self.stray.push(line);
                false
            }
        }
    }

    /// Reads until every job line sent has its answer.
    ///
    /// # Errors
    ///
    /// A socket error, or answers still missing after a minute.
    pub fn drain(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.outstanding > 0 {
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{} answers missing after drain timeout", self.outstanding),
                ));
            }
            self.pump(deadline)?;
        }
        Ok(())
    }
}
