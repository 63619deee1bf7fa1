//! TCP clients against a running `NetServer`: an open-loop sender that
//! paces a Poisson schedule, and a closed-loop client that keeps a
//! fixed window outstanding per connection. Every time is on the
//! tracer's clock so client spans line up with the rest of the run.
//!
//! Replies are checked against the oracle's expected results as they
//! are absorbed and reduced to latency samples, so the client's memory
//! does not grow with the server's throughput.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gcm_net::{encode_submit, Frame, FrameDecoder, ResponseFrame, SubmitFrame};
use gcm_workload::{QueryRequest, TenantClass};

use crate::stats::Samples;

/// Expected `(output_n, output_hash)` per request shape
/// (tenant, class, selectivity bits).
pub type Expect = HashMap<(usize, TenantClass, u64), (u64, u64)>;

pub fn shape(req: &QueryRequest) -> (usize, TenantClass, u64) {
    (req.tenant, req.class, req.selectivity.to_bits())
}

/// Client-side timestamps of one answered request, kept for spans.
#[derive(Debug, Clone, Copy)]
pub struct ReplyTimes {
    pub id: u64,
    /// Scheduled send (open loop) or send start (closed loop).
    pub due_ns: u64,
    pub send_start: u64,
    pub send_end: u64,
    pub recv_ns: u64,
}

/// What one socket run observed.
#[derive(Debug, Default)]
pub struct SocketRun {
    pub sent: u64,
    /// Sent but never answered.
    pub lost: u64,
    /// Answers whose id matches no outstanding request.
    pub stray: u64,
    pub served: u64,
    pub shed: u64,
    /// Served results that differ from the oracle.
    pub wrong: u64,
    /// Latency of served requests due inside the measured window, ns:
    /// all classes, and point lookups only.
    pub latency: Samples,
    pub point_latency: Samples,
    /// Send lateness against the schedule (measured window), ns.
    pub lag: Samples,
    /// Requests actually sent inside the measured window.
    pub sent_in_window: u64,
    pub last_recv_ns: u64,
    /// Server-reported sojourn, and client latency from the send minus
    /// that sojourn (measured window), ns.
    pub sojourn: Samples,
    pub outside: Samples,
    /// Per-reply timestamps, kept only when tracing.
    pub times: Vec<ReplyTimes>,
}

/// How replies are judged and what is kept of them.
#[derive(Clone, Copy)]
pub struct Judge<'a> {
    pub expect: &'a Expect,
    /// Measured window, tracer clock.
    pub window: (u64, u64),
    pub keep_times: bool,
}

impl SocketRun {
    fn absorb(
        &mut self,
        judge: Judge<'_>,
        req: &QueryRequest,
        t: ReplyTimes,
        frame: ResponseFrame,
    ) {
        let measured = t.due_ns >= judge.window.0 && t.due_ns < judge.window.1;
        self.last_recv_ns = self.last_recv_ns.max(t.recv_ns);
        if judge.keep_times {
            self.times.push(t);
        }
        match frame {
            ResponseFrame::Served {
                output_n,
                output_hash,
                sojourn_ns,
                ..
            } => {
                self.served += 1;
                if judge.expect.get(&shape(req)) != Some(&(output_n, output_hash)) {
                    self.wrong += 1;
                }
                if measured {
                    let latency = (t.recv_ns - t.due_ns) as f64;
                    self.latency.push(latency);
                    if req.class == TenantClass::PointLookup {
                        self.point_latency.push(latency);
                    }
                    self.sojourn.push(sojourn_ns as f64);
                    self.outside
                        .push((t.recv_ns - t.send_start) as f64 - sojourn_ns as f64);
                }
            }
            ResponseFrame::Shed { .. } => self.shed += 1,
        }
    }

    fn merge(&mut self, other: SocketRun) {
        self.sent += other.sent;
        self.lost += other.lost;
        self.stray += other.stray;
        self.served += other.served;
        self.shed += other.shed;
        self.wrong += other.wrong;
        self.latency.extend(other.latency);
        self.point_latency.extend(other.point_latency);
        self.lag.extend(other.lag);
        self.sent_in_window += other.sent_in_window;
        self.last_recv_ns = self.last_recv_ns.max(other.last_recv_ns);
        self.sojourn.extend(other.sojourn);
        self.outside.extend(other.outside);
        self.times.extend(other.times);
    }
}

fn frame_for(id: u64, req: &QueryRequest) -> SubmitFrame {
    SubmitFrame {
        id,
        tenant: req.tenant as u32,
        class: req.class,
        selectivity_bits: req.selectivity.to_bits(),
    }
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Read responses until `done` is set and the socket goes quiet (or
/// closes), stamping each with its receive time.
fn read_loop(
    mut rx: TcpStream,
    epoch: Instant,
    done: &AtomicBool,
    got: &AtomicU64,
) -> Vec<(ResponseFrame, u64)> {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut out = Vec::new();
    loop {
        match rx.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let recv = now_ns(epoch);
                decoder.push(&buf[..n]);
                while let Ok(Some(Frame::Response(frame))) = decoder.next() {
                    out.push((frame, recv));
                    got.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if done.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    out
}

/// Open loop: request `i` is due at `start_ns + due[i]` and rides
/// connection `i % connections`. Sends are paced by sleeping; a late
/// send is recorded, not skipped. Waits up to `drain` after the last
/// send for the answers.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[QueryRequest],
    due: &[u64],
    start_ns: u64,
    connections: usize,
    epoch: Instant,
    drain: Duration,
    judge: Judge<'_>,
) -> std::io::Result<SocketRun> {
    let done = AtomicBool::new(false);
    let got = AtomicU64::new(0);
    let mut writers = Vec::with_capacity(connections);
    let mut readers = Vec::with_capacity(connections);
    for _ in 0..connections {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        let rx = s.try_clone()?;
        rx.set_read_timeout(Some(Duration::from_millis(20)))?;
        readers.push(rx);
        writers.push(s);
    }
    let mut sends: Vec<(u64, u64)> = Vec::with_capacity(due.len());
    let received: Vec<(ResponseFrame, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .into_iter()
            .map(|rx| s.spawn(|| read_loop(rx, epoch, &done, &got)))
            .collect();
        let mut bytes = Vec::with_capacity(64);
        let mut result = Ok(());
        for (i, &d) in due.iter().enumerate() {
            let target = start_ns + d;
            let now = now_ns(epoch);
            if target > now {
                std::thread::sleep(Duration::from_nanos(target - now));
            }
            let t0 = now_ns(epoch);
            bytes.clear();
            encode_submit(&frame_for(i as u64, &reqs[i]), &mut bytes);
            if let Err(e) = writers[i % connections].write_all(&bytes) {
                result = Err(e);
                break;
            }
            sends.push((t0, now_ns(epoch)));
        }
        let deadline = Instant::now() + drain;
        while got.load(Ordering::Relaxed) < sends.len() as u64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        done.store(true, Ordering::Release);
        let all = handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread panicked"))
            .collect();
        result.map(|()| all)
    })?;
    drop(writers);
    let mut run = SocketRun {
        sent: sends.len() as u64,
        ..SocketRun::default()
    };
    for (i, &(send_start, _)) in sends.iter().enumerate() {
        let due_ns = start_ns + due[i];
        if due_ns >= judge.window.0 {
            run.lag.push((send_start - due_ns) as f64);
        }
        if send_start >= judge.window.0 && send_start < judge.window.1 {
            run.sent_in_window += 1;
        }
    }
    let mut answered = vec![false; sends.len()];
    for (frame, recv_ns) in received {
        let i = frame.id() as usize;
        match (sends.get(i), answered.get(i)) {
            (Some(&(send_start, send_end)), Some(false)) => {
                answered[i] = true;
                let t = ReplyTimes {
                    id: i as u64,
                    due_ns: start_ns + due[i],
                    send_start,
                    send_end,
                    recv_ns,
                };
                run.absorb(judge, &reqs[i], t, frame);
            }
            _ => run.stray += 1,
        }
    }
    run.lost = answered.iter().filter(|a| !**a).count() as u64;
    Ok(run)
}

/// Closed loop: `connections` clients, each keeping `window` requests
/// outstanding until `until_ns`, then collecting what is still out.
/// Connection `c`'s `k`-th request is stream position `k·connections + c`.
pub fn closed_loop(
    addr: SocketAddr,
    stream: &[QueryRequest],
    connections: usize,
    window: usize,
    epoch: Instant,
    judge: Judge<'_>,
) -> std::io::Result<SocketRun> {
    let parts: Vec<std::io::Result<SocketRun>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                s.spawn(move || closed_conn(addr, stream, c, connections, window, epoch, judge))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut run = SocketRun::default();
    for part in parts {
        run.merge(part?);
    }
    Ok(run)
}

fn closed_conn(
    addr: SocketAddr,
    stream: &[QueryRequest],
    c: usize,
    connections: usize,
    window: usize,
    epoch: Instant,
    judge: Judge<'_>,
) -> std::io::Result<SocketRun> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    // A response missing this long counts as lost.
    sock.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut bytes = Vec::with_capacity(64);
    let mut out: HashMap<u64, (u64, u64)> = HashMap::with_capacity(window);
    let mut fresh = Vec::with_capacity(window);
    let mut run = SocketRun::default();
    let mut k = 0usize;
    loop {
        bytes.clear();
        fresh.clear();
        let t0 = now_ns(epoch);
        while out.len() + fresh.len() < window && t0 < judge.window.1 {
            let g = k * connections + c;
            k += 1;
            encode_submit(&frame_for(g as u64, &stream[g % stream.len()]), &mut bytes);
            fresh.push(g as u64);
        }
        if !fresh.is_empty() {
            sock.write_all(&bytes)?;
            let t1 = now_ns(epoch);
            run.sent += fresh.len() as u64;
            for &g in &fresh {
                out.insert(g, (t0, t1));
            }
        }
        if out.is_empty() {
            break;
        }
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let recv_ns = now_ns(epoch);
                decoder.push(&buf[..n]);
                while let Ok(Some(Frame::Response(frame))) = decoder.next() {
                    let id = frame.id();
                    let Some((send_start, send_end)) = out.remove(&id) else {
                        run.stray += 1;
                        continue;
                    };
                    let t = ReplyTimes {
                        id,
                        due_ns: send_start,
                        send_start,
                        send_end,
                        recv_ns,
                    };
                    run.absorb(judge, &stream[id as usize % stream.len()], t, frame);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        }
    }
    run.lost = out.len() as u64;
    Ok(run)
}
