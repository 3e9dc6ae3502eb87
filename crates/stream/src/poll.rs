//! Libc-free readiness primitives for the event-loop daemon.
//!
//! The shard workers drive many nonblocking sockets from one thread. A
//! real `poll(2)` needs raw file descriptors and an unsafe FFI surface,
//! which the crate's `#![forbid(unsafe_code)]` policy rules out; instead
//! each socket is probed speculatively — a nonblocking read either moves
//! bytes or reports `WouldBlock` — and an adaptive [`Backoff`] keeps the
//! loop from spinning hot when every socket is quiet. Under load the
//! probe *is* the readiness check (the read that `poll` would have
//! announced succeeds directly); at idle the loop parks on its inbox
//! for ≤1 ms, so a new socket or a handoff wakes it at once.
//!
//! Listeners need no probing: [`accept_until`] blocks in `accept(2)`,
//! and whoever stops it wakes it with a self-connect
//! ([`wake_acceptor`]).

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::time::Duration;

/// What one speculative nonblocking read produced.
#[derive(Debug)]
pub(crate) enum Readiness {
    /// `n` bytes landed in the buffer.
    Data(usize),
    /// The socket has nothing buffered right now.
    WouldBlock,
    /// The peer closed its write side.
    Eof,
}

/// One nonblocking read, with `EINTR` retried internally.
///
/// # Errors
///
/// Propagates transport errors other than `WouldBlock` (which is a
/// [`Readiness`] value, not an error).
pub(crate) fn read_once(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<Readiness> {
    loop {
        match stream.read(buf) {
            Ok(0) => return Ok(Readiness::Eof),
            Ok(n) => return Ok(Readiness::Data(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Readiness::WouldBlock),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// What one speculative nonblocking write produced.
#[derive(Debug)]
pub(crate) enum Progress {
    /// `n` bytes entered the socket buffer.
    Wrote(usize),
    /// The socket buffer is full right now.
    WouldBlock,
}

/// One nonblocking write, with `EINTR` retried internally.
///
/// # Errors
///
/// Propagates transport errors other than `WouldBlock`.
pub(crate) fn write_once(stream: &mut TcpStream, buf: &[u8]) -> io::Result<Progress> {
    loop {
        match stream.write(buf) {
            Ok(n) => return Ok(Progress::Wrote(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Progress::WouldBlock),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Adaptive idle backoff: a few free yields, then a short park on the
/// inbox.
///
/// The shard loop calls [`Backoff::idle_wait`] on ticks where no socket
/// moved and [`Backoff::note_progress`] on ticks where one did, so a busy
/// shard spins at full speed and an idle one costs ~one wakeup per
/// millisecond — unless a message arrives first, which ends the park.
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    idle_ticks: u32,
}

impl Backoff {
    pub(crate) fn new() -> Backoff {
        Backoff::default()
    }

    /// A socket moved: the next idle tick starts cheap again.
    pub(crate) fn note_progress(&mut self) {
        self.idle_ticks = 0;
    }

    /// Nothing moved this tick: yield first; once that keeps happening,
    /// block on `inbox` for up to 1 ms and return whatever arrives (a
    /// message is progress, so the next idle tick starts cheap again).
    pub(crate) fn idle_wait<T>(&mut self, inbox: &Receiver<T>) -> Option<T> {
        self.idle_ticks = self.idle_ticks.saturating_add(1);
        if self.idle_ticks < 8 {
            std::thread::yield_now();
            return None;
        }
        let msg = inbox.recv_timeout(Duration::from_millis(1)).ok();
        if msg.is_some() {
            self.note_progress();
        }
        msg
    }
}

/// Runs a blocking accept loop on `listener` until `shutdown` is set,
/// handing every connection to `on_conn` (which returns `false` to stop).
///
/// The flag is re-checked after every accept, so a stopper sets it and
/// then wakes the loop with [`wake_acceptor`]; the wake socket is
/// dropped unserved, then the listener. `EINTR` is retried at once. Any
/// other `accept(2)` failure (EMFILE, ECONNABORTED, …) goes to
/// `on_error` and is retried under capped exponential back-off, never
/// fatal: a listener must outlive transient resource pressure.
pub(crate) fn accept_until(
    listener: TcpListener,
    shutdown: &AtomicBool,
    mut on_error: impl FnMut(),
    mut on_conn: impl FnMut(TcpStream) -> bool,
) {
    let initial = Duration::from_millis(5);
    let cap = Duration::from_secs(1);
    let mut backoff = initial;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                backoff = initial;
                if !on_conn(stream) {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                on_error();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(cap);
            }
        }
    }
}

/// Wakes an [`accept_until`] loop blocked on the listener bound at
/// `addr` by connecting to it once. An unspecified bind address
/// (`0.0.0.0`, `[::]`) is reached through loopback. Best effort: if the
/// connect fails (listener gone, backlog full, no free descriptor), the
/// loop ends at its next accepted connection instead.
pub(crate) fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn read_once_reports_data_wouldblock_and_eof() {
        let (mut client, mut server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 16];
        assert!(matches!(
            read_once(&mut server, &mut buf).unwrap(),
            Readiness::WouldBlock
        ));
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        // The bytes are in flight; poll until they land.
        loop {
            match read_once(&mut server, &mut buf).unwrap() {
                Readiness::Data(n) => {
                    assert_eq!(&buf[..n], b"ping");
                    break;
                }
                Readiness::WouldBlock => std::thread::yield_now(),
                Readiness::Eof => panic!("peer still open"),
            }
        }
        drop(client);
        loop {
            match read_once(&mut server, &mut buf).unwrap() {
                Readiness::Eof => break,
                Readiness::WouldBlock => std::thread::yield_now(),
                Readiness::Data(_) => panic!("no more data was sent"),
            }
        }
    }

    #[test]
    fn write_once_makes_progress_on_an_open_socket() {
        let (client, mut server) = pair();
        server.set_nonblocking(true).unwrap();
        match write_once(&mut server, b"pong").unwrap() {
            Progress::Wrote(n) => assert!(n > 0),
            Progress::WouldBlock => panic!("fresh socket buffer cannot be full"),
        }
        drop(client);
    }

    #[test]
    fn backoff_resets_on_progress() {
        let (_tx, rx) = std::sync::mpsc::channel::<()>();
        let mut b = Backoff::new();
        for _ in 0..3 {
            assert!(b.idle_wait(&rx).is_none());
        }
        assert_eq!(b.idle_ticks, 3);
        b.note_progress();
        assert_eq!(b.idle_ticks, 0);
    }

    #[test]
    fn idle_wait_past_the_yield_phase_returns_a_queued_message() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut b = Backoff::new();
        while b.idle_ticks < 8 {
            assert_eq!(b.idle_wait(&rx), None);
        }
        tx.send(7u32).unwrap();
        assert_eq!(b.idle_wait(&rx), Some(7));
        assert_eq!(b.idle_ticks, 0, "a message counts as progress");
    }
}
