//! A minimal HTTP/1.0 scrape endpoint for the daemon's metrics
//! registry.
//!
//! The PSTS `METRICS` verb (see [`proto`](crate::proto)) serves the same
//! exposition to PSTS clients; this endpoint exists so an off-the-shelf
//! Prometheus scraper — or a plain `curl` — can read the daemon without
//! speaking PSTS. It answers every request on its socket with a
//! `200 OK` text response carrying [`render_prometheus`] output; the
//! request line and headers are drained and ignored.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pstrace_obs::{merged_samples, render_prometheus_samples, Registry};

/// A running scrape endpoint: one listener thread answering HTTP GETs
/// with the registry's Prometheus exposition.
#[derive(Debug)]
pub struct MetricsEndpoint {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    listener: Option<JoinHandle<()>>,
}

impl MetricsEndpoint {
    /// Binds `addr` and spawns the listener thread. Every connection is
    /// answered with the *merged* exposition of `registries`
    /// ([`pstrace_obs::merged_samples`]) and closed — the sharded
    /// daemon's per-shard registries read as one.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        registries: Vec<Arc<Registry>>,
    ) -> io::Result<MetricsEndpoint> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Nonblocking accept so the loop can poll the shutdown flag.
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = answer(stream, &registries);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => return,
                    }
                }
            })
        };
        Ok(MetricsEndpoint {
            addr,
            shutdown,
            listener: Some(handle),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the listener thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsEndpoint {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Drains the request head (best effort, bounded) and writes one
/// `HTTP/1.0 200` text response with the current merged exposition.
fn answer(mut stream: std::net::TcpStream, registries: &[Arc<Registry>]) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
    stream.set_nodelay(true).ok();
    // Read until the blank line ending the request head, a short
    // timeout, or a 4 KiB cap — whichever comes first. The content is
    // irrelevant: every request gets the same exposition.
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 4096 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = render_prometheus_samples(&merged_samples(registries));
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    #[test]
    fn scrape_gets_a_text_response_with_the_exposition() {
        let registry = Arc::new(Registry::new());
        registry.counter("pstrace_stream_sessions_total").add(3);
        let endpoint = MetricsEndpoint::spawn("127.0.0.1:0", vec![Arc::clone(&registry)])
            .expect("bind endpoint");
        let addr = endpoint.local_addr();

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");

        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain"), "{response}");
        assert!(
            response.contains("pstrace_stream_sessions_total 3\n"),
            "{response}"
        );
        endpoint.shutdown();
    }
}
