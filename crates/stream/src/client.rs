//! The replay client: stream a `.ptw` capture to a running daemon.
//!
//! Two shapes:
//!
//! * [`stream_ptw`] — the plain one-shot client: one connection, no
//!   retries, a transport error is the caller's problem;
//! * [`stream_ptw_resumable`] — the hardened client: the resumable-session
//!   verb plus bounded reconnect-with-backoff per the [`RetryPolicy`] in
//!   its [`StreamOptions`], picking the session back up at the server's
//!   acknowledged byte offset, so the reassembled stream is
//!   byte-identical to an uninterrupted one.
//!
//! The hardened client speaks to whatever `Read + Write` its connector
//! returns: [`connect_tcp`] for a plain socket under the policy's
//! timeouts, or a wrapper around one, which is how the fault-injection
//! harness slips a chaos layer between the client and the socket.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use pstrace_diag::MatchMode;
use pstrace_flow::MessageCatalog;
use pstrace_wire::read_ptw_header;

use crate::error::StreamError;
use crate::proto::{
    parse_resume_ack, read_reply, write_data, write_finish, write_hello, write_metrics_request,
    write_resume_hello, write_shutdown_request, Hello,
};

/// Default chunk size of the replay client, sized to cut a typical
/// capture into several chunks without degenerating to per-frame sends.
pub const DEFAULT_CHUNK_BYTES: usize = 256;

/// Mints a fresh, nonzero trace-context id for one logical replay: the
/// high half is a process-unique sequence number, the low half a hash
/// of the wall clock, so ids stay unique in-process and collide only
/// astronomically across processes. The id rides every hello of the
/// replay — including reconnects — so the daemon's flight recorder sees
/// one id per logical session.
#[must_use]
pub fn next_trace_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let seq = NEXT.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    // SplitMix64 finalizer over the clock reading.
    let mut z = nanos.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ((seq << 32) | (z & 0xffff_fffe) | 1) & !(1 << 63)
}

/// Transport robustness knobs of the hardened client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout while waiting for acks and replies.
    pub read_timeout: Duration,
    /// Reconnect attempts after the first connection (0 = one shot).
    pub max_reconnects: u32,
    /// Backoff before the first reconnect; doubles per attempt.
    pub initial_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            max_reconnects: 4,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// What [`stream_ptw_resumable`] sends besides the capture: the hello's
/// session fields, the chunk size and the transport retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Usage scenario number the capture belongs to.
    pub scenario: u8,
    /// How the daemon matches the observation against path projections.
    pub mode: MatchMode,
    /// Tenant id riding every (re)connection's hello, for daemons
    /// enforcing per-tenant quotas (0 = the anonymous tenant).
    pub tenant: u32,
    /// Flight-recorder trace-context id riding every (re)connection's
    /// hello. `None` mints one per call ([`next_trace_id`]); `Some(0)`
    /// lets the server assign one; any other value lets a harness find
    /// its session in a flight-recorder dump afterwards.
    pub trace: Option<u64>,
    /// Size of each data chunk on the wire (0 is treated as 1).
    pub chunk_bytes: usize,
    /// Timeouts and the reconnect budget.
    pub retry: RetryPolicy,
}

impl StreamOptions {
    /// Options for `scenario` under `mode`: the anonymous tenant, a
    /// minted trace id, [`DEFAULT_CHUNK_BYTES`] chunks and the default
    /// [`RetryPolicy`].
    #[must_use]
    pub fn new(scenario: u8, mode: MatchMode) -> Self {
        StreamOptions {
            scenario,
            mode,
            tenant: 0,
            trace: None,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            retry: RetryPolicy::default(),
        }
    }
}

/// Opens one TCP connection to `addr` under `policy`'s timeouts: every
/// resolved address is tried with the connect timeout, and the first
/// socket that answers gets `TCP_NODELAY` and the read timeout. Pass it
/// (or a wrapper around it) as [`stream_ptw_resumable`]'s connector.
///
/// # Errors
///
/// The last address's connect failure, or
/// [`io::ErrorKind::AddrNotAvailable`] when `addr` resolves to nothing.
pub fn connect_tcp(addr: impl ToSocketAddrs, policy: &RetryPolicy) -> io::Result<TcpStream> {
    let mut last = None;
    for a in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&a, policy.connect_timeout) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                s.set_read_timeout(Some(policy.read_timeout)).ok();
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            "address resolved to nothing",
        )
    }))
}

/// Splits a `.ptw` container into `(schema prefix, bit_len, payload)`,
/// validating it against `catalog` exactly as the server will.
fn split_ptw<'a>(
    catalog: &MessageCatalog,
    ptw_bytes: &'a [u8],
) -> Result<(&'a [u8], u64, &'a [u8]), StreamError> {
    let (_, _, consumed) = read_ptw_header(catalog, ptw_bytes)?;
    let schema = &ptw_bytes[..consumed];
    let rest = &ptw_bytes[consumed..];
    if rest.len() < 8 {
        return Err(StreamError::Protocol(
            "container is truncated before the payload length".to_owned(),
        ));
    }
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&rest[..8]);
    let bit_len = u64::from_le_bytes(len_bytes);
    let payload_len = usize::try_from(bit_len.div_ceil(8))
        .map_err(|_| StreamError::Protocol("payload length overflows".to_owned()))?;
    let payload = rest
        .get(8..8 + payload_len)
        .ok_or_else(|| StreamError::Protocol("container payload is truncated".to_owned()))?;
    Ok((schema, bit_len, payload))
}

/// Replays the `.ptw` container in `ptw_bytes` to the daemon at `addr`
/// in `chunk_bytes`-sized data chunks, and returns the server's session
/// report.
///
/// The container's schema prefix becomes the handshake verbatim; the
/// payload is the chunked stream; the declared payload bit length closes
/// the session. `catalog` is only used to find the schema/payload split,
/// so the client validates the file the same way the server will.
///
/// # Errors
///
/// * [`StreamError::Wire`] when the file is not a valid `.ptw` for
///   `catalog`;
/// * [`StreamError::Io`] / [`StreamError::Protocol`] for transport
///   failures;
/// * [`StreamError::Remote`] when the server rejects the session.
pub fn stream_ptw(
    addr: impl ToSocketAddrs,
    catalog: &MessageCatalog,
    scenario: u8,
    mode: MatchMode,
    ptw_bytes: &[u8],
    chunk_bytes: usize,
) -> Result<String, StreamError> {
    let (schema, bit_len, payload) = split_ptw(catalog, ptw_bytes)?;

    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    let hello = Hello {
        scenario,
        mode,
        tenant: 0,
        trace: next_trace_id(),
        schema: schema.to_vec(),
    };
    write_hello(&mut writer, &hello)?;
    for piece in payload.chunks(chunk_bytes.max(1)) {
        write_data(&mut writer, piece)?;
    }
    write_finish(&mut writer, bit_len)?;
    writer.flush()?;

    read_reply(&mut reader)
}

/// One attempt of the resumable protocol over an established transport:
/// resume hello → ack → chunks from the acked offset → FINISH → reply.
/// Updates the token and the server's recovery epoch in place alongside
/// any error, so the caller can reconnect and resume — even against a
/// daemon that crashed and restarted in between (the epoch proves the
/// token still belongs to the same WAL lineage).
fn resume_attempt<S: Read + Write>(
    transport: &mut S,
    token: &mut u64,
    epoch: &mut u64,
    hello: &Hello,
    payload: &[u8],
    bit_len: u64,
    chunk: usize,
) -> Result<String, StreamError> {
    write_resume_hello(transport, *token, *epoch, hello)?;
    transport.flush()?;
    let ack = read_reply(transport)?;
    let (acked_token, offset, acked_epoch) = parse_resume_ack(&ack)?;
    *token = acked_token;
    *epoch = acked_epoch;
    let offset = usize::try_from(offset)
        .ok()
        .filter(|&o| o <= payload.len())
        .ok_or_else(|| {
            StreamError::Protocol(format!("server acked an impossible offset {offset}"))
        })?;
    for piece in payload[offset..].chunks(chunk) {
        write_data(transport, piece)?;
    }
    write_finish(transport, bit_len)?;
    transport.flush()?;
    read_reply(transport)
}

/// The hardened client: replays `ptw_bytes` through whatever `connect`
/// returns, resuming across transport deaths.
///
/// `connect` is called once per attempt (first connection plus up to
/// `options.retry.max_reconnects` reconnects) with the 0-based attempt
/// number; returning an error consumes an attempt. Every attempt's hello
/// carries the same tenant and trace-context id. After a mid-stream death
/// the next attempt sends the server's resume token and continues from
/// the acknowledged byte offset — never re-sending acknowledged bytes,
/// never skipping unacknowledged ones.
///
/// # Errors
///
/// * [`StreamError::Wire`] when the file is not a valid `.ptw` for
///   `catalog`;
/// * [`StreamError::Io`] / [`StreamError::Protocol`] when every attempt
///   died on transport;
/// * [`StreamError::Remote`] when the server rejects the session (not
///   retried: the rejection is authoritative).
pub fn stream_ptw_resumable<S, F>(
    mut connect: F,
    catalog: &MessageCatalog,
    ptw_bytes: &[u8],
    options: &StreamOptions,
) -> Result<String, StreamError>
where
    S: Read + Write,
    F: FnMut(u32) -> io::Result<S>,
{
    let (schema, bit_len, payload) = split_ptw(catalog, ptw_bytes)?;
    let hello = Hello {
        scenario: options.scenario,
        mode: options.mode,
        tenant: options.tenant,
        trace: options.trace.unwrap_or_else(next_trace_id),
        schema: schema.to_vec(),
    };
    let chunk = options.chunk_bytes.max(1);
    let policy = &options.retry;
    let mut token = 0u64;
    let mut epoch = 0u64;
    let mut backoff = policy.initial_backoff;
    let attempts = policy.max_reconnects.saturating_add(1);
    let mut last_err = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(policy.max_backoff);
        }
        let mut transport = match connect(attempt) {
            Ok(t) => t,
            Err(e) => {
                last_err = Some(StreamError::Io(e));
                continue;
            }
        };
        match resume_attempt(
            &mut transport,
            &mut token,
            &mut epoch,
            &hello,
            payload,
            bit_len,
            chunk,
        ) {
            Ok(report) => return Ok(report),
            // The server spoke: its verdict is final, not a transport
            // fault to retry through.
            Err(e @ StreamError::Remote(_)) => return Err(e),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| StreamError::Protocol("no connection attempts were made".to_owned())))
}

/// Asks the daemon at `addr` for its Prometheus text exposition (the
/// METRICS verb of the PSTS protocol) and returns it verbatim.
///
/// # Errors
///
/// * [`StreamError::Io`] / [`StreamError::Protocol`] for transport
///   failures;
/// * [`StreamError::Remote`] when the server rejects the request.
pub fn fetch_metrics(addr: impl ToSocketAddrs) -> Result<String, StreamError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_metrics_request(&mut writer)?;
    writer.flush()?;
    read_reply(&mut reader)
}

/// Asks the daemon at `addr` to drain its shards and exit (the v4
/// `SHUTDOWN` verb). Returns the daemon's acknowledgement; the drain
/// happens after the ack, so poll the port (or the process) to observe
/// completion.
///
/// Fails fast when nothing is listening: the connect runs under a short
/// timeout and a refused/timed-out connect is
/// [`StreamError::Unreachable`], not a retryable transport fault —
/// `pstrace stop` against an already-dead daemon reports so immediately
/// instead of sitting in a reconnect budget.
///
/// # Errors
///
/// * [`StreamError::Unreachable`] when no daemon answers the connect;
/// * [`StreamError::Io`] / [`StreamError::Protocol`] for transport
///   failures after the connect;
/// * [`StreamError::Remote`] when the server refuses the request.
pub fn request_shutdown(addr: impl ToSocketAddrs) -> Result<String, StreamError> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    let Some(last) = addrs.last() else {
        return Err(StreamError::Protocol(
            "address resolved to nothing".to_owned(),
        ));
    };
    let policy = RetryPolicy {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(10),
        ..RetryPolicy::default()
    };
    let stream = connect_tcp(&addrs[..], &policy).map_err(|source| StreamError::Unreachable {
        addr: last.to_string(),
        source,
    })?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_shutdown_request(&mut writer)?;
    writer.flush()?;
    read_reply(&mut reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{
        decode_chunk, decode_request, write_reply, write_resume_ack, Chunk, Request,
    };
    use pstrace_flow::{FlowIndex, IndexedMessage};
    use pstrace_wire::{encode_records, write_ptw, WireRecord, WireSchema};
    use std::sync::{Arc, Mutex};

    /// What a scripted daemon saw across every connection.
    #[derive(Default)]
    struct Seen {
        /// Every hello, parsed with the daemon's own parser.
        hellos: Vec<Request>,
        /// Payload bytes of every complete data chunk, in arrival order.
        payload: Vec<u8>,
        finish: Option<u64>,
    }

    /// One connection to a scripted daemon. It parses what the client
    /// writes with `decode_request` / `decode_chunk`, acks the payload
    /// bytes it already holds, and breaks once `budget` bytes were written.
    struct Conn {
        seen: Arc<Mutex<Seen>>,
        inbuf: Vec<u8>,
        greeted: bool,
        replies: Vec<u8>,
        budget: usize,
    }

    impl Write for Conn {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.inbuf.extend_from_slice(&buf[..n]);
            let mut seen = self.seen.lock().unwrap();
            if !self.greeted {
                if let Some((request, used)) = decode_request(&self.inbuf).unwrap() {
                    self.inbuf.drain(..used);
                    self.greeted = true;
                    seen.hellos.push(request);
                    let offset = seen.payload.len() as u64;
                    write_resume_ack(&mut self.replies, 7, offset, 0xE9).unwrap();
                }
            }
            while self.greeted {
                let Some((chunk, used)) = decode_chunk(&self.inbuf).unwrap() else {
                    break;
                };
                self.inbuf.drain(..used);
                match chunk {
                    Chunk::Data(bytes) => seen.payload.extend_from_slice(&bytes),
                    Chunk::Finish { bit_len } => {
                        seen.finish = Some(bit_len);
                        write_reply(&mut self.replies, true, "session ok").unwrap();
                    }
                }
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Conn {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.replies.len());
            buf[..n].copy_from_slice(&self.replies[..n]);
            self.replies.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn reconnects_carry_tenant_and_one_trace_id_and_reassemble_the_payload() {
        let mut catalog = MessageCatalog::new();
        let a = catalog.intern("a", 4);
        let b = catalog.intern("b", 9);
        let schema = WireSchema::new(&catalog, &[a, b], &[], 16).unwrap();
        let records: Vec<WireRecord> = (0..40u64)
            .map(|i| WireRecord {
                time: i * 3,
                message: IndexedMessage::new(if i % 2 == 0 { a } else { b }, FlowIndex(1)),
                value: i % 16,
                partial: false,
            })
            .collect();
        let stream = encode_records(&schema, &records, None).unwrap();
        let ptw = write_ptw(&catalog, &schema, &stream);

        let options = StreamOptions {
            tenant: 0xBEEF,
            chunk_bytes: 4,
            retry: RetryPolicy {
                initial_backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
            ..StreamOptions::new(2, MatchMode::Suffix)
        };
        // The first connection dies mid-chunk, a few chunks past its hello.
        let (schema_prefix, _, _) = split_ptw(&catalog, &ptw).unwrap();
        let first_budget = 40 + schema_prefix.len() + 2 * 9 + 3;
        let seen = Arc::new(Mutex::new(Seen::default()));
        let daemon = Arc::clone(&seen);
        let report = stream_ptw_resumable(
            move |attempt| {
                Ok(Conn {
                    seen: Arc::clone(&daemon),
                    inbuf: Vec::new(),
                    greeted: false,
                    replies: Vec::new(),
                    budget: if attempt == 0 {
                        first_budget
                    } else {
                        usize::MAX
                    },
                })
            },
            &catalog,
            &ptw,
            &options,
        )
        .unwrap();
        assert_eq!(report, "session ok");

        let seen = seen.lock().unwrap();
        assert_eq!(seen.hellos.len(), 2, "one reconnect");
        let mut traces = Vec::new();
        for (attempt, request) in seen.hellos.iter().enumerate() {
            let Request::Resume {
                token,
                epoch,
                hello,
            } = request
            else {
                panic!("attempt {attempt} sent {request:?}");
            };
            let expect = if attempt == 0 { (0, 0) } else { (7, 0xE9) };
            assert_eq!((*token, *epoch), expect, "attempt {attempt}");
            assert_eq!(hello.tenant, 0xBEEF, "attempt {attempt}");
            assert_eq!((hello.scenario, hello.mode), (2, MatchMode::Suffix));
            assert_eq!(hello.schema, schema_prefix);
            traces.push(hello.trace);
        }
        assert_ne!(traces[0], 0, "a trace id is minted when none is given");
        assert_eq!(traces[0], traces[1], "one trace id across reconnects");
        assert!(
            seen.payload.len() >= 8,
            "the first attempt delivered chunks"
        );
        assert_eq!(seen.payload, stream.bytes);
        assert_eq!(seen.finish, Some(stream.bit_len));
    }
}
