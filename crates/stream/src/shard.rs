//! Shard workers: the event-loop core of the fleet-scale daemon.
//!
//! The accept thread pins every connection to one of N shards by
//! connection id; each shard is a single thread owning its connection
//! table, its parked-session lot and its own
//! [`Registry`](pstrace_obs::Registry), so the ingest hot path touches
//! no cross-thread locks at all — the only shared state is the tenant
//! governor (one short lock per session *open*, never per chunk) and the
//! mpsc channels that deliver new sockets.
//!
//! Each tick a shard drains its inbox, speculatively reads every
//! connection (see [`poll`](crate::poll)), advances the per-connection
//! state machine over whatever bytes buffered (request → streaming →
//! closing), flushes outboxes, applies deadlines, and purges expired
//! parked sessions. A panic inside one connection's advance is caught
//! and costs exactly that connection (`worker-respawn`), exactly as the
//! old worker pool promised.
//!
//! Resume tokens encode their owning shard (`token % shard_count`), so a
//! reconnect landing on the wrong shard is handed off — socket plus
//! unconsumed bytes — to the owner over its inbox channel
//! (`pstrace_stream_handoffs_total`), and session pinning survives any
//! accept-order the reconnect storm produces.

use std::collections::HashMap;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pstrace_codec::flight::write_flight_dump;
use pstrace_codec::DEFAULT_SYNC_EVERY;
use pstrace_diag::OnlineLocalizer;
use pstrace_obs::{
    merged_samples, render_prometheus_samples, EventKind, FlightHandle, FlightRecorder, Registry,
};
use pstrace_soc::SocModel;
use pstrace_wire::read_ptw_header;

use crate::error::StreamError;
use crate::poll::{read_once, write_once, Backoff, Progress, Readiness};
use crate::proto::{self, Chunk, Request};
use crate::server::{degrade, scenario_by_number, ServerConfig};
use crate::session::Session;
use crate::wal::{SessionRecord, WalRecord, WalWriter};

/// How many bytes one connection may pull per tick before the loop moves
/// on — fairness under a firehose client.
const READ_BUDGET: usize = 256 * 1024;

/// How long a draining shard waits for in-flight sessions at shutdown
/// before it exits anyway.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// What the accept thread (or a sibling shard) delivers to a shard.
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// A freshly accepted socket, still unread.
    Conn(TcpStream),
    /// A mid-request handoff from a sibling: the socket plus every byte
    /// read but not yet consumed (the resume request included) — the
    /// receiver re-parses from the top.
    Handoff(TcpStream, Vec<u8>),
}

/// Everything shared between the accept thread and every shard.
#[derive(Debug)]
pub(crate) struct FleetCtx {
    /// The daemon's knobs as spawned; `wal_dir` is `None` when
    /// durability is off.
    pub config: ServerConfig,
    pub model: Arc<SocModel>,
    /// The caller's root registry first, then one registry per shard.
    pub registries: Vec<Arc<Registry>>,
    /// Shard inboxes, indexed by shard — the handoff fabric.
    pub senders: Vec<Sender<ShardMsg>>,
    /// Global session-id sequence (ids start at 1, shard-agnostic).
    pub session_seq: AtomicU64,
    /// Set to stop accepting and drain the shards.
    pub shutdown: AtomicBool,
    /// Set (alongside `shutdown`) when a client's SHUTDOWN verb — rather
    /// than the owning process — asked for the drain.
    pub shutdown_requested: AtomicBool,
    pub governor: Arc<TenantGovernor>,
    /// The always-on flight recorder: lane 0 is daemon scope, lanes
    /// `1..=shards` belong to shard workers.
    pub flight: Arc<FlightRecorder>,
    /// Recorder-clock time of the last automatic spill (debounce).
    pub flight_spill: AtomicU64,
    /// The recovery epoch: acked with every resume token, checked on
    /// every resume-by-token (a mismatch is shed, `resume-epoch-shed`).
    pub epoch: u64,
    /// Highest resume token a previous life minted; token sequences
    /// restart above it so recovered tokens are never re-issued.
    pub recovered_max_token: u64,
}

/// Minimum recorder-clock time between automatic dump spills, so a
/// degradation storm costs one file write per window, not per event.
const FLIGHT_SPILL_DEBOUNCE_NS: u64 = 200_000_000;

impl FleetCtx {
    /// The merged Prometheus exposition across the root and every shard
    /// registry — what the METRICS verb and the scrape endpoint serve.
    pub(crate) fn exposition(&self) -> String {
        render_prometheus_samples(&merged_samples(&self.registries))
    }

    /// Journals one degradation-ladder activation (exactly one event per
    /// `pstrace_degradation_events_total` increment) and, when a dump
    /// path is configured, spills the journal under debounce — the
    /// ladder firing is exactly when a post-mortem wants the evidence on
    /// disk.
    pub(crate) fn degrade_flight(&self, lane: usize, trace: u64, session: u64, path: &str) {
        self.flight
            .record(lane, trace, session, EventKind::Degradation, path);
        self.maybe_autospill();
    }

    /// The recorder's current journal as a self-describing `.ptw` v2
    /// dump.
    pub(crate) fn flight_dump_bytes(&self) -> Result<Vec<u8>, pstrace_wire::WireError> {
        write_flight_dump(&self.flight.snapshot().events, DEFAULT_SYNC_EVERY)
    }

    /// Best-effort spill of the journal to the configured dump path.
    pub(crate) fn spill_flight(&self) {
        if let Some(path) = &self.config.flight_dump {
            if let Ok(bytes) = self.flight_dump_bytes() {
                let _ = std::fs::write(path, bytes);
            }
        }
    }

    fn maybe_autospill(&self) {
        if self.config.flight_dump.is_none() {
            return;
        }
        let now = self.flight.now_ns();
        let last = self.flight_spill.load(Ordering::Relaxed);
        if now.saturating_sub(last) < FLIGHT_SPILL_DEBOUNCE_NS {
            return;
        }
        if self
            .flight_spill
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.spill_flight();
        }
    }
}

/// Admission control for session opens: the global concurrent-session
/// cap and the per-tenant cap of [`ServerConfig`], both optional. Holds
/// one short lock per open — never on the chunk path.
#[derive(Debug)]
pub(crate) struct TenantGovernor {
    root: Arc<Registry>,
    state: Mutex<GovernorState>,
}

#[derive(Debug, Default)]
struct GovernorState {
    total: u64,
    per_tenant: HashMap<u32, u64>,
}

/// Why the governor refused a session.
pub(crate) struct Shed {
    /// The degradation-path / shed-reason label.
    pub reason: &'static str,
    /// The polite rejection the client gets.
    pub message: String,
}

/// An admitted session's seat. Dropping it releases the global and
/// tenant counts — it rides along when a session parks, so a parked
/// session still occupies its tenant's quota until it resumes or
/// expires.
#[derive(Debug)]
pub(crate) struct Ticket {
    governor: Arc<TenantGovernor>,
    tenant: u32,
}

impl TenantGovernor {
    pub(crate) fn new(root: Arc<Registry>) -> Arc<TenantGovernor> {
        Arc::new(TenantGovernor {
            root,
            state: Mutex::default(),
        })
    }

    /// Admits one session for `tenant` under `config`'s caps, or says
    /// why not.
    pub(crate) fn admit(
        self: &Arc<Self>,
        config: &ServerConfig,
        tenant: u32,
    ) -> Result<Ticket, Shed> {
        let mut state = self.state.lock().expect("governor lock poisoned");
        if let Some(cap) = config.max_sessions {
            if state.total >= cap {
                return Err(Shed {
                    reason: "capacity-shed",
                    message: format!("daemon at capacity ({cap} concurrent sessions); retry later"),
                });
            }
        }
        if let Some(cap) = config.tenant_quota {
            if state.per_tenant.get(&tenant).copied().unwrap_or(0) >= cap {
                return Err(Shed {
                    reason: "tenant-quota-shed",
                    message: format!(
                        "tenant {tenant} is over its quota of {cap} concurrent sessions"
                    ),
                });
            }
        }
        state.total += 1;
        *state.per_tenant.entry(tenant).or_insert(0) += 1;
        drop(state);
        self.root
            .gauge_with(
                "pstrace_tenant_active_sessions",
                &[("tenant", &tenant.to_string())],
            )
            .add(1);
        Ok(Ticket {
            governor: Arc::clone(self),
            tenant,
        })
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut state = self.governor.state.lock().expect("governor lock poisoned");
        state.total = state.total.saturating_sub(1);
        if let Some(n) = state.per_tenant.get_mut(&self.tenant) {
            *n -= 1;
            if *n == 0 {
                state.per_tenant.remove(&self.tenant);
            }
        }
        drop(state);
        self.governor
            .root
            .gauge_with(
                "pstrace_tenant_active_sessions",
                &[("tenant", &self.tenant.to_string())],
            )
            .sub(1);
    }
}

/// A session attached to a live connection — or, in the parked lot,
/// waiting for one.
#[derive(Debug)]
struct Active {
    /// The hello that opened the session. Its `trace` is resolved: the
    /// client-minted trace-context id, or a server-assigned one when the
    /// hello carried 0; it follows the session across reconnects and
    /// shards.
    hello: proto::Hello,
    session: Session,
    /// `Some` for resumable sessions: the token that parks/picks it up.
    token: Option<u64>,
    /// The governor seat, held for its `Drop`: a parked session keeps
    /// its tenant's quota until it resumes or expires.
    _ticket: Ticket,
    /// The daemon-local session id the journal names it by.
    session_id: u64,
}

impl Active {
    /// What a checkpoint persists about this session (`None` unless it
    /// is resumable).
    fn record(&self) -> Option<SessionRecord> {
        Some(SessionRecord {
            token: self.token?,
            session_id: self.session_id,
            trace: self.hello.trace,
            scenario: self.hello.scenario,
            mode: proto::mode_to_byte(self.hello.mode),
            tenant: self.hello.tenant,
            schema: self.hello.schema.clone(),
            bytes: self.session.metrics().bytes,
        })
    }
}

/// How a stream leaves `Phase::Streaming`.
enum StreamEnd {
    /// FINISH arrived: the report is the reply.
    Completed { bit_len: u64 },
    /// The session is lost; `reason` labels its Close event.
    Failed { reason: &'static str },
    /// A resumable session's transport died: it waits out its grace
    /// period in the parked lot.
    Parked,
}

/// The per-connection state machine.
#[derive(Debug)]
enum Phase {
    /// Accumulating the request preamble.
    Request,
    /// Pumping chunks into a session.
    Streaming(Box<Active>),
    /// Reply queued; flush the outbox, then close.
    Closing,
}

/// One connection owned by a shard.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbox: Vec<u8>,
    sent: usize,
    phase: Phase,
    opened: Instant,
    last_progress: Instant,
    peer_gone: bool,
}

impl Conn {
    fn new(stream: TcpStream, inbuf: Vec<u8>) -> Conn {
        let now = Instant::now();
        stream.set_nonblocking(true).ok();
        stream.set_nodelay(true).ok();
        Conn {
            stream,
            inbuf,
            outbox: Vec::new(),
            sent: 0,
            phase: Phase::Request,
            opened: now,
            last_progress: now,
            peer_gone: false,
        }
    }

    /// Queues a reply for the flush pass.
    fn reply(&mut self, ok: bool, text: &str) {
        let _ = proto::write_reply(&mut self.outbox, ok, text);
    }
}

/// What `advance` decided about a connection.
enum Verdict {
    Keep,
    Close,
    /// Hand the socket (plus unconsumed bytes) to the owning shard.
    Handoff(usize),
}

/// One shard's private state.
struct Shard {
    ctx: Arc<FleetCtx>,
    index: usize,
    registry: Arc<Registry>,
    /// Resumable sessions waiting out their grace period, by token, with
    /// the instant their token expires.
    parked: HashMap<u64, (Box<Active>, Instant)>,
    /// Per-shard resume-token sequence; tokens are
    /// `seq * shard_count + index`, never 0, owner-recoverable.
    resume_seq: u64,
    /// This shard's write-ahead log (`None` when durability is off or
    /// the WAL could not be opened — the shard degrades, never dies).
    wal: Option<WalWriter>,
}

impl Shard {
    fn shard_count(&self) -> usize {
        self.ctx.senders.len()
    }

    /// This shard's flight-recorder lane (lane 0 is daemon scope).
    fn lane(&self) -> usize {
        self.index + 1
    }

    /// Journals one lifecycle event on this shard's lane.
    fn note(&self, trace: u64, session: u64, kind: EventKind, reason: &str) {
        self.ctx
            .flight
            .record(self.lane(), trace, session, kind, reason);
    }

    /// Bumps the degradation ladder *and* journals it: the counter and
    /// the flight event move in lockstep, one for one.
    fn note_degrade(&self, path: &str, trace: u64, session: u64) {
        degrade(&self.registry, path);
        self.ctx.degrade_flight(self.lane(), trace, session, path);
    }

    fn next_token(&mut self) -> u64 {
        let token = self.resume_seq * self.shard_count() as u64 + self.index as u64;
        self.resume_seq += 1;
        token
    }

    /// Which shard owns `token`.
    fn owner_of(&self, token: u64) -> usize {
        (token % self.shard_count() as u64) as usize
    }

    fn next_session_id(&self) -> u64 {
        self.ctx.session_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs one operation on this shard's WAL. A failure is a
    /// degradation along `path`, never a session error: the session
    /// continues, it just loses crash durability.
    fn wal_op(
        &mut self,
        path: &str,
        trace: u64,
        session: u64,
        op: impl FnOnce(&mut WalWriter) -> std::io::Result<()>,
    ) {
        if self.wal.as_mut().is_some_and(|wal| op(wal).is_err()) {
            self.note_degrade(path, trace, session);
        }
    }

    /// Appends one lifecycle entry to this shard's WAL.
    fn wal_append(&mut self, record: &WalRecord) {
        self.wal_op("wal-append-degraded", 0, 0, |wal| wal.append(record));
    }

    /// Journals a resumable session's open group (Open + schema chunks).
    /// Under strict durability the group is fsynced before this returns,
    /// so the token the caller is about to ack is already on disk.
    fn wal_append_open(&mut self, active: &Active) {
        let Some(token) = active.token else { return };
        let hello = &active.hello;
        self.wal_op(
            "wal-append-degraded",
            hello.trace,
            active.session_id,
            |wal| {
                wal.append_open(
                    token,
                    active.session_id,
                    hello.trace,
                    hello.scenario,
                    proto::mode_to_byte(hello.mode),
                    hello.tenant,
                    &hello.schema,
                )
            },
        );
    }

    /// Builds the session `hello` asks for: scenario interleaving plus the
    /// schema rebuilt from the handshake bytes. It records into this
    /// shard's registry under `session_id` and journals under the hello's
    /// trace id.
    fn build_session(&self, hello: &proto::Hello, session_id: u64) -> Result<Session, StreamError> {
        let model = &self.ctx.model;
        let flow = scenario_by_number(hello.scenario)?
            .interleaving(model)
            .map_err(|e| StreamError::Protocol(format!("scenario does not interleave: {e}")))?;
        let (schema, meta, consumed) = read_ptw_header(model.catalog(), &hello.schema)?;
        if consumed != hello.schema.len() {
            return Err(StreamError::Protocol(format!(
                "{} stray bytes after the schema handshake",
                hello.schema.len() - consumed
            )));
        }
        let registry = Arc::clone(&self.registry);
        let mut session =
            Session::observed_with_meta(&flow, schema, meta, hello.mode, registry, session_id);
        session.set_flight(FlightHandle::new(
            Arc::clone(&self.ctx.flight),
            self.lane(),
            hello.trace,
            session_id,
        ));
        Ok(session)
    }

    /// Re-parks the sessions crash recovery rebuilt for this shard: each
    /// one re-admits through the governor, re-opens its session state
    /// machine from the journaled hello, and waits out a fresh grace
    /// period under its pre-crash token.
    fn repark_recovered(&mut self, records: Vec<SessionRecord>) {
        for r in records {
            let (trace, session_id) = (r.trace, r.session_id);
            let Some(active) = self.reopen(r) else {
                self.note_degrade("wal-session-skipped", trace, session_id);
                continue;
            };
            self.registry
                .counter("pstrace_stream_recovered_total")
                .inc();
            self.note(trace, session_id, EventKind::Recover, "sessions-restored");
            let deadline = Instant::now() + self.ctx.config.resume_grace;
            self.parked.insert(
                active.token.expect("recovered sessions are resumable"),
                (active, deadline),
            );
        }
    }

    /// Re-opens one recovered session, or `None` when it cannot be
    /// rebuilt faithfully.
    fn reopen(&self, r: SessionRecord) -> Option<Box<Active>> {
        let mode = proto::mode_from_byte(r.mode).ok()?;
        // A restarted daemon smaller (or busier) than the dead one sheds
        // rather than oversubscribes.
        let ticket = self.ctx.governor.admit(&self.ctx.config, r.tenant).ok()?;
        let hello = proto::Hello {
            scenario: r.scenario,
            mode,
            tenant: r.tenant,
            trace: r.trace,
            schema: r.schema,
        };
        let session = self.build_session(&hello, r.session_id).ok()?;
        Some(Box::new(Active {
            hello,
            session,
            token: Some(r.token),
            _ticket: ticket,
            session_id: r.session_id,
        }))
    }

    /// Checkpoint-and-truncate rotation once the WAL crosses its disk
    /// budget: every live resumable session (parked or mid-stream) is
    /// compacted into the checkpoint, then the journal restarts empty.
    fn maybe_rotate(&mut self, conns: &[Conn]) {
        if !self.wal.as_ref().is_some_and(WalWriter::needs_rotation) {
            return;
        }
        let streaming = conns.iter().filter_map(|conn| match &conn.phase {
            Phase::Streaming(active) => Some(&**active),
            _ => None,
        });
        let live: Vec<SessionRecord> = self
            .parked
            .values()
            .map(|(active, _)| &**active)
            .chain(streaming)
            .filter_map(Active::record)
            .collect();
        // Rotation is the disk-pressure rung of the ladder: count it.
        self.note_degrade("wal-rotate", 0, 0);
        // A failed checkpoint (or truncate) leaves the old WAL, which
        // still recovers everything: degrade and carry on.
        self.wal_op("wal-checkpoint-degraded", 0, 0, |wal| wal.rotate(&live));
    }

    /// Reads whatever the socket has buffered (bounded per tick).
    fn pull(&self, conn: &mut Conn) -> bool {
        let mut moved = false;
        let mut buf = [0u8; 16 * 1024];
        let mut budget = READ_BUDGET;
        while budget > 0 && !conn.peer_gone {
            match read_once(&mut conn.stream, &mut buf) {
                Ok(Readiness::Data(n)) => {
                    conn.inbuf.extend_from_slice(&buf[..n]);
                    budget = budget.saturating_sub(n);
                    conn.last_progress = Instant::now();
                    moved = true;
                }
                Ok(Readiness::WouldBlock) => break,
                Ok(Readiness::Eof) | Err(_) => conn.peer_gone = true,
            }
        }
        moved
    }

    /// Flushes the outbox (bounded by the socket buffer).
    fn push(&self, conn: &mut Conn) -> bool {
        let mut moved = false;
        while conn.sent < conn.outbox.len() {
            match write_once(&mut conn.stream, &conn.outbox[conn.sent..]) {
                Ok(Progress::Wrote(n)) => {
                    conn.sent += n;
                    conn.last_progress = Instant::now();
                    moved = true;
                }
                Ok(Progress::WouldBlock) => break,
                Err(_) => {
                    conn.peer_gone = true;
                    break;
                }
            }
        }
        if conn.sent == conn.outbox.len() && conn.sent > 0 {
            conn.outbox.clear();
            conn.sent = 0;
        }
        moved
    }

    /// A streaming session's transport died (EOF, error, protocol damage
    /// or idle deadline): park it when resumable, fail it when not.
    fn streaming_death(&mut self, conn: &mut Conn, why: &str) -> Verdict {
        if matches!(&conn.phase, Phase::Streaming(active) if active.token.is_some()) {
            self.end_stream(conn, StreamEnd::Parked);
            return Verdict::Close;
        }
        self.end_stream(conn, StreamEnd::Failed { reason: "" });
        if conn.peer_gone {
            Verdict::Close
        } else {
            // The transport still works (protocol damage): tell the
            // client, then close.
            conn.reply(false, why);
            Verdict::Keep
        }
    }

    /// The one entry into `Phase::Streaming`: acks a resumable session's
    /// token and offset and counts the session active. A refused open
    /// gets its error as the reply instead.
    fn start_stream(&mut self, conn: &mut Conn, opened: Result<Box<Active>, StreamError>) {
        match opened {
            Ok(active) => {
                if let Some(token) = active.token {
                    let offset = active.session.metrics().bytes;
                    let _ =
                        proto::write_resume_ack(&mut conn.outbox, token, offset, self.ctx.epoch);
                }
                self.registry.gauge("pstrace_stream_active_sessions").add(1);
                conn.phase = Phase::Streaming(active);
            }
            Err(e) => {
                conn.reply(false, &e.to_string());
                conn.phase = Phase::Closing;
            }
        }
    }

    /// The one exit from `Phase::Streaming` (the connection moves to
    /// `Closing`): keeps the active-session gauge, the completed / failed
    /// / parked counters, the frontier gauges, the journal and the WAL in
    /// step however the stream ended.
    fn end_stream(&mut self, conn: &mut Conn, end: StreamEnd) {
        let Phase::Streaming(active) = std::mem::replace(&mut conn.phase, Phase::Closing) else {
            return;
        };
        self.registry.gauge("pstrace_stream_active_sessions").sub(1);
        // However the session ends, it is no longer live-streaming:
        // stale frontier gauges would sum wrongly across shards.
        OnlineLocalizer::clear_frontier(&self.registry);
        let (trace, session_id) = (active.hello.trace, active.session_id);
        match end {
            StreamEnd::Completed { bit_len } => {
                if let Some(token) = active.token {
                    // The token is dead: recovery must not resurrect it.
                    self.wal_append(&WalRecord::Complete { token });
                }
                let report = active.session.finish(Some(bit_len));
                let text = format!(
                    "session over scenario {} ({:?} match)\n{}",
                    active.hello.scenario,
                    report.mode,
                    report.render()
                );
                self.note(trace, session_id, EventKind::Finish, "");
                self.note(trace, session_id, EventKind::Close, "");
                self.registry
                    .counter("pstrace_stream_completed_total")
                    .inc();
                conn.reply(true, &text);
                // The ticket drops here: the seat frees at completion.
            }
            StreamEnd::Failed { reason } => {
                self.registry.counter("pstrace_stream_failed_total").inc();
                self.note(trace, session_id, EventKind::Close, reason);
            }
            StreamEnd::Parked => {
                let token = active.token.expect("only resumable sessions park");
                self.registry.counter("pstrace_stream_parked_total").inc();
                self.note(trace, session_id, EventKind::Park, "session-parked");
                self.note_degrade("session-parked", trace, session_id);
                self.wal_append(&WalRecord::Park {
                    token,
                    bytes: active.session.metrics().bytes,
                });
                let deadline = Instant::now() + self.ctx.config.resume_grace;
                self.parked.insert(token, (active, deadline));
            }
        }
    }

    /// Consumes as many complete protocol items as the inbuf holds,
    /// advancing the phase machine. Returns a verdict plus whether
    /// anything was consumed.
    fn process(&mut self, conn: &mut Conn) -> (Verdict, bool) {
        let mut moved = false;
        loop {
            if matches!(conn.phase, Phase::Closing) {
                // Anything the client pipelined after its request is
                // irrelevant now.
                conn.inbuf.clear();
                return (Verdict::Keep, moved);
            }
            if matches!(conn.phase, Phase::Request) {
                match proto::decode_request(&conn.inbuf) {
                    Ok(Some((request, used))) => {
                        if let Request::Resume { token, hello, .. } = &request {
                            let owner = if *token == 0 {
                                self.index
                            } else {
                                self.owner_of(*token)
                            };
                            if owner != self.index {
                                // Not ours: hand the socket over with the
                                // request bytes still unconsumed.
                                self.registry.counter("pstrace_stream_handoffs_total").inc();
                                self.note(hello.trace, *token, EventKind::Handoff, "");
                                return (Verdict::Handoff(owner), true);
                            }
                        }
                        conn.inbuf.drain(..used);
                        moved = true;
                        if let Verdict::Close = self.handle_request(conn, request) {
                            return (Verdict::Close, moved);
                        }
                    }
                    Ok(None) => {
                        if conn.peer_gone {
                            // The peer hung up (or never spoke PSTS) before
                            // a full request landed.
                            self.note_degrade("handshake-deadline", 0, 0);
                            return (Verdict::Close, moved);
                        }
                        return (Verdict::Keep, moved);
                    }
                    Err(e) => {
                        self.note_degrade("handshake-deadline", 0, 0);
                        conn.reply(false, &e.to_string());
                        conn.phase = Phase::Closing;
                        return (Verdict::Keep, true);
                    }
                }
            } else {
                match proto::decode_chunk(&conn.inbuf) {
                    Ok(Some((chunk, used))) => {
                        conn.inbuf.drain(..used);
                        moved = true;
                        self.handle_chunk(conn, chunk);
                    }
                    Ok(None) => {
                        if conn.peer_gone {
                            let verdict = self.streaming_death(conn, "transport closed mid-stream");
                            return (verdict, moved);
                        }
                        return (Verdict::Keep, moved);
                    }
                    Err(e) => {
                        // Same contract as the blocking pump: any chunk
                        // error is transport death — resumable sessions
                        // park and a reconnect picks them back up.
                        let verdict = self.streaming_death(conn, &e.to_string());
                        return (verdict, true);
                    }
                }
            }
        }
    }

    /// Dispatches one parsed request on a connection in `Request` phase.
    fn handle_request(&mut self, conn: &mut Conn, request: Request) -> Verdict {
        match request {
            Request::Metrics => {
                self.registry
                    .counter("pstrace_stream_metrics_requests_total")
                    .inc();
                let exposition = self.ctx.exposition();
                conn.reply(true, &exposition);
                conn.phase = Phase::Closing;
                Verdict::Keep
            }
            Request::Shutdown => {
                conn.reply(true, "shutting down: draining shards");
                conn.phase = Phase::Closing;
                self.ctx.shutdown_requested.store(true, Ordering::SeqCst);
                if !self.ctx.shutdown.swap(true, Ordering::SeqCst) {
                    self.note(0, 0, EventKind::Shutdown, "");
                }
                Verdict::Keep
            }
            Request::Session(hello) => {
                self.registry.counter("pstrace_stream_sessions_total").inc();
                let opened = self.open_streaming(hello, None);
                self.start_stream(conn, opened);
                Verdict::Keep
            }
            Request::Resume {
                token,
                epoch,
                hello,
            } => {
                let opened = if token == 0 {
                    // Fresh resumable session.
                    self.registry.counter("pstrace_stream_sessions_total").inc();
                    let token = self.next_token();
                    self.open_streaming(hello, Some(token))
                } else if epoch != self.ctx.epoch {
                    // The token was minted under a different WAL lineage
                    // (another daemon, another --wal-dir, or a pre-crash
                    // life whose journal this daemon never saw). Splicing
                    // it into a live table would corrupt someone else's
                    // session; shed it politely instead.
                    self.note(hello.trace, token, EventKind::Shed, "resume-epoch-shed");
                    self.note_degrade("resume-epoch-shed", hello.trace, token);
                    self.registry
                        .counter_with(
                            "pstrace_stream_shed_total",
                            &[("reason", "resume-epoch-shed")],
                        )
                        .inc();
                    Err(StreamError::Protocol(format!(
                        "resume token {token} carries recovery epoch {epoch}, \
                         this daemon's epoch is {}; token rejected",
                        self.ctx.epoch
                    )))
                } else {
                    self.pick_up(token, &hello)
                };
                self.start_stream(conn, opened);
                Verdict::Keep
            }
        }
    }

    /// Opens a brand-new session (plain or fresh-resumable): governor
    /// admission, then scenario/schema validation.
    fn open_streaming(
        &mut self,
        hello: proto::Hello,
        token: Option<u64>,
    ) -> Result<Box<Active>, StreamError> {
        let ticket = match self.ctx.governor.admit(&self.ctx.config, hello.tenant) {
            Ok(t) => t,
            Err(shed) => {
                self.note(hello.trace, 0, EventKind::Shed, shed.reason);
                if shed.reason == "tenant-quota-shed" {
                    self.note(hello.trace, 0, EventKind::QuotaTrip, shed.reason);
                }
                self.note_degrade(shed.reason, hello.trace, 0);
                self.registry
                    .counter_with("pstrace_stream_shed_total", &[("reason", shed.reason)])
                    .inc();
                self.registry.counter("pstrace_stream_failed_total").inc();
                return Err(StreamError::Protocol(shed.message));
            }
        };
        let session_id = self.next_session_id();
        // 0 on the hello means "server assigns": derive a trace id the
        // timeline can still tie to the session, flagged into a range a
        // client-minted id never occupies.
        let trace = if hello.trace == 0 {
            session_id | (1 << 63)
        } else {
            hello.trace
        };
        let hello = proto::Hello { trace, ..hello };
        let session = match self.build_session(&hello, session_id) {
            Ok(s) => s,
            Err(e) => {
                self.registry.counter("pstrace_stream_failed_total").inc();
                return Err(e);
            }
        };
        self.note(trace, session_id, EventKind::Open, "");
        self.note(trace, session_id, EventKind::Handshake, "");
        let active = Box::new(Active {
            hello,
            session,
            token,
            _ticket: ticket,
            session_id,
        });
        // Journal the open group before the caller can ack the token:
        // under strict durability the fsync happens here, so an acked
        // token is always recoverable.
        self.wal_append_open(&active);
        Ok(active)
    }

    /// Picks a parked session back up by its token.
    fn pick_up(&mut self, token: u64, hello: &proto::Hello) -> Result<Box<Active>, StreamError> {
        let Some((parked, deadline)) = self.parked.remove(&token) else {
            self.note_degrade("resume-expired", hello.trace, token);
            return Err(StreamError::Protocol(format!(
                "unknown or expired resume token {token}"
            )));
        };
        if parked.hello.schema != hello.schema || parked.hello.scenario != hello.scenario {
            // A mismatched resume is a client bug; the parked session
            // goes back to wait for the right one.
            self.parked.insert(token, (parked, deadline));
            return Err(StreamError::Protocol(
                "resume hello does not match the parked session".to_owned(),
            ));
        }
        self.registry.counter("pstrace_stream_resumed_total").inc();
        self.note(parked.hello.trace, parked.session_id, EventKind::Resume, "");
        self.wal_append(&WalRecord::Resume { token });
        Ok(parked)
    }

    /// Feeds one chunk into the streaming session.
    fn handle_chunk(&mut self, conn: &mut Conn, chunk: Chunk) {
        match chunk {
            Chunk::Data(bytes) => {
                if let Phase::Streaming(active) = &mut conn.phase {
                    active.session.push_chunk(&bytes);
                }
            }
            Chunk::Finish { bit_len } => self.end_stream(conn, StreamEnd::Completed { bit_len }),
        }
    }

    /// One full step of a connection: read, process, flush, deadlines.
    fn advance(&mut self, conn: &mut Conn) -> (Verdict, bool) {
        let mut moved = self.pull(conn);
        let (verdict, processed) = self.process(conn);
        moved |= processed;
        if !matches!(verdict, Verdict::Keep) {
            // Best-effort flush of whatever reply got queued.
            self.push(conn);
            return (verdict, moved);
        }
        moved |= self.push(conn);

        if conn.peer_gone {
            // A write failed, so no reply can land anymore. (Read-side
            // deaths were already handled in `process`.)
            if matches!(conn.phase, Phase::Streaming(_)) {
                return (self.streaming_death(conn, "transport closed"), moved);
            }
            return (Verdict::Close, moved);
        }
        if matches!(conn.phase, Phase::Closing) && conn.outbox.is_empty() {
            return (Verdict::Close, moved);
        }

        // Deadlines.
        let now = Instant::now();
        if matches!(conn.phase, Phase::Request)
            && now.duration_since(conn.opened) > self.ctx.config.handshake_timeout
        {
            self.note_degrade("handshake-deadline", 0, 0);
            conn.reply(
                false,
                "handshake deadline: no complete request arrived in time",
            );
            conn.phase = Phase::Closing;
        } else if matches!(conn.phase, Phase::Streaming(_))
            && now.duration_since(conn.last_progress) > self.ctx.config.read_timeout
        {
            return (
                self.streaming_death(conn, "session idle past deadline"),
                moved,
            );
        } else if matches!(conn.phase, Phase::Closing)
            && now.duration_since(conn.last_progress) > self.ctx.config.read_timeout
        {
            return (Verdict::Close, moved);
        }
        (verdict, moved)
    }
}

/// The shard thread body: re-park the sessions crash recovery rebuilt for
/// this shard, tick until shutdown, then drain.
pub(crate) fn run_shard(
    ctx: Arc<FleetCtx>,
    index: usize,
    inbox: &Receiver<ShardMsg>,
    recovered: Vec<SessionRecord>,
) {
    let registry = Arc::clone(&ctx.registries[index + 1]);
    // Eagerly materialize the gauge so an idle daemon's exposition still
    // shows `pstrace_stream_active_sessions 0`.
    let _ = registry.gauge("pstrace_stream_active_sessions");
    // Open this shard's WAL (after the startup replay read the old one)
    // and seed the token sequence above everything a previous life
    // minted, so recovered tokens are never re-issued.
    let shard_count = ctx.senders.len() as u64;
    let resume_seq = ctx.recovered_max_token / shard_count + 1;
    let wal = match &ctx.config.wal_dir {
        Some(dir) => WalWriter::open(
            dir,
            index,
            shard_count as usize,
            ctx.epoch,
            ctx.config.durability,
            ctx.config.wal_budget,
        )
        .map_err(|_| degrade(&registry, "wal-append-degraded"))
        .ok(),
        None => None,
    };
    let mut shard = Shard {
        ctx,
        index,
        registry,
        parked: HashMap::new(),
        resume_seq,
        wal,
    };
    shard.repark_recovered(recovered);
    let mut conns: Vec<Conn> = Vec::new();
    let mut backoff = Backoff::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let mut moved = false;

        // Inbox: new sockets and handoffs.
        while let Ok(msg) = inbox.try_recv() {
            conns.push(match msg {
                ShardMsg::Conn(stream) => Conn::new(stream, Vec::new()),
                ShardMsg::Handoff(stream, inbuf) => Conn::new(stream, inbuf),
            });
            moved = true;
        }

        // Advance every connection; a panic costs exactly one.
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            let stepped = catch_unwind(AssertUnwindSafe(|| shard.advance(conn)));
            match stepped {
                Ok((Verdict::Keep, m)) => {
                    moved |= m;
                    i += 1;
                }
                Ok((Verdict::Close, m)) => {
                    moved |= m;
                    conns.swap_remove(i);
                }
                Ok((Verdict::Handoff(owner), _)) => {
                    let mut conn = conns.swap_remove(i);
                    let inbuf = std::mem::take(&mut conn.inbuf);
                    // A send fails only when the owner is gone (shutdown
                    // race): nothing to do.
                    let _ = shard.ctx.senders[owner].send(ShardMsg::Handoff(conn.stream, inbuf));
                    moved = true;
                }
                Err(_) => {
                    shard
                        .registry
                        .counter("pstrace_stream_worker_panics_total")
                        .inc();
                    shard.note(0, 0, EventKind::Respawn, "worker-respawn");
                    shard.note_degrade("worker-respawn", 0, 0);
                    let mut conn = conns.swap_remove(i);
                    shard.end_stream(
                        &mut conn,
                        StreamEnd::Failed {
                            reason: "worker-respawn",
                        },
                    );
                    moved = true;
                }
            }
        }

        // Lazy purge of expired parked sessions; each expiry is
        // journaled so recovery cannot resurrect a dead token.
        let now = Instant::now();
        let expired: Vec<u64> = shard
            .parked
            .iter()
            .filter(|(_, (_, deadline))| *deadline <= now)
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            shard.parked.remove(&token);
            shard.wal_append(&WalRecord::Expire { token });
        }

        // Disk-pressure rotation: checkpoint live sessions, truncate.
        shard.maybe_rotate(&conns);

        if shard.ctx.shutdown.load(Ordering::Relaxed) {
            if drain_deadline.is_none() {
                shard.note(0, 0, EventKind::Drain, "");
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
            if conns.is_empty() || Instant::now() >= deadline {
                // Lazy durability flushes once, here, at the drain edge.
                if let Some(wal) = shard.wal.as_mut() {
                    let _ = wal.sync();
                }
                return;
            }
        }

        if moved {
            backoff.note_progress();
        } else {
            backoff.idle_wait();
        }
    }
}
