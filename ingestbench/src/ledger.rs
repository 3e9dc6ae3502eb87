//! The traced in-process replay: the same sessions pushed through each
//! layer's public functions, in the order the daemon calls them, with a
//! span around every call.
//!
//! The daemon's open path is `interleaving` → `read_ptw_header` →
//! `Session::observed_with_meta` (which builds the `OnlineLocalizer`),
//! then one `push_chunk` per client chunk (frame decode, the one-record
//! spike quarantine, localizer push), then `finish`. Every session runs
//! that path twice, once with spans and once bare, so the spans' own cost
//! shows as the ratio of the two wall times. Decode and the localizer are
//! then replayed on their own, so `push_chunk`'s self time (quarantine
//! plus bookkeeping) is what is left after subtracting them, and on
//! `captures` the WAL writes a strict daemon would add are timed
//! standalone.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstrace_codec::V2StreamDecoder;
use pstrace_diag::{Localization, OnlineLocalizer};
use pstrace_obs::Registry;
use pstrace_stream::durable::{mint_epoch, DurabilityPolicy, WalRecord, WalWriter};
use pstrace_stream::proto::mode_to_byte;
use pstrace_stream::{
    observed_messages, scenario_by_number, Server, Session, DEFAULT_CHUNK_BYTES, DEFAULT_WAL_BUDGET,
};
use pstrace_wire::{decode_frame_range, read_ptw_header};

use crate::fixtures::{Encoding, SessionInput, Workload};
use crate::load::{dialect, CLIENTS, PARKED, SHARDS};

/// Summed span time and counts of one replay.
#[derive(Default, Debug)]
pub struct Ledger {
    /// Sessions and records the traced daemon-path runs replayed.
    pub sessions: u64,
    pub records: u64,
    pub interleave: Duration,
    pub handshake: Duration,
    pub session_open: Duration,
    pub online_new: Duration,
    pub push_chunk: Duration,
    pub finish: Duration,
    pub v1_decode: Duration,
    pub v1_frames: u64,
    pub v2_decode: Duration,
    pub v2_records: u64,
    /// Localizer pushes `push_chunk` makes, and the one `finish` makes.
    pub push_in_chunk: Duration,
    pub push_at_finish: Duration,
    pub pushes: u64,
    pub live_pushes: u64,
    /// Standalone `WalWriter` spans; the daemon under test does not journal.
    pub wal_open: Duration,
    pub wal_commit: Duration,
    /// Daemon-path wall time, with spans and bare.
    pub traced_wall: Duration,
    pub bare_wall: Duration,
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed();
    out
}

/// [`timed`] when a ledger is recording, the bare call otherwise.
fn span<T>(acc: Option<&mut Duration>, f: impl FnOnce() -> T) -> T {
    match acc {
        Some(acc) => timed(acc, f),
        None => f(),
    }
}

/// One session through the daemon's path, with every call spanned into
/// `ledger` when there is one. Returns the session's localization.
fn daemon_path(
    workload: &Workload,
    s: &SessionInput,
    enc: &Encoding,
    registry: &Arc<Registry>,
    id: u64,
    mut ledger: Option<&mut Ledger>,
) -> Result<Localization, String> {
    let model = &workload.model;
    let scenario = scenario_by_number(s.scenario).map_err(|e| e.to_string())?;
    let flow = span(ledger.as_deref_mut().map(|l| &mut l.interleave), || {
        scenario.interleaving(model)
    })
    .map_err(|e| e.to_string())?;
    let (schema, meta, _) = span(ledger.as_deref_mut().map(|l| &mut l.handshake), || {
        read_ptw_header(model.catalog(), &enc.schema_bytes)
    })
    .map_err(|e| e.to_string())?;
    let mut session = span(ledger.as_deref_mut().map(|l| &mut l.session_open), || {
        Session::observed_with_meta(&flow, schema, meta, s.mode, Arc::clone(registry), id)
    });
    for piece in enc.payload.chunks(DEFAULT_CHUNK_BYTES) {
        span(ledger.as_deref_mut().map(|l| &mut l.push_chunk), || {
            session.push_chunk(piece)
        });
    }
    let report = span(ledger.as_deref_mut().map(|l| &mut l.finish), || {
        session.finish(Some(enc.bit_len))
    });
    if report.metrics.records != s.records.len() {
        return Err(format!(
            "replay committed {} records, the capture holds {}",
            report.metrics.records,
            s.records.len()
        ));
    }
    if let Some(l) = ledger {
        l.sessions += 1;
        l.records += s.records.len() as u64;
    }
    Ok(report.localization)
}

impl Ledger {
    /// The daemon-path spans summed: everything a session costs in
    /// process, without the socket.
    pub fn inproc(&self) -> Duration {
        self.interleave + self.handshake + self.session_open + self.push_chunk + self.finish
    }

    /// `push_chunk`'s self time: what is left after the decode and the
    /// localizer pushes made inside it (negative when noise exceeds it).
    pub fn push_chunk_self_ns(&self) -> f64 {
        let inner = self.v1_decode + self.v2_decode + self.push_in_chunk;
        (self.push_chunk.as_secs_f64() - inner.as_secs_f64()) * 1e9
    }

    /// Traced over bare daemon-path throughput (1 means the spans cost
    /// nothing).
    pub fn throughput_ratio(&self) -> f64 {
        self.bare_wall.as_secs_f64() / self.traced_wall.as_secs_f64()
    }

    /// Traced daemon-path sessions and records per second.
    pub fn traced_rates(&self) -> (f64, f64) {
        let wall = self.traced_wall.as_secs_f64();
        (self.sessions as f64 / wall, self.records as f64 / wall)
    }

    /// Decode, the localizer and (on `captures`) the WAL writes, each
    /// replayed on its own for one session the daemon path localized as
    /// `localization`.
    fn layers_alone(
        &mut self,
        workload: &Workload,
        s: &SessionInput,
        enc: &Encoding,
        localization: &Localization,
        wal: Option<&mut WalWriter>,
        token: u64,
    ) -> Result<(), String> {
        let setup = &workload.setups[usize::from(s.scenario) - 1];
        let schema = &setup.schema;

        // The decode layer alone, fed chunk by chunk as push_chunk feeds it.
        let decoded = if enc.v2 {
            let t0 = Instant::now();
            let mut dec = V2StreamDecoder::new(schema);
            let mut decoded = 0;
            for piece in enc.payload.chunks(DEFAULT_CHUNK_BYTES) {
                dec.push(piece);
                decoded += dec.drain_new().0.len();
            }
            self.v2_decode += t0.elapsed();
            // The tail flush belongs to `finish`, outside the decode span.
            decoded += dec.finish_tail().0.len();
            self.v2_records += decoded as u64;
            decoded
        } else {
            let frame_bits = u64::from(schema.frame_bits());
            let mut buf = Vec::new();
            let mut frames = 0usize;
            let mut decoded = 0;
            let t0 = Instant::now();
            for piece in enc.payload.chunks(DEFAULT_CHUNK_BYTES) {
                buf.extend_from_slice(piece);
                let avail = buf.len() as u64 * 8;
                let ready = (avail / frame_bits) as usize;
                if ready > frames {
                    decoded += decode_frame_range(schema, &buf, avail, frames, ready - frames)
                        .events
                        .len();
                    frames = ready;
                }
            }
            self.v1_decode += t0.elapsed();
            self.v1_frames += frames as u64;
            decoded
        };
        if decoded != s.records.len() {
            return Err(format!(
                "decode replay found {decoded} records, the capture holds {}",
                s.records.len()
            ));
        }

        // The localizer alone: construction, then one push per record.
        let selected = observed_messages(schema);
        let mut localizer = timed(&mut self.online_new, || {
            OnlineLocalizer::new(&setup.flow, &selected, s.mode)
        });
        // A clean stream's newest record waits in the quarantine until
        // `finish` commits it; every earlier one is pushed inside
        // `push_chunk`.
        for (k, &m) in s.records.iter().enumerate() {
            if localizer.frontier().support() > 0 {
                self.live_pushes += 1;
            }
            let acc = if k + 1 == s.records.len() {
                &mut self.push_at_finish
            } else {
                &mut self.push_in_chunk
            };
            timed(acc, || localizer.push(m));
        }
        self.pushes += s.records.len() as u64;
        if localizer.localization() != *localization {
            return Err("localizer replay disagrees with the session replay".to_owned());
        }

        // The lifecycle group a strict daemon journals for this session.
        if let Some(w) = wal {
            timed(&mut self.wal_open, || {
                w.append_open(
                    token,
                    token,
                    token,
                    s.scenario,
                    mode_to_byte(s.mode),
                    0,
                    &enc.schema_bytes,
                )
            })
            .map_err(|e| format!("WAL append: {e}"))?;
            timed(&mut self.wal_commit, || {
                w.append(&WalRecord::Complete { token })
            })
            .map_err(|e| format!("WAL append: {e}"))?;
            if w.needs_rotation() {
                w.rotate(&[]).map_err(|e| format!("WAL rotation: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Replays passes over the whole session set until `budget` has been
/// spent (at least one pass). Each session is replayed once per client
/// dialect, matching the traffic the closed loop sent. With `wal`, the
/// WAL spans use a strict `WalWriter` in a scratch directory under `work`.
pub fn replay(
    workload: &Workload,
    wal: bool,
    work: &Path,
    budget: Duration,
) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    let mut writer = if wal {
        let dir = work.join("ledger-wal");
        let epoch = mint_epoch(&dir).map_err(|e| e.to_string())?;
        Some(
            WalWriter::open(
                &dir,
                0,
                SHARDS,
                epoch,
                DurabilityPolicy::Strict,
                DEFAULT_WAL_BUDGET,
            )
            .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };
    let inputs: Vec<(&SessionInput, &Encoding)> = workload
        .sessions
        .iter()
        .flat_map(|s| {
            let mut dialects: Vec<usize> = (0..CLIENTS)
                .map(|t| dialect(t, s.encodings.len()))
                .collect();
            dialects.dedup();
            dialects.into_iter().map(move |d| (s, &s.encodings[d]))
        })
        .collect();
    let start = Instant::now();
    let mut id = 0u64;
    for pass in 0.. {
        let registry = Arc::new(Registry::new());
        for (k, &(s, enc)) in inputs.iter().enumerate() {
            // Traced and bare runs of one session sit side by side, so a
            // change in the shared host's speed hits both alike; which
            // goes first alternates, so neither always finds the other's
            // caches warm.
            let traced_first = (k + pass) % 2 == 0;
            let mut localization = None;
            for traced in [traced_first, !traced_first] {
                id += 1;
                let t0 = Instant::now();
                if traced {
                    localization = Some(daemon_path(
                        workload,
                        s,
                        enc,
                        &registry,
                        id,
                        Some(&mut ledger),
                    )?);
                    ledger.traced_wall += t0.elapsed();
                } else {
                    std::hint::black_box(daemon_path(workload, s, enc, &registry, id, None)?);
                    ledger.bare_wall += t0.elapsed();
                }
            }
            let localization = localization.expect("one run per session is traced");
            ledger.layers_alone(workload, s, enc, &localization, writer.as_mut(), id)?;
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    Ok(ledger)
}

/// Times `Server::recover` over the pre-filled WAL directory, checking
/// that it finds every parked session.
pub fn recover_ms(template: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let state = Server::recover(template, SHARDS);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let recovered: usize = state.shards.iter().map(Vec::len).sum();
    if recovered != PARKED || state.skipped != 0 {
        return Err(format!(
            "recovery found {recovered} parked sessions and skipped {}, expected {PARKED} and 0",
            state.skipped
        ));
    }
    Ok(ms)
}
