//! The load generator: spawns the daemon in-process and drives it from
//! two client threads in a closed loop, one connection per session.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstrace_diag::MatchMode;
use pstrace_soc::SocModel;
use pstrace_stream::durable::{mint_epoch, DurabilityPolicy, WalRecord, WalWriter};
use pstrace_stream::proto::mode_to_byte;
use pstrace_stream::{
    fetch_metrics, stream_ptw, Server, ServerConfig, DEFAULT_CHUNK_BYTES, DEFAULT_WAL_BUDGET,
};

use crate::fixtures::{mix, normalize_report, Workload};

/// Client threads, one connection each at a time.
pub const CLIENTS: usize = 2;
/// Daemon shards.
pub const SHARDS: usize = 2;
/// Daemon spawns per run; `setup_s` is their median.
pub const SETUP_SPAWNS: usize = 21;
/// Parked sessions in the WAL directory `stream.wal.recover_ms` recovers.
pub const PARKED: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Captures,
    TracePort,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "captures" => Some(Kind::Captures),
            "trace-port" => Some(Kind::TracePort),
            _ => None,
        }
    }
}

/// Writes a WAL directory holding [`PARKED`] parked resumable sessions
/// through the public durability API, as a strict daemon that died with
/// them parked would have left it.
pub fn prefill_wal(dir: &Path, workload: &Workload) -> Result<(), String> {
    let io = |e: std::io::Error| format!("pre-filling the WAL: {e}");
    let epoch = mint_epoch(dir).map_err(io)?;
    let mut writers = (0..SHARDS)
        .map(|shard| {
            WalWriter::open(
                dir,
                shard,
                SHARDS,
                epoch,
                DurabilityPolicy::Lazy,
                DEFAULT_WAL_BUDGET,
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?;
    // A fixed population, the same for every seed: scenarios 1-5 crossed
    // with the four match modes, each with its scenario's handshake.
    const MODES: [MatchMode; 4] = [
        MatchMode::Exact,
        MatchMode::Prefix,
        MatchMode::Suffix,
        MatchMode::Substring,
    ];
    for i in 0..PARKED {
        let scenario = (i % 5) as u8 + 1;
        let mode = MODES[(i / 5) % MODES.len()];
        let schema = &workload
            .sessions
            .iter()
            .find(|s| s.scenario == scenario)
            .ok_or_else(|| format!("no session of scenario {scenario} to park"))?
            .encodings[0]
            .schema_bytes;
        // Tokens are shard-pinned: token % shards names the owner.
        let token = i as u64 + 1;
        let wal = &mut writers[(token % SHARDS as u64) as usize];
        wal.append_open(token, token, token, scenario, mode_to_byte(mode), 0, schema)
            .map_err(io)?;
        wal.append(&WalRecord::Park { token, bytes: 0 })
            .map_err(io)?;
    }
    for w in &mut writers {
        w.sync().map_err(io)?;
    }
    Ok(())
}

/// Spawns the daemon (durability off) and times it from `Server::spawn`
/// until both shards have answered a METRICS request, sent concurrently
/// so both land in the first accept round. Returns the running daemon
/// and its set-up seconds.
pub fn spawn_timed(model: &Arc<SocModel>) -> Result<(Server, f64), String> {
    let config = ServerConfig {
        shards: SHARDS,
        ..ServerConfig::default()
    };
    let t0 = Instant::now();
    let server = Server::spawn(Arc::clone(model), &config).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let answered = std::thread::scope(|s| {
        let probes: Vec<_> = (0..SHARDS)
            .map(|_| s.spawn(move || fetch_metrics(addr).is_ok()))
            .collect();
        probes
            .into_iter()
            .all(|p| p.join().expect("probe thread panicked"))
    });
    let setup_s = t0.elapsed().as_secs_f64();
    if !answered {
        return Err("the daemon did not answer its first requests".to_owned());
    }
    Ok((server, setup_s))
}

/// Spawns and shuts down the daemon `count` more times, returning each
/// spawn's set-up seconds. Runs after the measured window.
pub fn setup_samples(model: &Arc<SocModel>, count: usize) -> Result<Vec<f64>, String> {
    (0..count)
        .map(|_| {
            let (server, setup_s) = spawn_timed(model)?;
            server.shutdown();
            Ok(setup_s)
        })
        .collect()
}

/// One completed session.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// When the report arrived, seconds into the window.
    pub end_s: f64,
    /// Connect to report, in milliseconds.
    pub ms: f64,
    /// Records the session committed.
    pub records: u64,
}

/// What one closed-loop window measured.
#[derive(Default)]
pub struct LoopResult {
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    pub records: u64,
    pub elapsed_s: f64,
    /// Every completed session, in completion order once merged.
    pub completions: Vec<Completion>,
    pub mismatches: Vec<String>,
}

/// When a client stops taking sessions.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this much time.
    Time(Duration),
    /// After one pass over the session set: a fixed amount of work.
    OnePass,
}

/// The encoding client `thread` sends: `trace-port` clients alternate
/// dialects by thread, so one client streams v1 and the other v2.
pub fn dialect(thread: usize, encodings: usize) -> usize {
    thread % encodings
}

/// Fisher-Yates shuffle of `order`, drawn from the seed and `coords`.
fn shuffle(order: &mut [usize], seed: u64, coords: &[u64]) {
    for k in (1..order.len()).rev() {
        let mut parts = vec![seed, k as u64];
        parts.extend_from_slice(coords);
        let j = (mix(&parts) % (k as u64 + 1)) as usize;
        order.swap(k, j);
    }
}

/// Drives the daemon at `addr` from [`CLIENTS`] threads until `limit`:
/// each thread walks its own seeded shuffle of the session set (a fresh
/// one per pass), streams a session, waits for the report, checks it,
/// and only then takes the next one. Independent orders keep the two
/// clients from locking into one fixed pairing of long and short
/// sessions.
pub fn closed_loop(
    addr: SocketAddr,
    workload: &Workload,
    (limit, seed): (Limit, u64),
) -> LoopResult {
    let n = workload.sessions.len();
    let start = Instant::now();
    let per_thread: Vec<LoopResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|thread| {
                s.spawn(move || {
                    let mut out = LoopResult::default();
                    let mut order: Vec<usize> = (0..n).collect();
                    let (mut pos, mut pass) = (n, 0u64);
                    loop {
                        let more = match limit {
                            Limit::Time(window) => start.elapsed() < window,
                            Limit::OnePass => pass == 0 || pos < n,
                        };
                        if !more {
                            break;
                        }
                        if pos == n {
                            shuffle(&mut order, seed, &[thread as u64, pass]);
                            (pos, pass) = (0, pass + 1);
                        }
                        let i = order[pos];
                        pos += 1;
                        let session = &workload.sessions[i];
                        let enc = &session.encodings[dialect(thread, session.encodings.len())];
                        out.attempted += 1;
                        let t0 = start.elapsed();
                        let result = stream_ptw(
                            addr,
                            workload.model.catalog(),
                            session.scenario,
                            session.mode,
                            &enc.ptw,
                            DEFAULT_CHUNK_BYTES,
                        );
                        let t1 = start.elapsed();
                        match result {
                            Ok(report) => {
                                out.completed += 1;
                                out.records += session.records.len() as u64;
                                out.completions.push(Completion {
                                    end_s: t1.as_secs_f64(),
                                    ms: (t1 - t0).as_secs_f64() * 1e3,
                                    records: session.records.len() as u64,
                                });
                                let got = normalize_report(&report);
                                if got != enc.expected && out.mismatches.len() < 4 {
                                    out.mismatches.push(format!(
                                        "session {i} (scenario {}, {:?}): daemon reported\n{got}\nexpected\n{}",
                                        session.scenario, session.mode, enc.expected
                                    ));
                                }
                            }
                            Err(e) => {
                                out.failed += 1;
                                if out.failed <= 4 {
                                    eprintln!("session {i} failed: {e}");
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = LoopResult {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..LoopResult::default()
    };
    for r in per_thread {
        total.attempted += r.attempted;
        total.failed += r.failed;
        total.completed += r.completed;
        total.records += r.records;
        total.completions.extend(r.completions);
        total.mismatches.extend(r.mismatches);
    }
    total
        .completions
        .sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    total
}
