//! Ingest benchmark of the `pstrace-stream` daemon on simulator captures.
//!
//! ```text
//! cargo run --release --manifest-path ingestbench/Cargo.toml -- \
//!     --workload captures|trace-port --seed N --seconds S --trace 0|1
//! ```
//!
//! One process generates the workload from `--seed`, spawns the daemon
//! in-process (two shards) and drives it in a closed loop from two client
//! threads, one connection each, checking every session's report against
//! an in-process reference whose localization equals batch
//! `consistent_paths`. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer ledger from a traced window plus an
//! in-process replay of the same sessions, with a reconciliation row
//! naming the time the layers leave unexplained. The last line of stdout
//! is one JSON object; any report mismatch or failed session fails the
//! run.

mod fixtures;
mod ledger;
mod load;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use pstrace_diag::MatchMode;
use pstrace_stream::StatsSnapshot;

use crate::fixtures::{mix, Workload};
use crate::ledger::Ledger;
use crate::load::{Kind, Limit, LoopResult, CLIENTS, SETUP_SPAWNS, SHARDS};

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload)
        .ok_or_else(|| format!("unknown workload {workload}; use captures or trace-port"))?;
    Ok(Args {
        workload,
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// One `/proc/self/status` memory field of this process (`VmHWM:` is
/// the peak resident set, `VmRSS:` the current one), in KB.
fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<42} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

/// What the session set carries, for the record beside each workload.
fn traffic(workload: &Workload) -> String {
    let n = workload.sessions.len().max(1) as f64;
    let records: usize = workload.sessions.iter().map(|s| s.records.len()).sum();
    let mut modes = [0usize; 4];
    let (mut v1, mut v2) = (0usize, 0usize);
    for s in &workload.sessions {
        modes[match s.mode {
            MatchMode::Exact => 0,
            MatchMode::Prefix => 1,
            MatchMode::Suffix => 2,
            MatchMode::Substring => 3,
        }] += 1;
        for e in &s.encodings {
            if e.v2 {
                v2 += e.ptw.len();
            } else {
                v1 += e.ptw.len();
            }
        }
    }
    let pct = |k: usize| 100.0 * modes[k] as f64 / n;
    format!(
        "{} sessions, {:.2} records/session, modes Exact {:.0}% Prefix {:.0}% Suffix {:.0}% Substring {:.0}%, v1 {} B, v2 {} B, {} host cores",
        workload.sessions.len(),
        records as f64 / n,
        pct(0),
        pct(1),
        pct(2),
        pct(3),
        v1,
        v2,
        std::thread::available_parallelism().map_or(1, usize::from)
    )
}

fn loop_summary(name: &str, r: &LoopResult) -> String {
    format!(
        "{name}: {} attempted, {} completed, {} failed in {:.3} s",
        r.attempted, r.completed, r.failed, r.elapsed_s
    )
}

/// Throughput is measured over back-to-back slices of this length and
/// reported as the median slice, so a stall of the shared host in one
/// slice does not move the figure.
const SLICE_S: f64 = 2.0;
fn latencies_ms(r: &LoopResult) -> Vec<f64> {
    r.completions.iter().map(|c| c.ms).collect()
}

/// Completed sessions and committed records per second in every whole
/// [`SLICE_S`] slice of the window. Each session is spread over the
/// slices its connect-to-report interval overlaps, in proportion to the
/// overlap, so a slice counts the work it actually carried.
fn slice_rates(r: &LoopResult, window_s: f64) -> (Vec<f64>, Vec<f64>) {
    let slices = ((window_s / SLICE_S).floor() as usize).max(1);
    let (mut sessions, mut records) = (vec![0.0; slices], vec![0.0; slices]);
    for c in &r.completions {
        let dur = (c.ms / 1e3).max(1e-9);
        let start = c.end_s - dur;
        for k in 0..slices {
            let (lo, hi) = (k as f64 * SLICE_S, (k + 1) as f64 * SLICE_S);
            let share = (c.end_s.min(hi) - start.max(lo)).max(0.0) / dur;
            sessions[k] += share / SLICE_S;
            records[k] += share * c.records as f64 / SLICE_S;
        }
    }
    (sessions, records)
}

fn end_to_end(setup_s: &[f64], r: &LoopResult, window_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let (sessions, records) = slice_rates(r, window_s);
    vec![
        metric("setup_s", median(setup_s), "s"),
        metric("sessions_per_s", median(&sessions), "1/s"),
        metric("records_per_s", median(&records), "1/s"),
        metric("session_ms_p50", median(&latencies_ms(r)), "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

fn per_layer(
    l: &Ledger,
    traced: &LoopResult,
    counts: (StatsSnapshot, StatsSnapshot),
    recover_ms: f64,
    rss_growth_kb: f64,
) -> Vec<Metric> {
    let us = |d: Duration, n: u64| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    let ns = |d: Duration, n: u64| d.as_secs_f64() * 1e9 / n.max(1) as f64;
    let per_open = |d: Duration| us(d, l.sessions);
    let roundtrip_us = traced.completions.iter().map(|c| c.ms * 1e3).sum::<f64>()
        / traced.completions.len().max(1) as f64;
    let inproc_us = per_open(l.inproc());
    let (traced_sessions_per_s, traced_records_per_s) = l.traced_rates();
    let (before, after) = counts;
    let delta = |f: fn(&StatsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
    vec![
        metric("soc.interleave_us", per_open(l.interleave), "us"),
        metric("wire.handshake_us", per_open(l.handshake), "us"),
        metric("stream.session.open_us", per_open(l.session_open), "us"),
        metric("diag.online.new_us", per_open(l.online_new), "us"),
        metric(
            "diag.online.push_ns",
            ns(l.push_in_chunk + l.push_at_finish, l.pushes),
            "ns",
        ),
        metric(
            "diag.online.live_push_ratio",
            l.live_pushes as f64 / l.pushes.max(1) as f64,
            "ratio",
        ),
        metric(
            "wire.decode_ns_per_frame",
            ns(l.v1_decode, l.v1_frames),
            "ns",
        ),
        metric(
            "codec.decode_ns_per_record",
            ns(l.v2_decode, l.v2_records),
            "ns",
        ),
        metric(
            "stream.session.push_chunk_ns_per_record",
            ns(l.push_chunk, l.records),
            "ns",
        ),
        metric(
            "stream.session.self_ns_per_record",
            l.push_chunk_self_ns() / l.records.max(1) as f64,
            "ns",
        ),
        metric("stream.session.finish_us", per_open(l.finish), "us"),
        metric("stream.session.inproc_us", inproc_us, "us"),
        metric("stream.client.roundtrip_us", roundtrip_us, "us"),
        metric("stream.wait_us", roundtrip_us - inproc_us, "us"),
        metric(
            "reconcile.wait_share",
            (roundtrip_us - inproc_us) / roundtrip_us,
            "ratio",
        ),
        metric("stream.wal.append_open_us", per_open(l.wal_open), "us"),
        metric("stream.wal.commit_us", per_open(l.wal_commit), "us"),
        metric("stream.wal.recover_ms", recover_ms, "ms"),
        metric("stream.server.sessions", delta(|s| s.sessions), "count"),
        metric("stream.server.failed", delta(|s| s.failed), "count"),
        metric("stream.server.shed", delta(|s| s.shed), "count"),
        metric("stream.server.handoffs", delta(|s| s.handoffs), "count"),
        metric("stream.server.resumed", delta(|s| s.resumed), "count"),
        metric(
            "stream.server.rss_growth_kb_per_session",
            rss_growth_kb / traced.completed.max(1) as f64,
            "KB",
        ),
        metric("trace.sessions_per_s", traced_sessions_per_s, "1/s"),
        metric("trace.records_per_s", traced_records_per_s, "1/s"),
        metric("trace.throughput_ratio", l.throughput_ratio(), "ratio"),
    ]
}

fn print_reconciliation(workload: &str, l: &Ledger, layers: &[Metric]) {
    let get = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let per_open = |d: Duration| d.as_secs_f64() * 1e6 / l.sessions.max(1) as f64;
    let wal = format!(
        "stream.wal.append_open {:.1} + stream.wal.commit {:.1}",
        per_open(l.wal_open),
        per_open(l.wal_commit)
    );
    println!(
        "reconciliation [{workload}]: stream.client.roundtrip_us {:.1} = \
         soc.interleave {:.1} + wire.handshake {:.1} + stream.session.open {:.1} + \
         stream.session.push_chunk {:.1} + stream.session.finish {:.1} \
         (stream.session.inproc_us {:.1}) + stream.wait_us {:.1} ({:.1}% of the round trip)",
        get("stream.client.roundtrip_us"),
        per_open(l.interleave),
        per_open(l.handshake),
        per_open(l.session_open),
        per_open(l.push_chunk),
        per_open(l.finish),
        get("stream.session.inproc_us"),
        get("stream.wait_us"),
        100.0 * get("reconcile.wait_share"),
    );
    if l.wal_open > Duration::ZERO {
        println!("  off the daemon path (durability off), measured standalone: {wal}");
    }
}

/// Whether every session of `r` completed with the expected report; a
/// mismatch or a failed session fails the run.
fn check(name: &str, r: &LoopResult) -> bool {
    for m in &r.mismatches {
        eprintln!("REPORT MISMATCH ({name}): {m}");
    }
    if r.failed > 0 {
        eprintln!("{name}: {} of {} sessions failed", r.failed, r.attempted);
    }
    r.mismatches.is_empty() && r.failed == 0
}

fn run(args: &Args, work: &Path) -> Result<(bool, String), String> {
    let gen = std::time::Instant::now();
    let workload = match args.kind {
        Kind::Captures => fixtures::captures(args.seed)?,
        Kind::TracePort => fixtures::trace_port(args.seed)?,
    };
    println!(
        "workload {} (seed {}): {} [generated in {:.2} s]",
        args.workload,
        args.seed,
        traffic(&workload),
        gen.elapsed().as_secs_f64()
    );
    // The traced ledger of `captures` times recovery over a pre-filled
    // WAL directory.
    let wal = args.trace && args.kind == Kind::Captures;
    let template = if wal {
        let dir = work.join("template");
        load::prefill_wal(&dir, &workload)?;
        Some(dir)
    } else {
        None
    };
    let (server, first_setup_s) = load::spawn_timed(&workload.model)?;
    let addr = server.local_addr();
    println!("daemon: {SHARDS} shards, {CLIENTS} closed-loop clients, durability off");
    // A fixed amount of warm-up work, so the footprint read after it does
    // not depend on throughput.
    let warm = load::closed_loop(addr, &workload, (Limit::OnePass, mix(&[args.seed, 1])));
    println!("{}", loop_summary("warm-up", &warm));
    let mut correct = check("warm-up", &warm);
    let peak_rss_mb = status_kb("VmHWM:") / 1024.0;
    let warm_rss_kb = status_kb("VmRSS:");
    let window = Duration::from_secs(args.seconds);

    let line = if args.trace {
        let half = window / 2;
        let before = server.snapshot();
        let r = load::closed_loop(addr, &workload, (Limit::Time(half), mix(&[args.seed, 2])));
        let after = server.snapshot();
        let rss_growth_kb = status_kb("VmRSS:") - warm_rss_kb;
        correct &= check("traced window", &r);
        println!("{}", loop_summary("traced window", &r));
        let ledger = ledger::replay(&workload, wal, work, half)?;
        let recover_ms = match template.as_deref() {
            Some(t) => median(
                &(0..5)
                    .map(|_| ledger::recover_ms(t))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            None => 0.0,
        };
        fixtures::verify_batch(&workload)?;
        let layers = per_layer(&ledger, &r, (before, after), recover_ms, rss_growth_kb);
        print_table(
            &format!(
                "per-layer ledger [{}] ({} in-process session replays, {} records)",
                args.workload, ledger.sessions, ledger.records
            ),
            &layers,
        );
        print_reconciliation(&args.workload, &ledger, &layers);
        server.shutdown();
        json(correct, r.attempted, r.failed, &layers)
    } else {
        let r = load::closed_loop(addr, &workload, (Limit::Time(window), mix(&[args.seed, 2])));
        let rss_growth_kb = status_kb("VmRSS:") - warm_rss_kb;
        correct &= check("window", &r);
        fixtures::verify_batch(&workload)?;
        server.shutdown();
        let mut setup_s = vec![first_setup_s];
        setup_s.extend(load::setup_samples(&workload.model, SETUP_SPAWNS - 1)?);
        let metrics = end_to_end(&setup_s, &r, window.as_secs_f64(), peak_rss_mb);
        print_table(
            &format!(
                "end-to-end [{}] ({} sessions timed, {} setup spawns)",
                args.workload,
                r.completions.len(),
                setup_s.len()
            ),
            &metrics,
        );
        println!(
            "  {:<42} {:>14.4} ratio ({} failed of {} attempted; any failure fails the run)",
            "fail_ratio",
            r.failed as f64 / r.attempted.max(1) as f64,
            r.failed,
            r.attempted
        );
        let l = &latencies_ms(&r);
        // Reported, not gated: stalls of the shared host move the tail of
        // `captures` by a third between runs while the median holds.
        for (name, q) in [("session_ms_p95", 0.95), ("session_ms_p99", 0.99)] {
            println!(
                "  {:<42} {:>14.4} ms (n = {}, {} beyond it; not gated)",
                name,
                percentile(l, q),
                l.len(),
                (l.len() as f64 * (1.0 - q)) as usize
            );
        }
        println!(
            "  {:<42} {:>14.4} KB (VmRSS growth over the window per session served; not gated)",
            "rss_growth_kb_per_session",
            rss_growth_kb / r.completed.max(1) as f64
        );
        println!(
            "  session_ms distribution: p90 {:.3} p99.9 {:.3} max {:.3}",
            percentile(l, 0.90),
            percentile(l, 0.999),
            percentile(l, 1.0)
        );
        setup_s.sort_by(f64::total_cmp);
        println!("  setup_s samples (sorted): {setup_s:.4?}");
        json(correct, r.attempted, r.failed, &metrics)
    };
    Ok((correct, line))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ingestbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "ingestbench: a session failed or its report did not match its reference"
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ingestbench: {e}");
            ExitCode::FAILURE
        }
    }
}
