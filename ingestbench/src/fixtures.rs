//! Seeded inputs: simulator captures encoded as `.ptw` bytes, plus the
//! reference answer each session must reproduce.
//!
//! Selection, simulation, encoding and the reference computations run
//! here, once per benchmark run and outside every measured window. The
//! daemon only ever sees the generated `.ptw` bytes.

use std::sync::Arc;

use pstrace_bug::{bug_catalog, BugInterceptor};
use pstrace_codec::{read_ptw_auto, ProfileV2, DEFAULT_SYNC_EVERY};
use pstrace_core::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace_diag::{consistent_paths, MatchMode};
use pstrace_flow::{IndexedMessage, InterleavedFlow, MessageId};
use pstrace_obs::Registry;
use pstrace_soc::{capture, wirecap, SimConfig, Simulator, SocModel, TraceBufferConfig};
use pstrace_stream::{scenario_by_number, Session, DEFAULT_CHUNK_BYTES};
use pstrace_wire::{
    encode_records, read_ptw_header, write_ptw, write_ptw_with, FrameProfile, WireRecord,
    WireSchema,
};

/// Trace-buffer width every scenario is selected for (the paper's 32 bits).
const BUFFER_BITS: u32 = 32;
/// Circular-buffer depth of the wrapped half of the `captures` set.
const WRAP_DEPTH: usize = 4;
/// Seeded simulator rounds in the `captures` set; each round runs every
/// scenario clean and under each bug that targets one of its messages.
const CAPTURE_ROUNDS: u64 = 4;
/// Long sessions in the `trace-port` set: scenarios 1-5 crossed with
/// [`PORT_LENGTHS`] lengths each.
const PORT_SESSIONS: usize = 40;
/// Fewest and most records a `trace-port` session carries. Each scenario
/// gets lengths evenly spread over this range: per-record cost differs
/// up to tenfold between scenarios, and one length per scenario would
/// split session times into five separate clusters whose quantiles jump
/// between clusters from run to run.
const PORT_RECORDS: (usize, usize) = (1000, 4000);
const PORT_LENGTHS: usize = PORT_SESSIONS / 5;

/// One scenario's analysis side: interleaving and 32-bit selection.
pub struct ScenarioSetup {
    pub number: u8,
    pub flow: InterleavedFlow,
    pub schema: WireSchema,
    pub config: TraceBufferConfig,
    pub effective: Vec<MessageId>,
}

/// One `.ptw` dialect of a session, with the bytes the client sends.
pub struct Encoding {
    /// The whole container (schema prefix, payload length, payload).
    pub ptw: Vec<u8>,
    /// The schema prefix alone: the handshake the daemon parses.
    pub schema_bytes: Vec<u8>,
    pub payload: Vec<u8>,
    pub bit_len: u64,
    pub v2: bool,
    /// The report the daemon must return, rate field masked.
    pub expected: String,
    /// The reference's consistent-path count, checked against batch
    /// `consistent_paths` by [`verify_batch`].
    pub consistent: u128,
}

/// One session of a workload.
pub struct SessionInput {
    pub scenario: u8,
    pub mode: MatchMode,
    pub records: Vec<IndexedMessage>,
    /// `[v1]` for captures; `[v1, v2]` for trace-port sessions.
    pub encodings: Vec<Encoding>,
}

pub struct Workload {
    pub model: Arc<SocModel>,
    /// Scenarios 1-5, in order.
    pub setups: Vec<ScenarioSetup>,
    pub sessions: Vec<SessionInput>,
}

/// SplitMix64 over a seed and a few coordinates: every simulator seed is
/// a pure function of the benchmark seed and where the run sits.
pub fn mix(parts: &[u64]) -> u64 {
    let mut z: u64 = 0x9e37_79b9_7f4a_7c15;
    for &p in parts {
        z = z.wrapping_add(p).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z
}

fn scenario_setup(model: &SocModel, number: u8) -> Result<ScenarioSetup, String> {
    let scenario = scenario_by_number(number).map_err(|e| e.to_string())?;
    let flow = scenario
        .interleaving(model)
        .map_err(|e| format!("scenario {number} does not interleave: {e}"))?;
    let buffer = TraceBufferSpec::new(BUFFER_BITS).map_err(|e| e.to_string())?;
    let selection = Selector::new(&flow, SelectionConfig::new(buffer))
        .select()
        .map_err(|e| format!("scenario {number}: selection failed: {e}"))?;
    let config = TraceBufferConfig {
        messages: selection.chosen.messages.clone(),
        groups: selection.packed_groups.clone(),
        depth: None,
    };
    let schema = wirecap::wire_schema(model, &config, BUFFER_BITS)
        .map_err(|e| format!("scenario {number}: schema: {e}"))?;
    Ok(ScenarioSetup {
        number,
        flow,
        schema,
        config,
        effective: selection.effective_messages,
    })
}

/// Masks the one run-dependent field of a session report: the ingest
/// rate in bytes per second.
pub fn normalize_report(report: &str) -> String {
    report
        .lines()
        .map(|line| match (line.find(" chunks ("), line.rfind(" B/s)")) {
            (Some(a), Some(b)) if line.trim_start().starts_with("ingest") => {
                format!("{} chunks (-{}", &line[..a], &line[b..])
            }
            _ => line.to_owned(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The report an in-process [`Session`] produces for `enc`, fed in the
/// client's chunking, rendered with the daemon's header line.
fn reference_report(
    model: &SocModel,
    setup: &ScenarioSetup,
    mode: MatchMode,
    schema_bytes: &[u8],
    payload: &[u8],
    bit_len: u64,
) -> Result<(String, u128), String> {
    let (schema, meta, _) =
        read_ptw_header(model.catalog(), schema_bytes).map_err(|e| e.to_string())?;
    let mut session = Session::observed_with_meta(
        &setup.flow,
        schema,
        meta,
        mode,
        Arc::new(Registry::new()),
        0,
    );
    for piece in payload.chunks(DEFAULT_CHUNK_BYTES) {
        session.push_chunk(piece);
    }
    let report = session.finish(Some(bit_len));
    let text = format!(
        "session over scenario {} ({:?} match)\n{}",
        setup.number,
        report.mode,
        report.render()
    );
    Ok((normalize_report(&text), report.localization.consistent))
}

/// Builds one dialect of a session and checks that it decodes back to
/// the captured records.
fn encoding(
    model: &SocModel,
    setup: &ScenarioSetup,
    mode: MatchMode,
    records: &[IndexedMessage],
    ptw: Vec<u8>,
) -> Result<Encoding, String> {
    let catalog = model.catalog();
    let (_, meta, consumed) = read_ptw_header(catalog, &ptw).map_err(|e| e.to_string())?;
    if decoded_messages(model, &ptw)? != records {
        return Err(format!(
            "scenario {}: decode(encode(capture)) differs from the capture",
            setup.number
        ));
    }
    let schema_bytes = ptw[..consumed].to_vec();
    let bit_len = u64::from_le_bytes(
        ptw[consumed..consumed + 8]
            .try_into()
            .map_err(|_| "truncated container".to_owned())?,
    );
    let payload = ptw[consumed + 8..].to_vec();
    let (expected, consistent) =
        reference_report(model, setup, mode, &schema_bytes, &payload, bit_len)?;
    Ok(Encoding {
        ptw,
        schema_bytes,
        payload,
        bit_len,
        v2: meta.version == pstrace_wire::PTW_VERSION_V2,
        expected,
        consistent,
    })
}

/// The batch decoder's record sequence for a whole container; damage is
/// an error, since every generated capture is clean.
fn decoded_messages(model: &SocModel, ptw: &[u8]) -> Result<Vec<IndexedMessage>, String> {
    let (_, _, decoded) = read_ptw_auto(model.catalog(), ptw).map_err(|e| e.to_string())?;
    if !decoded.is_clean() {
        return Err("a generated capture decodes with damage".to_owned());
    }
    Ok(decoded.records.iter().map(|r| r.message).collect())
}

/// Checks every reference localization against batch
/// `consistent_paths` over the batch-decoded records in the same mode.
/// Batch localization of a long stream allocates a column per record,
/// so this runs after the measured window, where it cannot reach
/// `peak_rss_mb`.
pub fn verify_batch(workload: &Workload) -> Result<(), String> {
    for s in &workload.sessions {
        let setup = &workload.setups[usize::from(s.scenario) - 1];
        for enc in &s.encodings {
            let observed = decoded_messages(&workload.model, &enc.ptw)?;
            let batch = consistent_paths(&setup.flow, &observed, &setup.effective, s.mode);
            if batch != enc.consistent {
                return Err(format!(
                    "scenario {} ({:?}): streaming localization {} != batch {batch}",
                    s.scenario, s.mode, enc.consistent
                ));
            }
        }
    }
    Ok(())
}

/// `diag::report`'s rule: a complete capture of a complete run matches
/// exactly, a hung run constrains a prefix, a wrapped buffer keeps a
/// suffix, and a wrapped buffer of a hung run an unanchored window.
fn match_mode(completed: bool, wrapped: bool) -> MatchMode {
    match (completed, wrapped) {
        (true, false) => MatchMode::Exact,
        (false, false) => MatchMode::Prefix,
        (true, true) => MatchMode::Suffix,
        (false, true) => MatchMode::Substring,
    }
}

/// Short real sessions: seeded runs of scenarios 1-5, clean and under
/// each catalog bug that targets a scenario message, each captured
/// unwrapped and through a depth-4 circular buffer, encoded as v1.
pub fn captures(seed: u64) -> Result<Workload, String> {
    let model = SocModel::t2();
    let bugs = bug_catalog(&model);
    let setups = (1..=5)
        .map(|n| scenario_setup(&model, n))
        .collect::<Result<Vec<_>, _>>()?;
    let mut sessions = Vec::new();
    for round in 0..CAPTURE_ROUNDS {
        for setup in &setups {
            let scenario = scenario_by_number(setup.number).map_err(|e| e.to_string())?;
            let messages = scenario.messages(&model);
            // Variant 0 is the clean run; the rest inject one bug each.
            let variants = std::iter::once(None).chain(
                bugs.iter()
                    .filter(|b| messages.contains(&b.target))
                    .map(Some),
            );
            for (v, bug) in variants.enumerate() {
                let sim_seed = mix(&[seed, round, u64::from(setup.number), v as u64]);
                let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(sim_seed));
                let outcome = match bug {
                    None => sim.run(),
                    Some(b) => sim.run_with(&mut BugInterceptor::new(&model, vec![b.clone()])),
                };
                for depth in [None, Some(WRAP_DEPTH)] {
                    let config = TraceBufferConfig {
                        depth,
                        ..setup.config.clone()
                    };
                    let trace = capture(&model, &outcome, &config);
                    let wrapped = depth.is_some_and(|d| trace.len() >= d);
                    let mode = match_mode(outcome.status.is_completed(), wrapped);
                    let stream = wirecap::encode_events(
                        model.catalog(),
                        &setup.schema,
                        &outcome.events,
                        &config,
                    )
                    .map_err(|e| format!("scenario {}: encode: {e}", setup.number))?;
                    let ptw = write_ptw(model.catalog(), &setup.schema, &stream);
                    let records = trace.message_sequence();
                    let enc = encoding(&model, setup, mode, &records, ptw)?;
                    sessions.push(SessionInput {
                        scenario: setup.number,
                        mode,
                        records,
                        encodings: vec![enc],
                    });
                }
            }
        }
    }
    Ok(Workload {
        model: Arc::new(model),
        setups,
        sessions,
    })
}

/// Long continuous streams: back-to-back seeded clean runs of one
/// scenario with monotone timestamps, 1000 to 4000 records a session,
/// scenarios cycling 1-5, Prefix mode, each session encoded in both
/// dialects.
pub fn trace_port(seed: u64) -> Result<Workload, String> {
    let model = SocModel::t2();
    let setups = (1..=5)
        .map(|n| scenario_setup(&model, n))
        .collect::<Result<Vec<_>, _>>()?;
    let v2 = ProfileV2 {
        sync_every: DEFAULT_SYNC_EVERY,
    };
    let mut sessions = Vec::with_capacity(PORT_SESSIONS);
    let (fewest, most) = PORT_RECORDS;
    for s in 0..PORT_SESSIONS {
        let setup = &setups[s % setups.len()];
        let target = fewest + (most - fewest) * (s / setups.len()) / (PORT_LENGTHS - 1);
        let scenario = scenario_by_number(setup.number).map_err(|e| e.to_string())?;
        let mut wire: Vec<WireRecord> = Vec::with_capacity(target + 64);
        let mut base = 0u64;
        let mut run = 0u64;
        while wire.len() < target {
            let sim_seed = mix(&[seed, 0x7042, s as u64, run]);
            run += 1;
            let outcome =
                Simulator::new(&model, scenario.clone(), SimConfig::with_seed(sim_seed)).run();
            let trace = capture(&model, &outcome, &setup.config);
            let mut last = base;
            for r in trace.records() {
                last = base + r.time;
                wire.push(WireRecord {
                    time: last,
                    message: r.message,
                    value: r.value,
                    partial: r.partial,
                });
            }
            base = last + 1;
        }
        let records: Vec<IndexedMessage> = wire.iter().map(|r| r.message).collect();
        let mode = MatchMode::Prefix;
        let v1_stream = encode_records(&setup.schema, &wire, None)
            .map_err(|e| format!("scenario {}: v1 encode: {e}", setup.number))?;
        let v1_ptw = write_ptw(model.catalog(), &setup.schema, &v1_stream);
        let v2_stream = v2
            .encode(&setup.schema, &wire, None)
            .map_err(|e| format!("scenario {}: v2 encode: {e}", setup.number))?;
        let v2_ptw = write_ptw_with(model.catalog(), &setup.schema, v2.meta(), &v2_stream);
        let encodings = vec![
            encoding(&model, setup, mode, &records, v1_ptw)?,
            encoding(&model, setup, mode, &records, v2_ptw)?,
        ];
        sessions.push(SessionInput {
            scenario: setup.number,
            mode,
            records,
            encodings,
        });
    }
    Ok(Workload {
        model: Arc::new(model),
        setups,
        sessions,
    })
}
