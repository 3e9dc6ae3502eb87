//! Live ingest throughput: in-process [`Session`] chunk pushes vs the
//! full loopback TCP path, and the online localizer's per-push cost while
//! its frontier is live and once it is empty, against re-running the
//! batch DP on every growing prefix.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pstrace_core::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace_diag::{consistent_paths, MatchMode, OnlineLocalizer};
use pstrace_flow::{executions, FlowIndex, IndexedMessage, InterleavedFlow, MessageId};
use pstrace_soc::{wirecap, SocModel, TraceBufferConfig, UsageScenario};
use pstrace_stream::{stream_ptw, Server, ServerConfig, Session};
use pstrace_wire::{encode_records, write_ptw, WireRecord, WireSchema};

/// Scenario-1 ingest fixture: the interleaved flow, its selection-derived
/// wire schema, and a synthetic `records`-long encoded stream.
fn setup(records: usize) -> (InterleavedFlow, WireSchema, Vec<u8>, u64) {
    let model = SocModel::t2();
    let scenario = UsageScenario::scenario1();
    let buffer = TraceBufferSpec::new(32).expect("nonzero");
    let flow = scenario.interleaving(&model).expect("interleaves");
    let selection = Selector::new(&flow, SelectionConfig::new(buffer))
        .select()
        .expect("selection succeeds");
    let config = TraceBufferConfig {
        messages: selection.chosen.messages.clone(),
        groups: selection.packed_groups.clone(),
        depth: None,
    };
    let schema =
        wirecap::wire_schema(&model, &config, buffer.width_bits()).expect("schema fits buffer");
    let slots = schema.slots().to_vec();
    let stream: Vec<WireRecord> = (0..records)
        .map(|i| {
            let slot = &slots[i % slots.len()];
            WireRecord {
                time: i as u64,
                message: IndexedMessage::new(slot.message, FlowIndex(1 + (i % 3) as u32)),
                value: (i as u64 * 0x9e37) & ((1 << slot.width) - 1),
                partial: slot.is_partial(),
            }
        })
        .collect();
    let encoded = encode_records(&schema, &stream, None).expect("encodes");
    let ptw = write_ptw(model.catalog(), &schema, &encoded);
    (flow, schema, ptw, encoded.bit_len)
}

/// The schema-prefix length and payload of a `.ptw` container, so the
/// in-process path can replay exactly the bytes the client would send.
fn payload_of(ptw: &[u8]) -> Vec<u8> {
    let model = SocModel::t2();
    let (_, consumed) =
        pstrace_wire::read_ptw_schema(model.catalog(), ptw).expect("container parses");
    ptw[consumed + 8..].to_vec()
}

fn bench_ingest(c: &mut Criterion) {
    let (flow, schema, ptw, bit_len) = setup(20_000);
    let payload = payload_of(&ptw);
    let model = Arc::new(SocModel::t2());

    let mut group = c.benchmark_group("stream_ingest_20k_records");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));

    group.bench_function("in_process_session_4k_chunks", |b| {
        b.iter(|| {
            let mut session = Session::new(&flow, schema.clone(), MatchMode::Prefix);
            for chunk in payload.chunks(4096) {
                session.push_chunk(chunk);
            }
            black_box(session.finish(Some(bit_len)))
        });
    });

    group.bench_function("loopback_tcp_4k_chunks", |b| {
        let server = Server::spawn(Arc::clone(&model), &ServerConfig::default()).expect("binds");
        let addr = server.local_addr();
        b.iter(|| {
            black_box(
                stream_ptw(addr, model.catalog(), 1, MatchMode::Prefix, &ptw, 4096)
                    .expect("replay succeeds"),
            )
        });
        server.shutdown();
    });
    group.finish();
}

fn bench_online_localization(c: &mut Criterion) {
    let (flow, schema, _, _) = setup(0);
    // The scenario's traced message set, as the ingest daemon sees it.
    let selected: Vec<MessageId> = schema.slots().iter().map(|s| s.message).collect();
    // The projection of a real execution keeps the Prefix frontier live on
    // every push; repeating it after the end empties the frontier for good.
    let exec = executions(&flow).next().expect("nonempty flow");
    let projection = exec.project(&selected);
    let dead_tail: Vec<IndexedMessage> = projection.iter().cycle().take(256).copied().collect();
    let fresh = OnlineLocalizer::new(&flow, &selected, MatchMode::Prefix);
    let seeded = fresh.checkpoint();

    let mut group = c.benchmark_group("online_localization");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));

    group.bench_function(format!("live_{}_pushes", projection.len()), |b| {
        let mut online = fresh.clone();
        b.iter(|| {
            online.restore(&seeded);
            for &m in &projection {
                online.push(m);
            }
            black_box(online.consistent())
        });
    });

    group.bench_function("dead_256_pushes", |b| {
        let mut online = fresh.clone();
        online.push_all(projection.iter().chain(&projection).copied());
        assert_eq!(online.frontier().support(), 0, "the frontier is empty");
        b.iter(|| {
            for &m in &dead_tail {
                online.push(m);
            }
            black_box(online.consistent())
        });
    });

    group.bench_function(format!("batch_per_prefix_{}", projection.len()), |b| {
        b.iter(|| {
            let mut last = 0u128;
            for n in 1..=projection.len() {
                last = consistent_paths(&flow, &projection[..n], &selected, MatchMode::Prefix);
            }
            black_box(last)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_online_localization);
criterion_main!(benches);
