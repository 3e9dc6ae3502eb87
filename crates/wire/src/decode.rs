//! Streaming decoder: raw bits back into captured records.
//!
//! The decoder walks fixed-width frames, validating every field against
//! the schema: the tag must name a real slot (or the idle pattern 0),
//! every non-firing lane and all padding must be zero, and record times
//! must be non-decreasing along the stream. A frame failing any check is
//! flagged as *damaged* with a reason and decoding **resynchronizes at the
//! next frame boundary** — corruption costs the damaged region, never the
//! rest of the stream, and never a panic.
//!
//! Because frames are self-contained (absolute timestamps, per-frame
//! tags), any frame range decodes independently: [`decode_frame_range`]
//! is the building block, [`decode_stream`] decodes a whole stream with
//! it and then runs the stream-wide time-monotonicity pass
//! ([`monotonize_events`]). A live ingest session calls the same two
//! functions chunk by chunk as bytes arrive.

use pstrace_flow::{FlowIndex, IndexedMessage};

use crate::bits::BitReader;
use crate::frame::WireRecord;
use crate::schema::WireSchema;

use std::fmt;

/// Why a frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DamageReason {
    /// The tag value names no slot.
    BadTag {
        /// The offending tag.
        tag: u64,
    },
    /// An idle frame (tag 0) carried nonzero index/time/body bits.
    DirtyIdle,
    /// A lane other than the firing slot's carried nonzero bits.
    LaneSpill {
        /// Index of the polluted slot.
        slot: usize,
    },
    /// The body's padding bits past the last lane were nonzero.
    PaddingSpill,
    /// The record's time ran backwards relative to the stream so far.
    TimeRegression {
        /// The regressing time.
        time: u64,
        /// The previous record's time.
        prev: u64,
    },
    /// The record's time ran ahead of both its neighbors: an isolated
    /// forward spike (e.g. a flipped high bit in the time field).
    TimeSpike {
        /// The spiking time.
        time: u64,
        /// The following record's time.
        next: u64,
    },
    /// A v2 sync block failed its checksum; every record it carried is
    /// lost, but damage stops at the block boundary.
    SyncCorrupt {
        /// Records the block claimed to carry (0 when even the header
        /// was unreadable).
        records: u32,
    },
    /// Bytes between sync blocks matched no block marker — the decoder
    /// skipped them hunting for the next sync point.
    SyncLost {
        /// Bytes skipped before resynchronizing (or hitting the end).
        bytes: u64,
    },
}

impl DamageReason {
    /// A stable kebab-case label for this damage kind, independent of the
    /// variant's payload — the `reason` label on the observability layer's
    /// damage counters.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DamageReason::BadTag { .. } => "bad-tag",
            DamageReason::DirtyIdle => "dirty-idle",
            DamageReason::LaneSpill { .. } => "lane-spill",
            DamageReason::PaddingSpill => "padding-spill",
            DamageReason::TimeRegression { .. } => "time-regression",
            DamageReason::TimeSpike { .. } => "time-spike",
            DamageReason::SyncCorrupt { .. } => "sync-corrupt",
            DamageReason::SyncLost { .. } => "sync-lost",
        }
    }
}

impl fmt::Display for DamageReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DamageReason::BadTag { tag } => write!(f, "tag {tag} names no slot"),
            DamageReason::DirtyIdle => write!(f, "idle frame carries nonzero bits"),
            DamageReason::LaneSpill { slot } => {
                write!(f, "nonzero bits in non-firing lane {slot}")
            }
            DamageReason::PaddingSpill => write!(f, "nonzero bits in body padding"),
            DamageReason::TimeRegression { time, prev } => {
                write!(f, "time {time} runs behind previous record at {prev}")
            }
            DamageReason::TimeSpike { time, next } => {
                write!(f, "time {time} spikes ahead of following record at {next}")
            }
            DamageReason::SyncCorrupt { records } => {
                write!(f, "sync block failed its checksum ({records} records lost)")
            }
            DamageReason::SyncLost { bytes } => {
                write!(f, "skipped {bytes} bytes hunting for a sync marker")
            }
        }
    }
}

/// One damaged frame: where and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DamagedFrame {
    /// 0-based frame index in the stream.
    pub frame: usize,
    /// What failed validation.
    pub reason: DamageReason,
}

/// Everything a decode produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeReport {
    /// Successfully reconstructed records, in stream order.
    pub records: Vec<WireRecord>,
    /// Damaged frames, in stream order.
    pub damaged: Vec<DamagedFrame>,
    /// Complete frames examined (events + idles + damaged).
    pub frames: usize,
    /// Idle (all-zero tag) frames skipped.
    pub idle_frames: usize,
    /// Bits past the last complete frame (byte padding or a truncated
    /// frame).
    pub trailing_bits: u64,
    /// Whether every trailing bit was zero.
    pub tail_clean: bool,
    /// Measured per-frame body occupancy: total lane bits actually laid
    /// out on the wire.
    pub occupied_bits: u32,
    /// The frame body width `W`.
    pub body_width: u32,
}

impl DecodeReport {
    /// Measured buffer utilization: lane bits over body bits per frame —
    /// the decoder-side counterpart of the analytic model.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        f64::from(self.occupied_bits) / f64::from(self.body_width)
    }

    /// Whether the stream decoded without damage or dirty trailing bits.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty() && self.tail_clean
    }
}

/// Outcome of examining one frame.
enum RawFrame {
    Idle,
    Event(WireRecord),
    Damaged(DamageReason),
}

/// Reads and validates one frame; the reader must sit on a frame boundary
/// with at least `frame_bits` remaining.
fn read_frame(schema: &WireSchema, r: &mut BitReader<'_>) -> RawFrame {
    let tag = r.read(schema.tag_width()).expect("frame boundary checked");
    let index = r
        .read(schema.index_width())
        .expect("frame boundary checked");
    let time = r.read(schema.time_width()).expect("frame boundary checked");

    // Read every lane (validation needs them all) plus the padding.
    let mut lanes = Vec::with_capacity(schema.slots().len());
    for slot in schema.slots() {
        lanes.push(r.read(slot.width).expect("frame boundary checked"));
    }
    let mut padding_dirty = false;
    let mut left = schema.body_width() - schema.occupied_bits();
    while left > 0 {
        let step = left.min(64);
        if r.read(step).expect("frame boundary checked") != 0 {
            padding_dirty = true;
        }
        left -= step;
    }

    if tag == 0 {
        let body_dirty = lanes.iter().any(|&v| v != 0) || padding_dirty;
        if index != 0 || time != 0 || body_dirty {
            return RawFrame::Damaged(DamageReason::DirtyIdle);
        }
        return RawFrame::Idle;
    }
    let Some(slot) = schema.slot_by_tag(tag) else {
        return RawFrame::Damaged(DamageReason::BadTag { tag });
    };
    let firing = tag as usize - 1;
    if let Some(spill) = (0..lanes.len()).find(|&i| i != firing && lanes[i] != 0) {
        return RawFrame::Damaged(DamageReason::LaneSpill { slot: spill });
    }
    if padding_dirty {
        return RawFrame::Damaged(DamageReason::PaddingSpill);
    }
    RawFrame::Event(WireRecord {
        time,
        message: IndexedMessage::new(slot.message, FlowIndex(index as u32)),
        value: lanes[firing],
        partial: slot.is_partial(),
    })
}

/// Raw decode of a frame range: per-frame outcomes **before** the
/// stream-wide time-monotonicity pass.
///
/// This is the chunk-boundary building block consumers with their own
/// stream state (e.g. a live ingest session holding records back for
/// spike reclassification) use to decode frames as they land.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameRange {
    /// `(absolute frame index, record)` pairs, in stream order.
    pub events: Vec<(usize, WireRecord)>,
    /// Frames that failed per-frame validation, in stream order. Time
    /// regressions/spikes are *not* detected here — they are a property
    /// of the whole stream, not of a frame range.
    pub damaged: Vec<DamagedFrame>,
    /// Idle (all-zero tag) frames in the range.
    pub idle_frames: usize,
}

/// Decodes the `count` frames starting at absolute frame `start` from a
/// bit stream of exactly `bit_len` bits.
///
/// Frames are self-contained, so any range decodes independently; the
/// caller is responsible for stream-wide concerns (time monotonicity,
/// trailing-bit checks) — or can feed whole streams to [`decode_stream`]
/// instead, which layers those on top of this.
///
/// # Panics
///
/// Panics when the requested range runs past `bit_len` or `bit_len`
/// exceeds the byte buffer.
#[must_use]
pub fn decode_frame_range(
    schema: &WireSchema,
    bytes: &[u8],
    bit_len: u64,
    start: usize,
    count: usize,
) -> FrameRange {
    assert!(
        bit_len <= bytes.len() as u64 * 8,
        "declared bit length exceeds the byte buffer"
    );
    let frame_bits = u64::from(schema.frame_bits());
    assert!(
        (start as u64 + count as u64) * frame_bits <= bit_len,
        "frame range runs past the declared stream end"
    );
    let mut r = BitReader::new(bytes, bit_len);
    r.seek(start as u64 * frame_bits);
    let mut out = FrameRange::default();
    for i in 0..count {
        let frame = start + i;
        match read_frame(schema, &mut r) {
            RawFrame::Idle => out.idle_frames += 1,
            RawFrame::Event(rec) => out.events.push((frame, rec)),
            RawFrame::Damaged(reason) => out.damaged.push(DamagedFrame { frame, reason }),
        }
    }
    out
}

/// The order-preserving merge pass: enforce non-decreasing record times
/// across `events`, reclassifying violators as damaged frames pushed onto
/// `damaged`. Returns the surviving `(frame, record)` pairs in order.
///
/// A regressing record normally damages *itself* ([`DamageReason::
/// TimeRegression`]); but when it is still consistent with the record
/// before last, the *previous* record was an isolated forward spike (one
/// flipped high time bit) and that one is damaged instead
/// ([`DamageReason::TimeSpike`]), so corruption in a single frame never
/// cascades down the tail.
///
/// This is the shared stream-wide time pass: the batch decoder, the live
/// session, and the v2 codec all run this exact function so damage
/// semantics agree across profiles. `damaged` is left unsorted; callers
/// assembling a report sort by frame index afterwards.
pub fn monotonize_events(
    events: Vec<(usize, WireRecord)>,
    damaged: &mut Vec<DamagedFrame>,
) -> Vec<(usize, WireRecord)> {
    let mut kept: Vec<(usize, WireRecord)> = Vec::with_capacity(events.len());
    for (frame, rec) in events {
        let prev = kept.last().map_or(0, |(_, r)| r.time);
        if rec.time >= prev {
            kept.push((frame, rec));
            continue;
        }
        let prev_prev = kept.len().checked_sub(2).map_or(0, |i| kept[i].1.time);
        if rec.time >= prev_prev {
            let (spike_frame, spike) = kept.pop().expect("regression implies a previous record");
            damaged.push(DamagedFrame {
                frame: spike_frame,
                reason: DamageReason::TimeSpike {
                    time: spike.time,
                    next: rec.time,
                },
            });
            kept.push((frame, rec));
        } else {
            damaged.push(DamagedFrame {
                frame,
                reason: DamageReason::TimeRegression {
                    time: rec.time,
                    prev,
                },
            });
        }
    }
    kept
}

/// Whether every bit in `bytes[bit_start .. bit_end)` is zero.
fn bits_are_zero(bytes: &[u8], bit_start: u64, bit_end: u64) -> bool {
    let mut r = BitReader::new(bytes, bit_end);
    r.seek(bit_start);
    let mut left = bit_end - bit_start;
    while left > 0 {
        let step = left.min(64) as u32;
        if r.read(step).expect("range checked") != 0 {
            return false;
        }
        left -= u64::from(step);
    }
    true
}

/// Decodes a complete stream.
///
/// `bit_len` is the exact stream length in bits when known (e.g. from a
/// `.ptw` header); pass `None` to treat the whole byte slice as the
/// stream (trailing sub-byte padding is then expected to be zero).
///
/// # Panics
///
/// Panics when `bit_len` exceeds the byte buffer.
#[must_use]
pub fn decode_stream(schema: &WireSchema, bytes: &[u8], bit_len: Option<u64>) -> DecodeReport {
    let bit_len = bit_len.unwrap_or(bytes.len() as u64 * 8);
    let frame_bits = u64::from(schema.frame_bits());
    let frames = (bit_len / frame_bits) as usize;
    let range = decode_frame_range(schema, bytes, bit_len, 0, frames);
    let trailing_bits = bit_len - frames as u64 * frame_bits;
    let tail_clean =
        trailing_bits == 0 || bits_are_zero(bytes, frames as u64 * frame_bits, bit_len);
    let mut damaged = range.damaged;
    let kept = monotonize_events(range.events, &mut damaged);
    damaged.sort_by_key(|d| d.frame);
    DecodeReport {
        records: kept.into_iter().map(|(_, r)| r).collect(),
        damaged,
        frames,
        idle_frames: range.idle_frames,
        trailing_bits,
        tail_clean,
        occupied_bits: schema.occupied_bits(),
        body_width: schema.body_width(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_records;
    use pstrace_flow::MessageCatalog;
    use std::sync::Arc;

    #[test]
    fn damage_labels_are_stable_and_distinct() {
        let reasons = [
            DamageReason::BadTag { tag: 7 },
            DamageReason::DirtyIdle,
            DamageReason::LaneSpill { slot: 2 },
            DamageReason::PaddingSpill,
            DamageReason::TimeRegression { time: 1, prev: 9 },
            DamageReason::TimeSpike { time: 9, next: 1 },
            DamageReason::SyncCorrupt { records: 5 },
            DamageReason::SyncLost { bytes: 17 },
        ];
        let labels: Vec<&str> = reasons.iter().map(DamageReason::label).collect();
        assert_eq!(
            labels,
            [
                "bad-tag",
                "dirty-idle",
                "lane-spill",
                "padding-spill",
                "time-regression",
                "time-spike",
                "sync-corrupt",
                "sync-lost"
            ]
        );
        // Labels are payload-independent: same variant, same label.
        assert_eq!(DamageReason::BadTag { tag: 99 }.label(), "bad-tag");
    }

    fn setup() -> (Arc<MessageCatalog>, WireSchema) {
        let mut c = MessageCatalog::new();
        c.intern("a", 4);
        c.intern("b", 9);
        let wide = c.intern("wide", 20);
        c.intern_group(wide, "lo", 6);
        let c = Arc::new(c);
        let a = c.get("a").unwrap();
        let b = c.get("b").unwrap();
        let lo = c.get_group("wide.lo").unwrap();
        let schema = WireSchema::new(&c, &[a, b], &[lo], 24).unwrap();
        (c, schema)
    }

    fn records(c: &MessageCatalog, n: u64) -> Vec<WireRecord> {
        (0..n)
            .map(|i| {
                let (name, partial) = match i % 3 {
                    0 => ("a", false),
                    1 => ("b", false),
                    _ => ("wide", true),
                };
                let width = match i % 3 {
                    0 => 4,
                    1 => 9,
                    _ => 6,
                };
                WireRecord {
                    time: i * 3,
                    message: IndexedMessage::new(
                        c.get(name).unwrap(),
                        FlowIndex(1 + (i % 2) as u32),
                    ),
                    value: i % (1 << width),
                    partial,
                }
            })
            .collect()
    }

    #[test]
    fn clean_stream_round_trips() {
        let (c, schema) = setup();
        let recs = records(&c, 30);
        let stream = encode_records(&schema, &recs, None).unwrap();
        let report = decode_stream(&schema, &stream.bytes, Some(stream.bit_len));
        assert!(report.is_clean(), "{:?}", report.damaged);
        assert_eq!(report.records, recs);
        assert_eq!(report.frames, 30);
        assert_eq!(report.idle_frames, 0);
        assert_eq!(report.occupied_bits, 4 + 9 + 6);
        assert!((report.utilization() - 19.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn corrupt_tag_is_flagged_and_resynced() {
        let (c, schema) = setup();
        let recs = records(&c, 9);
        let stream = encode_records(&schema, &recs, None).unwrap();
        let mut bytes = stream.bytes.clone();
        // Stomp the tag of frame 4 (tag field sits at the frame start).
        let frame_bits = u64::from(schema.frame_bits());
        let bit = 4 * frame_bits;
        bytes[(bit / 8) as usize] ^= 0b11 << (bit % 8); // tag_width = 2, slots = 3 → tag 0..=3 all valid... flip both bits
        let report = decode_stream(&schema, &bytes, Some(stream.bit_len));
        // Whatever the flip produced (different slot → lane spill, idle →
        // dirty idle, or out-of-range tag), frame 4 must be damaged and
        // every other record must survive.
        assert_eq!(report.damaged.len(), 1);
        assert_eq!(report.damaged[0].frame, 4);
        assert_eq!(report.records.len(), 8);
        let expected: Vec<WireRecord> = recs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 4)
            .map(|(_, r)| *r)
            .collect();
        assert_eq!(report.records, expected);
        assert!(!report.is_clean());
    }

    #[test]
    fn time_regression_is_reclassified_in_order() {
        let (c, schema) = setup();
        let mut recs = records(&c, 6);
        recs[3].time = 1; // behind record 2's time (6)
        let stream = encode_records(&schema, &recs, None).unwrap();
        let report = decode_stream(&schema, &stream.bytes, Some(stream.bit_len));
        assert_eq!(report.records.len(), 5);
        assert_eq!(report.damaged.len(), 1);
        assert!(matches!(
            report.damaged[0].reason,
            DamageReason::TimeRegression { time: 1, prev: 6 }
        ));
        assert_eq!(report.damaged[0].frame, 3);
    }

    #[test]
    fn time_spike_is_blamed_not_the_tail() {
        let (c, schema) = setup();
        let mut recs = records(&c, 8);
        recs[3].time = 1 << 30; // isolated forward spike, e.g. a flipped bit
        let stream = encode_records(&schema, &recs, None).unwrap();
        let report = decode_stream(&schema, &stream.bytes, Some(stream.bit_len));
        assert_eq!(report.damaged.len(), 1, "{:?}", report.damaged);
        assert_eq!(report.damaged[0].frame, 3);
        assert!(matches!(
            report.damaged[0].reason,
            DamageReason::TimeSpike { time, next } if time == 1 << 30 && next == 12
        ));
        assert_eq!(report.records.len(), 7, "the tail must survive the spike");
    }

    #[test]
    fn all_zero_frames_are_idle() {
        let (_, schema) = setup();
        let frame_bytes = (schema.frame_bits() as usize * 3).div_ceil(8);
        let bytes = vec![0u8; frame_bytes];
        let report = decode_stream(&schema, &bytes, Some(u64::from(schema.frame_bits()) * 3));
        assert_eq!(report.idle_frames, 3);
        assert!(report.records.is_empty());
        assert!(report.is_clean());
    }

    #[test]
    fn frame_range_decode_composes_to_the_full_stream() {
        let (c, schema) = setup();
        let recs = records(&c, 25);
        let stream = encode_records(&schema, &recs, None).unwrap();
        let whole = decode_frame_range(&schema, &stream.bytes, stream.bit_len, 0, 25);
        assert_eq!(whole.events.len(), 25);
        assert!(whole.damaged.is_empty());
        // Any split of the frame range concatenates to the whole.
        for split in [1usize, 7, 12, 24] {
            let head = decode_frame_range(&schema, &stream.bytes, stream.bit_len, 0, split);
            let tail =
                decode_frame_range(&schema, &stream.bytes, stream.bit_len, split, 25 - split);
            let mut glued = head.clone();
            glued.events.extend(tail.events.iter().copied());
            glued.damaged.extend(tail.damaged.iter().copied());
            glued.idle_frames += tail.idle_frames;
            assert_eq!(glued, whole, "split at {split}");
        }
        // Frame indices in the tail are absolute, not range-relative.
        let tail = decode_frame_range(&schema, &stream.bytes, stream.bit_len, 20, 5);
        assert_eq!(tail.events[0].0, 20);
    }

    #[test]
    #[should_panic(expected = "runs past the declared stream end")]
    fn frame_range_past_the_end_is_rejected() {
        let (c, schema) = setup();
        let stream = encode_records(&schema, &records(&c, 3), None).unwrap();
        let _ = decode_frame_range(&schema, &stream.bytes, stream.bit_len, 2, 2);
    }

    #[test]
    fn truncated_tail_is_reported() {
        let (c, schema) = setup();
        let recs = records(&c, 3);
        let stream = encode_records(&schema, &recs, None).unwrap();
        // Chop the stream mid-frame.
        let cut = stream.bit_len - 10;
        let report = decode_stream(&schema, &stream.bytes, Some(cut));
        assert_eq!(report.frames, 2);
        assert_eq!(report.records.len(), 2);
        assert!(report.trailing_bits > 0);
        assert!(!report.tail_clean, "the truncated frame has nonzero bits");
    }
}
