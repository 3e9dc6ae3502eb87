//! The write-ahead log behind the crash-only daemon: an append-only
//! per-shard journal of session lifecycle state plus compacted
//! checkpoints, so `SESSION_RESUME` tokens minted before a crash still
//! work after a restart.
//!
//! # Entry format
//!
//! Every entry is exactly [`WAL_ENTRY_BYTES`] (64) bytes, checksummed
//! with the same FNV-1a-32 discipline as the codec v2 sync blocks
//! ([`pstrace_codec::fnv32`]):
//!
//! ```text
//! offset  size  field
//!      0     2  magic "WL"
//!      2     1  kind (see WalRecord)
//!      3     1  payload length (schema-chunk entries; 0 otherwise)
//!      4     4  seq   u32 LE (per-file, monotonically increasing)
//!      8    48  body  (kind-specific, zero-padded)
//!     56     4  reserved (zero)
//!     60     4  crc   u32 LE = fnv32(bytes[0..60])
//! ```
//!
//! Fixed-size entries make torn writes self-delimiting: a crash mid-append
//! leaves a short tail (`TornEntry`), a flipped bit fails the per-entry
//! CRC (`BadChecksum`), and in both cases recovery keeps every earlier
//! good entry and — because entry boundaries are known without parsing —
//! every *later* good entry too.
//!
//! # What is durable
//!
//! The WAL records lifecycle transitions only: open (token, identity,
//! schema), park, resume, complete, expire. Live socket buffers and
//! partially ingested payload bytes are deliberately **not** durable —
//! after a crash a recovered session acks offset 0 and the client
//! resends from the start, so the reassembled stream (and therefore the
//! localization) is byte-identical to an uninterrupted run.
//!
//! # Checkpoints and rotation
//!
//! When a shard's WAL crosses its disk budget, the shard writes a
//! compacted checkpoint (one open/schema/park group per live resumable
//! session, closed by a footer entry that proves completeness) to a temp
//! file, renames it over `checkpoint-<shard>.wal`, and truncates the
//! WAL. A checkpoint missing its footer is a `ShortCheckpoint` and is
//! ignored as a whole; the WAL alone still recovers everything logged
//! since the last complete checkpoint.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use pstrace_codec::fnv32;

use crate::error::StreamError;
use crate::recover::RecoverError;

/// Size of every WAL / checkpoint entry on disk.
pub const WAL_ENTRY_BYTES: usize = 64;

/// Size of an entry's kind-specific body.
pub const WAL_BODY_BYTES: usize = 48;

/// Largest schema payload one [`WalRecord::SchemaChunk`] entry carries.
pub const SCHEMA_CHUNK_BYTES: usize = WAL_BODY_BYTES - 12;

const WAL_MAGIC: [u8; 2] = *b"WL";

/// How the daemon syncs its WAL appends to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityPolicy {
    /// No WAL at all: a crash loses every parked session (the pre-WAL
    /// behavior).
    #[default]
    Off,
    /// Append without fsync: entries survive a daemon crash (the kernel
    /// still has them) but not a host power loss.
    Lazy,
    /// fsync after every lifecycle append: an acked resume token is on
    /// stable storage before the client sees the ack.
    Strict,
}

impl DurabilityPolicy {
    /// Parses a `--durability` value (`off`, `lazy`, `strict`).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Protocol`] for anything else.
    pub fn from_name(name: &str) -> Result<DurabilityPolicy, StreamError> {
        match name.to_ascii_lowercase().as_str() {
            "off" => Ok(DurabilityPolicy::Off),
            "lazy" => Ok(DurabilityPolicy::Lazy),
            "strict" => Ok(DurabilityPolicy::Strict),
            other => Err(StreamError::Protocol(format!(
                "unknown durability policy `{other}`; use off, lazy or strict"
            ))),
        }
    }

    /// The policy's CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DurabilityPolicy::Off => "off",
            DurabilityPolicy::Lazy => "lazy",
            DurabilityPolicy::Strict => "strict",
        }
    }
}

/// One decoded WAL / checkpoint entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// File header: the recovery epoch this journal belongs to.
    Epoch {
        /// The server's recovery epoch (stable across restarts of one
        /// WAL directory).
        epoch: u64,
        /// The owning shard index.
        shard: u32,
        /// The shard count the tokens were minted under.
        shard_count: u32,
    },
    /// A resumable session opened (or re-opened by a checkpoint).
    Open {
        /// The resume token acked to the client.
        token: u64,
        /// The daemon-local session id.
        session_id: u64,
        /// The flight-recorder trace-context id.
        trace: u64,
        /// Usage scenario number.
        scenario: u8,
        /// Match-mode wire byte.
        mode: u8,
        /// Tenant id for quota accounting.
        tenant: u32,
        /// Total schema handshake length in bytes.
        schema_len: u32,
        /// `fnv32` of the full schema handshake.
        schema_crc: u32,
    },
    /// A slice of the session's schema handshake (the variable-length
    /// tail of an Open, carried in fixed-size entries).
    SchemaChunk {
        /// The owning session's resume token.
        token: u64,
        /// Byte offset of this slice within the schema.
        offset: u32,
        /// The slice (at most [`SCHEMA_CHUNK_BYTES`] bytes).
        data: Vec<u8>,
    },
    /// The session parked after transport death.
    Park {
        /// The parked session's resume token.
        token: u64,
        /// Payload bytes ingested so far (informational: recovery acks
        /// offset 0 because payload bytes are not durable).
        bytes: u64,
    },
    /// A parked session was picked back up.
    Resume {
        /// The resumed session's token.
        token: u64,
    },
    /// The session finished with a report; its token is dead.
    Complete {
        /// The finished session's token.
        token: u64,
    },
    /// The parked session outlived its grace period; its token is dead.
    Expire {
        /// The expired session's token.
        token: u64,
    },
    /// Checkpoint footer: proves the checkpoint was written completely.
    CheckpointFooter {
        /// How many entries precede the footer.
        entries: u32,
        /// The recovery epoch, repeated for cross-checking.
        epoch: u64,
    },
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::Epoch { .. } => 1,
            WalRecord::Open { .. } => 2,
            WalRecord::SchemaChunk { .. } => 3,
            WalRecord::Park { .. } => 4,
            WalRecord::Resume { .. } => 5,
            WalRecord::Complete { .. } => 6,
            WalRecord::Expire { .. } => 7,
            WalRecord::CheckpointFooter { .. } => 8,
        }
    }
}

/// Encodes one entry into its fixed 64-byte on-disk form.
#[must_use]
pub fn encode_entry(seq: u32, record: &WalRecord) -> [u8; WAL_ENTRY_BYTES] {
    let mut e = [0u8; WAL_ENTRY_BYTES];
    e[0..2].copy_from_slice(&WAL_MAGIC);
    e[2] = record.kind();
    e[4..8].copy_from_slice(&seq.to_le_bytes());
    let body = &mut e[8..8 + WAL_BODY_BYTES];
    match record {
        WalRecord::Epoch {
            epoch,
            shard,
            shard_count,
        } => {
            body[0..8].copy_from_slice(&epoch.to_le_bytes());
            body[8..12].copy_from_slice(&shard.to_le_bytes());
            body[12..16].copy_from_slice(&shard_count.to_le_bytes());
        }
        WalRecord::Open {
            token,
            session_id,
            trace,
            scenario,
            mode,
            tenant,
            schema_len,
            schema_crc,
        } => {
            body[0..8].copy_from_slice(&token.to_le_bytes());
            body[8..16].copy_from_slice(&session_id.to_le_bytes());
            body[16..24].copy_from_slice(&trace.to_le_bytes());
            body[24] = *scenario;
            body[25] = *mode;
            body[28..32].copy_from_slice(&tenant.to_le_bytes());
            body[32..36].copy_from_slice(&schema_len.to_le_bytes());
            body[36..40].copy_from_slice(&schema_crc.to_le_bytes());
        }
        WalRecord::SchemaChunk {
            token,
            offset,
            data,
        } => {
            debug_assert!(data.len() <= SCHEMA_CHUNK_BYTES);
            e[3] = data.len() as u8;
            let body = &mut e[8..8 + WAL_BODY_BYTES];
            body[0..8].copy_from_slice(&token.to_le_bytes());
            body[8..12].copy_from_slice(&offset.to_le_bytes());
            body[12..12 + data.len()].copy_from_slice(data);
        }
        WalRecord::Park { token, bytes } => {
            body[0..8].copy_from_slice(&token.to_le_bytes());
            body[8..16].copy_from_slice(&bytes.to_le_bytes());
        }
        WalRecord::Resume { token }
        | WalRecord::Complete { token }
        | WalRecord::Expire { token } => {
            body[0..8].copy_from_slice(&token.to_le_bytes());
        }
        WalRecord::CheckpointFooter { entries, epoch } => {
            body[0..4].copy_from_slice(&entries.to_le_bytes());
            body[4..12].copy_from_slice(&epoch.to_le_bytes());
        }
    }
    let crc = fnv32(&e[..WAL_ENTRY_BYTES - 4]);
    e[WAL_ENTRY_BYTES - 4..].copy_from_slice(&crc.to_le_bytes());
    e
}

fn body_u64(body: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&body[at..at + 8]);
    u64::from_le_bytes(a)
}

fn body_u32(body: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&body[at..at + 4]);
    u32::from_le_bytes(a)
}

/// Decodes one 64-byte entry at byte `offset` of `path` (both only for
/// error context).
///
/// # Errors
///
/// * [`RecoverError::TornEntry`] on a bad magic or unknown kind (the
///   bytes are not an entry boundary);
/// * [`RecoverError::BadChecksum`] when the entry's CRC fails.
pub fn decode_entry(
    bytes: &[u8; WAL_ENTRY_BYTES],
    path: &Path,
    offset: u64,
) -> Result<(u32, WalRecord), RecoverError> {
    let torn = || RecoverError::TornEntry {
        path: path.display().to_string(),
        offset,
    };
    if bytes[0..2] != WAL_MAGIC {
        return Err(torn());
    }
    let crc = body_u32(bytes, WAL_ENTRY_BYTES - 4);
    if fnv32(&bytes[..WAL_ENTRY_BYTES - 4]) != crc {
        return Err(RecoverError::BadChecksum {
            path: path.display().to_string(),
            offset,
        });
    }
    let len = bytes[3] as usize;
    let seq = body_u32(bytes, 4);
    let body = &bytes[8..8 + WAL_BODY_BYTES];
    let record = match bytes[2] {
        1 => WalRecord::Epoch {
            epoch: body_u64(body, 0),
            shard: body_u32(body, 8),
            shard_count: body_u32(body, 12),
        },
        2 => WalRecord::Open {
            token: body_u64(body, 0),
            session_id: body_u64(body, 8),
            trace: body_u64(body, 16),
            scenario: body[24],
            mode: body[25],
            tenant: body_u32(body, 28),
            schema_len: body_u32(body, 32),
            schema_crc: body_u32(body, 36),
        },
        3 => {
            if len > SCHEMA_CHUNK_BYTES {
                return Err(torn());
            }
            WalRecord::SchemaChunk {
                token: body_u64(body, 0),
                offset: body_u32(body, 8),
                data: body[12..12 + len].to_vec(),
            }
        }
        4 => WalRecord::Park {
            token: body_u64(body, 0),
            bytes: body_u64(body, 8),
        },
        5 => WalRecord::Resume {
            token: body_u64(body, 0),
        },
        6 => WalRecord::Complete {
            token: body_u64(body, 0),
        },
        7 => WalRecord::Expire {
            token: body_u64(body, 0),
        },
        8 => WalRecord::CheckpointFooter {
            entries: body_u32(body, 0),
            epoch: body_u64(body, 4),
        },
        _ => return Err(torn()),
    };
    Ok((seq, record))
}

/// The WAL file of one shard under `dir`.
#[must_use]
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("wal-{shard}.wal"))
}

/// The checkpoint file of one shard under `dir`.
#[must_use]
pub fn checkpoint_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("checkpoint-{shard}.wal"))
}

/// The epoch file under `dir` (one Epoch entry).
#[must_use]
pub fn epoch_path(dir: &Path) -> PathBuf {
    dir.join("epoch")
}

/// A crash point armed via the `PSTRACE_CRASH_POINT` environment
/// variable: when `name` matches, the process writes whatever the site
/// staged, then dies by `abort()` — the seam the crash harness uses to
/// prove recovery at every WAL write boundary. Reads the environment
/// once; unarmed in normal operation.
#[must_use]
pub fn crash_armed(name: &str) -> bool {
    static ARMED: OnceLock<Option<String>> = OnceLock::new();
    ARMED
        .get_or_init(|| std::env::var("PSTRACE_CRASH_POINT").ok())
        .as_deref()
        == Some(name)
}

/// The crash-point names the WAL honors, in write order.
pub const CRASH_POINTS: [&str; 4] = [
    "wal-mid-entry",
    "wal-pre-fsync",
    "wal-mid-checkpoint",
    "wal-mid-rotation",
];

/// One resumable session as the durability layer sees it: what a
/// checkpoint persists and what recovery rebuilds, so a re-parked
/// session's pre-crash resume token works again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRecord {
    /// The resume token the client holds.
    pub token: u64,
    /// The daemon-local session id.
    pub session_id: u64,
    /// The flight-recorder trace-context id.
    pub trace: u64,
    /// Usage scenario number.
    pub scenario: u8,
    /// Match-mode wire byte.
    pub mode: u8,
    /// Tenant id for quota accounting.
    pub tenant: u32,
    /// The raw schema handshake bytes.
    pub schema: Vec<u8>,
    /// Payload bytes ingested (informational: a recovered session acks
    /// offset 0 and the client resends).
    pub bytes: u64,
}

/// One session's open group: its Open entry, then as many SchemaChunk
/// entries as the schema handshake needs.
fn open_group(
    token: u64,
    session_id: u64,
    trace: u64,
    scenario: u8,
    mode: u8,
    tenant: u32,
    schema: &[u8],
) -> impl Iterator<Item = WalRecord> + '_ {
    let open = WalRecord::Open {
        token,
        session_id,
        trace,
        scenario,
        mode,
        tenant,
        schema_len: schema.len() as u32,
        schema_crc: fnv32(schema),
    };
    let chunks = schema
        .chunks(SCHEMA_CHUNK_BYTES)
        .enumerate()
        .map(move |(i, piece)| WalRecord::SchemaChunk {
            token,
            offset: (i * SCHEMA_CHUNK_BYTES) as u32,
            data: piece.to_vec(),
        });
    std::iter::once(open).chain(chunks)
}

/// Mints (or re-reads) the WAL directory's recovery epoch: the value is
/// written once when the directory is first used and is stable across
/// every later restart, so resume tokens can prove they belong to this
/// daemon lineage.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn mint_epoch(dir: &Path) -> io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    if let Some(epoch) = read_epoch(dir) {
        return Ok(epoch);
    }
    let epoch = fresh_epoch();
    let entry = encode_entry(
        0,
        &WalRecord::Epoch {
            epoch,
            shard: 0,
            shard_count: 0,
        },
    );
    let mut f = File::create(epoch_path(dir))?;
    f.write_all(&entry)?;
    f.sync_all()?;
    Ok(epoch)
}

/// The epoch recorded in `dir`'s epoch file, if it holds a valid one.
pub(crate) fn read_epoch(dir: &Path) -> Option<u64> {
    let path = epoch_path(dir);
    let bytes = std::fs::read(&path).ok()?;
    let entry = bytes.get(..WAL_ENTRY_BYTES)?.try_into().ok()?;
    match decode_entry(entry, &path, 0) {
        Ok((_, WalRecord::Epoch { epoch, .. })) => Some(epoch),
        _ => None,
    }
}

/// A nonzero epoch for a daemon running without a WAL directory: derived
/// from the wall clock, so two distinct daemon lives (or WAL dirs) get
/// distinct epochs and a stale token is rejected rather than spliced
/// into a stranger's session.
#[must_use]
pub fn fresh_epoch() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| d.as_nanos() as u64);
    // SplitMix64 finalizer, pinned away from 0.
    let mut z = nanos.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

/// The append half of one shard's WAL.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    dir: PathBuf,
    shard: usize,
    shard_count: u32,
    epoch: u64,
    policy: DurabilityPolicy,
    seq: u32,
    written: u64,
    budget: u64,
}

impl WalWriter {
    /// Opens (appending) the shard's WAL under `dir`, writing the Epoch
    /// header when the file is empty. `budget` is the disk-pressure
    /// rotation threshold in bytes.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file i/o failures.
    pub fn open(
        dir: &Path,
        shard: usize,
        shard_count: usize,
        epoch: u64,
        policy: DurabilityPolicy,
        budget: u64,
    ) -> io::Result<WalWriter> {
        std::fs::create_dir_all(dir)?;
        let path = wal_path(dir, shard);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata()?.len();
        let mut wal = WalWriter {
            file,
            path,
            dir: dir.to_path_buf(),
            shard,
            shard_count: shard_count as u32,
            epoch,
            policy,
            seq: 0,
            written,
            budget: budget.max(4 * WAL_ENTRY_BYTES as u64),
        };
        if wal.written == 0 {
            wal.append(&WalRecord::Epoch {
                epoch,
                shard: shard as u32,
                shard_count: shard_count as u32,
            })?;
        }
        Ok(wal)
    }

    /// Appends one entry, honoring the fsync policy and the armed crash
    /// points.
    ///
    /// # Errors
    ///
    /// Propagates file i/o failures (the caller degrades, never dies).
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.push(record)?;
        self.commit()
    }

    /// Writes one entry without honoring the fsync policy; pair with
    /// [`WalWriter::commit`] to sync a whole group in one fsync.
    fn push(&mut self, record: &WalRecord) -> io::Result<()> {
        let entry = encode_entry(self.seq, record);
        if crash_armed("wal-mid-entry") {
            // Half an entry on disk, then death: recovery must classify
            // the tail as torn and keep everything before it.
            let _ = self.file.write_all(&entry[..WAL_ENTRY_BYTES / 2 + 1]);
            let _ = self.file.sync_all();
            std::process::abort();
        }
        self.file.write_all(&entry)?;
        if crash_armed("wal-pre-fsync") {
            // The entry reached the kernel but was never fsynced.
            std::process::abort();
        }
        self.seq = self.seq.wrapping_add(1);
        self.written += WAL_ENTRY_BYTES as u64;
        Ok(())
    }

    /// Syncs pending entries per the policy (one fsync per group under
    /// strict, a no-op otherwise).
    fn commit(&mut self) -> io::Result<()> {
        if self.policy == DurabilityPolicy::Strict {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Appends the open group of a resumable session: one Open entry
    /// plus however many SchemaChunk entries the handshake needs. Under
    /// [`DurabilityPolicy::Strict`] the group is on stable storage when
    /// this returns — append it *before* acking the token.
    ///
    /// # Errors
    ///
    /// Propagates file i/o failures.
    #[allow(clippy::too_many_arguments)]
    pub fn append_open(
        &mut self,
        token: u64,
        session_id: u64,
        trace: u64,
        scenario: u8,
        mode: u8,
        tenant: u32,
        schema: &[u8],
    ) -> io::Result<()> {
        for record in open_group(token, session_id, trace, scenario, mode, tenant, schema) {
            self.push(&record)?;
        }
        self.commit()
    }

    /// Whether the WAL has crossed its disk budget and wants a
    /// checkpoint-plus-truncate rotation.
    #[must_use]
    pub fn needs_rotation(&self) -> bool {
        self.written >= self.budget
    }

    /// Rotates the WAL: writes a compacted checkpoint of `live` (every
    /// resumable session still worth recovering), then truncates the
    /// journal back to its Epoch header.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint/truncate i/o failures; on error the old WAL
    /// is untouched and recovery still works from it.
    pub fn rotate(&mut self, live: &[SessionRecord]) -> io::Result<()> {
        write_checkpoint(&self.dir, self.shard, self.shard_count, self.epoch, live)?;
        if crash_armed("wal-mid-rotation") {
            // Checkpoint renamed, WAL not yet truncated: recovery sees
            // both and must fold them idempotently.
            std::process::abort();
        }
        let file = File::create(&self.path)?;
        self.file = file;
        self.file.set_len(0)?;
        self.seq = 0;
        self.written = 0;
        self.append(&WalRecord::Epoch {
            epoch: self.epoch,
            shard: self.shard as u32,
            shard_count: self.shard_count,
        })?;
        if self.policy == DurabilityPolicy::Strict {
            self.file.sync_all()?;
        }
        Ok(())
    }

    /// Flushes buffered appends to stable storage (lazy policy's
    /// shutdown path).
    ///
    /// # Errors
    ///
    /// Propagates fsync failures.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Writes a complete checkpoint for `shard`: Epoch header, one
/// Open/SchemaChunk/Park group per live session, then the footer that
/// proves completeness — staged in a temp file and renamed into place so
/// a crash mid-write never destroys the previous checkpoint.
///
/// # Errors
///
/// Propagates file i/o failures.
pub fn write_checkpoint(
    dir: &Path,
    shard: usize,
    shard_count: u32,
    epoch: u64,
    live: &[SessionRecord],
) -> io::Result<()> {
    let final_path = checkpoint_path(dir, shard);
    let tmp_path = final_path.with_extension("tmp");
    let mut entries: Vec<WalRecord> = Vec::with_capacity(2 + live.len() * 4);
    entries.push(WalRecord::Epoch {
        epoch,
        shard: shard as u32,
        shard_count,
    });
    for s in live {
        entries.extend(open_group(
            s.token,
            s.session_id,
            s.trace,
            s.scenario,
            s.mode,
            s.tenant,
            &s.schema,
        ));
        entries.push(WalRecord::Park {
            token: s.token,
            bytes: s.bytes,
        });
    }
    let footer_at = entries.len();
    entries.push(WalRecord::CheckpointFooter {
        entries: footer_at as u32,
        epoch,
    });

    let mut f = File::create(&tmp_path)?;
    for (seq, record) in entries.iter().enumerate() {
        if seq == footer_at.max(1) / 2 && crash_armed("wal-mid-checkpoint") {
            // Half a checkpoint in the temp file, never renamed: the
            // previous checkpoint must survive untouched.
            let _ = f.sync_all();
            std::process::abort();
        }
        f.write_all(&encode_entry(seq as u32, record))?;
    }
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp_path, &final_path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_record_round_trips_through_its_entry() {
        let records = [
            WalRecord::Epoch {
                epoch: 0xfeed_beef,
                shard: 3,
                shard_count: 8,
            },
            WalRecord::Open {
                token: 42,
                session_id: 7,
                trace: 0xabc,
                scenario: 1,
                mode: 1,
                tenant: 9,
                schema_len: 100,
                schema_crc: 0x1234,
            },
            WalRecord::SchemaChunk {
                token: 42,
                offset: 36,
                data: vec![1, 2, 3, 4, 5],
            },
            WalRecord::Park {
                token: 42,
                bytes: 1024,
            },
            WalRecord::Resume { token: 42 },
            WalRecord::Complete { token: 42 },
            WalRecord::Expire { token: 42 },
            WalRecord::CheckpointFooter {
                entries: 12,
                epoch: 0xfeed_beef,
            },
        ];
        let path = Path::new("test.wal");
        for (i, record) in records.iter().enumerate() {
            let entry = encode_entry(i as u32, record);
            let (seq, decoded) = decode_entry(&entry, path, 0).unwrap();
            assert_eq!(seq, i as u32);
            assert_eq!(&decoded, record);
        }
    }

    #[test]
    fn corrupt_entries_yield_typed_errors() {
        let path = Path::new("test.wal");
        let mut entry = encode_entry(0, &WalRecord::Resume { token: 5 });
        entry[10] ^= 0x40;
        assert!(matches!(
            decode_entry(&entry, path, 64),
            Err(RecoverError::BadChecksum { offset: 64, .. })
        ));
        let mut bad_magic = encode_entry(0, &WalRecord::Resume { token: 5 });
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_entry(&bad_magic, path, 0),
            Err(RecoverError::TornEntry { .. })
        ));
    }

    #[test]
    fn durability_policy_parses_its_names() {
        for policy in [
            DurabilityPolicy::Off,
            DurabilityPolicy::Lazy,
            DurabilityPolicy::Strict,
        ] {
            assert_eq!(DurabilityPolicy::from_name(policy.name()).unwrap(), policy);
        }
        assert!(DurabilityPolicy::from_name("paranoid").is_err());
    }

    #[test]
    fn writer_appends_and_rotates_under_budget() {
        let dir = std::env::temp_dir().join(format!("pstrace-wal-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = WalWriter::open(&dir, 0, 2, 77, DurabilityPolicy::Lazy, 5 * 64).unwrap();
        wal.append_open(2, 1, 0xbeef, 1, 1, 0, &[0xAB; 100])
            .unwrap();
        assert!(
            wal.needs_rotation(),
            "epoch + open + 3 schema chunks = 5 entries hit the budget"
        );
        wal.rotate(&[SessionRecord {
            token: 2,
            session_id: 1,
            trace: 0xbeef,
            scenario: 1,
            mode: 1,
            tenant: 0,
            schema: vec![0xAB; 100],
            bytes: 10,
        }])
        .unwrap();
        assert!(!wal.needs_rotation());
        let wal_bytes = std::fs::read(wal_path(&dir, 0)).unwrap();
        assert_eq!(wal_bytes.len(), WAL_ENTRY_BYTES, "epoch header only");
        let cp = std::fs::read(checkpoint_path(&dir, 0)).unwrap();
        assert_eq!(cp.len() % WAL_ENTRY_BYTES, 0);
        let mut last = [0u8; WAL_ENTRY_BYTES];
        last.copy_from_slice(&cp[cp.len() - WAL_ENTRY_BYTES..]);
        let (_, footer) = decode_entry(&last, &checkpoint_path(&dir, 0), 0).unwrap();
        assert!(matches!(
            footer,
            WalRecord::CheckpointFooter { entries, epoch: 77 }
                if entries as usize * WAL_ENTRY_BYTES == cp.len() - WAL_ENTRY_BYTES
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_is_minted_once_and_stable() {
        let dir = std::env::temp_dir().join(format!("pstrace-epoch-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = mint_epoch(&dir).unwrap();
        let b = mint_epoch(&dir).unwrap();
        assert_eq!(a, b, "the epoch survives restarts of one WAL dir");
        assert_ne!(a, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
