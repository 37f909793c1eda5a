//! Per-table write-ahead log: append-only, length-prefixed, CRC32-checksummed.
//!
//! Real BigTable acknowledged a mutation only after it was durable in the
//! tablet server's commit log; this module gives the in-process model the
//! same contract. Each durable [`Table`](crate::Table) owns one log file
//! (`<dir>/<name>.wal`) plus at most one snapshot (`<dir>/<name>.snap`).
//!
//! # Record format
//!
//! Every record is framed as
//!
//! ```text
//! [len: u32 LE] [crc32(seq ‖ payload): u32 LE] [seq: u64 LE] [payload: len bytes]
//! ```
//!
//! where `seq` is a per-table sequence number that increases by one per
//! append and never resets (compaction truncates the file but the writer
//! keeps counting). The CRC covers the sequence number and the payload.
//! Payloads carry one of three logical records, tagged by their first
//! byte:
//!
//! * `Schema` — the table schema, written once when the table is created
//!   (a WAL with no snapshot must start with one);
//! * `Rows` — a batch of [`RowMutation`]s: one record per `mutate_row`
//!   call, per `mutate_rows` batch, and per applied `check_and_mutate`;
//! * `AgeTransfer` — one logical record per `age_transfer` call (the move
//!   is deterministic given prior state, so it replays by re-execution).
//!
//! # Recovery
//!
//! [`Bigtable::recover`](crate::Bigtable::recover) loads the snapshot (if
//! any), then replays the log in order, stopping at the first frame whose
//! length or checksum does not hold — a torn final record from a crash
//! mid-append. The file is truncated to that consistent cut and appends
//! resume after it. The snapshot frame's own sequence number records the
//! last log record it covers, and replay skips covered frames, so a log
//! that still holds records the snapshot already contains (a crash
//! between snapshot publication and log truncation) replays exactly the
//! uncovered tail — never a record twice.
//!
//! # Compaction
//!
//! [`Table::compact`](crate::Table::compact) serializes the table into
//! `<name>.snap.tmp`, fsyncs, renames over `<name>.snap`, then truncates
//! the log — all under the WAL lock, so no record can slip between the
//! snapshot and the truncation. A crash between rename and truncate
//! leaves snapshot + full log; recovery skips the covered records by
//! sequence number and loses nothing.

use crate::error::{BigtableError, Result};
use crate::schema::{ColumnFamily, TableSchema};
use crate::table::{Mutation, RowMutation};
use crate::types::{Locality, RowKey, Timestamp};
use bytes::Bytes;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Durability mode for a store, chosen at construction via
/// [`StoreConfig`](crate::StoreConfig).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Durability {
    /// Purely in-memory (the default). Bit-identical behaviour and cost to
    /// every pre-durability build; nothing survives a crash.
    #[default]
    None,
    /// Every table appends mutations to a write-ahead log under `dir`
    /// before touching the in-memory tablet, and
    /// [`Bigtable::recover`](crate::Bigtable::recover) can rebuild the
    /// store from those files after a crash.
    Wal {
        /// Directory holding one `<table>.wal` (and, after compaction,
        /// one `<table>.snap`) per table. Created if missing.
        dir: PathBuf,
        /// `fsync` the log every N appended records; `0` never issues an
        /// explicit fsync (the OS page cache decides), `1` is synchronous
        /// commit. Group commit amortizes the fsync cost by this factor in
        /// the cost model too.
        fsync_every: u64,
    },
}

/// What [`Bigtable::recover`](crate::Bigtable::recover) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Tables successfully recovered.
    pub tables: usize,
    /// WAL records replayed on top of snapshots across all tables.
    pub replayed_records: u64,
    /// Payload bytes replayed across all tables.
    pub replayed_bytes: u64,
    /// Tables whose log ended in a torn or corrupt final record that was
    /// truncated to the last consistent cut.
    pub truncated_tables: usize,
    /// On-disk table stubs skipped because they never finished creation
    /// (an empty log with no snapshot and no schema record).
    pub skipped_tables: usize,
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — table-driven, built at compile time so the
// crate needs no new dependency.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3) of `data`.
fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Binary encoding helpers (little-endian, length-prefixed bytes/strings).
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn corrupt(what: &str) -> BigtableError {
        BigtableError::Wal(format!("decode: truncated or invalid {what}"))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| Self::corrupt(what))?;
        if end > self.buf.len() {
            return Err(Self::corrupt(what));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let s = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let s = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n, "bytes")
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| Self::corrupt("utf-8 string"))
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Logical records.
// ---------------------------------------------------------------------------

const TAG_SCHEMA: u8 = 1;
const TAG_ROWS: u8 = 2;
const TAG_AGE_TRANSFER: u8 = 3;

/// A decoded WAL record, as seen by replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// Table schema, first record of a fresh log.
    Schema(TableSchema),
    /// A batch of row mutations applied atomically per row.
    Rows(Vec<RowMutation>),
    /// A deterministic `age_transfer(mem, disk, cutoff)` call.
    AgeTransfer {
        mem_family: String,
        disk_family: String,
        cutoff: Timestamp,
    },
}

fn put_mutation(buf: &mut Vec<u8>, m: &Mutation) {
    match m {
        Mutation::Put {
            family,
            qualifier,
            ts,
            value,
        } => {
            buf.push(0);
            put_str(buf, family);
            put_str(buf, qualifier);
            put_u64(buf, ts.0);
            put_bytes(buf, value);
        }
        Mutation::DeleteColumn { family, qualifier } => {
            buf.push(1);
            put_str(buf, family);
            put_str(buf, qualifier);
        }
        Mutation::DeleteFamily { family } => {
            buf.push(2);
            put_str(buf, family);
        }
        Mutation::DeleteRow => buf.push(3),
    }
}

fn read_mutation(r: &mut Reader<'_>) -> Result<Mutation> {
    match r.u8()? {
        0 => Ok(Mutation::Put {
            family: r.str()?,
            qualifier: r.str()?,
            ts: Timestamp(r.u64()?),
            value: Bytes::copy_from_slice(r.bytes()?),
        }),
        1 => Ok(Mutation::DeleteColumn {
            family: r.str()?,
            qualifier: r.str()?,
        }),
        2 => Ok(Mutation::DeleteFamily { family: r.str()? }),
        3 => Ok(Mutation::DeleteRow),
        t => Err(BigtableError::Wal(format!("decode: bad mutation tag {t}"))),
    }
}

/// Encodes a `Rows` payload from borrowed keys and mutation slices, so the
/// hot write path never clones its mutations.
pub(crate) fn encode_rows(rows: &[(&RowKey, &[Mutation])]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.push(TAG_ROWS);
    put_u32(&mut buf, rows.len() as u32);
    for (key, muts) in rows {
        put_bytes(&mut buf, key.as_slice());
        put_u32(&mut buf, muts.len() as u32);
        for m in *muts {
            put_mutation(&mut buf, m);
        }
    }
    buf
}

/// Encodes a `Schema` payload.
pub(crate) fn encode_schema(schema: &TableSchema) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.push(TAG_SCHEMA);
    put_str(&mut buf, &schema.name);
    put_u32(&mut buf, schema.families.len() as u32);
    for f in &schema.families {
        put_str(&mut buf, &f.name);
        buf.push(match f.locality {
            Locality::InMemory => 0,
            Locality::Disk => 1,
        });
        put_u64(&mut buf, f.max_versions as u64);
    }
    buf
}

/// Encodes an `AgeTransfer` payload.
pub(crate) fn encode_age_transfer(mem: &str, disk: &str, cutoff: Timestamp) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    buf.push(TAG_AGE_TRANSFER);
    put_str(&mut buf, mem);
    put_str(&mut buf, disk);
    put_u64(&mut buf, cutoff.0);
    buf
}

pub(crate) fn read_schema_body(r: &mut Reader<'_>) -> Result<TableSchema> {
    let name = r.str()?;
    let nfam = r.u32()? as usize;
    let mut families = Vec::with_capacity(nfam.min(1024));
    for _ in 0..nfam {
        let fname = r.str()?;
        let locality = match r.u8()? {
            0 => Locality::InMemory,
            1 => Locality::Disk,
            t => return Err(BigtableError::Wal(format!("decode: bad locality tag {t}"))),
        };
        let max_versions = r.u64()? as usize;
        families.push(ColumnFamily {
            name: fname,
            locality,
            max_versions,
        });
    }
    TableSchema::new(name, families)
}

/// Reads the leading schema section of a snapshot payload, leaving the
/// reader positioned at the row section. `Ok(None)` when the payload does
/// not start with a schema tag.
pub(crate) fn read_snapshot_schema(r: &mut Reader<'_>) -> Result<Option<TableSchema>> {
    if r.u8()? != TAG_SCHEMA {
        return Ok(None);
    }
    Ok(Some(read_schema_body(r)?))
}

/// Decodes one record payload.
pub(crate) fn decode_record(payload: &[u8]) -> Result<WalRecord> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        TAG_SCHEMA => WalRecord::Schema(read_schema_body(&mut r)?),
        TAG_ROWS => {
            let nrows = r.u32()? as usize;
            let mut rows = Vec::with_capacity(nrows.min(4096));
            for _ in 0..nrows {
                let key = RowKey::from_bytes(r.bytes()?);
                let nmut = r.u32()? as usize;
                let mut mutations = Vec::with_capacity(nmut.min(4096));
                for _ in 0..nmut {
                    mutations.push(read_mutation(&mut r)?);
                }
                rows.push(RowMutation { key, mutations });
            }
            WalRecord::Rows(rows)
        }
        TAG_AGE_TRANSFER => WalRecord::AgeTransfer {
            mem_family: r.str()?,
            disk_family: r.str()?,
            cutoff: Timestamp(r.u64()?),
        },
        t => return Err(BigtableError::Wal(format!("decode: bad record tag {t}"))),
    };
    if !r.done() {
        return Err(BigtableError::Wal(
            "decode: trailing bytes in record payload".to_string(),
        ));
    }
    Ok(rec)
}

// ---------------------------------------------------------------------------
// Frame parsing.
// ---------------------------------------------------------------------------

const FRAME_HEADER: usize = 16;

/// One parsed frame: its sequence number and payload slice.
pub(crate) struct Frame<'a> {
    pub(crate) seq: u64,
    pub(crate) payload: &'a [u8],
}

/// Walks frames from the start of `bytes`, yielding payloads until the
/// first frame whose length or CRC does not hold. Returns the frames, the
/// byte offset of the consistent cut, and whether anything was cut off.
pub(crate) fn parse_frames(bytes: &[u8]) -> (Vec<Frame<'_>>, usize, bool) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let start = pos + FRAME_HEADER;
        let Some(end) = start.checked_add(len) else {
            break;
        };
        if end > bytes.len() {
            break; // torn tail: length header promises more than the file holds
        }
        // The CRC covers the seq bytes and the payload, which sit
        // contiguously in the file.
        if crc32(&bytes[pos + 8..end]) != crc {
            break; // torn or corrupt record: stop at the consistent cut
        }
        let seq = u64::from_le_bytes([
            bytes[pos + 8],
            bytes[pos + 9],
            bytes[pos + 10],
            bytes[pos + 11],
            bytes[pos + 12],
            bytes[pos + 13],
            bytes[pos + 14],
            bytes[pos + 15],
        ]);
        frames.push(Frame {
            seq,
            payload: &bytes[start..end],
        });
        pos = end;
    }
    let torn = pos != bytes.len();
    (frames, pos, torn)
}

fn frame_bytes(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, 0); // CRC patched below, once seq + payload are in place
    put_u64(&mut out, seq);
    out.extend_from_slice(payload);
    let crc = crc32(&out[8..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Outcome of one append, for metrics and cost accounting.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AppendInfo {
    /// Bytes written to the log (frame header + payload).
    pub(crate) bytes: u64,
    /// Whether this append triggered an fsync.
    pub(crate) fsynced: bool,
}

/// Append handle on one table's log file. Callers serialize access with a
/// mutex; the writer itself only tracks the fsync cadence and the next
/// sequence number.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    wal_path: PathBuf,
    fsync_every: u64,
    appends_since_sync: u64,
    next_seq: u64,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> BigtableError {
    BigtableError::Wal(format!("{what} {}: {e}", path.display()))
}

impl WalWriter {
    /// Creates (truncating) a fresh log at `path`; the first append gets
    /// sequence number `next_seq`.
    pub(crate) fn create(path: PathBuf, fsync_every: u64, next_seq: u64) -> Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create wal", &path, e))?;
        Ok(WalWriter {
            file,
            wal_path: path,
            fsync_every,
            appends_since_sync: 0,
            next_seq,
        })
    }

    /// Opens an existing log for appends at `offset` (the consistent cut
    /// found by recovery), truncating anything torn past it. `next_seq`
    /// continues the numbering after the last recovered record.
    pub(crate) fn open_at(
        path: PathBuf,
        fsync_every: u64,
        offset: u64,
        next_seq: u64,
    ) -> Result<Self> {
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open wal", &path, e))?;
        file.set_len(offset)
            .map_err(|e| io_err("truncate wal", &path, e))?;
        let mut w = WalWriter {
            file,
            wal_path: path,
            fsync_every,
            appends_since_sync: 0,
            next_seq,
        };
        w.file
            .seek(SeekFrom::Start(offset))
            .map_err(|e| io_err("seek wal", &w.wal_path, e))?;
        Ok(w)
    }

    /// Path of the snapshot that pairs with this log.
    pub(crate) fn snapshot_path(&self) -> PathBuf {
        self.wal_path.with_extension("snap")
    }

    pub(crate) fn fsync_every(&self) -> u64 {
        self.fsync_every
    }

    /// Sequence number of the most recent append (`0` if none yet).
    pub(crate) fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Frames and appends one payload; fsyncs per the configured cadence.
    pub(crate) fn append(&mut self, payload: &[u8]) -> Result<AppendInfo> {
        let frame = frame_bytes(self.next_seq, payload);
        self.next_seq += 1;
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append wal", &self.wal_path, e))?;
        self.appends_since_sync += 1;
        let fsynced = self.fsync_every > 0 && self.appends_since_sync >= self.fsync_every;
        if fsynced {
            self.file
                .sync_data()
                .map_err(|e| io_err("fsync wal", &self.wal_path, e))?;
            self.appends_since_sync = 0;
        }
        Ok(AppendInfo {
            bytes: frame.len() as u64,
            fsynced,
        })
    }

    /// Writes `payload` as the table snapshot: `<name>.snap.tmp`, fsync,
    /// rename over `<name>.snap`. The snapshot frame's sequence number is
    /// [`Self::last_seq`] — the last log record the snapshot covers, which
    /// recovery uses to skip already-applied frames. Returns bytes written.
    pub(crate) fn write_snapshot(&self, payload: &[u8]) -> Result<u64> {
        let snap = self.snapshot_path();
        let tmp = self.wal_path.with_extension("snap.tmp");
        let frame = frame_bytes(self.last_seq(), payload);
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create snapshot", &tmp, e))?;
            f.write_all(&frame)
                .map_err(|e| io_err("write snapshot", &tmp, e))?;
            f.sync_data()
                .map_err(|e| io_err("fsync snapshot", &tmp, e))?;
        }
        std::fs::rename(&tmp, &snap).map_err(|e| io_err("publish snapshot", &snap, e))?;
        Ok(frame.len() as u64)
    }

    /// Truncates the log to empty (after a snapshot has been published)
    /// and fsyncs the truncation.
    pub(crate) fn truncate(&mut self) -> Result<()> {
        self.file
            .set_len(0)
            .map_err(|e| io_err("truncate wal", &self.wal_path, e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek wal", &self.wal_path, e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync wal", &self.wal_path, e))?;
        self.appends_since_sync = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// File naming + directory scan.
// ---------------------------------------------------------------------------

/// Encodes a table name into a filesystem-safe file stem. Alphanumerics,
/// `_` and `-` pass through; every other byte becomes `%XX`. Reversible,
/// so recovery can list a directory and get the table names back.
pub(crate) fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Inverse of [`encode_name`]. `None` for stems this module never wrote.
pub(crate) fn decode_name(stem: &str) -> Option<String> {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// The log path for `table` under `dir`.
pub(crate) fn wal_path(dir: &Path, table: &str) -> PathBuf {
    dir.join(format!("{}.wal", encode_name(table)))
}

/// Lists the table names that have a `.wal` or `.snap` file under `dir`,
/// sorted for deterministic recovery order.
pub(crate) fn scan_tables(dir: &Path) -> Result<Vec<String>> {
    let mut names = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read wal dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read wal dir", dir, e))?;
        let path = entry.path();
        let ext = path.extension().and_then(|e| e.to_str());
        if !matches!(ext, Some("wal") | Some("snap")) {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if let Some(name) = decode_name(stem) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_roundtrip_and_tear_detection() {
        let a = frame_bytes(1, b"alpha");
        let b = frame_bytes(2, b"beta");
        let mut log: Vec<u8> = Vec::new();
        log.extend_from_slice(&a);
        log.extend_from_slice(&b);
        let (frames, cut, torn) = parse_frames(&log);
        assert_eq!(frames.len(), 2);
        assert_eq!((frames[0].seq, frames[0].payload), (1, &b"alpha"[..]));
        assert_eq!((frames[1].seq, frames[1].payload), (2, &b"beta"[..]));
        assert_eq!(cut, log.len());
        assert!(!torn);

        // A corrupted sequence number is caught by the CRC too.
        let mut bad_seq = log.clone();
        bad_seq[a.len() + 8] ^= 0x01;
        let (frames, cut, torn) = parse_frames(&bad_seq);
        assert_eq!(frames.len(), 1);
        assert_eq!(cut, a.len());
        assert!(torn);

        // Chop bytes off the tail: the cut lands after the first record.
        for chop in 1..b.len() {
            let (frames, cut, torn) = parse_frames(&log[..log.len() - chop]);
            assert_eq!(frames.len(), 1, "chop {chop}");
            assert_eq!(cut, a.len());
            assert!(torn);
        }

        // Flip a payload byte in the second record: CRC catches it.
        let mut bad = log.clone();
        let idx = a.len() + FRAME_HEADER;
        bad[idx] ^= 0x40;
        let (frames, cut, torn) = parse_frames(&bad);
        assert_eq!(frames.len(), 1);
        assert_eq!(cut, a.len());
        assert!(torn);
    }

    #[test]
    fn record_payloads_roundtrip() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnFamily::in_memory("mem", 3),
                ColumnFamily::on_disk("disk", usize::MAX),
            ],
        )
        .unwrap();
        let enc = encode_schema(&schema);
        assert_eq!(decode_record(&enc).unwrap(), WalRecord::Schema(schema));

        let key = RowKey::from_u64(42);
        let muts = vec![
            Mutation::put("mem", "q", Timestamp(7), &b"v"[..]),
            Mutation::delete_column("mem", "q"),
            Mutation::DeleteFamily {
                family: "disk".into(),
            },
            Mutation::DeleteRow,
        ];
        let enc = encode_rows(&[(&key, muts.as_slice())]);
        match decode_record(&enc).unwrap() {
            WalRecord::Rows(rows) => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].key, key);
                assert_eq!(rows[0].mutations, muts);
            }
            other => panic!("wrong record: {other:?}"),
        }

        let enc = encode_age_transfer("mem", "disk", Timestamp(99));
        assert_eq!(
            decode_record(&enc).unwrap(),
            WalRecord::AgeTransfer {
                mem_family: "mem".into(),
                disk_family: "disk".into(),
                cutoff: Timestamp(99),
            }
        );

        assert!(decode_record(&[0xFF]).is_err());
        let mut trailing = encode_age_transfer("m", "d", Timestamp(1));
        trailing.push(0);
        assert!(decode_record(&trailing).is_err());
    }

    #[test]
    fn name_encoding_roundtrips() {
        for name in ["location", "spatial_index", "UPPER-case_09", "a/b c%d", "…"] {
            let enc = encode_name(name);
            assert!(
                enc.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'%'),
                "{enc}"
            );
            assert_eq!(decode_name(&enc).as_deref(), Some(name));
        }
    }
}
