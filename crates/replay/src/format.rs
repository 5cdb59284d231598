//! The `CPRDLOG` container: a versioned, self-describing binary op-log.
//!
//! Layout, all integers little-endian:
//!
//! ```text
//! header   magic "CPRDLOG\0" (8) | version u32 | seed u64 | fingerprint u64
//!          | robot str | workload str | scale str
//! record   kind 0x01 | idx u64 | session u64 | start_ns u64 | duration_ns u64
//!          | verb str | status str | tag str | request str | response str
//! footer   kind 0x02 | record_count u64 | crc32 u32      (crc of all prior bytes)
//! str      len u32 | UTF-8 bytes (len <= MAX_PAYLOAD)
//! ```
//!
//! The reader is torn-tail tolerant: a log whose tail was cut mid-record
//! (crash, `kill -9` before the footer) parses to the clean record prefix
//! with [`ReplayLog::complete`] `== false`. Truncation is the *only*
//! defect that degrades silently; everything decodable but wrong — bad
//! magic, unknown version, an invalid kind byte, an oversized length, a
//! footer whose count or checksum disagrees — is a structured
//! [`ReplayLogError`], never a panic.

use copred_store::crc::{crc32, crc32_update, CRC32_INIT};
use std::fmt;
use std::io::{self, Write};

/// First 8 bytes of every log.
pub const LOG_MAGIC: [u8; 8] = *b"CPRDLOG\0";

/// Container version this crate writes. Readers reject other versions;
/// see ROADMAP.md's op-log stability contract for the bump rules.
pub const LOG_VERSION: u32 = 1;

/// Largest accepted string field (matches the wire protocol's
/// `MAX_FRAME_LEN`): a length above this is corruption, not an
/// allocation request.
pub const MAX_PAYLOAD: usize = 16 << 20;

const KIND_RECORD: u8 = 0x01;
const KIND_FOOTER: u8 = 0x02;

/// Run provenance embedded in the log header — everything a replay needs
/// to know it is driving the workload the log came from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogMeta {
    /// Base seed of the recorded run (per-session seeds derive from it).
    pub seed: u64,
    /// Obstacle-set fingerprint (`copred_store::environment_fingerprint`
    /// folded over the run's environments; 0 when unknown).
    pub fingerprint: u64,
    /// Robot model name, e.g. `planar-2d` (empty when the run mixed
    /// robots).
    pub robot: String,
    /// Workload label, e.g. a combo label like `MPNet-2D`.
    pub workload: String,
    /// Scale description, e.g. `queries=3 connections=1 mode=coord`.
    pub scale: String,
}

/// One recorded wire operation: the full request and (final) response
/// payload text plus the timing envelope — everything needed to send
/// the op again and check the answer bit-for-bit. This is the one op record in
/// the workspace; CPRDLOG is its only serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Record index in log order.
    pub idx: u64,
    /// Log-local session key; replays remap it to the live token.
    pub session: u64,
    /// Start time as nanoseconds since the run epoch; monotonically
    /// non-decreasing across the log.
    pub start_ns: u64,
    /// Wall time from write to parsed reply.
    pub duration_ns: u64,
    /// Wire verb (`open`, `check_motion`, `close`, ...).
    pub verb: String,
    /// Recorded outcome (`ok`, `err`).
    pub status: String,
    /// Recorder session tag, e.g. `session2` — a label for reports, stable
    /// across replays where the server-assigned token is not.
    pub tag: String,
    /// Request payload text as sent on the wire.
    pub request: String,
    /// Response payload text as received (final reply after any
    /// `retry_after` rounds).
    pub response: String,
}

/// Why a log failed to read. Truncation is *not* here — a torn tail
/// yields an `Ok` prefix with [`ReplayLog::complete`] `== false`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayLogError {
    /// The first 8 bytes are not [`LOG_MAGIC`] — not a CPRDLOG file.
    BadMagic,
    /// The container version is not [`LOG_VERSION`].
    VersionMismatch {
        /// Version found in the header.
        found: u32,
    },
    /// The input ends inside the header — before the metadata is even
    /// readable there is no usable prefix to degrade to.
    TruncatedHeader,
    /// Decodable but invalid bytes: a bad kind byte, a length above
    /// [`MAX_PAYLOAD`], non-UTF-8 string bytes, or content after the
    /// footer.
    Corrupt {
        /// Byte offset of the defect.
        offset: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A complete footer disagrees with the body (record count or
    /// checksum) — silent corruption, not truncation.
    FooterMismatch {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for ReplayLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayLogError::BadMagic => write!(f, "not a CPRDLOG file (bad magic)"),
            ReplayLogError::VersionMismatch { found } => {
                write!(
                    f,
                    "CPRDLOG version mismatch: want {LOG_VERSION}, found {found}"
                )
            }
            ReplayLogError::TruncatedHeader => write!(f, "log truncated inside the header"),
            ReplayLogError::Corrupt { offset, reason } => {
                write!(f, "log corrupt at byte {offset}: {reason}")
            }
            ReplayLogError::FooterMismatch { reason } => {
                write!(f, "log footer mismatch: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplayLogError {}

/// A fully-read log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayLog {
    /// Header metadata.
    pub meta: LogMeta,
    /// The clean record prefix (everything, when `complete`).
    pub records: Vec<LogRecord>,
    /// Whether the checksummed footer was present and verified. `false`
    /// means the tail was torn: `records` is the longest clean prefix.
    pub complete: bool,
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes the header block for `meta`.
pub fn encode_header(meta: &LogMeta) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + meta.robot.len() + meta.workload.len());
    out.extend_from_slice(&LOG_MAGIC);
    out.extend_from_slice(&LOG_VERSION.to_le_bytes());
    out.extend_from_slice(&meta.seed.to_le_bytes());
    out.extend_from_slice(&meta.fingerprint.to_le_bytes());
    push_str(&mut out, &meta.robot);
    push_str(&mut out, &meta.workload);
    push_str(&mut out, &meta.scale);
    out
}

/// Encodes one record block.
pub fn encode_record(rec: &LogRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + rec.request.len() + rec.response.len());
    out.push(KIND_RECORD);
    out.extend_from_slice(&rec.idx.to_le_bytes());
    out.extend_from_slice(&rec.session.to_le_bytes());
    out.extend_from_slice(&rec.start_ns.to_le_bytes());
    out.extend_from_slice(&rec.duration_ns.to_le_bytes());
    push_str(&mut out, &rec.verb);
    push_str(&mut out, &rec.status);
    push_str(&mut out, &rec.tag);
    push_str(&mut out, &rec.request);
    push_str(&mut out, &rec.response);
    out
}

fn encode_footer(count: u64, crc: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(13);
    out.push(KIND_FOOTER);
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Streaming log writer: header up front, one block per record, and a
/// checksummed footer from [`LogWriter::finish`] — or, best-effort, on
/// drop. A process killed mid-write leaves a torn tail the reader
/// degrades through; a process that drops the writer cleanly leaves a
/// complete, verifiable log.
#[derive(Debug)]
pub struct LogWriter<W: Write> {
    out: io::BufWriter<W>,
    /// Running CRC register over everything written so far.
    crc: u32,
    count: u64,
    finished: bool,
}

impl<W: Write> LogWriter<W> {
    /// Wraps `sink` and writes the header for `meta`.
    ///
    /// # Errors
    ///
    /// Any write failure.
    pub fn new(sink: W, meta: &LogMeta) -> io::Result<Self> {
        let header = encode_header(meta);
        let crc = crc32_update(CRC32_INIT, &header);
        let mut out = io::BufWriter::new(sink);
        out.write_all(&header)?;
        Ok(LogWriter {
            out,
            crc,
            count: 0,
            finished: false,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Any write failure, or [`io::ErrorKind::InvalidInput`] for a string
    /// field above [`MAX_PAYLOAD`].
    pub fn append(&mut self, rec: &LogRecord) -> io::Result<()> {
        for (what, s) in [
            ("verb", &rec.verb),
            ("status", &rec.status),
            ("tag", &rec.tag),
            ("request", &rec.request),
            ("response", &rec.response),
        ] {
            if s.len() > MAX_PAYLOAD {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{what} of {} bytes exceeds MAX_PAYLOAD", s.len()),
                ));
            }
        }
        let block = encode_record(rec);
        self.crc = crc32_update(self.crc, &block);
        self.out.write_all(&block)?;
        self.count += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Writes the checksummed footer and flushes.
    ///
    /// # Errors
    ///
    /// Any write or flush failure.
    pub fn finish(mut self) -> io::Result<()> {
        self.write_footer()
    }

    fn write_footer(&mut self) -> io::Result<()> {
        if self.finished {
            return Ok(());
        }
        let footer = encode_footer(self.count, !self.crc);
        self.out.write_all(&footer)?;
        self.out.flush()?;
        self.finished = true;
        Ok(())
    }
}

impl<W: Write> Drop for LogWriter<W> {
    fn drop(&mut self) {
        let _ = self.write_footer();
    }
}

/// Encodes a whole log (header, records, footer) in one buffer.
pub fn write_log(meta: &LogMeta, records: &[LogRecord]) -> Vec<u8> {
    let mut out = encode_header(meta);
    for rec in records {
        out.extend_from_slice(&encode_record(rec));
    }
    let crc = crc32(&out);
    out.extend_from_slice(&encode_footer(records.len() as u64, crc));
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// What a bounded read attempt produced: the value, a clean end of
/// input, or corruption.
enum Take<T> {
    Got(T),
    Torn,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Take<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Take::Torn;
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Take::Got(s)
    }

    fn take_u32(&mut self) -> Take<u32> {
        match self.take(4) {
            Take::Got(b) => Take::Got(u32::from_le_bytes(b.try_into().expect("4 bytes"))),
            Take::Torn => Take::Torn,
        }
    }

    fn take_u64(&mut self) -> Take<u64> {
        match self.take(8) {
            Take::Got(b) => Take::Got(u64::from_le_bytes(b.try_into().expect("8 bytes"))),
            Take::Torn => Take::Torn,
        }
    }

    fn take_str(&mut self) -> Result<Take<String>, ReplayLogError> {
        let at = self.pos;
        let len = match self.take_u32() {
            Take::Got(n) => n as usize,
            Take::Torn => return Ok(Take::Torn),
        };
        if len > MAX_PAYLOAD {
            return Err(ReplayLogError::Corrupt {
                offset: at,
                reason: format!("string length {len} exceeds MAX_PAYLOAD"),
            });
        }
        let at = self.pos;
        match self.take(len) {
            Take::Torn => Ok(Take::Torn),
            Take::Got(b) => match std::str::from_utf8(b) {
                Ok(s) => Ok(Take::Got(s.to_string())),
                Err(_) => Err(ReplayLogError::Corrupt {
                    offset: at,
                    reason: "string is not UTF-8".to_string(),
                }),
            },
        }
    }
}

macro_rules! take_or_torn {
    ($expr:expr) => {
        match $expr {
            Take::Got(v) => v,
            Take::Torn => return Ok(None),
        }
    };
}

fn read_record(c: &mut Cursor<'_>) -> Result<Option<LogRecord>, ReplayLogError> {
    let idx = take_or_torn!(c.take_u64());
    let session = take_or_torn!(c.take_u64());
    let start_ns = take_or_torn!(c.take_u64());
    let duration_ns = take_or_torn!(c.take_u64());
    let verb = take_or_torn!(c.take_str()?);
    let status = take_or_torn!(c.take_str()?);
    let tag = take_or_torn!(c.take_str()?);
    let request = take_or_torn!(c.take_str()?);
    let response = take_or_torn!(c.take_str()?);
    Ok(Some(LogRecord {
        idx,
        session,
        start_ns,
        duration_ns,
        verb,
        status,
        tag,
        request,
        response,
    }))
}

/// Reads a log from bytes, tolerating a torn tail.
///
/// # Errors
///
/// [`ReplayLogError::BadMagic`] / [`ReplayLogError::VersionMismatch`] /
/// [`ReplayLogError::TruncatedHeader`] when the header is unusable,
/// [`ReplayLogError::Corrupt`] for invalid (not merely missing) bytes,
/// and [`ReplayLogError::FooterMismatch`] when a present footer
/// contradicts the body. Truncation anywhere after the header is not an
/// error: the result carries the clean record prefix with
/// [`ReplayLog::complete`] `== false`.
pub fn read_log(bytes: &[u8]) -> Result<ReplayLog, ReplayLogError> {
    let mut c = Cursor { bytes, pos: 0 };
    match c.take(8) {
        Take::Got(m) if m == LOG_MAGIC => {}
        Take::Got(_) => return Err(ReplayLogError::BadMagic),
        Take::Torn => {
            // Even a whole-file prefix of the magic is "not a CPRDLOG
            // file" if it can't prove otherwise — except the empty file,
            // which is unambiguously a truncated header.
            if bytes.is_empty() || LOG_MAGIC.starts_with(bytes) {
                return Err(ReplayLogError::TruncatedHeader);
            }
            return Err(ReplayLogError::BadMagic);
        }
    }
    let version = match c.take_u32() {
        Take::Got(v) => v,
        Take::Torn => return Err(ReplayLogError::TruncatedHeader),
    };
    if version != LOG_VERSION {
        return Err(ReplayLogError::VersionMismatch { found: version });
    }
    fn header_u64(c: &mut Cursor<'_>) -> Result<u64, ReplayLogError> {
        match c.take_u64() {
            Take::Got(v) => Ok(v),
            Take::Torn => Err(ReplayLogError::TruncatedHeader),
        }
    }
    fn header_str(c: &mut Cursor<'_>) -> Result<String, ReplayLogError> {
        match c.take_str()? {
            Take::Got(s) => Ok(s),
            Take::Torn => Err(ReplayLogError::TruncatedHeader),
        }
    }
    let seed = header_u64(&mut c)?;
    let fingerprint = header_u64(&mut c)?;
    let robot = header_str(&mut c)?;
    let workload = header_str(&mut c)?;
    let scale = header_str(&mut c)?;
    let meta = LogMeta {
        seed,
        fingerprint,
        robot,
        workload,
        scale,
    };

    let mut records = Vec::new();
    let mut complete = false;
    loop {
        if c.pos == bytes.len() {
            break; // torn tail: ended cleanly after a record, no footer
        }
        let at = c.pos;
        let kind = bytes[c.pos];
        c.pos += 1;
        match kind {
            KIND_RECORD => match read_record(&mut c)? {
                Some(rec) => records.push(rec),
                None => break, // torn mid-record: keep the prefix
            },
            KIND_FOOTER => {
                let count = match c.take_u64() {
                    Take::Got(v) => v,
                    Take::Torn => break, // torn mid-footer
                };
                let crc = match c.take_u32() {
                    Take::Got(v) => v,
                    Take::Torn => break,
                };
                if c.pos != bytes.len() {
                    return Err(ReplayLogError::Corrupt {
                        offset: c.pos,
                        reason: format!("{} trailing bytes after footer", bytes.len() - c.pos),
                    });
                }
                if count != records.len() as u64 {
                    return Err(ReplayLogError::FooterMismatch {
                        reason: format!(
                            "footer declares {count} records, body has {}",
                            records.len()
                        ),
                    });
                }
                let body_crc = crc32(&bytes[..at]);
                if crc != body_crc {
                    return Err(ReplayLogError::FooterMismatch {
                        reason: format!("footer crc {crc:08x} != body crc {body_crc:08x}"),
                    });
                }
                complete = true;
                break;
            }
            other => {
                return Err(ReplayLogError::Corrupt {
                    offset: at,
                    reason: format!("bad block kind 0x{other:02x}"),
                })
            }
        }
    }
    copred_service::replay_stats()
        .records_read
        .fetch_add(records.len() as u64, std::sync::atomic::Ordering::Relaxed);
    Ok(ReplayLog {
        meta,
        records,
        complete,
    })
}

/// Reads a log from a file.
///
/// # Errors
///
/// I/O failures as [`io::Error`]; format defects are wrapped as
/// [`io::ErrorKind::InvalidData`] carrying the [`ReplayLogError`] text.
pub fn read_log_file(path: &std::path::Path) -> io::Result<ReplayLog> {
    let bytes = std::fs::read(path)?;
    read_log(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> LogMeta {
        LogMeta {
            seed: 42,
            fingerprint: 0xFEED_F00D,
            robot: "planar-2d".to_string(),
            workload: "MPNet-2D".to_string(),
            scale: "queries=3 connections=1".to_string(),
        }
    }

    fn records(n: usize) -> Vec<LogRecord> {
        (0..n)
            .map(|i| LogRecord {
                idx: i as u64,
                session: 1 + (i as u64 % 3),
                start_ns: i as u64 * 1_000,
                duration_ns: 500,
                verb: if i == 0 { "open" } else { "check_motion" }.to_string(),
                status: "ok".to_string(),
                tag: format!("conn0/trace{}", i % 3),
                request: format!("check_motion {} 1\nmotion M0 2 1\n", 1 + i % 3),
                response: "ok results 1\nresult 0 1 2 8\n".to_string(),
            })
            .collect()
    }

    #[test]
    fn roundtrip_bit_exact() {
        let recs = records(5);
        let bytes = write_log(&meta(), &recs);
        let log = read_log(&bytes).expect("read");
        assert_eq!(log.meta, meta());
        assert_eq!(log.records, recs);
        assert!(log.complete);
        // Writing the parsed log back is byte-identical.
        assert_eq!(write_log(&log.meta, &log.records), bytes);
    }

    #[test]
    fn streaming_writer_matches_one_shot_and_seals_on_drop() {
        let recs = records(4);
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut w = LogWriter::new(&mut buf, &meta()).expect("header");
            for r in &recs {
                w.append(r).expect("append");
            }
            assert_eq!(w.count(), 4);
            // No finish(): drop must seal the footer.
        }
        assert_eq!(buf, write_log(&meta(), &recs));
        assert!(read_log(&buf).expect("read").complete);
    }

    #[test]
    fn empty_log_roundtrips() {
        let bytes = write_log(&meta(), &[]);
        let log = read_log(&bytes).expect("read");
        assert!(log.records.is_empty());
        assert!(log.complete);
    }

    #[test]
    fn torn_tail_degrades_to_clean_prefix() {
        let recs = records(3);
        let bytes = write_log(&meta(), &recs);
        let header_len = encode_header(&meta()).len();
        // Cut right after the second record: two clean records, no footer.
        let cut = header_len + encode_record(&recs[0]).len() + encode_record(&recs[1]).len();
        let log = read_log(&bytes[..cut]).expect("read");
        assert_eq!(log.records, recs[..2]);
        assert!(!log.complete);
        // Cut mid-record: one clean record.
        let log = read_log(&bytes[..cut - 3]).expect("read");
        assert_eq!(log.records, recs[..1]);
        assert!(!log.complete);
    }

    #[test]
    fn header_truncation_and_bad_magic_are_errors() {
        let bytes = write_log(&meta(), &records(1));
        assert_eq!(read_log(&[]).unwrap_err(), ReplayLogError::TruncatedHeader);
        assert_eq!(
            read_log(&bytes[..5]).unwrap_err(),
            ReplayLogError::TruncatedHeader
        );
        assert_eq!(
            read_log(&bytes[..20]).unwrap_err(),
            ReplayLogError::TruncatedHeader
        );
        assert_eq!(read_log(b"NOTALOG!").unwrap_err(), ReplayLogError::BadMagic);
    }

    #[test]
    fn version_mismatch_is_structured() {
        let mut bytes = write_log(&meta(), &[]);
        bytes[8] = 99;
        assert_eq!(
            read_log(&bytes).unwrap_err(),
            ReplayLogError::VersionMismatch { found: 99 }
        );
    }

    #[test]
    fn corrupt_footer_and_bad_kind_are_hard_errors() {
        let recs = records(2);
        let good = write_log(&meta(), &recs);
        // Flip a byte in the first record's payload: the footer crc
        // catches it.
        let mut bad = good.clone();
        let off = encode_header(&meta()).len() + 40;
        bad[off] ^= 0x40;
        assert!(matches!(
            read_log(&bad).unwrap_err(),
            ReplayLogError::FooterMismatch { .. } | ReplayLogError::Corrupt { .. }
        ));
        // A wrong count in the footer.
        let mut bad = good.clone();
        let footer_at = good.len() - 12;
        bad[footer_at] = bad[footer_at].wrapping_add(1);
        assert!(matches!(
            read_log(&bad).unwrap_err(),
            ReplayLogError::FooterMismatch { .. }
        ));
        // An invalid kind byte where a block should start.
        let mut bad = good.clone();
        bad[encode_header(&meta()).len()] = 0x7F;
        assert!(matches!(
            read_log(&bad).unwrap_err(),
            ReplayLogError::Corrupt { .. }
        ));
        // Trailing bytes after a valid footer.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            read_log(&bad).unwrap_err(),
            ReplayLogError::Corrupt { .. }
        ));
        // An absurd string length is corruption, not an allocation.
        let mut bad = good;
        let len_at = encode_header(&meta()).len() + 1 + 32; // verb length field
        bad[len_at..len_at + 4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_log(&bad).unwrap_err(),
            ReplayLogError::Corrupt { .. } | ReplayLogError::FooterMismatch { .. }
        ));
    }
}
