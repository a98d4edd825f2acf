//! Physical write-ahead-log records.
//!
//! The engine runs a **redo-only, no-steal** protocol (ARIES reduced to the
//! single-writer setting; see DESIGN.md §9):
//!
//! * the buffer pool never writes a dirty page to the block file before
//!   that page's after-image is durable in the log (the WAL ordering
//!   invariant, enforced by [`crate::pool::BufferPool`]);
//! * commit appends the after-image of every page the transaction dirtied,
//!   then a commit record carrying the serialized engine metadata, then
//!   fsyncs the log — that fsync *is* the commit point;
//! * recovery ([`crate::recovery`]) replays page images of committed
//!   transactions in log order and discards everything after the first
//!   torn or corrupt record.
//!
//! Record framing: `magic u8 ‖ kind u8 ‖ txn u64 ‖ len u32 ‖ payload ‖
//! crc32 u32` (little-endian, CRC over everything before it). A torn final
//! write fails the length or CRC check and truncates the replayable
//! prefix; corruption *before* the tail is reported as
//! [`StorageError::WalCorrupt`].

use crate::disk::BlockId;
use crate::error::StorageError;
use crate::BLOCK_SIZE;

const MAGIC: u8 = 0xA5;
const KIND_PAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;
const HEADER: usize = 1 + 1 + 8 + 4;
/// Largest legal payload: a page image (commit metadata stays far smaller,
/// but give it the same ceiling plus slack for large schemas).
const MAX_PAYLOAD: usize = BLOCK_SIZE + (1 << 20);

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// After-image of one block, owned by transaction `txn`.
    PageImage {
        /// The logging transaction (0 = checkpoint).
        txn: u64,
        /// The block this image belongs to.
        block: BlockId,
        /// Full 4 KiB after-image.
        data: Box<[u8; BLOCK_SIZE]>,
    },
    /// Transaction `txn` committed; `meta` is the serialized
    /// [`crate::meta::EngineMeta`] as of the commit.
    Commit {
        /// The committing transaction (0 = checkpoint).
        txn: u64,
        /// Serialized engine metadata.
        meta: Vec<u8>,
    },
}

/// CRC-32 (IEEE 802.3, reflected), bitwise — the log is not a hot path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Serialize one record, framing included.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let (kind, txn, payload): (u8, u64, Vec<u8>) = match rec {
        WalRecord::PageImage { txn, block, data } => {
            let mut p = Vec::with_capacity(4 + BLOCK_SIZE);
            p.extend_from_slice(&block.0.to_le_bytes());
            p.extend_from_slice(&data[..]);
            (KIND_PAGE, *txn, p)
        }
        WalRecord::Commit { txn, meta } => (KIND_COMMIT, *txn, meta.clone()),
    };
    let mut out = Vec::with_capacity(HEADER + payload.len() + 4);
    out.push(MAGIC);
    out.push(kind);
    out.extend_from_slice(&txn.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The outcome of scanning a log stream.
#[derive(Debug)]
pub struct LogScan {
    /// Every intact record, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes of the valid prefix.
    pub valid_bytes: usize,
    /// Whether a torn/incomplete tail was discarded.
    pub torn_tail: bool,
}

/// Parse a log stream. A truncated or checksum-failing **final** record is
/// the signature of a torn write and is silently discarded; garbage before
/// the end is [`StorageError::WalCorrupt`].
pub fn scan_log(bytes: &[u8]) -> Result<LogScan, StorageError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match decode_one(&bytes[pos..]) {
            Ok((rec, used)) => {
                records.push(rec);
                pos += used;
            }
            Err(DecodeErr::Truncated) => {
                return Ok(LogScan { records, valid_bytes: pos, torn_tail: true });
            }
            Err(DecodeErr::Corrupt(msg)) => {
                // A bad CRC at the very tail is a torn write; anywhere else
                // it means the log itself is damaged. We cannot always tell
                // the two apart, so: if skipping this record would still
                // leave bytes that parse, the damage is interior → error.
                if tail_is_only_noise(&bytes[pos..]) {
                    return Ok(LogScan { records, valid_bytes: pos, torn_tail: true });
                }
                return Err(StorageError::WalCorrupt(format!("at byte {pos}: {msg}")));
            }
        }
    }
    Ok(LogScan { records, valid_bytes: pos, torn_tail: false })
}

/// One decoded WAL frame's envelope, as reported by [`scan_frames`] —
/// the offline-introspection view (`sim-dump`), which keeps byte offsets
/// and CRC status instead of materializing page images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameInfo {
    /// Byte offset of the frame in the log — its LSN.
    pub offset: u64,
    /// `"page"` or `"commit"`.
    pub kind: &'static str,
    /// The owning transaction (0 = checkpoint).
    pub txn: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// The block a page frame images (`None` for commit frames).
    pub block: Option<BlockId>,
    /// The frame's CRC verified. Always true for listed frames — a frame
    /// failing its CRC terminates the scan and is described by
    /// [`FrameScan::tail`] instead.
    pub crc_ok: bool,
}

/// How a frame-level scan ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// The log parses cleanly to its end.
    Clean,
    /// The final frame is truncated or fails its CRC — the torn-write
    /// signature; recovery discards it and proceeds.
    Torn {
        /// Byte offset of the torn frame.
        offset: u64,
    },
    /// Damage *before* the tail: intact frames follow the failure, so the
    /// log itself is corrupt (recovery refuses it).
    Corrupt {
        /// Byte offset of the damaged frame.
        offset: u64,
        /// What failed to decode.
        detail: String,
    },
}

/// The outcome of a frame-level scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan {
    /// Every intact frame, in log order.
    pub frames: Vec<FrameInfo>,
    /// How the log ends.
    pub tail: WalTail,
    /// Total bytes scanned (the whole input).
    pub bytes: u64,
}

/// Frame-by-frame WAL inspection: decode every intact frame's envelope
/// and classify how the log ends. Unlike [`scan_log`] this never errors —
/// interior corruption is *reported* (as [`WalTail::Corrupt`]) rather than
/// returned as an error, because the caller is a forensics tool, not
/// recovery.
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let tail = loop {
        if pos >= bytes.len() {
            break WalTail::Clean;
        }
        match decode_one(&bytes[pos..]) {
            Ok((rec, used)) => {
                let (kind, txn, block, payload_len) = match &rec {
                    WalRecord::PageImage { txn, block, .. } => {
                        ("page", *txn, Some(*block), (4 + BLOCK_SIZE) as u32)
                    }
                    WalRecord::Commit { txn, meta } => ("commit", *txn, None, meta.len() as u32),
                };
                frames.push(FrameInfo {
                    offset: pos as u64,
                    kind,
                    txn,
                    payload_len,
                    block,
                    crc_ok: true,
                });
                pos += used;
            }
            Err(DecodeErr::Truncated) => break WalTail::Torn { offset: pos as u64 },
            Err(DecodeErr::Corrupt(msg)) => {
                if tail_is_only_noise(&bytes[pos..]) {
                    break WalTail::Torn { offset: pos as u64 };
                }
                break WalTail::Corrupt { offset: pos as u64, detail: msg };
            }
        }
    };
    FrameScan { frames, tail, bytes: bytes.len() as u64 }
}

/// After a CRC/structure failure, is the remainder plausibly just one torn
/// record (no further intact record follows)?
fn tail_is_only_noise(rest: &[u8]) -> bool {
    // Look for a subsequent offset that decodes cleanly; if one exists the
    // damage is interior corruption, not a torn tail.
    for start in 1..rest.len().saturating_sub(HEADER) {
        if rest[start] == MAGIC {
            if let Ok((_, used)) = decode_one(&rest[start..]) {
                // Require the follow-on record to be followed by a clean
                // parse to end-of-log as well, otherwise treat as noise.
                let mut pos = start + used;
                let mut clean = true;
                while pos < rest.len() {
                    match decode_one(&rest[pos..]) {
                        Ok((_, n)) => pos += n,
                        Err(_) => {
                            clean = false;
                            break;
                        }
                    }
                }
                if clean {
                    return false;
                }
            }
        }
    }
    true
}

enum DecodeErr {
    /// Ran out of bytes mid-record (torn tail).
    Truncated,
    /// Structurally present but invalid.
    Corrupt(String),
}

fn decode_one(bytes: &[u8]) -> Result<(WalRecord, usize), DecodeErr> {
    if bytes.len() < HEADER {
        return Err(DecodeErr::Truncated);
    }
    if bytes[0] != MAGIC {
        return Err(DecodeErr::Corrupt(format!("bad record magic {:#04x}", bytes[0])));
    }
    let kind = bytes[1];
    // The four `expect`s below each follow an explicit length check.
    let txn = u64::from_le_bytes(bytes[2..10].try_into().expect("8 bytes")); // sim-lint: allow(unwrap)
    let len = u32::from_le_bytes(bytes[10..14].try_into().expect("4 bytes")) as usize; // sim-lint: allow(unwrap)
    if len > MAX_PAYLOAD {
        return Err(DecodeErr::Corrupt(format!("payload length {len} exceeds maximum")));
    }
    let total = HEADER + len + 4;
    if bytes.len() < total {
        return Err(DecodeErr::Truncated);
    }
    let stored_crc = u32::from_le_bytes(bytes[total - 4..total].try_into().expect("4 bytes")); // sim-lint: allow(unwrap)
    if crc32(&bytes[..total - 4]) != stored_crc {
        return Err(DecodeErr::Corrupt("checksum mismatch".into()));
    }
    let payload = &bytes[HEADER..HEADER + len];
    let rec = match kind {
        KIND_PAGE => {
            if payload.len() != 4 + BLOCK_SIZE {
                return Err(DecodeErr::Corrupt(format!("page image of {} bytes", payload.len())));
            }
            let block = BlockId(u32::from_le_bytes(payload[..4].try_into().expect("4 bytes"))); // sim-lint: allow(unwrap)
            let mut data = Box::new([0u8; BLOCK_SIZE]);
            data.copy_from_slice(&payload[4..]);
            WalRecord::PageImage { txn, block, data }
        }
        KIND_COMMIT => WalRecord::Commit { txn, meta: payload.to_vec() },
        other => return Err(DecodeErr::Corrupt(format!("unknown record kind {other}"))),
    };
    Ok((rec, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(txn: u64, block: u32, fill: u8) -> WalRecord {
        WalRecord::PageImage { txn, block: BlockId(block), data: Box::new([fill; BLOCK_SIZE]) }
    }

    #[test]
    fn records_roundtrip() {
        let recs = vec![
            page(1, 0, 0xAA),
            page(1, 7, 0x55),
            WalRecord::Commit { txn: 1, meta: b"meta-bytes".to_vec() },
            WalRecord::Commit { txn: 2, meta: Vec::new() },
        ];
        let mut log = Vec::new();
        for r in &recs {
            log.extend_from_slice(&encode_record(r));
        }
        let scan = scan_log(&log).unwrap();
        assert_eq!(scan.records, recs);
        assert_eq!(scan.valid_bytes, log.len());
        assert!(!scan.torn_tail);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let mut log = encode_record(&WalRecord::Commit { txn: 1, meta: b"a".to_vec() });
        let keep = log.len();
        let torn = encode_record(&page(2, 3, 9));
        log.extend_from_slice(&torn[..torn.len() / 2]);
        let scan = scan_log(&log).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_bytes, keep);
        assert!(scan.torn_tail);
    }

    #[test]
    fn bit_flip_in_final_record_is_torn() {
        let mut log = encode_record(&WalRecord::Commit { txn: 1, meta: b"a".to_vec() });
        let keep = log.len();
        log.extend_from_slice(&encode_record(&page(2, 3, 9)));
        let last = log.len() - 10;
        log[last] ^= 0xFF;
        let scan = scan_log(&log).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_bytes, keep);
        assert!(scan.torn_tail);
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(&page(1, 0, 1)));
        let mid = log.len() + 20; // inside the second record
        log.extend_from_slice(&encode_record(&page(1, 1, 2)));
        log.extend_from_slice(&encode_record(&WalRecord::Commit { txn: 1, meta: vec![] }));
        log[mid] ^= 0xFF;
        assert!(matches!(scan_log(&log), Err(StorageError::WalCorrupt(_))));
    }

    #[test]
    fn frame_scan_reports_offsets_and_tail() {
        let mut log = Vec::new();
        let first = encode_record(&page(1, 3, 0xAA));
        log.extend_from_slice(&first);
        log.extend_from_slice(&encode_record(&WalRecord::Commit { txn: 1, meta: b"m".to_vec() }));
        let clean = scan_frames(&log);
        assert_eq!(clean.tail, WalTail::Clean);
        assert_eq!(clean.frames.len(), 2);
        assert_eq!(clean.frames[0].offset, 0);
        assert_eq!(clean.frames[0].kind, "page");
        assert_eq!(clean.frames[0].block, Some(BlockId(3)));
        assert_eq!(clean.frames[1].offset, first.len() as u64);
        assert_eq!(clean.frames[1].kind, "commit");
        assert!(clean.frames.iter().all(|f| f.crc_ok));

        // Torn final frame: reported with its offset, prefix intact.
        let keep = log.len() as u64;
        let torn = encode_record(&page(2, 4, 1));
        log.extend_from_slice(&torn[..torn.len() / 2]);
        let scan = scan_frames(&log);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.tail, WalTail::Torn { offset: keep });

        // Interior damage: reported as Corrupt, not an error.
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(&page(1, 0, 1)));
        let mid = log.len() + 20;
        log.extend_from_slice(&encode_record(&page(1, 1, 2)));
        log.extend_from_slice(&encode_record(&WalRecord::Commit { txn: 1, meta: vec![] }));
        log[mid] ^= 0xFF;
        let scan = scan_frames(&log);
        assert_eq!(scan.frames.len(), 1);
        assert!(matches!(scan.tail, WalTail::Corrupt { .. }));
    }

    #[test]
    fn crc_is_the_ieee_polynomial() {
        // Known vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_log_scans_clean() {
        let scan = scan_log(&[]).unwrap();
        assert!(scan.records.is_empty());
        assert!(!scan.torn_tail);
    }
}
