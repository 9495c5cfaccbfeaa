//! Compact binary (de)serialization for fleet traces — resident and
//! streaming.
//!
//! A 30,000-drive, six-year trace holds tens of millions of daily reports;
//! JSON is convenient for interchange but far too large for archival, so
//! this module provides a simple length-prefixed binary format built on
//! LEB128 varints (most counters are small most days — errors are rare,
//! Table 1).
//!
//! The format is versioned by a magic header so stale archives fail loudly
//! rather than decode garbage.
//!
//! ## Wire framing
//!
//! ```text
//! archive   := MAGIC("SSDFS\0v2") varint(horizon_days) varint(n_drives) drive*
//! drive     := varint(id) u8(model) varint(bits(log_weight))
//!              varint(n_reports) report* swaps
//! report    := varint(age) varint(read) varint(write) varint(erase)
//!              varint(pe) u8(flags) varint(fbb) varint(gbb)
//!              varint(err[0]) .. varint(err[9])
//! swaps     := varint(n_swaps) (varint(swap_day) u8(has_reentry)
//!              [varint(reentry_day)])*
//! ```
//!
//! `bits(log_weight)` is the IEEE-754 bit pattern of the drive's
//! importance-sampling log-weight ([`DriveLog::log_weight`]); uniformly
//! sampled drives carry `+0.0`, whose bit pattern is `0` — a single
//! varint byte. Encoders and decoders speak only v2: any other header,
//! including the retired weightless `"SSDFS\0v1"` framing, is a
//! [`DecodeError::BadMagic`] (a v1 fleet is regenerated from its seed).
//!
//! There are no per-drive length prefixes or sync markers: records are
//! self-delimiting, so the archive can only be read front to back — which
//! is exactly the shape streaming consumption needs.
//!
//! ## Streaming
//!
//! Multi-GB archives never have to be resident:
//!
//! * [`TraceDecoder`] pulls drives one at a time from any [`Read`] source
//!   through one fixed-size refill buffer. [`next_drive_into`] clears and
//!   refills one caller-owned [`DriveLog`], whose report/swap `Vec`
//!   capacities survive between drives, so a full pass allocates one
//!   drive's worth of buffers in total.
//! * [`TraceEncoder`] is generic over a [`Write`] sink: each appended
//!   drive is serialized into an internal scratch buffer (reused between
//!   drives) and flushed to the sink, so peak memory is one drive record
//!   regardless of archive size.
//!
//! The resident entry points [`encode_trace`]/[`decode_trace`] are thin
//! wrappers over the same core and remain byte-compatible with archives
//! produced before the streaming redesign.
//!
//! ## Decode fast path
//!
//! Daily reports are almost all of an archive's bytes. When at least
//! `MAX_REPORT_BYTES` (the longest report the decoder can consume) are
//! already buffered, a report is decoded straight from that slice with
//! plain index arithmetic and the source advances once. Any failure there
//! — a truncated window, an overflowing varint, a u32 field out of range
//! — consumes nothing, and the same report is re-decoded through the
//! byte-at-a-time path, as are reports that straddle a refill or sit in
//! the archive tail. Every [`DecodeError`] and its offset therefore come
//! from the byte path alone. The unit test
//! `fast_and_byte_paths_agree_at_every_buffer_capacity` pins the
//! agreement on mutated and truncated archives.
//!
//! ## Example
//!
//! Encode two drives into an in-memory archive, then stream them back one
//! at a time through a reusable `DriveLog` buffer:
//!
//! ```
//! use ssd_types::codec::{TraceDecoder, TraceEncoder};
//! use ssd_types::{DailyReport, DriveId, DriveLog, DriveModel};
//!
//! let mut enc = TraceEncoder::to_sink(Vec::new(), 30, 2).unwrap();
//! for id in 0..2u32 {
//!     let mut drive = DriveLog::new(DriveId(id), DriveModel::MlcA);
//!     drive.reports.push(DailyReport::empty(3));
//!     enc.append_drive(&drive).unwrap();
//! }
//! let bytes = enc.finish_sink().unwrap();
//!
//! let mut dec = TraceDecoder::new(&bytes[..]).unwrap();
//! assert_eq!(dec.horizon_days(), 30);
//! let mut log = DriveLog::new(DriveId(0), DriveModel::MlcA);
//! let mut drives = 0;
//! while dec.next_drive_into(&mut log).unwrap() {
//!     assert_eq!(log.reports.len(), 1);
//!     drives += 1;
//! }
//! assert_eq!(drives, 2);
//! ```
//!
//! [`next_drive_into`]: TraceDecoder::next_drive_into

use crate::{
    DailyReport, DriveId, DriveLog, DriveModel, ErrorCounts, ErrorKind, FleetTrace, SwapEvent,
};
use std::io::{Read, Write};

/// Magic bytes + format version prefix: the only version written or read.
const MAGIC: &[u8; 8] = b"SSDFS\0v2";

/// Bit set in the report flags byte when the drive failed (`status_dead`).
const STATUS_DEAD: u8 = 1;

/// Bit set in the report flags byte when the drive latched read-only mode.
const STATUS_READ_ONLY: u8 = 1 << 1;

/// Default refill-buffer capacity for streaming decode (64 KiB).
const STREAM_BUF_BYTES: usize = 64 * 1024;

/// Errors arising during decode.
///
/// Every variant (except a short/garbled header) carries the absolute byte
/// offset into the archive at which decoding failed, so a corrupt
/// multi-GB archive reports *where* it broke, not just that it did.
///
/// The enum is `#[non_exhaustive]`: match with a wildcard arm so future
/// decoders can add failure modes without breaking downstream crates.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The input did not begin with the expected magic/version header.
    BadMagic {
        /// The header bytes actually read (shorter than the magic if the
        /// input ended early).
        got: Vec<u8>,
    },
    /// The input ended before a complete value was read.
    UnexpectedEof {
        /// Byte offset at which more input was expected.
        offset: u64,
    },
    /// A varint exceeded the width of its target type.
    VarintOverflow {
        /// For a u64 field, the byte offset at which the varint passed 64
        /// bits (its last byte read). For a u32 field — drive id, age,
        /// P/E cycles, bad-block counts, swap days, the header horizon —
        /// whose varint decodes but exceeds `u32::MAX`, the offset of the
        /// varint's *first* byte.
        offset: u64,
    },
    /// An enum discriminant was out of range.
    BadDiscriminant {
        /// Byte offset of the offending byte.
        offset: u64,
        /// What was being decoded (e.g. `"drive model"`).
        expected: &'static str,
        /// The out-of-range value found.
        got: u8,
    },
    /// The underlying [`Read`] source failed (streaming decode only).
    Io {
        /// Byte offset at which the read failed.
        offset: u64,
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// The I/O error message.
        message: String,
    },
}

impl DecodeError {
    /// The archive byte offset the error is anchored at, if any
    /// (`BadMagic` has none — the whole header is implicated).
    pub fn offset(&self) -> Option<u64> {
        match self {
            DecodeError::BadMagic { .. } => None,
            DecodeError::UnexpectedEof { offset }
            | DecodeError::VarintOverflow { offset }
            | DecodeError::BadDiscriminant { offset, .. }
            | DecodeError::Io { offset, .. } => Some(*offset),
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic { got } => {
                write!(f, "bad magic/version header: expected {MAGIC:?}, got {got:?}")
            }
            DecodeError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
            DecodeError::VarintOverflow { offset } => {
                write!(f, "varint overflow at byte {offset}")
            }
            DecodeError::BadDiscriminant {
                offset,
                expected,
                got,
            } => write!(f, "bad {expected} discriminant {got} at byte {offset}"),
            DecodeError::Io {
                offset,
                kind,
                message,
            } => write!(f, "io error ({kind:?}) at byte {offset}: {message}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Byte source abstraction shared by the in-memory and streaming decode
/// paths: a fallible byte iterator that knows its absolute offset.
trait Src {
    /// Next byte, or `UnexpectedEof`/`Io` anchored at the current offset.
    fn next_u8(&mut self) -> Result<u8, DecodeError>;

    /// Absolute offset of the next unread byte.
    fn offset(&self) -> u64;

    /// The unread bytes already in memory (never refills).
    fn buffered(&self) -> &[u8];

    /// Skips `n` bytes of [`buffered`](Src::buffered).
    fn consume(&mut self, n: usize);
}

/// Borrowing read cursor over a fully-resident encoded buffer.
struct SliceSrc<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceSrc<'a> {
    fn new(buf: &'a [u8]) -> Self {
        SliceSrc { buf, pos: 0 }
    }
}

impl Src for SliceSrc<'_> {
    #[inline]
    fn next_u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::UnexpectedEof {
            offset: self.pos as u64,
        })?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn offset(&self) -> u64 {
        self.pos as u64
    }

    #[inline]
    fn buffered(&self) -> &[u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    #[inline]
    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.buf.len());
    }
}

/// Buffered byte source over an arbitrary [`Read`]er. Holds one fixed
/// refill buffer; never buffers more than `buf.len()` bytes at a time.
#[derive(Debug)]
struct StreamSrc<R> {
    reader: R,
    buf: Box<[u8]>,
    pos: usize,
    len: usize,
    /// Absolute offset of `buf[0]` within the archive.
    base: u64,
}

impl<R: Read> StreamSrc<R> {
    fn new(reader: R, capacity: usize) -> Self {
        StreamSrc {
            reader,
            buf: vec![0u8; capacity.max(16)].into_boxed_slice(),
            pos: 0,
            len: 0,
            base: 0,
        }
    }

    /// Refills the buffer from the reader. `self.len == 0` afterwards
    /// means clean EOF.
    fn refill(&mut self) -> Result<(), DecodeError> {
        self.base += self.len as u64;
        self.pos = 0;
        self.len = 0;
        loop {
            match self.reader.read(&mut self.buf) {
                Ok(n) => {
                    self.len = n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(DecodeError::Io {
                        offset: self.base,
                        kind: e.kind(),
                        message: e.to_string(),
                    })
                }
            }
        }
    }
}

impl<R: Read> Src for StreamSrc<R> {
    #[inline]
    fn next_u8(&mut self) -> Result<u8, DecodeError> {
        if self.pos == self.len {
            self.refill()?;
            if self.len == 0 {
                return Err(DecodeError::UnexpectedEof { offset: self.base });
            }
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    #[inline]
    fn buffered(&self) -> &[u8] {
        self.buf.get(self.pos..self.len).unwrap_or_default()
    }

    #[inline]
    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.len);
    }
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint<S: Src>(src: &mut S) -> Result<u64, DecodeError> {
    let mut out: u64 = 0;
    let mut shift = 0u32;
    loop {
        let at = src.offset();
        let byte = src.next_u8()?;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(DecodeError::VarintOverflow { offset: at });
        }
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

fn get_varint_u32<S: Src>(src: &mut S) -> Result<u32, DecodeError> {
    let at = src.offset();
    let v = get_varint(src)?;
    u32::try_from(v).map_err(|_| DecodeError::VarintOverflow { offset: at })
}

/// Reads and checks the magic/version header. A source that ends before
/// the full magic is a `BadMagic` (there is no archive here at all), not
/// an `UnexpectedEof`.
fn expect_magic<S: Src>(src: &mut S) -> Result<(), DecodeError> {
    let mut got = Vec::with_capacity(MAGIC.len());
    for _ in 0..MAGIC.len() {
        match src.next_u8() {
            Ok(b) => got.push(b),
            Err(DecodeError::UnexpectedEof { .. }) => {
                return Err(DecodeError::BadMagic { got })
            }
            Err(e) => return Err(e),
        }
    }
    if got == MAGIC {
        Ok(())
    } else {
        Err(DecodeError::BadMagic { got })
    }
}

fn encode_report(buf: &mut Vec<u8>, r: &DailyReport) {
    put_varint(buf, u64::from(r.age_days));
    put_varint(buf, r.read_ops);
    put_varint(buf, r.write_ops);
    put_varint(buf, r.erase_ops);
    put_varint(buf, u64::from(r.pe_cycles));
    buf.push(
        (u8::from(r.status_dead) * STATUS_DEAD) | (u8::from(r.status_read_only) * STATUS_READ_ONLY),
    );
    put_varint(buf, u64::from(r.factory_bad_blocks));
    put_varint(buf, u64::from(r.grown_bad_blocks));
    for (_, c) in r.errors.iter() {
        put_varint(buf, c);
    }
}

/// Varints in one report: age, read, write, erase, P/E, the two
/// bad-block counts and one per [`ErrorKind`].
const REPORT_VARINTS: usize = 7 + ErrorKind::COUNT;

/// Longest report the decoder can consume: every varint at its 10-byte
/// limit (a longer one overflows) plus the flags byte. With this many
/// bytes buffered a report never runs past the window.
const MAX_REPORT_BYTES: usize = REPORT_VARINTS * 10 + 1;

fn decode_report<S: Src>(src: &mut S) -> Result<DailyReport, DecodeError> {
    if let Some(window) = src.buffered().first_chunk::<MAX_REPORT_BYTES>() {
        if let Some((report, used)) = decode_report_buffered(window) {
            src.consume(used);
            return Ok(report);
        }
    }
    decode_report_checked(src)
}

/// One varint from `buf` at `*at`, advancing `*at`. Same overflow rule as
/// [`get_varint`]; `None` on overflow or when `buf` runs out.
#[inline(always)]
fn slice_varint(buf: &[u8], at: &mut usize) -> Option<u64> {
    let mut out: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*at)?;
        *at += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return None;
        }
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(out);
        }
        shift += 7;
    }
}

#[inline(always)]
fn slice_varint_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    u32::try_from(slice_varint(buf, at)?).ok()
}

/// Decodes one report from a buffered window, returning it with the bytes
/// it used, or `None` where [`decode_report_checked`] would fail. The
/// caller consumes nothing on `None`, so the byte path re-decodes the
/// report from the same position and reports the typed error.
#[inline]
fn decode_report_buffered(buf: &[u8; MAX_REPORT_BYTES]) -> Option<(DailyReport, usize)> {
    let mut at = 0usize;
    let age_days = slice_varint_u32(buf, &mut at)?;
    let read_ops = slice_varint(buf, &mut at)?;
    let write_ops = slice_varint(buf, &mut at)?;
    let erase_ops = slice_varint(buf, &mut at)?;
    let pe_cycles = slice_varint_u32(buf, &mut at)?;
    let flags = *buf.get(at)?;
    at += 1;
    let factory_bad_blocks = slice_varint_u32(buf, &mut at)?;
    let grown_bad_blocks = slice_varint_u32(buf, &mut at)?;
    let mut errors = ErrorCounts::zero();
    for kind in ErrorKind::ALL {
        errors.set(kind, slice_varint(buf, &mut at)?);
    }
    let report = DailyReport {
        age_days,
        read_ops,
        write_ops,
        erase_ops,
        pe_cycles,
        status_dead: flags & STATUS_DEAD != 0,
        status_read_only: flags & STATUS_READ_ONLY != 0,
        factory_bad_blocks,
        grown_bad_blocks,
        errors,
    };
    Some((report, at))
}

/// The byte-at-a-time report decoder: the reference for every value,
/// error variant and offset.
fn decode_report_checked<S: Src>(src: &mut S) -> Result<DailyReport, DecodeError> {
    let age_days = get_varint_u32(src)?;
    let read_ops = get_varint(src)?;
    let write_ops = get_varint(src)?;
    let erase_ops = get_varint(src)?;
    let pe_cycles = get_varint_u32(src)?;
    let flags = src.next_u8()?;
    let factory_bad_blocks = get_varint_u32(src)?;
    let grown_bad_blocks = get_varint_u32(src)?;
    let mut errors = ErrorCounts::zero();
    for kind in ErrorKind::ALL {
        errors.set(kind, get_varint(src)?);
    }
    Ok(DailyReport {
        age_days,
        read_ops,
        write_ops,
        erase_ops,
        pe_cycles,
        status_dead: flags & 1 != 0,
        status_read_only: flags & 2 != 0,
        factory_bad_blocks,
        grown_bad_blocks,
        errors,
    })
}

fn encode_swaps(buf: &mut Vec<u8>, swaps: &[SwapEvent]) {
    put_varint(buf, swaps.len() as u64);
    for s in swaps {
        put_varint(buf, u64::from(s.swap_day));
        match s.reentry_day {
            Some(day) => {
                buf.push(1);
                put_varint(buf, u64::from(day));
            }
            None => buf.push(0),
        }
    }
}

/// Appends one drive record (the `drive` production of the wire framing)
/// to `buf`. Records concatenated in ascending id order after a header
/// form an archive; [`TraceEncoder::append_encoded`] takes such bytes.
pub fn encode_drive(buf: &mut Vec<u8>, d: &DriveLog) {
    put_varint(buf, u64::from(d.id.0));
    buf.push(d.model.index() as u8);
    put_varint(buf, d.log_weight.to_bits());
    put_varint(buf, d.reports.len() as u64);
    for r in &d.reports {
        encode_report(buf, r);
    }
    encode_swaps(buf, &d.swaps);
}

fn decode_model<S: Src>(src: &mut S) -> Result<DriveModel, DecodeError> {
    let at = src.offset();
    let model_idx = src.next_u8()?;
    if usize::from(model_idx) >= DriveModel::ALL.len() {
        return Err(DecodeError::BadDiscriminant {
            offset: at,
            expected: "drive model",
            got: model_idx,
        });
    }
    Ok(DriveModel::from_index(usize::from(model_idx)))
}

fn decode_swaps_into<S: Src>(src: &mut S, swaps: &mut Vec<SwapEvent>) -> Result<(), DecodeError> {
    let n_swaps = get_varint(src)? as usize;
    swaps.reserve(n_swaps.min(1 << 10));
    for _ in 0..n_swaps {
        let swap_day = get_varint_u32(src)?;
        let at = src.offset();
        let reentry_day = match src.next_u8()? {
            0 => None,
            1 => Some(get_varint_u32(src)?),
            d => {
                return Err(DecodeError::BadDiscriminant {
                    offset: at,
                    expected: "swap re-entry tag",
                    got: d,
                })
            }
        };
        swaps.push(SwapEvent {
            swap_day,
            reentry_day,
        });
    }
    Ok(())
}

/// Decodes one drive record into `log`, reusing its report/swap buffer
/// capacity. On error the log's contents are unspecified.
fn decode_drive_into<S: Src>(src: &mut S, log: &mut DriveLog) -> Result<(), DecodeError> {
    log.reports.clear();
    log.swaps.clear();
    log.id = DriveId(get_varint_u32(src)?);
    log.model = decode_model(src)?;
    log.log_weight = f64::from_bits(get_varint(src)?);
    let n_reports = get_varint(src)? as usize;
    log.reports.reserve(n_reports.min(1 << 20));
    for _ in 0..n_reports {
        log.reports.push(decode_report(src)?);
    }
    decode_swaps_into(src, &mut log.swaps)
}

/// Streaming archive reader: pulls drives one at a time from any
/// [`Read`] source at constant memory.
///
/// The header (magic, horizon, declared drive count) is read eagerly by
/// [`new`](TraceDecoder::new); drives are then decoded on demand:
///
/// * [`next_drive_into`](TraceDecoder::next_drive_into) — fold-style
///   consumption reusing one caller-owned [`DriveLog`]; the decoder's
///   buffer-reuse contract means a full pass over a multi-GB archive
///   allocates only one drive's worth of reports at a time.
/// * The [`Iterator`] impl yields owned `Result<DriveLog, DecodeError>`
///   for convenience when allocation per drive is acceptable.
///
/// Exactly the declared number of drives is decoded; trailing bytes after
/// the last drive are ignored, matching [`decode_trace`]. A source that
/// ends mid-record yields a [`DecodeError::UnexpectedEof`] carrying the
/// byte offset of the break.
#[derive(Debug)]
pub struct TraceDecoder<R> {
    src: StreamSrc<R>,
    horizon_days: u32,
    n_drives: u64,
    decoded: u64,
}

impl<R: Read> TraceDecoder<R> {
    /// Opens an archive stream, reading and validating the header.
    pub fn new(reader: R) -> Result<Self, DecodeError> {
        TraceDecoder::with_buffer_capacity(reader, STREAM_BUF_BYTES)
    }

    /// Like [`new`](TraceDecoder::new) with an explicit refill-buffer
    /// capacity in bytes (the decoder's only size-dependent allocation).
    pub fn with_buffer_capacity(reader: R, capacity: usize) -> Result<Self, DecodeError> {
        let mut src = StreamSrc::new(reader, capacity);
        expect_magic(&mut src)?;
        let horizon_days = get_varint_u32(&mut src)?;
        let n_drives = get_varint(&mut src)?;
        Ok(TraceDecoder {
            src,
            horizon_days,
            n_drives,
            decoded: 0,
        })
    }

    /// Observation-window length from the archive header.
    pub fn horizon_days(&self) -> u32 {
        self.horizon_days
    }

    /// Number of drives the header declares.
    pub fn n_drives(&self) -> u64 {
        self.n_drives
    }

    /// Number of drives decoded so far. Test-only introspection.
    #[cfg(test)]
    pub fn drives_decoded(&self) -> u64 {
        self.decoded
    }

    /// Absolute byte offset of the next unread archive byte. Test-only
    /// introspection.
    #[cfg(test)]
    pub fn byte_offset(&self) -> u64 {
        self.src.offset()
    }

    /// Decodes the next drive into `log`, reusing its buffers. Returns
    /// `Ok(false)` once all declared drives have been decoded (leaving
    /// `log` untouched).
    pub fn next_drive_into(&mut self, log: &mut DriveLog) -> Result<bool, DecodeError> {
        if self.decoded >= self.n_drives {
            return Ok(false);
        }
        decode_drive_into(&mut self.src, log)?;
        self.decoded += 1;
        Ok(true)
    }

    /// Folds `f` over every remaining drive with one reused scratch
    /// [`DriveLog`] — the constant-memory way to run a per-drive analysis
    /// over an arbitrarily large archive.
    pub fn for_each_drive(
        &mut self,
        mut f: impl FnMut(&DriveLog),
    ) -> Result<(), DecodeError> {
        let mut scratch = DriveLog::new(DriveId(0), DriveModel::from_index(0));
        while self.next_drive_into(&mut scratch)? {
            f(&scratch);
        }
        Ok(())
    }
}

impl<R: Read> Iterator for TraceDecoder<R> {
    type Item = Result<DriveLog, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut log = DriveLog::new(DriveId(0), DriveModel::from_index(0));
        match self.next_drive_into(&mut log) {
            Ok(true) => Some(Ok(log)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = usize::try_from(self.n_drives - self.decoded).unwrap_or(usize::MAX);
        (0, Some(remaining))
    }
}

/// Incremental archive writer over any [`Write`] sink: emits the trace
/// header up front, then appends drive records one at a time. Each drive
/// is serialized into an internal scratch buffer (reused between drives)
/// and flushed to the sink immediately, so peak memory is one drive
/// record regardless of archive size — the simulator's `FleetGen` builder
/// streams paper-scale archives straight to disk through this type.
///
/// The drive count is part of the header, so it must be declared at
/// construction; [`finish_sink`](TraceEncoder::finish_sink) fails if the
/// number of appended drives disagrees, which turns a silently-corrupt
/// archive into a loud failure. Drives may arrive as owned logs
/// ([`append_drive`]) or as records pre-encoded by [`encode_drive`] in
/// parallel workers ([`append_encoded`]), as long as they are appended in
/// ascending id order (the decoder does not sort).
///
/// [`append_drive`]: TraceEncoder::append_drive
/// [`append_encoded`]: TraceEncoder::append_encoded
#[derive(Debug)]
pub struct TraceEncoder<W: Write> {
    sink: W,
    scratch: Vec<u8>,
    declared: u64,
    appended: u64,
    bytes_written: u64,
}

impl<W: Write> TraceEncoder<W> {
    /// Starts an archive for `n_drives` drives over `horizon_days`,
    /// writing the header to `sink` immediately.
    ///
    /// `W: Write` is implemented for `&mut W` too, so callers that need
    /// their sink back afterwards can pass `&mut sink` and ignore
    /// [`finish_sink`](TraceEncoder::finish_sink)'s return value.
    pub fn to_sink(sink: W, horizon_days: u32, n_drives: u64) -> std::io::Result<Self> {
        let mut enc = TraceEncoder {
            sink,
            scratch: Vec::with_capacity(64),
            declared: n_drives,
            appended: 0,
            bytes_written: 0,
        };
        enc.scratch.extend_from_slice(MAGIC);
        put_varint(&mut enc.scratch, u64::from(horizon_days));
        put_varint(&mut enc.scratch, n_drives);
        enc.flush_scratch()?;
        Ok(enc)
    }

    fn flush_scratch(&mut self) -> std::io::Result<()> {
        self.sink.write_all(&self.scratch)?;
        self.bytes_written += self.scratch.len() as u64;
        self.scratch.clear();
        Ok(())
    }

    /// Appends one drive from an owned log.
    pub fn append_drive(&mut self, d: &DriveLog) -> std::io::Result<()> {
        encode_drive(&mut self.scratch, d);
        self.appended += 1;
        self.flush_scratch()
    }

    /// Appends `n_drives` drive records already encoded by this module
    /// (e.g. a chunk produced by a parallel worker), written straight
    /// through to the sink.
    pub fn append_encoded(&mut self, n_drives: u64, bytes: &[u8]) -> std::io::Result<()> {
        self.sink.write_all(bytes)?;
        self.bytes_written += bytes.len() as u64;
        self.appended += n_drives;
        Ok(())
    }

    /// Number of drives appended so far. Test-only introspection.
    #[cfg(test)]
    pub fn appended_drives(&self) -> u64 {
        self.appended
    }

    /// Total bytes written to the sink so far (header included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Finalizes the archive: verifies the appended drive count matches
    /// the declared header count, flushes, and returns the sink.
    ///
    /// A count mismatch yields [`std::io::ErrorKind::InvalidData`] — the
    /// header would not match the body, so the archive on the sink is not
    /// decodable to completion.
    pub fn finish_sink(mut self) -> std::io::Result<W> {
        if self.appended != self.declared {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "TraceEncoder: declared {} drives but appended {}",
                    self.declared, self.appended
                ),
            ));
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Encodes a fleet trace into the compact binary format.
pub fn encode_trace(trace: &FleetTrace) -> Vec<u8> {
    // Rough pre-size: ~40 bytes per report avoids repeated reallocation.
    let mut out = Vec::with_capacity(64 + trace.total_drive_days() * 40);
    #[expect(clippy::expect_used, reason = "io::Write into a Vec<u8> is infallible")]
    encode_trace_to(trace, &mut out).expect("Vec sink cannot fail");
    out
}

/// Streams a fleet trace into any [`Write`] sink, returning the number of
/// bytes written. The bytes are identical to [`encode_trace`]'s.
pub fn encode_trace_to<W: Write>(trace: &FleetTrace, sink: W) -> std::io::Result<u64> {
    let mut enc = TraceEncoder::to_sink(sink, trace.horizon_days, trace.drives.len() as u64)?;
    for d in &trace.drives {
        enc.append_drive(d)?;
    }
    let written = enc.bytes_written();
    enc.finish_sink()?;
    Ok(written)
}

/// Decodes a fleet trace previously produced by [`encode_trace`] (or any
/// [`TraceEncoder`]) from a fully-resident buffer. For constant-memory
/// consumption of large archives use [`TraceDecoder`] instead.
pub fn decode_trace(buf: &[u8]) -> Result<FleetTrace, DecodeError> {
    let mut src = SliceSrc::new(buf);
    expect_magic(&mut src)?;
    let horizon_days = get_varint_u32(&mut src)?;
    let n_drives = get_varint(&mut src)? as usize;
    let mut drives = Vec::with_capacity(n_drives.min(1 << 22));
    for _ in 0..n_drives {
        let mut log = DriveLog::new(DriveId(0), DriveModel::from_index(0));
        decode_drive_into(&mut src, &mut log)?;
        drives.push(log);
    }
    Ok(FleetTrace {
        horizon_days,
        drives,
    })
}

/// Serializes a trace to a compact JSON string (interchange / inspection).
pub fn trace_to_json(trace: &FleetTrace) -> Result<String, crate::json::JsonError> {
    Ok(crate::json::to_string(trace))
}

/// Deserializes a trace from JSON.
pub fn trace_from_json(s: &str) -> Result<FleetTrace, crate::json::JsonError> {
    crate::json::from_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> FleetTrace {
        let mut t = FleetTrace::new(2190);
        for i in 0..3u32 {
            let mut d = DriveLog::new(DriveId(i), DriveModel::from_index(i as usize));
            for day in 0..5u32 {
                let mut r = DailyReport::empty(day * 2);
                r.read_ops = u64::from(day) * 1000 + u64::from(i);
                r.write_ops = u64::from(day) * 500;
                r.erase_ops = u64::from(day) * 3;
                r.pe_cycles = day * 7;
                r.status_read_only = day == 4;
                r.grown_bad_blocks = day;
                r.errors.set(ErrorKind::Correctable, u64::from(day) * 12345);
                r.errors.set(ErrorKind::Uncorrectable, u64::from(day % 2));
                d.reports.push(r);
            }
            if i == 1 {
                d.swaps.push(SwapEvent {
                    swap_day: 11,
                    reentry_day: Some(60),
                });
                d.swaps.push(SwapEvent {
                    swap_day: 90,
                    reentry_day: None,
                });
            }
            // Mixed weights so every roundtrip exercises the v2 column.
            d.log_weight = f64::from(i) * -0.35;
            t.drives.push(d);
        }
        t
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let t = sample_trace();
        let bytes = encode_trace(&t);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let t = sample_trace();
        let s = trace_to_json(&t).unwrap();
        let back = trace_from_json(&s).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let t = sample_trace();
        let bin = encode_trace(&t).len();
        let json = trace_to_json(&t).unwrap().len();
        assert!(bin * 3 < json, "binary {bin} vs json {json}");
    }

    #[test]
    fn bad_magic_is_rejected_with_got_bytes() {
        let err = decode_trace(b"NOTMAGIC!!").unwrap_err();
        assert_eq!(
            err,
            DecodeError::BadMagic {
                got: b"NOTMAGIC".to_vec()
            }
        );
        assert_eq!(err.offset(), None);
        // A buffer shorter than the magic is also BadMagic, not EOF.
        let err = decode_trace(b"SSD").unwrap_err();
        assert_eq!(err, DecodeError::BadMagic { got: b"SSD".to_vec() });
    }

    #[test]
    fn truncated_buffer_is_rejected_with_offset() {
        let t = sample_trace();
        let bytes = encode_trace(&t);
        let cut = &bytes[..bytes.len() - 5];
        let err = decode_trace(cut).unwrap_err();
        match err {
            DecodeError::UnexpectedEof { offset } => {
                assert_eq!(offset, cut.len() as u64, "EOF offset points at the break");
            }
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut b = SliceSrc::new(&buf);
            assert_eq!(get_varint(&mut b).unwrap(), v);
        }
    }

    #[test]
    fn varint_overflow_is_detected() {
        let mut b = SliceSrc::new(&[0xff; 11]);
        // Overflow is detected at the 10th byte (shift 63, byte > 1).
        assert_eq!(get_varint(&mut b), Err(DecodeError::VarintOverflow { offset: 9 }));
    }

    #[test]
    fn decode_error_display_includes_context() {
        let e = DecodeError::BadDiscriminant {
            offset: 42,
            expected: "drive model",
            got: 7,
        };
        let s = e.to_string();
        assert!(s.contains("drive model") && s.contains('7') && s.contains("42"), "{s}");
        assert_eq!(e.offset(), Some(42));
        let s = DecodeError::BadMagic { got: b"oops".to_vec() }.to_string();
        assert!(s.contains("expected"), "{s}");
    }

    #[test]
    fn trace_encoder_assembles_identical_archive() {
        let t = sample_trace();
        let expected = encode_trace(&t);

        // Mixed append paths: owned log, then pre-encoded bytes.
        let mut enc =
            TraceEncoder::to_sink(Vec::new(), t.horizon_days, t.drives.len() as u64).unwrap();
        enc.append_drive(&t.drives[0]).unwrap();
        let mut chunk = Vec::new();
        for d in &t.drives[1..] {
            encode_drive(&mut chunk, d);
        }
        enc.append_encoded(t.drives.len() as u64 - 1, &chunk)
            .unwrap();
        assert_eq!(enc.finish_sink().unwrap(), expected);
    }

    #[test]
    fn generic_encoder_rejects_count_mismatch_as_io_error() {
        let t = sample_trace();
        let mut enc = TraceEncoder::to_sink(std::io::sink(), t.horizon_days, 3).unwrap();
        enc.append_drive(&t.drives[0]).unwrap();
        let err = enc.finish_sink().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn status_flag_masks_match_decoder() {
        let mut r = DailyReport::empty(3);
        r.status_dead = true;
        let mut buf = Vec::new();
        encode_report(&mut buf, &r);
        let back = decode_report(&mut SliceSrc::new(&buf)).unwrap();
        assert!(back.status_dead && !back.status_read_only);

        r.status_dead = false;
        r.status_read_only = true;
        buf.clear();
        encode_report(&mut buf, &r);
        let back = decode_report(&mut SliceSrc::new(&buf)).unwrap();
        assert!(!back.status_dead && back.status_read_only);
    }

    // ---- streaming paths ----

    /// A reader that hands out at most `max` bytes per read call,
    /// exercising refill boundaries in the streaming decoder.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        max: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = (self.data.len() - self.pos).min(self.max).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn stream_decoder_matches_resident_decode() {
        let t = sample_trace();
        let bytes = encode_trace(&t);
        for max in [1usize, 3, 64, bytes.len()] {
            let reader = Trickle { data: &bytes, pos: 0, max };
            let mut dec = TraceDecoder::with_buffer_capacity(reader, 32).unwrap();
            assert_eq!(dec.horizon_days(), t.horizon_days);
            assert_eq!(dec.n_drives(), t.drives.len() as u64);
            let drives: Vec<DriveLog> =
                (&mut dec).map(|d| d.expect("stream decode")).collect();
            assert_eq!(drives, t.drives, "per-read budget {max}");
            assert_eq!(dec.drives_decoded(), t.drives.len() as u64);
            assert_eq!(dec.byte_offset(), bytes.len() as u64);
        }
    }

    #[test]
    fn stream_decoder_reuses_buffers_in_fold() {
        let t = sample_trace();
        let bytes = encode_trace(&t);
        let mut dec = TraceDecoder::new(&bytes[..]).unwrap();
        let mut seen = Vec::new();
        dec.for_each_drive(|d| seen.push(d.clone())).unwrap();
        assert_eq!(seen, t.drives);
    }

    #[test]
    fn stream_decoder_reports_truncation_offset() {
        let t = sample_trace();
        let bytes = encode_trace(&t);
        let cut = &bytes[..bytes.len() - 5];
        let mut dec = TraceDecoder::new(cut).unwrap();
        let err = dec.find_map(|r| r.err()).expect("truncation must error");
        assert_eq!(err, DecodeError::UnexpectedEof { offset: cut.len() as u64 });
    }

    #[test]
    fn stream_decoder_rejects_bad_magic_and_short_input() {
        let err = TraceDecoder::new(&b"NOTMAGIC!!"[..]).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic { .. }));
        let err = TraceDecoder::new(&b"SS"[..]).unwrap_err();
        assert_eq!(err, DecodeError::BadMagic { got: b"SS".to_vec() });
    }

    #[test]
    fn stream_decoder_surfaces_io_errors_with_offset() {
        struct FailAfter {
            data: Vec<u8>,
            pos: usize,
        }
        impl Read for FailAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::BrokenPipe,
                        "synthetic failure",
                    ));
                }
                let n = (self.data.len() - self.pos).min(buf.len()).min(7);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let t = sample_trace();
        let bytes = encode_trace(&t);
        let half = bytes.len() / 2;
        let reader = FailAfter { data: bytes[..half].to_vec(), pos: 0 };
        let mut dec = TraceDecoder::with_buffer_capacity(reader, 16).unwrap();
        let err = dec.find_map(|r| r.err()).expect("io failure must surface");
        match err {
            DecodeError::Io { offset, kind, .. } => {
                assert_eq!(kind, std::io::ErrorKind::BrokenPipe);
                assert_eq!(offset, half as u64);
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn stream_encoder_is_byte_identical_to_resident() {
        let t = sample_trace();
        let expected = encode_trace(&t);
        let mut out = Vec::new();
        let written = encode_trace_to(&t, &mut out).unwrap();
        assert_eq!(out, expected);
        assert_eq!(written, expected.len() as u64);
    }

    #[test]
    fn encoder_tracks_bytes_and_drives() {
        let t = sample_trace();
        let mut enc =
            TraceEncoder::to_sink(std::io::sink(), t.horizon_days, t.drives.len() as u64)
                .unwrap();
        for d in &t.drives {
            enc.append_drive(d).unwrap();
        }
        assert_eq!(enc.appended_drives(), t.drives.len() as u64);
        assert_eq!(enc.bytes_written(), encode_trace(&t).len() as u64);
        enc.finish_sink().unwrap();
    }

    #[test]
    fn retired_v1_header_is_a_typed_bad_magic() {
        // The weightless v1 framing has no producer left: its header is
        // rejected like any other foreign prefix, on both decode paths.
        let mut v1 = encode_trace(&sample_trace());
        v1[..MAGIC.len()].copy_from_slice(b"SSDFS\0v1");
        let expected = DecodeError::BadMagic {
            got: b"SSDFS\0v1".to_vec(),
        };
        assert_eq!(decode_trace(&v1).unwrap_err(), expected);
        assert_eq!(TraceDecoder::new(&v1[..]).unwrap_err(), expected);
    }

    #[test]
    fn mutated_weighted_archives_never_panic() {
        // Decode fuzz over the weighted v2 framing: truncations at every
        // prefix length and deterministic byte flips must yield Ok or a
        // typed DecodeError — never a panic.
        let t = sample_trace();
        let mut s = 0x243f6a8885a308d3u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let archive = encode_trace(&t);
        for cut in 0..archive.len() {
            let _ = decode_trace(&archive[..cut]);
        }
        for _ in 0..256 {
            let mut bytes = archive.clone();
            for _ in 0..(next() % 4 + 1) {
                let at = (next() % bytes.len() as u64) as usize;
                bytes[at] ^= (next() as u8) | 1;
            }
            if let Ok(back) = decode_trace(&bytes) {
                // Whatever decoded must also survive a re-encode.
                let _ = encode_trace(&back);
            }
        }
    }

    #[test]
    fn weight_column_roundtrips_arbitrary_bit_patterns() {
        // Deterministic xorshift so the fuzz corpus is stable.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut t = FleetTrace::new(100);
        for i in 0..64u32 {
            let mut d = DriveLog::new(DriveId(i), DriveModel::from_index((i % 3) as usize));
            d.reports.push(DailyReport::empty(i));
            // Arbitrary bit patterns: subnormals, negatives, huge values —
            // the codec must preserve bits exactly (NaNs excluded only
            // because PartialEq can't compare them; bits are asserted).
            d.log_weight = f64::from_bits(next());
            if d.log_weight.is_nan() {
                d.log_weight = -f64::from_bits(next() >> 12);
            }
            t.drives.push(d);
        }
        let bytes = encode_trace(&t);
        let back = decode_trace(&bytes).unwrap();
        for (a, b) in back.drives.iter().zip(&t.drives) {
            assert_eq!(a.log_weight.to_bits(), b.log_weight.to_bits());
        }
    }

    // ---- fast path vs byte path ----

    /// Refill-buffer capacities: tiny, around the fast-path window
    /// (`MAX_REPORT_BYTES` = 171), around one 10-byte varint past it, and
    /// large up to the default.
    const CAPACITIES: [usize; 9] = [16, 170, 171, 172, 180, 181, 182, 4096, 65_536];

    fn stream_decode(bytes: &[u8], capacity: usize, max: usize) -> Result<FleetTrace, DecodeError> {
        let reader = Trickle {
            data: bytes,
            pos: 0,
            max,
        };
        let mut dec = TraceDecoder::with_buffer_capacity(reader, capacity)?;
        let horizon_days = dec.horizon_days();
        let drives = (&mut dec).collect::<Result<Vec<_>, _>>()?;
        Ok(FleetTrace {
            horizon_days,
            drives,
        })
    }

    /// Decodes `bytes` resident and streamed at every capacity, with
    /// full-buffer reads (fast path engaged) and 7-byte reads (never
    /// engaged), asserting identical results; returns the resident one.
    /// Traces compare by re-encoded bytes, so weights compare bitwise.
    fn decode_everywhere(bytes: &[u8]) -> Result<FleetTrace, DecodeError> {
        let resident = decode_trace(bytes);
        let want = resident.as_ref().map(encode_trace);
        for capacity in CAPACITIES {
            for max in [capacity, 7] {
                let streamed = stream_decode(bytes, capacity, max);
                assert_eq!(
                    streamed.as_ref().map(encode_trace),
                    want,
                    "capacity {capacity}, per-read budget {max}"
                );
            }
        }
        resident
    }

    /// A value whose varint is 1 to 10 bytes long.
    fn arb_width(g: &mut ssd_testkit::Gen) -> u64 {
        g.u64() >> (7 * g.u32_in(0, 10))
    }

    fn arb_u32(g: &mut ssd_testkit::Gen) -> u32 {
        g.u32_in(0, u32::MAX) >> g.u32_in(0, 32)
    }

    /// Traces with every varint width and enough reports per drive that
    /// most of them decode through a full fast-path window.
    fn arb_wide_trace(g: &mut ssd_testkit::Gen) -> FleetTrace {
        let mut t = FleetTrace::new(arb_u32(g));
        for id in 0..g.u32_in(1, 5) {
            let model = DriveModel::from_index(g.usize_in(0, DriveModel::ALL.len()));
            let mut d = DriveLog::new(DriveId(id), model);
            d.log_weight = f64::from_bits(arb_width(g));
            for _ in 0..g.usize_in(0, 40) {
                let mut r = DailyReport::empty(arb_u32(g));
                r.read_ops = arb_width(g);
                r.write_ops = arb_width(g);
                r.erase_ops = arb_width(g);
                r.pe_cycles = arb_u32(g);
                r.status_dead = g.bool();
                r.status_read_only = g.bool();
                r.factory_bad_blocks = arb_u32(g);
                r.grown_bad_blocks = arb_u32(g);
                for kind in ErrorKind::ALL {
                    // Mostly zero, like field telemetry.
                    r.errors.set(kind, if g.bool() { 0 } else { arb_width(g) });
                }
                d.reports.push(r);
            }
            for _ in 0..g.usize_in(0, 3) {
                let reentry_day = g.option(arb_u32);
                d.swaps.push(SwapEvent {
                    swap_day: arb_u32(g),
                    reentry_day,
                });
            }
            t.drives.push(d);
        }
        t
    }

    #[test]
    fn fast_and_byte_paths_agree_at_every_buffer_capacity() {
        ssd_testkit::for_each_case("fast_and_byte_paths_agree", 96, |g| {
            let trace = arb_wide_trace(g);
            let mut bytes = encode_trace(&trace);
            assert_eq!(
                decode_everywhere(&bytes).map(|t| encode_trace(&t)),
                Ok(bytes.clone())
            );
            for _ in 0..g.usize_in(0, 4) {
                let at = g.usize_in(0, bytes.len());
                bytes[at] ^= g.u32_in(1, 256) as u8;
            }
            if g.bool() {
                bytes.truncate(g.usize_in(0, bytes.len() + 1));
            }
            let _ = decode_everywhere(&bytes);
        });
    }

    /// Raw report bytes: every wire item `0x01` except item `slot` (the
    /// flags byte is item 5), which is `raw`. Returns the bytes and the
    /// offset of `raw` within them.
    fn report_with(slot: usize, raw: &[u8]) -> (Vec<u8>, u64) {
        let mut out = Vec::new();
        let mut at = 0;
        for item in 0..=REPORT_VARINTS {
            if item == slot {
                at = out.len() as u64;
                out.extend_from_slice(raw);
            } else {
                out.push(1);
            }
        }
        (out, at)
    }

    /// A one-drive, one-report archive around hand-made report bytes and
    /// `pad` ignored trailing bytes. Returns it with the report's offset.
    fn one_report_archive(report: &[u8], pad: usize) -> (Vec<u8>, u64) {
        let mut bytes = MAGIC.to_vec();
        for v in [100, 1, 7] {
            put_varint(&mut bytes, v); // horizon, drive count, drive id
        }
        bytes.push(0); // model
        put_varint(&mut bytes, 0); // weight bits
        put_varint(&mut bytes, 1); // report count
        let at = bytes.len() as u64;
        bytes.extend_from_slice(report);
        bytes.push(0); // no swaps
        bytes.resize(bytes.len() + pad, 0xff);
        (bytes, at)
    }

    /// Wire slots of the u32-narrowed report fields: age, P/E, fbb, gbb.
    const U32_SLOTS: [usize; 4] = [0, 4, 6, 7];

    /// u32::MAX as a 10-byte overlong varint (the decoder's longest).
    const U32_MAX_10: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0x8f, 0x80, 0x80, 0x80, 0x80, 0x00];

    /// u64::MAX as its canonical 10-byte varint.
    const U64_MAX_10: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];

    #[test]
    fn worst_case_report_fills_the_fast_window_exactly() {
        let mut report = Vec::new();
        for item in 0..=REPORT_VARINTS {
            match item {
                5 => report.push(STATUS_READ_ONLY),
                s if U32_SLOTS.contains(&s) => report.extend_from_slice(&U32_MAX_10),
                _ => report.extend_from_slice(&U64_MAX_10),
            }
        }
        assert_eq!(report.len(), MAX_REPORT_BYTES);
        let window = report.first_chunk::<MAX_REPORT_BYTES>().unwrap();
        let (fast, used) = decode_report_buffered(window).expect("fast path decodes it");
        assert_eq!(used, MAX_REPORT_BYTES);
        let checked = decode_report_checked(&mut SliceSrc::new(&report)).unwrap();
        assert_eq!(fast, checked);
        assert_eq!((fast.age_days, fast.read_ops), (u32::MAX, u64::MAX));
        assert!(fast.status_read_only && !fast.status_dead);
    }

    #[test]
    fn u64_max_varints_straddle_every_refill_boundary() {
        let mut t = FleetTrace::new(u32::MAX);
        let mut d = DriveLog::new(DriveId(u32::MAX), DriveModel::from_index(2));
        d.log_weight = f64::from_bits(u64::MAX);
        for _ in 0..12 {
            let mut r = DailyReport::empty(u32::MAX);
            (r.read_ops, r.write_ops, r.erase_ops) = (u64::MAX, u64::MAX, u64::MAX);
            (r.pe_cycles, r.factory_bad_blocks, r.grown_bad_blocks) =
                (u32::MAX, u32::MAX, u32::MAX);
            for kind in ErrorKind::ALL {
                r.errors.set(kind, u64::MAX);
            }
            d.reports.push(r);
        }
        t.drives.push(d);
        let bytes = encode_trace(&t);
        for capacity in 16..=2 * MAX_REPORT_BYTES + 8 {
            let streamed = stream_decode(&bytes, capacity, capacity).unwrap();
            assert_eq!(encode_trace(&streamed), bytes, "capacity {capacity}");
        }
        assert_eq!(encode_trace(&decode_everywhere(&bytes).unwrap()), bytes);
    }

    #[test]
    fn overlong_but_valid_varints_decode_on_both_paths() {
        let cases: [(usize, &[u8], u64); 5] = [
            (0, &[0x80, 0x00], 0),
            (
                1,
                &[0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
                5,
            ),
            (2, &U64_MAX_10, u64::MAX),
            (4, &U32_MAX_10, u64::from(u32::MAX)),
            (17, &[0x81, 0x00], 1),
        ];
        for (slot, raw, value) in cases {
            let (report, _) = report_with(slot, raw);
            for pad in [0, MAX_REPORT_BYTES] {
                let (bytes, _) = one_report_archive(&report, pad);
                let t = decode_everywhere(&bytes).unwrap();
                let r = &t.drives[0].reports[0];
                let got = match slot {
                    0 => u64::from(r.age_days),
                    1 => r.read_ops,
                    2 => r.write_ops,
                    4 => u64::from(r.pe_cycles),
                    _ => r.errors.get(ErrorKind::ALL[ErrorKind::COUNT - 1]),
                };
                assert_eq!(got, value, "slot {slot}, pad {pad}");
            }
        }
    }

    #[test]
    fn overflowing_varints_keep_their_byte_path_offsets() {
        let past_u32 = {
            let mut v = Vec::new();
            put_varint(&mut v, u64::from(u32::MAX) + 1);
            v
        };
        let mut ten_then_two = [0xff; 10];
        ten_then_two[9] = 0x02;
        let mut eleven = [0x80; 11];
        eleven[10] = 0x00;
        for pad in [0, MAX_REPORT_BYTES] {
            // A u32 field past u32::MAX: anchored at the varint's first byte.
            for slot in U32_SLOTS {
                let (report, at) = report_with(slot, &past_u32);
                let (bytes, base) = one_report_archive(&report, pad);
                let offset = base + at;
                assert_eq!(
                    decode_everywhere(&bytes),
                    Err(DecodeError::VarintOverflow { offset }),
                    "slot {slot}, pad {pad}"
                );
            }
            // A u64 field past 64 bits, or an 11-byte overlong zero:
            // anchored at the 10th byte, where the overflow is detected.
            for raw in [&ten_then_two[..], &eleven[..]] {
                for slot in [1, 3, 8, REPORT_VARINTS] {
                    let (report, at) = report_with(slot, raw);
                    let (bytes, base) = one_report_archive(&report, pad);
                    let offset = base + at + 9;
                    assert_eq!(
                        decode_everywhere(&bytes),
                        Err(DecodeError::VarintOverflow { offset }),
                        "slot {slot}, pad {pad}"
                    );
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_after_declared_drives_are_ignored() {
        let t = sample_trace();
        let mut bytes = encode_trace(&t);
        bytes.extend_from_slice(b"trailing junk");
        assert_eq!(decode_trace(&bytes).unwrap(), t);
        let mut dec = TraceDecoder::new(&bytes[..]).unwrap();
        let n = (&mut dec).filter(|r| r.is_ok()).count();
        assert_eq!(n, t.drives.len());
    }
}
