//! Wire protocol for `ssdserve`: length-prefixed JSON frames.
//!
//! A **frame** is a little-endian `u32` byte length followed by exactly
//! that many bytes of UTF-8 JSON. A request frame carries either one
//! request object or an array of request objects (an explicit client-side
//! batch — the whole array is answered from **one pass** over the
//! shards' load-time views); the response frame mirrors the shape
//! (object in, object out; array in, array out, index-aligned).
//!
//! Request objects select a query with `"q"`:
//!
//! | request | fields | answer |
//! |---------|--------|--------|
//! | `{"q":"info"}` | — | fleet/shard/scorer metadata recorded at load; not counted as a pass |
//! | `{"q":"summary"}` | — | shard-merged [`SummaryAccumulator`] fold |
//! | `{"q":"survival"}` | — | Kaplan–Meier time-to-failure curve |
//! | `{"q":"hazard"}` | `bin_days` (default 30) | exposure-normalized failure rate per age bin |
//! | `{"q":"topk"}` | `k` (default 10) | highest-risk drives by flat-scored swap probability |
//!
//! Every decoding failure is a typed [`ProtocolError`] — truncated or
//! oversized frames, invalid UTF-8, malformed JSON, unknown queries, and
//! out-of-range parameters all carry a machine-readable kind (see
//! [`ProtocolError::kind`]) that the server echoes in its error response
//! before exiting nonzero. Nothing in this module panics on adversarial
//! input; the malformed-request fuzz battery in `tests/serve.rs` pins
//! that.
//!
//! ```
//! use ssd_field_study_core::serve::protocol::{
//!     read_frame, write_frame, Request, MAX_REQUEST_FRAME,
//! };
//!
//! // Frame up a two-query batch and read it back.
//! let mut wire = Vec::new();
//! write_frame(&mut wire, br#"[{"q":"summary"},{"q":"topk","k":3}]"#)?;
//! let mut cursor = &wire[..];
//! let body = read_frame(&mut cursor, MAX_REQUEST_FRAME)?.expect("one frame");
//! let (requests, batched) = Request::parse_frame(&body)?;
//! assert!(batched);
//! assert_eq!(requests, vec![Request::Summary, Request::TopK { k: 3 }]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`SummaryAccumulator`]: crate::streaming::SummaryAccumulator

use ssd_types::json::{self, JsonError, Value};
use std::io::{Read, Write};

/// Largest request frame the server accepts (64 KiB). Requests are tiny;
/// anything bigger is a corrupt or adversarial length prefix.
pub const MAX_REQUEST_FRAME: u32 = 64 * 1024;

/// Largest response frame a client should accept (64 MiB) — survival
/// curves over multi-million-drive fleets dominate response size. The
/// server never writes a larger one: it answers `response-too-large`
/// instead.
pub const MAX_RESPONSE_FRAME: u32 = 64 * 1024 * 1024;

/// Most requests one batch frame may carry.
pub const MAX_BATCH: usize = 256;

/// Largest accepted `k` for top-K queries.
pub const MAX_TOP_K: usize = 1_000_000;

/// Largest accepted `bin_days` for hazard queries (10 years).
pub const MAX_HAZARD_BIN_DAYS: u32 = 3650;

/// Typed failure while reading or interpreting a frame.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The transport failed beneath the framing layer.
    Io(std::io::Error),
    /// The stream ended inside a frame header or body.
    Truncated {
        /// Bytes the frame (header or body) still owed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The length prefix exceeds the accepted maximum.
    FrameTooLarge {
        /// Declared frame length.
        len: u32,
        /// Maximum this endpoint accepts.
        max: u32,
    },
    /// The frame body is not valid UTF-8.
    Utf8 {
        /// Bytes that were valid before the offending sequence.
        valid_up_to: usize,
    },
    /// The frame body is not valid JSON.
    Json(JsonError),
    /// The JSON decoded but is not a well-formed request.
    BadRequest {
        /// What was wrong (unknown query, bad field, oversized batch…).
        reason: String,
    },
}

impl ProtocolError {
    /// Stable machine-readable error kind, echoed in error responses.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolError::Io(_) => "io",
            ProtocolError::Truncated { .. } => "truncated-frame",
            ProtocolError::FrameTooLarge { .. } => "frame-too-large",
            ProtocolError::Utf8 { .. } => "invalid-utf8",
            ProtocolError::Json(_) => "invalid-json",
            ProtocolError::BadRequest { .. } => "bad-request",
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::Truncated { expected, got } => {
                write!(f, "truncated frame: needed {expected} more bytes, got {got}")
            }
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::Utf8 { valid_up_to } => {
                write!(f, "frame body is not UTF-8 (valid up to byte {valid_up_to})")
            }
            ProtocolError::Json(e) => write!(f, "frame body is not JSON: {e}"),
            ProtocolError::BadRequest { reason } => write!(f, "bad request: {reason}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonError> for ProtocolError {
    fn from(e: JsonError) -> Self {
        ProtocolError::Json(e)
    }
}

/// Writes one `len ‖ body` frame. A body too long for the `u32` length
/// prefix is an [`std::io::ErrorKind::InvalidInput`] error, and nothing is
/// written.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(body.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes overflows the u32 length prefix", body.len()),
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes, reporting how many arrived before EOF.
fn read_exact_counting(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, std::io::Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(filled),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads one frame body. Returns `Ok(None)` on clean EOF at a frame
/// boundary; EOF anywhere inside a frame is [`ProtocolError::Truncated`].
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut header = [0u8; 4];
    let got = read_exact_counting(r, &mut header).map_err(ProtocolError::Io)?;
    if got == 0 {
        return Ok(None);
    }
    if got < 4 {
        return Err(ProtocolError::Truncated {
            expected: 4 - got,
            got,
        });
    }
    let len = u32::from_le_bytes(header);
    if len > max {
        return Err(ProtocolError::FrameTooLarge { len, max });
    }
    let mut body = vec![0u8; len as usize];
    let got = read_exact_counting(r, &mut body).map_err(ProtocolError::Io)?;
    if got < body.len() {
        return Err(ProtocolError::Truncated {
            expected: body.len() - got,
            got,
        });
    }
    Ok(Some(body))
}

/// One decoded query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Fleet/shard/scorer metadata; answered without touching the shards.
    Info,
    /// The fleet-wide streaming summary (Tables 1, 3, 4 + repair figures).
    Summary,
    /// Kaplan–Meier time-to-failure curve over operational periods.
    Survival,
    /// Exposure-normalized failure rate per `bin_days`-wide age bin.
    Hazard {
        /// Age bin width in days (1..=[`MAX_HAZARD_BIN_DAYS`]).
        bin_days: u32,
    },
    /// The `k` highest-risk drives by current-day swap probability.
    TopK {
        /// How many drives to return (1..=[`MAX_TOP_K`]).
        k: usize,
    },
}

fn bad(reason: impl Into<String>) -> ProtocolError {
    ProtocolError::BadRequest {
        reason: reason.into(),
    }
}

impl Request {
    /// Decodes one request object.
    fn from_value(v: &Value) -> Result<Request, ProtocolError> {
        let Value::Obj(_) = v else {
            return Err(bad("request must be a JSON object"));
        };
        let q = v
            .get("q")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("request needs a string `q` field"))?;
        match q {
            "info" => Ok(Request::Info),
            "summary" => Ok(Request::Summary),
            "survival" => Ok(Request::Survival),
            "hazard" => {
                let bin_days = match v.get("bin_days") {
                    None => 30,
                    Some(b) => b
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| bad("`bin_days` must be a non-negative integer"))?,
                };
                if bin_days == 0 || bin_days > MAX_HAZARD_BIN_DAYS {
                    return Err(bad(format!(
                        "`bin_days` must be in 1..={MAX_HAZARD_BIN_DAYS}, got {bin_days}"
                    )));
                }
                Ok(Request::Hazard { bin_days })
            }
            "topk" => {
                let k = match v.get("k") {
                    None => 10,
                    Some(kv) => kv
                        .as_u64()
                        .and_then(|n| usize::try_from(n).ok())
                        .ok_or_else(|| bad("`k` must be a non-negative integer"))?,
                };
                if k == 0 || k > MAX_TOP_K {
                    return Err(bad(format!("`k` must be in 1..={MAX_TOP_K}, got {k}")));
                }
                Ok(Request::TopK { k })
            }
            other => Err(bad(format!(
                "unknown query `{other}` (expected info|summary|survival|hazard|topk)"
            ))),
        }
    }

    /// Decodes a frame body: one request object, or an array batch.
    /// Returns the requests plus whether the frame was an array (so the
    /// response can mirror the shape).
    pub fn parse_frame(body: &[u8]) -> Result<(Vec<Request>, bool), ProtocolError> {
        let text = std::str::from_utf8(body).map_err(|e| ProtocolError::Utf8 {
            valid_up_to: e.valid_up_to(),
        })?;
        let value = json::parse(text)?;
        match &value {
            Value::Arr(items) => {
                if items.len() > MAX_BATCH {
                    return Err(bad(format!(
                        "batch of {} requests exceeds the {MAX_BATCH}-request limit",
                        items.len()
                    )));
                }
                let mut reqs = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    reqs.push(Request::from_value(item).map_err(|e| match e {
                        ProtocolError::BadRequest { reason } => {
                            bad(format!("batch item {i}: {reason}"))
                        }
                        other => other,
                    })?);
                }
                Ok((reqs, true))
            }
            single => Ok((vec![Request::from_value(single)?], false)),
        }
    }
}

/// Renders the standard error response body:
/// `{"err":{"kind":…,"msg":…}}`.
pub fn error_body(kind: &str, msg: &str) -> Vec<u8> {
    let v = Value::Obj(vec![(
        "err".to_string(),
        Value::Obj(vec![
            ("kind".to_string(), Value::Str(kind.to_string())),
            ("msg".to_string(), Value::Str(msg.to_string())),
        ]),
    )]);
    render(&v)
}

/// Passes a rendered response body through if a client can read it
/// (at most [`MAX_RESPONSE_FRAME`] bytes), and otherwise replaces it with
/// a `response-too-large` error body, so the peer gets an answer it can
/// frame and the connection stays usable.
pub(super) fn fit_response(body: Vec<u8>) -> Vec<u8> {
    if u32::try_from(body.len()).is_ok_and(|len| len <= MAX_RESPONSE_FRAME) {
        return body;
    }
    error_body(
        "response-too-large",
        &format!(
            "response of {} bytes exceeds the {MAX_RESPONSE_FRAME}-byte frame limit; \
             ask for a smaller k or fewer requests per frame",
            body.len()
        ),
    )
}

/// Serializes a response [`Value`] to compact JSON bytes. Rendering is
/// deterministic: object member order is insertion order and floats use
/// the shortest round-tripping form.
pub fn render(v: &Value) -> Vec<u8> {
    struct Raw<'a>(&'a Value);
    impl json::ToJson for Raw<'_> {
        fn to_json(&self) -> Value {
            self.0.clone()
        }
    }
    json::to_string(&Raw(v)).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(body: &str) -> Result<Vec<Request>, ProtocolError> {
        Request::parse_frame(body.as_bytes()).map(|(r, _)| r)
    }

    #[test]
    fn frame_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 64).unwrap().is_none());
    }

    #[test]
    fn truncated_header_and_body_are_typed() {
        let mut r: &[u8] = &[1, 2];
        match read_frame(&mut r, 64) {
            Err(ProtocolError::Truncated { expected: 2, got: 2 }) => {}
            other => panic!("{other:?}"),
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        wire.truncate(wire.len() - 2);
        let mut r = &wire[..];
        match read_frame(&mut r, 64) {
            Err(ProtocolError::Truncated { expected: 2, got: 4 }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation() {
        let mut r: &[u8] = &u32::MAX.to_le_bytes();
        match read_frame(&mut r, MAX_REQUEST_FRAME) {
            Err(ProtocolError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, MAX_REQUEST_FRAME);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn requests_parse_with_defaults() {
        assert_eq!(parse_one(r#"{"q":"info"}"#).unwrap(), vec![Request::Info]);
        assert_eq!(
            parse_one(r#"{"q":"hazard"}"#).unwrap(),
            vec![Request::Hazard { bin_days: 30 }]
        );
        assert_eq!(
            parse_one(r#"{"q":"topk"}"#).unwrap(),
            vec![Request::TopK { k: 10 }]
        );
        let (reqs, batched) =
            Request::parse_frame(br#"[{"q":"summary"},{"q":"survival"}]"#).unwrap();
        assert!(batched);
        assert_eq!(reqs, vec![Request::Summary, Request::Survival]);
    }

    #[test]
    fn bad_requests_are_typed() {
        for body in [
            "42",
            r#""summary""#,
            r#"{"x":1}"#,
            r#"{"q":"nope"}"#,
            r#"{"q":"topk","k":0}"#,
            r#"{"q":"topk","k":-3}"#,
            r#"{"q":"hazard","bin_days":0}"#,
            r#"{"q":"hazard","bin_days":99999}"#,
            r#"[{"q":"summary"},{"q":"bogus"}]"#,
        ] {
            match parse_one(body) {
                Err(ProtocolError::BadRequest { .. }) => {}
                other => panic!("{body}: {other:?}"),
            }
        }
        match parse_one("{not json") {
            Err(ProtocolError::Json(_)) => {}
            other => panic!("{other:?}"),
        }
        match Request::parse_frame(&[0xFF, 0xFE, b'{']) {
            Err(ProtocolError::Utf8 { valid_up_to: 0 }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn responses_over_the_frame_limit_become_a_typed_error() {
        let limit = MAX_RESPONSE_FRAME as usize;
        let fits = fit_response(vec![b' '; limit]);
        assert_eq!(fits.len(), limit);
        let over = fit_response(vec![b' '; limit + 1]);
        let text = String::from_utf8(over).unwrap();
        assert!(text.starts_with(r#"{"err":{"kind":"response-too-large","#), "{text}");
        assert!(text.contains("67108865 bytes"), "{text}");
    }

    #[test]
    fn error_body_is_deterministic_json() {
        let b = error_body("bad-request", "nope");
        assert_eq!(
            String::from_utf8(b).unwrap(),
            r#"{"err":{"kind":"bad-request","msg":"nope"}}"#
        );
    }
}
