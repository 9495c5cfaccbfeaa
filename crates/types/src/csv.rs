//! CSV interchange for fleet traces.
//!
//! The research community around drive-reliability data works in
//! CSV-first tooling (pandas, R). This module writes and reads a
//! two-file flat format with a stable header so traces can cross the
//! Rust/Python boundary without custom glue:
//!
//! * **reports CSV** — one row per drive-day;
//! * **swaps CSV** — one row per swap event.
//!
//! The format is deliberately hand-rolled (no `csv` crate): every field
//! is numeric or a known enum name, so quoting/escaping is unnecessary,
//! and the parser can be strict.

use crate::{
    DailyReport, DriveId, DriveLog, DriveModel, ErrorCounts, ErrorKind, FleetTrace, SwapEvent,
};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

/// Header of the reports CSV, in column order.
pub fn reports_header() -> String {
    let mut cols = vec![
        "drive_id".to_string(),
        "model".to_string(),
        "age_days".to_string(),
        "read_ops".to_string(),
        "write_ops".to_string(),
        "erase_ops".to_string(),
        "pe_cycles".to_string(),
        "status_dead".to_string(),
        "status_read_only".to_string(),
        "factory_bad_blocks".to_string(),
        "grown_bad_blocks".to_string(),
    ];
    for k in ErrorKind::ALL {
        cols.push(format!("err_{}", k.short_name()));
    }
    cols.join(",")
}

/// Header of the swaps CSV.
pub fn swaps_header() -> &'static str {
    "drive_id,model,swap_day,reentry_day"
}

/// Writes the reports CSV for a trace.
pub fn write_reports_csv<W: Write>(trace: &FleetTrace, mut w: W) -> io::Result<()> {
    writeln!(w, "{}", reports_header())?;
    let mut line = String::with_capacity(256);
    for d in &trace.drives {
        for r in &d.reports {
            line.clear();
            use std::fmt::Write as _;
            let _ = write!(
                line,
                "{},{},{},{},{},{},{},{},{},{},{}",
                d.id.0,
                d.model.name(),
                r.age_days,
                r.read_ops,
                r.write_ops,
                r.erase_ops,
                r.pe_cycles,
                u8::from(r.status_dead),
                u8::from(r.status_read_only),
                r.factory_bad_blocks,
                r.grown_bad_blocks,
            );
            for (_, c) in r.errors.iter() {
                let _ = write!(line, ",{c}");
            }
            writeln!(w, "{line}")?;
        }
    }
    Ok(())
}

/// Writes the swaps CSV for a trace.
pub fn write_swaps_csv<W: Write>(trace: &FleetTrace, mut w: W) -> io::Result<()> {
    writeln!(w, "{}", swaps_header())?;
    for d in &trace.drives {
        for s in &d.swaps {
            match s.reentry_day {
                Some(re) => writeln!(w, "{},{},{},{}", d.id.0, d.model.name(), s.swap_day, re)?,
                None => writeln!(w, "{},{},{},", d.id.0, d.model.name(), s.swap_day)?,
            }
        }
    }
    Ok(())
}

/// Errors raised by the CSV reader.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural/parse problem.
    Parse {
        /// 1-based line number of the offending row.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> CsvError {
    CsvError::Parse {
        line,
        message: message.into(),
    }
}

fn parse_model(s: &str, line: usize) -> Result<DriveModel, CsvError> {
    DriveModel::ALL
        .into_iter()
        .find(|m| m.name() == s)
        .ok_or_else(|| parse_err(line, format!("unknown model '{s}'")))
}

fn field<T: std::str::FromStr>(s: &str, line: usize, name: &str) -> Result<T, CsvError> {
    s.parse()
        .map_err(|_| parse_err(line, format!("bad {name}: '{s}'")))
}

/// Reads a trace from reports + swaps CSV streams.
///
/// `horizon_days` is metadata the CSVs do not carry; pass the observation
/// window length. Drives are assembled in drive-id order; rows for each
/// drive must be age-sorted (as written by [`write_reports_csv`]).
///
/// Limitation: a drive that never produced a report or swap has no rows in
/// either file and therefore cannot be recovered — round-tripping a trace
/// containing such drives drops them (the binary and JSON codecs preserve
/// them; prefer those for archival).
pub fn read_trace_csv<R1: BufRead, R2: BufRead>(
    reports: R1,
    swaps: R2,
    horizon_days: u32,
) -> Result<FleetTrace, CsvError> {
    let mut drives: BTreeMap<u32, DriveLog> = BTreeMap::new();

    let mut lines = reports.lines();
    let header = lines
        .next()
        .ok_or_else(|| parse_err(1, "empty reports csv"))??;
    if header != reports_header() {
        return Err(parse_err(1, "reports header mismatch"));
    }
    for (idx, line) in lines.enumerate() {
        let lineno = idx + 2;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 11 + ErrorKind::COUNT {
            return Err(parse_err(lineno, "wrong column count"));
        }
        let id: u32 = field(parts[0], lineno, "drive_id")?;
        let model = parse_model(parts[1], lineno)?;
        let mut errors = ErrorCounts::zero();
        for (i, kind) in ErrorKind::ALL.into_iter().enumerate() {
            errors.set(kind, field(parts[11 + i], lineno, "error count")?);
        }
        let report = DailyReport {
            age_days: field(parts[2], lineno, "age_days")?,
            read_ops: field(parts[3], lineno, "read_ops")?,
            write_ops: field(parts[4], lineno, "write_ops")?,
            erase_ops: field(parts[5], lineno, "erase_ops")?,
            pe_cycles: field(parts[6], lineno, "pe_cycles")?,
            status_dead: parts[7] == "1",
            status_read_only: parts[8] == "1",
            factory_bad_blocks: field(parts[9], lineno, "factory_bad_blocks")?,
            grown_bad_blocks: field(parts[10], lineno, "grown_bad_blocks")?,
            errors,
        };
        drives
            .entry(id)
            .or_insert_with(|| DriveLog::new(DriveId(id), model))
            .reports
            .push(report);
    }

    let mut lines = swaps.lines();
    let header = lines
        .next()
        .ok_or_else(|| parse_err(1, "empty swaps csv"))??;
    if header != swaps_header() {
        return Err(parse_err(1, "swaps header mismatch"));
    }
    for (idx, line) in lines.enumerate() {
        let lineno = idx + 2;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 4 {
            return Err(parse_err(lineno, "wrong column count"));
        }
        let id: u32 = field(parts[0], lineno, "drive_id")?;
        let model = parse_model(parts[1], lineno)?;
        let swap = SwapEvent {
            swap_day: field(parts[2], lineno, "swap_day")?,
            reentry_day: if parts[3].is_empty() {
                None
            } else {
                Some(field(parts[3], lineno, "reentry_day")?)
            },
        };
        drives
            .entry(id)
            .or_insert_with(|| DriveLog::new(DriveId(id), model))
            .swaps
            .push(swap);
    }

    let trace = FleetTrace {
        horizon_days,
        drives: drives.into_values().collect(),
    };
    trace
        .validate()
        .map_err(|m| parse_err(0, format!("invariant violation after load: {m}")))?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn sample_trace() -> FleetTrace {
        let mut t = FleetTrace::new(400);
        for i in 0..2u32 {
            let mut d = DriveLog::new(DriveId(i), DriveModel::from_index(i as usize));
            for day in 0..4u32 {
                let mut r = DailyReport::empty(day * 5);
                r.read_ops = 100 + u64::from(day);
                r.write_ops = 50;
                r.pe_cycles = day;
                r.errors.set(ErrorKind::Uncorrectable, u64::from(day % 2));
                r.errors.set(ErrorKind::Correctable, 12345);
                d.reports.push(r);
            }
            if i == 1 {
                d.swaps.push(SwapEvent {
                    swap_day: 25,
                    reentry_day: Some(300),
                });
                d.swaps.push(SwapEvent {
                    swap_day: 350,
                    reentry_day: None,
                });
            }
            t.drives.push(d);
        }
        t
    }

    fn roundtrip(t: &FleetTrace) -> FleetTrace {
        let mut reports = Vec::new();
        let mut swaps = Vec::new();
        write_reports_csv(t, &mut reports).unwrap();
        write_swaps_csv(t, &mut swaps).unwrap();
        read_trace_csv(
            BufReader::new(reports.as_slice()),
            BufReader::new(swaps.as_slice()),
            t.horizon_days,
        )
        .unwrap()
    }

    #[test]
    fn csv_roundtrip_is_lossless() {
        let t = sample_trace();
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn header_shapes() {
        assert!(reports_header().starts_with("drive_id,model,age_days"));
        assert_eq!(
            reports_header().split(',').count(),
            11 + ErrorKind::COUNT
        );
    }

    #[test]
    fn missing_reentry_is_empty_field() {
        let t = sample_trace();
        let mut swaps = Vec::new();
        write_swaps_csv(&t, &mut swaps).unwrap();
        let text = String::from_utf8(swaps).unwrap();
        assert!(text.contains("1,MLC-B,350,\n"), "{text}");
    }

    #[test]
    fn header_mismatch_is_rejected() {
        let t = sample_trace();
        let mut swaps = Vec::new();
        write_swaps_csv(&t, &mut swaps).unwrap();
        let bad_reports = b"not,a,real,header\n".to_vec();
        let err = read_trace_csv(
            BufReader::new(bad_reports.as_slice()),
            BufReader::new(swaps.as_slice()),
            400,
        )
        .unwrap_err();
        assert!(err.to_string().contains("header mismatch"));
    }

    #[test]
    fn bad_numeric_field_reports_line() {
        let t = sample_trace();
        let mut reports = Vec::new();
        let mut swaps = Vec::new();
        write_reports_csv(&t, &mut reports).unwrap();
        write_swaps_csv(&t, &mut swaps).unwrap();
        let mut text = String::from_utf8(reports).unwrap();
        text = text.replacen("0,MLC-A,0,", "0,MLC-A,zero,", 1);
        let err = read_trace_csv(
            BufReader::new(text.as_bytes()),
            BufReader::new(swaps.as_slice()),
            400,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2") && msg.contains("age_days"), "{msg}");
    }

    #[test]
    fn unknown_model_is_rejected() {
        let reports = format!("{}\n7,MLC-Z,0,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n", reports_header());
        let swaps = format!("{}\n", swaps_header());
        let err = read_trace_csv(
            BufReader::new(reports.as_bytes()),
            BufReader::new(swaps.as_bytes()),
            100,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown model"));
    }
}
