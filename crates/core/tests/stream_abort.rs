//! Regression test for a decode error mid-file: both the push `stream`
//! and the pull `next_batch` paths of a segment file source must return
//! the error to the caller, with the sink (or the batches) having seen
//! exactly the in-order prefix that precedes the corrupt segment.

use atum_core::{
    RecordKind, SegmentFileSource, SegmentWriter, TraceRecord, TraceSource, TraceStreamError,
};
use std::path::{Path, PathBuf};

fn segment_file(tag: &str, segs: u32, per: u32) -> PathBuf {
    let path = std::env::temp_dir().join(format!("atum-abort-{tag}-{}.atrace", std::process::id()));
    let mut w = SegmentWriter::create(&path).unwrap();
    let mut buf = Vec::new();
    for s in 0..segs {
        buf.clear();
        buf.extend(segment_records(s, per));
        w.write_segment(&buf, u64::from(s)).unwrap();
    }
    w.finish().unwrap();
    path
}

/// Walks the segment headers (mark byte + three varints + two fixed
/// bytes — the format is locked by the golden-file tests) and returns
/// each payload's byte range.
fn payload_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    fn varint(b: &[u8], p: &mut usize) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let x = b[*p];
            *p += 1;
            v |= u64::from(x & 0x7F) << shift;
            if x & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }
    let mut p = 5;
    let mut spans = Vec::new();
    while p < bytes.len() {
        assert_eq!(bytes[p], b'S');
        p += 1;
        let _records = varint(bytes, &mut p);
        let payload_len = varint(bytes, &mut p) as usize;
        let _cycle = varint(bytes, &mut p);
        p += 2;
        spans.push((p, payload_len));
        p += payload_len;
    }
    spans
}

/// The records of segment `s` as `segment_file` wrote them.
fn segment_records(s: u32, per: u32) -> impl Iterator<Item = TraceRecord> {
    (0..per).map(move |i| {
        TraceRecord::new(
            RecordKind::Read,
            0x4000 + s * 0x1000 + i * 4,
            4,
            (s % 3) as u8,
            false,
        )
    })
}

/// Overwrites segment `bad`'s payload with garbage; the headers stay
/// intact, so the error surfaces while decoding that segment.
fn corrupt_payload(path: &Path, segs: u32, bad: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    let spans = payload_spans(&bytes);
    assert_eq!(spans.len(), segs as usize);
    let (off, len) = spans[bad];
    for b in &mut bytes[off..off + len] {
        *b = 0xFF;
    }
    std::fs::write(path, bytes).unwrap();
}

/// Pushes the whole source through `stream`, returning the outcome and
/// every record the sink saw.
fn streamed(path: &Path) -> (Result<(), TraceStreamError>, Vec<TraceRecord>) {
    let mut seen = Vec::new();
    let res = SegmentFileSource::new(path).stream(&mut |records| seen.extend_from_slice(records));
    (res, seen)
}

/// Pulls the whole source through `next_batch`, returning the first
/// error (if any) and every record the batches carried before it.
fn pulled(path: &Path) -> (Result<(), TraceStreamError>, Vec<TraceRecord>) {
    let mut src = SegmentFileSource::new(path);
    let mut seen = Vec::new();
    loop {
        match src.next_batch() {
            Ok(Some(batch)) => seen.extend(batch.iter()),
            Ok(None) => return (Ok(()), seen),
            Err(e) => return (Err(e), seen),
        }
    }
}

#[test]
fn mid_file_decode_error_returns_the_error_after_the_in_order_prefix() {
    const SEGS: u32 = 24;
    const PER: u32 = 50;
    const BAD: usize = 7;
    let path = segment_file("mid", SEGS, PER);
    corrupt_payload(&path, SEGS, BAD);
    let expect_prefix: Vec<TraceRecord> = (0..BAD as u32)
        .flat_map(|s| segment_records(s, PER))
        .collect();

    for (api, (res, seen)) in [("stream", streamed(&path)), ("next_batch", pulled(&path))] {
        assert!(
            matches!(res, Err(TraceStreamError::Decode(_))),
            "{api}: expected a decode error, got {res:?}"
        );
        assert_eq!(
            seen, expect_prefix,
            "{api}: must observe exactly the in-order prefix"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn error_in_first_segment_yields_empty_prefix() {
    let path = segment_file("first", 6, 40);
    corrupt_payload(&path, 6, 0);
    for (api, (res, seen)) in [("stream", streamed(&path)), ("next_batch", pulled(&path))] {
        assert!(
            matches!(res, Err(TraceStreamError::Decode(_))),
            "{api}: expected a decode error, got {res:?}"
        );
        assert!(
            seen.is_empty(),
            "{api}: nothing precedes the corrupt segment"
        );
    }
    std::fs::remove_file(&path).ok();
}
