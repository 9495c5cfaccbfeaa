//! Constant-memory proof for the streaming decode path (ISSUE 4
//! acceptance): summarizing an archive through `TraceDecoder` +
//! `SummaryAccumulator` must allocate a small fraction of what resident
//! `decode_trace` needs, because only one drive is ever held at a time.
//!
//! Measured with a counting global allocator; this file holds exactly one
//! test so no concurrent test pollutes the peak counter.

#![expect(
    unsafe_code,
    reason = "a counting #[global_allocator] implements the unsafe GlobalAlloc trait"
)]

use ssd_field_study::core::streaming::SummaryAccumulator;
use ssd_field_study::sim::{FleetGen, SimConfig};
use ssd_field_study::types::codec::{decode_trace, TraceDecoder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                on_alloc(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Anchors the peak to the current live size and returns that baseline.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

#[test]
fn streaming_summary_allocates_a_fraction_of_resident_decode() {
    // Large enough that resident decode is tens of MB; generated up front
    // so the pool's worker allocations don't land inside a measurement.
    let cfg = SimConfig {
        drives_per_model: 200,
        horizon_days: 800,
        seed: 4242,
        ..SimConfig::default()
    };
    let bytes = FleetGen::new(&cfg).run_vec();

    // Resident path: materialize every drive.
    let baseline = reset_peak();
    let trace = decode_trace(&bytes).expect("decode");
    let resident_peak = PEAK.load(Ordering::Relaxed) - baseline;
    let n_drives = trace.drives.len();
    drop(trace);

    // Streaming path: one reused scratch drive + the fold accumulator.
    let baseline = reset_peak();
    let mut dec = TraceDecoder::new(bytes.as_slice()).expect("header");
    let mut acc = SummaryAccumulator::new();
    dec.for_each_drive(|d| acc.observe(d)).expect("stream");
    let summary = acc.finish();
    let streaming_peak = PEAK.load(Ordering::Relaxed) - baseline;

    assert_eq!(summary.n_drives, n_drives);
    assert!(
        resident_peak > 10 << 20,
        "resident decode should be tens of MB at this scale, got {resident_peak}"
    );
    assert!(
        streaming_peak * 10 < resident_peak,
        "streaming summary must stay far below resident decode: \
         streaming peak {streaming_peak} vs resident peak {resident_peak}"
    );
}
