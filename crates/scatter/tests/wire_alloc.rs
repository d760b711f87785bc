//! Peak-allocation bounds for the runtime's typed payload decoders.
//!
//! A payload's record count comes off the wire, so a decoder that
//! reserves capacity from it before checking how many bytes follow lets a
//! four-byte datagram force a multi-megabyte allocation. A counting
//! global allocator measures the peak heap growth on the decoding thread
//! and bounds it by a small multiple of the input size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use scatter::runtime::wire::{self, FrameState, WireError};

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to `System` with the caller's own
// pointer and layout, so `System` upholds the `GlobalAlloc` contract;
// the bookkeeping only touches this thread's counters and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `p` came from `alloc` with `layout`,
        // and `alloc` obtained it from `System`.
        System.dealloc(p, layout);
        track(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap growth on this thread while `f` runs, in bytes.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    let peak = PEAK.with(Cell::get);
    (out, (peak - start).max(0) as usize)
}

/// Fixed allowance for incidental allocations, independent of input.
const SLACK: usize = 1024;

#[test]
fn state_count_without_records_allocates_nothing_large() {
    // Claims 100 000 descriptors (the decoder's own ceiling), carries none.
    let payload = Bytes::from(100_000u32.to_be_bytes().to_vec());
    let (res, peak) = peak_growth(|| wire::decode_state(payload.clone()));
    assert_eq!(res, Err(WireError::PayloadTruncated));
    assert!(
        peak <= 8 * payload.len() + SLACK,
        "4-byte payload peaked at {peak} B"
    );
}

#[test]
fn result_count_without_records_allocates_nothing_large() {
    let payload = Bytes::from(u16::MAX.to_be_bytes().to_vec());
    let (res, peak) = peak_growth(|| wire::decode_result(payload.clone()));
    assert_eq!(res, Err(WireError::PayloadTruncated));
    assert!(
        peak <= 8 * payload.len() + SLACK,
        "2-byte payload peaked at {peak} B"
    );
}

#[test]
fn truncated_state_reserves_only_what_its_bytes_can_fill() {
    // A genuine three-descriptor state whose header claims ten thousand.
    let d = vision::Descriptor {
        keypoint: vision::Keypoint {
            x: 1.0,
            y: 2.0,
            scale: 1.5,
            orientation: 0.25,
            response: 0.5,
            octave: 1,
            level: 2,
        },
        v: [0.125; 128],
    };
    let state = FrameState {
        descriptors: vec![d; 3],
        fisher: vec![0.5; 8],
        candidates: vec![4, 5],
    };
    let honest = wire::encode_state(&state);
    let mut forged = honest.to_vec();
    forged[..4].copy_from_slice(&10_000u32.to_be_bytes());
    let forged = Bytes::from(forged);
    let (res, peak) = peak_growth(|| wire::decode_state(forged.clone()));
    assert_eq!(res, Err(WireError::PayloadTruncated));
    assert!(
        peak <= 2 * forged.len() + SLACK,
        "{} B payload peaked at {peak} B",
        forged.len()
    );

    // The honest payload still decodes within the same bound.
    let (res, peak) = peak_growth(|| wire::decode_state(honest.clone()));
    assert_eq!(res, Ok(state));
    assert!(
        peak <= 2 * honest.len() + SLACK,
        "{} B payload peaked at {peak} B",
        honest.len()
    );
}
