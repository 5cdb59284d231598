//! Heap allocations of the CHT replication codec, counted
//! deterministically.
//!
//! A snapshot crosses the fleet as CPRDSNAP bytes inside a hex-coded
//! `snap` frame. Encoding, framing, parsing and decoding it must each
//! allocate a fixed number of times, never once per byte: a 64-entry and
//! a 4096-entry table cost the same count. Allocation counts stand in for
//! codec cost, which wall clocks on a shared host measure too noisily to
//! gate on.
//!
//! This is its own integration binary with a single test because the
//! counting global allocator sees every thread of the process; concurrent
//! tests would pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use copred_core::{Cell, ChtParams};
use copred_service::protocol::{Request, Response};
use copred_store::snapshot::{decode, encode};
use copred_store::TableImage;

/// System allocator that counts allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static GLOBAL: Counting = Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Allocation counts of each codec step for one table of `bits` address
/// bits, in the order encode, response frame, push frame, response parse,
/// decode.
fn codec_allocations(bits: u32) -> [u64; 5] {
    let params = ChtParams {
        bits,
        ..ChtParams::paper_arm()
    };
    let mut image = TableImage::empty(params);
    image.u_state = 0x9E37_79B9_7F4A_7C15;
    for (i, cell) in image.cells.iter_mut().enumerate() {
        *cell = Cell::new((i % 16) as u8, (i / 16 % 16) as u8);
    }
    let (encode_n, bytes) = allocations(|| encode(&image));
    let resp = Response::Snap {
        fp: 0xFACE,
        payload: bytes.clone(),
    };
    let (resp_n, resp_text) = allocations(|| resp.to_text());
    let push = Request::SnapPush {
        fp: 0xFACE,
        version: 1,
        crc: 0xDEAD_BEEF,
        payload: bytes,
    };
    let (push_n, push_text) = allocations(|| push.to_text());
    assert!(push_text.len() > resp_text.len());
    let (parse_n, parsed) = allocations(|| Response::from_text(&resp_text).unwrap());
    let Response::Snap { payload, .. } = parsed else {
        panic!("snap frame parsed as {parsed:?}");
    };
    let (decode_n, back) = allocations(|| decode(&payload).unwrap());
    assert_eq!(back, image);
    [encode_n, resp_n, push_n, parse_n, decode_n]
}

#[test]
fn snapshot_codec_allocates_per_call_not_per_byte() {
    let small = codec_allocations(6);
    let paper = codec_allocations(ChtParams::paper_arm().bits);
    println!("allocations (encode, snap to_text, snap_push to_text, from_text, decode): 64 entries {small:?}, 4096 entries {paper:?}");
    assert_eq!(small, paper, "allocation count grows with table size");
    assert_eq!(paper, [1; 5], "one output buffer per codec step");
}
