//! Counting-allocator proof that a frame's payload memory follows the bytes
//! that arrive, not the length its header declares.
//!
//! A frame header is 12 bytes, and its length field may claim up to
//! `MAX_FRAME_BYTES` (64 MiB) before any payload byte or the CRC has been
//! checked. A receiver that allocated the declared length up front would let
//! every hostile connection cost 64 MiB for 12 bytes of traffic. This test
//! sends exactly such a header, then ends the stream, and bounds the
//! receiving thread's peak live heap.
//!
//! The counter is process-global, so this file contains a single `#[test]`
//! (integration tests compile to their own binary; the libtest harness would
//! otherwise interleave counts from concurrently running tests).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

use tbp_sweepd::proto::{FRAME_MAGIC, MAX_FRAME_BYTES};
use tbp_sweepd::{FrameReceiver, ProtoError};

/// A [`System`] wrapper that tracks the test thread's live heap bytes and
/// their high-water mark, as in `crates/core/tests/chunk_memory.rs`.
struct PeakAllocator;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static COUNTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.try_with(|c| c.get()).unwrap_or(false)
}

fn track(delta: i64) {
    if counting_here() {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to `System`; the only extra work is lock-free
// counter updates, so `System`'s layout/ptr contracts are forwarded unchanged.
unsafe impl GlobalAlloc for PeakAllocator {
    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`, `layout` and `new_size` forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

#[test]
fn a_hostile_length_costs_only_the_bytes_that_arrive() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
    let mut client = TcpStream::connect(listener.local_addr().expect("bound address"))
        .expect("loopback connects");
    let (server, _) = listener.accept().expect("loopback accepts");
    server
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout sets");
    let mut rx = FrameReceiver::new(server);

    // The largest length a receiver accepts, any CRC, then end of stream.
    let mut header = Vec::new();
    header.extend_from_slice(&FRAME_MAGIC);
    header.extend_from_slice(&MAX_FRAME_BYTES.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    client.write_all(&header).expect("header writes");
    drop(client);

    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let received = rx.recv();
    COUNTING.with(|c| c.set(false));
    assert!(
        matches!(received, Err(ProtoError::Io(_))),
        "a frame cut short must fail as I/O, got {received:?}"
    );
    let peak = PEAK.load(Ordering::Relaxed);
    assert!(
        peak < 1 << 20,
        "a 12-byte header made the receiver hold {peak} heap bytes"
    );
}
