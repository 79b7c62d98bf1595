//! A malicious peer sends authenticated records whose chunk headers claim
//! the largest `total_chunks` the wire accepts. Reassembly memory must stay
//! proportional to the chunks actually received, not to the claimed total.
//!
//! The binary installs an allocator that tracks live heap bytes per thread,
//! so the bound is measured rather than read off the code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{BufMut, BytesMut};
use pdn_simnet::wire::put_uvarint;
use pdn_simnet::SimRng;
use pdn_webrtc::dtls::{handshake, DtlsEndpoint};
use pdn_webrtc::{Certificate, DataChannel};

struct LiveBytes;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Heap bytes the current thread allocated and has not freed.
fn live() -> isize {
    LIVE.with(Cell::get)
}

/// The largest `total_chunks` a chunk header may claim.
const WIRE_MAX_CHUNKS: u64 = 1 << 22;

/// Per-record bound on retained reassembly memory: the record itself plus
/// bookkeeping, nowhere near a slot per claimed chunk.
const PER_RECORD_BUDGET: isize = 16 * 1024;

/// An attacker endpoint (raw DTLS, free to write any frame) and a victim
/// data channel with the same session keys.
fn attacker_and_victim() -> (DtlsEndpoint, DataChannel) {
    let mut rng = SimRng::seed(3);
    let acert = Certificate::generate(&mut rng);
    let vcert = Certificate::generate(&mut rng);
    let (mut attacker, hello) = DtlsEndpoint::client(acert, None, &mut rng);
    let mut victim = DtlsEndpoint::server(vcert, None, &mut rng);
    handshake(&mut attacker, hello, &mut victim, &mut rng).expect("handshake");
    (attacker, DataChannel::new(victim))
}

/// Seals a one-byte chunk of message `msg_id` claiming `WIRE_MAX_CHUNKS`.
fn forged_record(attacker: &mut DtlsEndpoint, msg_id: u64) -> BytesMut {
    let mut frame = BytesMut::new();
    put_uvarint(&mut frame, msg_id);
    put_uvarint(&mut frame, 0);
    put_uvarint(&mut frame, WIRE_MAX_CHUNKS);
    frame.put_u8(0xaa);
    let mut record = BytesMut::new();
    attacker.seal_into(&frame, &mut record).expect("seal");
    record
}

#[test]
fn forged_total_chunks_do_not_pin_memory() {
    let (mut attacker, mut victim) = attacker_and_victim();
    let records: Vec<BytesMut> = (0..8).map(|id| forged_record(&mut attacker, id)).collect();
    let start = live();
    for (i, rec) in records.iter().enumerate() {
        let before = live();
        assert_eq!(victim.receive_record(rec), Ok(None), "record {i}");
        let grew = live() - before;
        assert!(
            grew < PER_RECORD_BUDGET,
            "record {i} ({} wire bytes) retained {grew} heap bytes",
            rec.len()
        );
    }
    assert_eq!(victim.pending_messages(), records.len());
    assert!(live() - start < records.len() as isize * PER_RECORD_BUDGET);
}

#[test]
fn forged_partials_are_bounded_in_number() {
    let (mut attacker, mut victim) = attacker_and_victim();
    let start = live();
    for id in 0..1000 {
        let rec = forged_record(&mut attacker, id);
        assert_eq!(victim.receive_record(&rec), Ok(None), "record {id}");
        assert!(
            live() - start < 256 * PER_RECORD_BUDGET,
            "record {id}: {} heap bytes retained",
            live() - start
        );
    }
    assert!(victim.pending_messages() < 1000);
}
