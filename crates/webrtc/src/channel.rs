//! Reliable, ordered message channel over DTLS (the SCTP data-channel role).
//!
//! Video segments are several megabytes; DTLS records carry at most
//! [`crate::dtls::MAX_RECORD_PLAINTEXT`] bytes. The channel chunks each
//! message across records and reassembles on the far side, preserving
//! message boundaries — the unit the PDN scheduler and the pollution
//! attacks operate on.
//!
//! Reassembly state is sized by what the peer actually delivered, never by
//! what a chunk header claims: a partial message holds only the chunks
//! received so far, and at most [`MAX_PARTIALS`] partial messages are kept
//! (the lowest `msg_id` is evicted first). A malicious peer — the paper's
//! adversary — therefore cannot pin memory with forged `total_chunks`
//! values.

use std::collections::BTreeMap;

use bytes::{BufMut, Bytes, BytesMut};
use pdn_simnet::wire::{get_uvarint, put_uvarint, MAX_UVARINT_LEN};

use crate::dtls::{DtlsEndpoint, DtlsError, MAX_RECORD_PLAINTEXT};

/// Worst-case chunk header: varint msg_id (u64), chunk_idx, total_chunks.
/// Real headers are 3–12 bytes early in a session; budgeting the maximum
/// keeps `CHUNK_DATA` a compile-time constant.
const MAX_CHUNK_HEADER: usize = 3 * MAX_UVARINT_LEN;
const CHUNK_DATA: usize = MAX_RECORD_PLAINTEXT - MAX_CHUNK_HEADER;
/// Upper bound on `total_chunks` accepted from the wire (≈64 GiB of
/// claimed message at the record size, far above any real segment).
/// Reassembly memory does not scale with this value.
const MAX_CHUNKS: u64 = 1 << 22;
/// Upper bound on partially reassembled messages per channel. A sender
/// completes each message before starting the next, so only reordering
/// and loss leave more than one outstanding; past the cap the oldest
/// (lowest `msg_id`) partial is dropped.
const MAX_PARTIALS: usize = 64;

/// The chunks of one message received so far, keyed by chunk index.
#[derive(Debug)]
struct Partial {
    total: usize,
    chunks: BTreeMap<usize, Bytes>,
}

/// A message-oriented channel over an established [`DtlsEndpoint`].
#[derive(Debug)]
pub struct DataChannel {
    dtls: DtlsEndpoint,
    next_msg_id: u64,
    partials: BTreeMap<u64, Partial>,
    /// Reused chunk-frame staging buffer: after the first full-size chunk,
    /// `send_message` performs no frame allocation.
    frame: BytesMut,
}

impl DataChannel {
    /// Wraps an established DTLS endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint has not completed its handshake.
    pub fn new(dtls: DtlsEndpoint) -> Self {
        assert!(
            dtls.is_established(),
            "data channel requires an established DTLS session"
        );
        DataChannel {
            dtls,
            next_msg_id: 0,
            partials: BTreeMap::new(),
            frame: BytesMut::new(),
        }
    }

    /// Access to the underlying DTLS endpoint.
    pub fn dtls(&self) -> &DtlsEndpoint {
        &self.dtls
    }

    /// Encrypts `message` into one or more wire records, one
    /// [`DtlsEndpoint::seal_into`] per chunk.
    ///
    /// # Errors
    ///
    /// Propagates DTLS sealing errors.
    pub fn send_message(&mut self, message: &[u8]) -> Result<Vec<Bytes>, DtlsError> {
        let _g = pdn_simnet::profile::phase(pdn_simnet::profile::Phase::Crypto);
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let total = message.len().div_ceil(CHUNK_DATA).max(1) as u64;
        let mut records = Vec::with_capacity(total as usize);
        let mut chunks = message.chunks(CHUNK_DATA);
        for idx in 0..total {
            let body = chunks.next().unwrap_or(&[]);
            self.frame.clear();
            self.frame.reserve(MAX_CHUNK_HEADER + body.len());
            put_uvarint(&mut self.frame, msg_id);
            put_uvarint(&mut self.frame, idx);
            put_uvarint(&mut self.frame, total);
            self.frame.put_slice(body);
            let mut out = BytesMut::new();
            self.dtls.seal_into(&self.frame, &mut out)?;
            records.push(out.freeze());
        }
        Ok(records)
    }

    /// Opens one wire record into a fresh buffer holding its chunk frame.
    fn open_frame(&mut self, record: &[u8]) -> Result<Bytes, DtlsError> {
        let mut out = BytesMut::new();
        self.dtls.open_into(record, &mut out)?;
        Ok(out.freeze())
    }

    /// Feeds one wire record; returns a complete message when reassembled.
    ///
    /// # Errors
    ///
    /// Propagates DTLS record errors; malformed chunk frames are reported as
    /// [`DtlsError::BadRecord`].
    pub fn receive_record(&mut self, record: &[u8]) -> Result<Option<Bytes>, DtlsError> {
        let frame = {
            let _g = pdn_simnet::profile::phase(pdn_simnet::profile::Phase::Crypto);
            self.open_frame(record)?
        };
        self.ingest_plaintext(frame)
    }

    /// Feeds a burst of wire records in one pass; completed messages are
    /// appended to `msgs` in record order.
    ///
    /// Every record is opened (in order, so the replay window evolves as on
    /// the per-record path) before any chunk is reassembled. Records that
    /// fail authentication, replay, or chunk framing are skipped — the same
    /// outcome as [`Self::receive_record`], whose errors the harness drops.
    pub fn receive_batch(&mut self, records: &[Bytes], msgs: &mut Vec<Bytes>) {
        let mut frames = Vec::with_capacity(records.len());
        {
            let _g = pdn_simnet::profile::phase(pdn_simnet::profile::Phase::Crypto);
            frames.extend(records.iter().filter_map(|r| self.open_frame(r).ok()));
        }
        for frame in frames {
            if let Ok(Some(msg)) = self.ingest_plaintext(frame) {
                msgs.push(msg);
            }
        }
    }

    /// Feeds an already-decrypted chunk frame (used when the harness opened
    /// a record on the raw endpoint during implicit handshake completion).
    ///
    /// # Errors
    ///
    /// [`DtlsError::BadRecord`] for malformed chunk frames.
    pub fn ingest_plaintext(&mut self, frame: Bytes) -> Result<Option<Bytes>, DtlsError> {
        let mut off = 0usize;
        let msg_id = get_uvarint(&frame, &mut off).ok_or(DtlsError::BadRecord)?;
        let idx = get_uvarint(&frame, &mut off).ok_or(DtlsError::BadRecord)?;
        let total = get_uvarint(&frame, &mut off).ok_or(DtlsError::BadRecord)?;
        if total == 0 || total > MAX_CHUNKS || idx >= total {
            return Err(DtlsError::BadRecord);
        }
        let (idx, total) = (idx as usize, total as usize);
        let body = frame.slice(off..);
        if total == 1 {
            // Single-record message (all control traffic): the body slice
            // IS the message — no partial-map entry, no reassembly copy.
            return Ok(Some(body));
        }
        if self.partials.len() >= MAX_PARTIALS && !self.partials.contains_key(&msg_id) {
            self.partials.pop_first();
        }
        let partial = self.partials.entry(msg_id).or_insert_with(|| Partial {
            total,
            chunks: BTreeMap::new(),
        });
        if partial.total != total {
            return Err(DtlsError::BadRecord);
        }
        partial.chunks.entry(idx).or_insert(body);
        if partial.chunks.len() < total {
            return Ok(None);
        }
        let chunks = self.partials.remove(&msg_id).expect("present").chunks;
        let len = chunks.values().map(Bytes::len).sum();
        let mut out = BytesMut::with_capacity(len);
        for c in chunks.values() {
            out.put_slice(c);
        }
        Ok(Some(out.freeze()))
    }

    /// Number of messages with outstanding chunks.
    pub fn pending_messages(&self) -> usize {
        self.partials.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Certificate;
    use crate::dtls::handshake;
    use pdn_simnet::SimRng;

    fn channel_pair() -> (DataChannel, DataChannel) {
        let mut rng = SimRng::seed(9);
        let ccert = Certificate::generate(&mut rng);
        let scert = Certificate::generate(&mut rng);
        let sfp = scert.fingerprint();
        let cfp = ccert.fingerprint();
        let (mut c, hello) = DtlsEndpoint::client(ccert, Some(sfp), &mut rng);
        let mut s = DtlsEndpoint::server(scert, Some(cfp), &mut rng);
        handshake(&mut c, hello, &mut s, &mut rng).unwrap();
        (DataChannel::new(c), DataChannel::new(s))
    }

    #[test]
    fn small_message_single_record() {
        let (mut a, mut b) = channel_pair();
        let records = a.send_message(b"hello").unwrap();
        assert_eq!(records.len(), 1);
        let msg = b.receive_record(&records[0]).unwrap().unwrap();
        assert_eq!(&msg[..], b"hello");
    }

    #[test]
    fn empty_message_roundtrip() {
        let (mut a, mut b) = channel_pair();
        let records = a.send_message(b"").unwrap();
        assert_eq!(records.len(), 1);
        let msg = b.receive_record(&records[0]).unwrap().unwrap();
        assert!(msg.is_empty());
    }

    #[test]
    fn segment_sized_message_chunks_and_reassembles() {
        let (mut a, mut b) = channel_pair();
        // A 3 MB segment, like the Table VI evaluation.
        let payload: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
        let records = a.send_message(&payload).unwrap();
        assert!(records.len() > 1);
        let mut got = None;
        for (i, r) in records.iter().enumerate() {
            let res = b.receive_record(r).unwrap();
            if i + 1 < records.len() {
                assert!(res.is_none(), "incomplete until the last chunk");
            } else {
                got = res;
            }
        }
        assert_eq!(&got.unwrap()[..], payload.as_slice());
        assert_eq!(b.pending_messages(), 0);
    }

    #[test]
    fn interleaved_messages_reassemble_independently() {
        let (mut a, mut b) = channel_pair();
        let big1 = vec![1u8; CHUNK_DATA * 2];
        let big2 = vec![2u8; CHUNK_DATA * 2];
        let r1 = a.send_message(&big1).unwrap();
        let r2 = a.send_message(&big2).unwrap();
        // Interleave: r1[0], r2[0], r1[1], r2[1].
        assert!(b.receive_record(&r1[0]).unwrap().is_none());
        assert!(b.receive_record(&r2[0]).unwrap().is_none());
        let m1 = b.receive_record(&r1[1]).unwrap().unwrap();
        let m2 = b.receive_record(&r2[1]).unwrap().unwrap();
        assert_eq!(&m1[..], big1.as_slice());
        assert_eq!(&m2[..], big2.as_slice());
    }

    #[test]
    fn receive_batch_reassembles_multi_record_message() {
        let (mut a, mut b) = channel_pair();
        let payload: Vec<u8> = (0..3 * CHUNK_DATA + 17).map(|i| (i % 251) as u8).collect();
        let records = a.send_message(&payload).unwrap();
        assert_eq!(records.len(), 4);
        let mut msgs = Vec::new();
        b.receive_batch(&records, &mut msgs);
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[0][..], payload.as_slice());
        assert_eq!(b.pending_messages(), 0);
    }

    #[test]
    fn receive_batch_skips_damaged_records() {
        let (mut a, mut b) = channel_pair();
        let m1 = a.send_message(b"first").unwrap();
        let m2 = a.send_message(b"second").unwrap();
        let m3 = a.send_message(b"third").unwrap();
        let mut bad = m2[0].to_vec();
        let n = bad.len();
        bad[n - 1] ^= 1;
        let wire = vec![m1[0].clone(), Bytes::from(bad), m3[0].clone()];
        let mut msgs = Vec::new();
        b.receive_batch(&wire, &mut msgs);
        assert_eq!(msgs.len(), 2);
        assert_eq!(&msgs[0][..], b"first");
        assert_eq!(&msgs[1][..], b"third");
    }

    #[test]
    fn receive_batch_matches_per_record_path() {
        let (mut a, mut b_batch) = channel_pair();
        let (mut a2, mut b_seq) = channel_pair();
        let payload: Vec<u8> = (0..2 * CHUNK_DATA + 5).map(|i| (i % 101) as u8).collect();
        let records = a.send_message(&payload).unwrap();
        let records2 = a2.send_message(&payload).unwrap();
        assert_eq!(records, records2, "seeded pairs seal identically");
        let mut msgs = Vec::new();
        b_batch.receive_batch(&records, &mut msgs);
        let mut seq_msgs = Vec::new();
        for r in &records {
            if let Some(m) = b_seq.receive_record(r).unwrap() {
                seq_msgs.push(m);
            }
        }
        assert_eq!(msgs, seq_msgs);
    }

    #[test]
    fn tampered_chunk_rejected() {
        let (mut a, mut b) = channel_pair();
        let records = a.send_message(b"important segment").unwrap();
        let mut bad = records[0].to_vec();
        let n = bad.len();
        bad[n / 2] ^= 1;
        assert!(b.receive_record(&bad).is_err());
    }

    #[test]
    fn malformed_chunk_headers_rejected() {
        let (_, mut b) = channel_pair();
        // Empty frame and a dangling varint continuation byte.
        assert!(b.ingest_plaintext(Bytes::new()).is_err());
        assert!(b.ingest_plaintext(Bytes::from_static(&[0x80])).is_err());
        // Forged total_chunks far beyond the reassembly cap.
        let mut f = BytesMut::new();
        put_uvarint(&mut f, 1u64);
        put_uvarint(&mut f, 0u64);
        put_uvarint(&mut f, MAX_CHUNKS + 1);
        assert!(b.ingest_plaintext(f.freeze()).is_err());
        assert_eq!(b.pending_messages(), 0);
    }

    /// An unauthenticated-layer chunk frame, as the DTLS layer would
    /// deliver it after opening a record.
    fn frame(msg_id: u64, idx: u64, total: u64, body: &[u8]) -> Bytes {
        let mut f = BytesMut::new();
        put_uvarint(&mut f, msg_id);
        put_uvarint(&mut f, idx);
        put_uvarint(&mut f, total);
        f.put_slice(body);
        f.freeze()
    }

    #[test]
    fn forged_total_holds_only_received_chunks() {
        let (_, mut b) = channel_pair();
        assert!(b
            .ingest_plaintext(frame(5, 0, MAX_CHUNKS, b"x"))
            .unwrap()
            .is_none());
        let p = &b.partials[&5];
        assert_eq!((p.total, p.chunks.len()), (MAX_CHUNKS as usize, 1));
        // A chunk claiming another total for the same message is rejected.
        assert!(b.ingest_plaintext(frame(5, 1, 2, b"y")).is_err());
    }

    #[test]
    fn partials_are_capped_evicting_lowest_msg_id() {
        let (_, mut b) = channel_pair();
        let extra = 3u64;
        for id in 0..MAX_PARTIALS as u64 + extra {
            assert!(b.ingest_plaintext(frame(id, 0, 2, b"a")).unwrap().is_none());
            assert!(b.pending_messages() <= MAX_PARTIALS);
        }
        assert_eq!(b.pending_messages(), MAX_PARTIALS);
        assert_eq!(b.partials.keys().next(), Some(&extra));
        // The newest partial still completes; the evicted oldest cannot.
        let last = MAX_PARTIALS as u64 + extra - 1;
        let msg = b.ingest_plaintext(frame(last, 1, 2, b"b")).unwrap();
        assert_eq!(msg.as_deref(), Some(&b"ab"[..]));
        assert!(b.ingest_plaintext(frame(0, 1, 2, b"b")).unwrap().is_none());
    }

    #[test]
    fn duplicate_chunk_keeps_first_copy() {
        let (_, mut b) = channel_pair();
        assert!(b.ingest_plaintext(frame(1, 1, 2, b"2")).unwrap().is_none());
        assert!(b.ingest_plaintext(frame(1, 1, 2, b"X")).unwrap().is_none());
        let msg = b.ingest_plaintext(frame(1, 0, 2, b"1")).unwrap();
        assert_eq!(msg.as_deref(), Some(&b"12"[..]));
        assert_eq!(b.pending_messages(), 0);
    }

    #[test]
    #[should_panic(expected = "established")]
    fn requires_established_session() {
        let mut rng = SimRng::seed(1);
        let cert = Certificate::generate(&mut rng);
        let (c, _) = DtlsEndpoint::client(cert, None, &mut rng);
        let _ = DataChannel::new(c);
    }
}

#[cfg(test)]
mod prop_tests {
    //! The burst receive path must be observationally identical to folding
    //! the per-record path over the same wire sequence, for any message
    //! sizes and any hostile damage to the records in flight.

    use super::*;
    use crate::cert::Certificate;
    use crate::dtls::handshake;
    use pdn_simnet::SimRng;
    use proptest::prelude::*;

    /// Seed-deterministic: every call yields endpoints with identical keys,
    /// so two receivers accept the same sender's records.
    fn channel_pair() -> (DataChannel, DataChannel) {
        let mut rng = SimRng::seed(21);
        let ccert = Certificate::generate(&mut rng);
        let scert = Certificate::generate(&mut rng);
        let (cfp, sfp) = (ccert.fingerprint(), scert.fingerprint());
        let (mut c, hello) = DtlsEndpoint::client(ccert, Some(sfp), &mut rng);
        let mut s = DtlsEndpoint::server(scert, Some(cfp), &mut rng);
        handshake(&mut c, hello, &mut s, &mut rng).unwrap();
        (DataChannel::new(c), DataChannel::new(s))
    }

    /// Damages `wire` in flight. Per record, `op` keeps it, truncates it,
    /// flips one bit, replays an earlier record in its place, or drops it;
    /// then `swaps` reorders the survivors.
    fn damage(wire: Vec<Bytes>, ops: &[(u8, u32)], swaps: &[(usize, usize)]) -> Vec<Bytes> {
        let mut out: Vec<Bytes> = Vec::new();
        for (i, rec) in wire.into_iter().enumerate() {
            let (op, p) = ops[i % ops.len()];
            let p = p as usize;
            match op % 5 {
                1 => out.push(rec.slice(..p % rec.len())),
                2 => {
                    let mut v = rec.to_vec();
                    let bit = p % (v.len() * 8);
                    v[bit / 8] ^= 1 << (bit % 8);
                    out.push(Bytes::from(v));
                }
                3 if !out.is_empty() => {
                    let earlier = out[p % out.len()].clone();
                    out.push(earlier);
                }
                4 => {}
                _ => out.push(rec),
            }
        }
        if !out.is_empty() {
            for &(a, b) in swaps {
                let n = out.len();
                out.swap(a % n, b % n);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn burst_receive_matches_per_record_under_damage(
            sizes in proptest::collection::vec(0usize..2 * CHUNK_DATA + 64, 1..5),
            ops in proptest::collection::vec((0u8..5, any::<u32>()), 1..16),
            swaps in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..4),
            burst in 1usize..6,
        ) {
            let (mut tx, mut rx_burst) = channel_pair();
            let (_, mut rx_seq) = channel_pair();
            let mut wire = Vec::new();
            for (m, &n) in sizes.iter().enumerate() {
                let msg: Vec<u8> = (0..n).map(|i| (i * 7 + m) as u8).collect();
                wire.extend(tx.send_message(&msg).unwrap());
            }
            let wire = damage(wire, &ops, &swaps);

            let mut burst_msgs = Vec::new();
            for chunk in wire.chunks(burst) {
                rx_burst.receive_batch(chunk, &mut burst_msgs);
            }
            let seq_msgs: Vec<Bytes> = wire
                .iter()
                .filter_map(|r| rx_seq.receive_record(r).ok().flatten())
                .collect();
            prop_assert_eq!(burst_msgs, seq_msgs);
            prop_assert_eq!(rx_burst.pending_messages(), rx_seq.pending_messages());
        }
    }
}
