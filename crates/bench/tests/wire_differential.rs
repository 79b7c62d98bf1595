//! Differential tests: the binary codec of `pdn_provider::wire` vs the
//! pre-binary codecs kept in `pdn_bench::json_baseline`.
//!
//! Both stacks must decode every message back to the same value; the two
//! formats must stay disjoint, so the production decoders never accept an
//! oracle frame and the oracle never accepts a binary one.

use bytes::Bytes;
use pdn_bench::json_baseline;
use pdn_media::VideoId;
use pdn_provider::wire::{
    decode_join_view, decode_p2p, decode_p2p_view, decode_signal, encode_p2p, encode_signal,
    InternTable,
};
use pdn_provider::{P2pMsg, SignalMsg};
use pdn_simnet::Addr;
use pdn_webrtc::{Candidate, CandidateKind, Fingerprint, SessionDescription};
use proptest::prelude::*;

fn sdp(nc: usize) -> SessionDescription {
    SessionDescription {
        ice_ufrag: "ufrag01".into(),
        ice_pwd: "pwd-secret".into(),
        fingerprint: Fingerprint([7u8; 32]),
        candidates: (0..nc)
            .map(|i| Candidate {
                kind: match i % 3 {
                    0 => CandidateKind::Host,
                    1 => CandidateKind::ServerReflexive,
                    _ => CandidateKind::Relay,
                },
                addr: Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8, 4000 + i as u16),
                priority: 1 << (i % 31),
            })
            .collect(),
    }
}

fn every_signal_variant() -> Vec<SignalMsg> {
    vec![
        SignalMsg::Join {
            api_key: Some("key".into()),
            token: None,
            origin: "site.tv".into(),
            video: "v.m3u8".into(),
            manifest_hash: "abcd".into(),
            sdp: sdp(3),
        },
        SignalMsg::JoinOk {
            peer_id: 1 << 40,
            neighbors: vec![(1, sdp(2)), (99, sdp(0))],
        },
        SignalMsg::JoinDenied {
            reason: "bad key".into(),
        },
        SignalMsg::PeerJoined {
            peer_id: 7,
            sdp: sdp(1),
        },
        SignalMsg::StatsReport {
            p2p_up_bytes: u64::MAX,
            p2p_down_bytes: 0,
        },
        SignalMsg::ImReport {
            video: "v".into(),
            rendition: 2,
            seq: 300,
            im: "00ff".repeat(16),
        },
        SignalMsg::SimBroadcast {
            video: "v".into(),
            rendition: 0,
            seq: 12,
            im: "aa".repeat(32),
            sig: "bb".repeat(32),
        },
        SignalMsg::Blacklisted {
            reason: "fake reports".into(),
        },
        SignalMsg::Leave,
    ]
}

fn every_p2p_variant() -> Vec<P2pMsg> {
    vec![
        P2pMsg::Have {
            video: VideoId::new("v.m3u8"),
            rendition: 1,
            seqs: vec![0, 1, 127, 128, 1 << 40],
        },
        P2pMsg::RequestSegment {
            video: VideoId::new("v.m3u8"),
            rendition: 0,
            seq: 42,
        },
        P2pMsg::SegmentData {
            video: VideoId::new("v.m3u8"),
            rendition: 3,
            seq: 9,
            duration_ms: 4000,
            data: Bytes::from_static(b"\x47segment-bytes"),
            sim: Some(([1u8; 32], [2u8; 32])),
        },
        P2pMsg::SegmentData {
            video: VideoId::new("v.m3u8"),
            rendition: 0,
            seq: 10,
            duration_ms: 4000,
            data: Bytes::from_static(b""),
            sim: None,
        },
    ]
}

#[test]
fn binary_and_json_agree_on_every_signal_variant() {
    for msg in every_signal_variant() {
        let bin = decode_signal(&encode_signal(&msg));
        let json = json_baseline::decode_signal(&json_baseline::encode_signal(&msg));
        assert_eq!(bin, json, "codecs disagree on {msg:?}");
        assert_eq!(bin, Some(msg));
    }
}

#[test]
fn binary_and_legacy_agree_on_every_p2p_variant() {
    let mut table = InternTable::new();
    table.intern("v.m3u8");
    for msg in every_p2p_variant() {
        for t in [&InternTable::EMPTY, &table] {
            let bin = decode_p2p(&encode_p2p(&msg, t), t);
            let legacy = json_baseline::decode_p2p(&json_baseline::encode_p2p(&msg));
            assert_eq!(bin, legacy, "codecs disagree on {msg:?}");
            assert_eq!(bin, Some(msg.clone()));
        }
    }
}

/// `pdn_provider::wire` accepts only its own format: `TLS|`+JSON frames
/// and fixed-width P2P frames (tags 1–3) are rejected, and the oracle
/// rejects binary frames in turn.
#[test]
fn formats_are_disjoint() {
    for msg in every_signal_variant() {
        let json = json_baseline::encode_signal(&msg);
        assert_eq!(decode_signal(&json), None, "JSON {msg:?} accepted");
        assert!(decode_join_view(&json).is_none());
        assert_eq!(json_baseline::decode_signal(&encode_signal(&msg)), None);
    }
    for msg in every_p2p_variant() {
        let legacy = json_baseline::encode_p2p(&msg);
        assert!((1..=3).contains(&legacy[0]));
        assert!(
            decode_p2p_view(&legacy).is_none(),
            "legacy {msg:?} accepted"
        );
        let binary = encode_p2p(&msg, &InternTable::EMPTY);
        assert_eq!(json_baseline::decode_p2p(&binary), None);
    }
}

/// The oracle's decoder keeps the zero-copy payload slice it always had, so
/// `wire_bench`'s legacy side measures the same work as before.
#[test]
fn legacy_segment_payload_decodes_zero_copy() {
    let msg = P2pMsg::SegmentData {
        video: VideoId::new("v"),
        rendition: 0,
        seq: 1,
        duration_ms: 4000,
        data: Bytes::from(vec![0x47u8; 4096]),
        sim: None,
    };
    let frame = json_baseline::encode_p2p(&msg);
    let Some(P2pMsg::SegmentData { data, .. }) = json_baseline::decode_p2p(&frame) else {
        panic!("decodes");
    };
    assert_eq!(
        data.as_ptr() as usize - frame.as_ptr() as usize,
        frame.len() - 4096
    );
    assert_eq!(&data[..], &[0x47u8; 4096][..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Binary and JSON stacks agree on arbitrary signaling messages
    /// (strings, ids, candidate lists).
    #[test]
    fn signal_differential(
        origin in "[a-z.]{1,20}",
        video in "[a-zA-Z0-9:/._-]{1,40}",
        peer_id in any::<u64>(),
        up in any::<u64>(),
        down in any::<u64>(),
        nc in 0usize..5,
    ) {
        let msgs = [
            SignalMsg::Join {
                api_key: None,
                token: Some(origin.clone()),
                origin,
                video: video.clone(),
                manifest_hash: "h".into(),
                sdp: sdp(nc),
            },
            SignalMsg::JoinOk { peer_id, neighbors: vec![(peer_id ^ 1, sdp(nc))] },
            SignalMsg::StatsReport { p2p_up_bytes: up, p2p_down_bytes: down },
            SignalMsg::ImReport { video, rendition: (nc % 256) as u8, seq: down, im: "cc".repeat(32) },
        ];
        for msg in msgs {
            let bin = decode_signal(&encode_signal(&msg));
            let json = json_baseline::decode_signal(&json_baseline::encode_signal(&msg));
            prop_assert_eq!(bin.clone(), json);
            prop_assert_eq!(bin, Some(msg));
        }
    }

    /// Binary and legacy stacks agree on arbitrary P2P messages, with and
    /// without the video interned.
    #[test]
    fn p2p_differential(
        video in "[a-zA-Z0-9:/._-]{1,40}",
        rendition in any::<u8>(),
        seqs in proptest::collection::vec(any::<u64>(), 0..64),
        seq in any::<u64>(),
        duration_ms in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        with_sim in any::<bool>(),
    ) {
        let mut table = InternTable::new();
        table.intern(&video);
        let vid = VideoId::new(video);
        let msgs = [
            P2pMsg::Have { video: vid.clone(), rendition, seqs },
            P2pMsg::RequestSegment { video: vid.clone(), rendition, seq },
            P2pMsg::SegmentData {
                video: vid, rendition, seq, duration_ms,
                data: Bytes::from(data),
                sim: with_sim.then_some(([3u8; 32], [4u8; 32])),
            },
        ];
        for msg in msgs {
            let legacy = json_baseline::decode_p2p(&json_baseline::encode_p2p(&msg));
            let inline = decode_p2p(&encode_p2p(&msg, &InternTable::EMPTY), &InternTable::EMPTY);
            let interned = decode_p2p(&encode_p2p(&msg, &table), &table);
            prop_assert_eq!(legacy, Some(msg.clone()));
            prop_assert_eq!(inline, Some(msg.clone()));
            prop_assert_eq!(interned, Some(msg));
        }
    }

    /// The oracle's decoder is total too: truncated and bit-flipped legacy
    /// frames never panic it.
    #[test]
    fn legacy_decoder_total(cut_seed in any::<u64>(), flip_byte in any::<usize>(), flip_bit in 0u8..8) {
        for msg in every_p2p_variant() {
            let frame = json_baseline::encode_p2p(&msg);
            let cut = cut_seed as usize % frame.len();
            prop_assert_eq!(json_baseline::decode_p2p(&frame.slice(..cut)), None, "cut at {}", cut);
            let mut bent = frame.to_vec();
            bent[flip_byte % frame.len()] ^= 1 << flip_bit;
            let _ = json_baseline::decode_p2p(&Bytes::from(bent));
        }
    }
}
