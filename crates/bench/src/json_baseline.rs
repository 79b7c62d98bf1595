//! The pre-binary wire codecs, kept outside `pdn-provider` as a benchmark
//! and differential-test oracle: `TLS|`+JSON signaling frames and the
//! fixed-width P2P format.
//!
//! `pdn_provider::wire` encodes and accepts only the binary format.
//! `wire_bench` measures it against these codecs, and
//! `crates/bench/tests/wire_differential.rs` asserts message-level
//! equivalence between the two stacks.
//!
//! Legacy P2P layout (big-endian, no version byte; the tag is 1–3):
//!
//! ```text
//! tag u8 | video: u16 len + UTF-8 | rendition u8 | fields
//!   Have:    count u32, count × seq u64
//!   Request: seq u64
//!   Segment: seq u64, duration_ms u32, sim flag u8 [+ im 32 + sig 32],
//!            payload: u32 len + bytes
//! ```

use bytes::{BufMut, Bytes, BytesMut};
use pdn_media::VideoId;
use pdn_provider::proto::TLS_MARKER;
use pdn_provider::wire::SIGNAL_BIN_VERSION;
use pdn_provider::{P2pMsg, SignalMsg};

/// Encodes a signaling message as `TLS|` + JSON.
pub fn encode_signal(msg: &SignalMsg) -> Bytes {
    let json = serde_json::to_vec(msg).expect("signal messages serialize");
    let mut out = BytesMut::with_capacity(4 + json.len());
    out.put_slice(TLS_MARKER);
    out.put_slice(&json);
    out.freeze()
}

/// Decodes a `TLS|` + JSON signaling frame; binary frames return `None`.
pub fn decode_signal(frame: &[u8]) -> Option<SignalMsg> {
    let body = frame.strip_prefix(TLS_MARKER.as_slice())?;
    if body.first() == Some(&SIGNAL_BIN_VERSION) {
        return None;
    }
    serde_json::from_slice(body).ok()
}

/// Encodes a P2P message in the legacy fixed-width format.
pub fn encode_p2p(msg: &P2pMsg) -> Bytes {
    let mut out = BytesMut::new();
    fn put_str(out: &mut BytesMut, s: &str) {
        out.put_u16(s.len() as u16);
        out.put_slice(s.as_bytes());
    }
    match msg {
        P2pMsg::Have {
            video,
            rendition,
            seqs,
        } => {
            out.put_u8(1);
            put_str(&mut out, &video.0);
            out.put_u8(*rendition);
            out.put_u32(seqs.len() as u32);
            for s in seqs {
                out.put_u64(*s);
            }
        }
        P2pMsg::RequestSegment {
            video,
            rendition,
            seq,
        } => {
            out.put_u8(2);
            put_str(&mut out, &video.0);
            out.put_u8(*rendition);
            out.put_u64(*seq);
        }
        P2pMsg::SegmentData {
            video,
            rendition,
            seq,
            duration_ms,
            data,
            sim,
        } => {
            out.put_u8(3);
            put_str(&mut out, &video.0);
            out.put_u8(*rendition);
            out.put_u64(*seq);
            out.put_u32(*duration_ms);
            match sim {
                Some((im, sig)) => {
                    out.put_u8(1);
                    out.put_slice(im);
                    out.put_slice(sig);
                }
                None => out.put_u8(0),
            }
            out.put_u32(data.len() as u32);
            out.put_slice(data);
        }
    }
    out.freeze()
}

/// Decodes a legacy fixed-width P2P frame into an owned [`P2pMsg`]. Fields
/// are read as borrowed views of the frame; the segment payload stays a
/// zero-copy slice of `frame`. Total over arbitrary bytes.
pub fn decode_p2p(frame: &Bytes) -> Option<P2pMsg> {
    let data: &[u8] = frame;
    let mut off = 0usize;
    let tag = get_u8(data, &mut off)?;
    let video = take_legacy_str(data, &mut off)?;
    let rendition = get_u8(data, &mut off)?;
    match tag {
        1 => {
            let n = usize::try_from(u32::from_be_bytes(get_array::<4>(data, &mut off)?)).ok()?;
            let start = off;
            off = off.checked_add(n.checked_mul(8)?)?;
            if off > data.len() {
                return None;
            }
            let seqs = data[start..off]
                .chunks_exact(8)
                .map(|b| u64::from_be_bytes(b.try_into().expect("8-byte chunk")))
                .collect();
            Some(P2pMsg::Have {
                video: VideoId::new(video),
                rendition,
                seqs,
            })
        }
        2 => Some(P2pMsg::RequestSegment {
            video: VideoId::new(video),
            rendition,
            seq: u64::from_be_bytes(get_array::<8>(data, &mut off)?),
        }),
        3 => {
            let seq = u64::from_be_bytes(get_array::<8>(data, &mut off)?);
            let duration_ms = u32::from_be_bytes(get_array::<4>(data, &mut off)?);
            let sim = match get_u8(data, &mut off)? {
                1 => Some((
                    get_array::<32>(data, &mut off)?,
                    get_array::<32>(data, &mut off)?,
                )),
                0 => None,
                _ => return None,
            };
            let len = usize::try_from(u32::from_be_bytes(get_array::<4>(data, &mut off)?)).ok()?;
            let end = off.checked_add(len)?;
            if end > data.len() {
                return None;
            }
            Some(P2pMsg::SegmentData {
                video: VideoId::new(video),
                rendition,
                seq,
                duration_ms,
                data: frame.slice(off..end),
                sim,
            })
        }
        _ => None,
    }
}

/// Legacy u16-length-prefixed string, borrowed from the frame.
fn take_legacy_str<'a>(data: &'a [u8], off: &mut usize) -> Option<&'a str> {
    let len = usize::from(u16::from_be_bytes(get_array::<2>(data, off)?));
    let end = off.checked_add(len)?;
    if end > data.len() {
        return None;
    }
    let s = std::str::from_utf8(&data[*off..end]).ok()?;
    *off = end;
    Some(s)
}

fn get_u8(data: &[u8], off: &mut usize) -> Option<u8> {
    let b = *data.get(*off)?;
    *off += 1;
    Some(b)
}

fn get_array<const N: usize>(data: &[u8], off: &mut usize) -> Option<[u8; N]> {
    let end = off.checked_add(N)?;
    let arr: [u8; N] = data.get(*off..end)?.try_into().ok()?;
    *off = end;
    Some(arr)
}
