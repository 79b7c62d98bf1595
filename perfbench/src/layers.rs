//! Per-layer numbers: timed calls into single layers' public functions
//! with workload-shaped inputs, the counters each workload's pass
//! reports, and the program's phase profiler.

use std::hint::black_box;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use pdn_crypto::sha256;
use pdn_provider::service::{BoundedInboxes, InboxConfig, MsgClass};
use pdn_provider::signaling::{AdmissionBatch, SignalingServer};
use pdn_provider::wire::{decode_join_view, decode_signal, encode_signal_into};
use pdn_provider::{CustomerAccount, ProviderProfile, SignalMsg};
use pdn_simnet::profile::{self, PHASE_COUNT};
use pdn_simnet::{Addr, CalendarQueue, GeoIpService, LatencyHistogram, SimRng, SimTime};
use pdn_webrtc::dtls::{handshake, MAX_RECORD_PLAINTEXT};
use pdn_webrtc::{Candidate, CandidateKind, Certificate, DtlsEndpoint, SessionDescription};

use crate::metrics::{median, tail_quantile_ppm, Report};
use crate::workloads::{swarm_config, tracker_config, Facts, Pass};

/// Timing repetitions per microbenchmark; the median is reported.
const REPS: usize = 5;

/// Median over [`REPS`] runs of `f`, in ns per item (`f` returns its
/// item count).
fn ns_per_item(mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let items = f();
            t.elapsed().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// A small deterministic generator for benchmark inputs.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn sdp(seed: u64) -> SessionDescription {
    let mut rng = SimRng::seed(seed);
    SessionDescription {
        ice_ufrag: format!("u{seed}"),
        ice_pwd: format!("p{seed}"),
        fingerprint: Certificate::generate(&mut rng).fingerprint(),
        candidates: vec![Candidate::new(
            CandidateKind::Host,
            Addr::new(20, 0, 0, (seed % 250) as u8, 4000),
        )],
    }
}

fn join_msg(seed: u64) -> SignalMsg {
    SignalMsg::Join {
        api_key: Some("key-svc".into()),
        token: None,
        origin: "svc.tv".into(),
        video: "v".into(),
        manifest_hash: "m0".into(),
        sdp: sdp(seed),
    }
}

fn client_addr(i: u32) -> Addr {
    Addr::new(40, (i >> 16) as u8, (i >> 8) as u8, i as u8, 6000)
}

/// `DtlsEndpoint::seal_into` + `open_into` of one full data-channel
/// record, ns per record.
pub fn seal_open_ns(seed: u64) -> f64 {
    let mut rng = SimRng::seed(seed);
    let ccert = Certificate::generate(&mut rng);
    let scert = Certificate::generate(&mut rng);
    let (cfp, sfp) = (ccert.fingerprint(), scert.fingerprint());
    let (mut c, hello) = DtlsEndpoint::client(ccert, Some(sfp), &mut rng);
    let mut s = DtlsEndpoint::server(scert, Some(cfp), &mut rng);
    handshake(&mut c, hello, &mut s, &mut rng).expect("in-memory DTLS handshake");
    let payload: Vec<u8> = (0..MAX_RECORD_PLAINTEXT).map(|i| i as u8).collect();
    let (mut record, mut plain) = (BytesMut::new(), BytesMut::new());
    let ns = ns_per_item(|| {
        for _ in 0..400 {
            c.seal_into(&payload, &mut record).expect("seal");
            s.open_into(&record, &mut plain).expect("open");
        }
        400
    });
    assert_eq!(&plain[..], &payload[..], "DTLS round trip");
    ns
}

/// `pdn_crypto::sha256::digest` over 16 KiB (one record), ns per KiB.
pub fn sha256_ns_per_kb() -> f64 {
    let buf: Vec<u8> = (0..MAX_RECORD_PLAINTEXT).map(|i| (i * 7) as u8).collect();
    let kib = (buf.len() / 1024) as u64;
    ns_per_item(|| {
        for _ in 0..400 {
            black_box(sha256::digest(black_box(&buf)));
        }
        400 * kib
    })
}

/// How a workload's scheduler drives its `CalendarQueue`.
#[derive(Debug, Clone, Copy)]
pub enum QueueUse {
    /// `Network`'s event queue: `pop` and `push` (schedule-order ties).
    Sequenced,
    /// A swarm shard: `pop_before` the window end and `push_keyed` with a
    /// content-derived key, the window advancing by `lookahead_ns`.
    Keyed {
        /// Window length, ns.
        lookahead_ns: u64,
    },
}

/// One pop and one push on a `CalendarQueue` holding `depth` events
/// spread over a second of virtual time (the hold model), ns per pair.
pub fn queue_push_pop_ns(depth: usize, how: QueueUse) -> f64 {
    const SPREAD_NS: u64 = 1_000_000_000;
    let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
    let mut q: CalendarQueue<u64> = CalendarQueue::new();
    // Keyed events carry the origin in the high half of the key and a
    // per-push counter in the low half, as swarm messages do.
    let mut ctr = 0u64;
    let mut push = |q: &mut CalendarQueue<u64>, at: u64, ev: u64| {
        match how {
            QueueUse::Sequenced => q.push(SimTime::from_nanos(at), ev),
            QueueUse::Keyed { .. } => {
                ctr += 1;
                q.push_keyed(
                    SimTime::from_nanos(at),
                    (ev << 32) | (ctr & 0xffff_ffff),
                    ev,
                )
            }
        };
    };
    for i in 0..depth as u64 {
        push(&mut q, rng.next() % SPREAD_NS, i);
    }
    let mut window_end = 0;
    ns_per_item(|| {
        const OPS: u64 = 400_000;
        for _ in 0..OPS {
            let (at, ev) = match how {
                QueueUse::Sequenced => q.pop(),
                QueueUse::Keyed { lookahead_ns } => loop {
                    if let Some(e) = q.pop_before(SimTime::from_nanos(window_end)) {
                        break Some(e);
                    }
                    window_end += lookahead_ns;
                },
            }
            .expect("queue holds depth events");
            let next = at.as_nanos() + 1 + rng.next() % SPREAD_NS;
            push(&mut q, next, black_box(ev));
        }
        OPS
    })
}

/// `SignalingServer::handle_frames_batch_into` on bursts of one tick's
/// join budget, against a warm server, ns per join.
pub fn signaling_join_ns() -> f64 {
    let cfg = tracker_config(1);
    let burst = (cfg.tick_budget / MsgClass::JoinCritical.cost()).max(1) as usize;
    let geo = GeoIpService::new();
    let mut server = SignalingServer::new(ProviderProfile::peer5(), 1);
    server.accounts_mut().register(CustomerAccount::new(
        "svc",
        "key-svc",
        ["svc.tv".to_string()],
    ));
    let (mut out, mut batch) = (Vec::new(), AdmissionBatch::new());
    let seeders: Vec<(Addr, Bytes)> = (1..=64u32)
        .map(|i| (client_addr(i), join_msg(i as u64).encode()))
        .collect();
    server.handle_frames_batch_into(&seeders, SimTime::ZERO, &geo, &mut batch, &mut out);
    const JOINS: u32 = 3_000;
    let samples: Vec<f64> = (1..=REPS as u32)
        .map(|rep| {
            let first = 1_000 + rep * JOINS;
            let frames: Vec<(Addr, Bytes)> = (first..first + JOINS)
                .map(|i| (client_addr(i), join_msg(i as u64).encode()))
                .collect();
            let now = SimTime::from_secs(rep as u64);
            let t = Instant::now();
            for chunk in frames.chunks(burst) {
                out.clear();
                batch.clear();
                server.handle_frames_batch_into(chunk, now, &geo, &mut batch, &mut out);
                black_box(&out);
            }
            t.elapsed().as_nanos() as f64 / JOINS as f64
        })
        .collect();
    median(&samples)
}

/// `encode_signal_into` + `decode_signal` + `decode_join_view` of one
/// join, ns per round trip.
pub fn wire_roundtrip_ns() -> f64 {
    let msg = join_msg(7);
    let mut buf = BytesMut::new();
    ns_per_item(|| {
        const N: u64 = 20_000;
        for _ in 0..N {
            buf.clear();
            encode_signal_into(black_box(&msg), &mut buf);
            black_box(decode_signal(&buf).expect("decodes"));
            black_box(decode_join_view(&buf).expect("join view"));
        }
        N
    })
}

/// `BoundedInboxes::offer` of one tick's frame mix (joins, gossip and
/// greeter junk, as the tracker sees under its flood) and one
/// `drain_tick` at the tracker's budget, ns per offered frame.
pub fn inbox_offer_drain_ns() -> f64 {
    let cfg = tracker_config(1);
    let joins = join_msg(3).encode();
    let gossip = SignalMsg::StatsReport {
        p2p_up_bytes: 1_000,
        p2p_down_bytes: 3_000,
    }
    .encode();
    let greeter = Bytes::from_static(b"HELLO-PDN-GREETER/1.0 who-has-segments?");
    let mix: Vec<(Addr, Bytes)> = (0..50u32)
        .map(|i| {
            let frame = match i % 5 {
                0..=1 => joins.clone(),
                2 => gossip.clone(),
                _ => greeter.clone(),
            };
            (client_addr(i), frame)
        })
        .collect();
    let mut inbox = BoundedInboxes::new(InboxConfig::default());
    let (mut j, mut o) = (Vec::new(), Vec::new());
    ns_per_item(|| {
        const TICKS: u64 = 4_000;
        for _ in 0..TICKS {
            for (from, frame) in &mix {
                black_box(inbox.offer(*from, frame.clone()));
            }
            j.clear();
            o.clear();
            inbox.drain_tick(cfg.tick_budget, &mut j, &mut o);
        }
        TICKS * mix.len() as u64
    })
}

/// `LatencyHistogram::record` of latencies spread from 1 ms to 1 s, ns
/// per sample.
pub fn hist_record_ns() -> f64 {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let values: Vec<u64> = (0..4096)
        .map(|_| 1_000_000 + rng.next() % 999_000_000)
        .collect();
    let mut h = LatencyHistogram::new();
    ns_per_item(|| {
        const ROUNDS: u64 = 250;
        for _ in 0..ROUNDS {
            for &v in &values {
                h.record(black_box(v));
            }
        }
        ROUNDS * values.len() as u64
    })
}

/// The queue load [`queue_push_pop_ns`] models for the workload. No
/// entry point exposes a world's queue, so the depth is modelled, not
/// observed: a PDN world holds a few dozen nodes with a handful of timers
/// and datagrams each in flight; the tracker holds about one pending
/// event per connected client (its observed peak); a swarm shard holds
/// one pending tick per peer it owns.
pub fn queue_model(pass: &Pass, seed: u64) -> (usize, QueueUse) {
    match &pass.facts {
        Facts::Paper { .. } => (256, QueueUse::Sequenced),
        Facts::Tracker(r, _) => (r.peak_clients.max(1) as usize, QueueUse::Sequenced),
        Facts::Swarm(s) => (
            (s.peers as usize / crate::workloads::SWARM_SHARDS).max(1),
            QueueUse::Keyed {
                lookahead_ns: swarm_config(seed).lookahead().as_nanos() as u64,
            },
        ),
    }
}

/// Every microbenchmark, into `report`.
pub fn microbench(report: &mut Report, pass: &Pass, seed: u64) {
    let (depth, how) = queue_model(pass, seed);
    report.set("queue.push_pop_ns", queue_push_pop_ns(depth, how));
    report.set("crypto.seal_open_ns", seal_open_ns(seed));
    report.set("crypto.sha256_ns_per_kb", sha256_ns_per_kb());
    report.set("signaling.join_ns", signaling_join_ns());
    report.set("wire.signal_roundtrip_ns", wire_roundtrip_ns());
    report.set("inbox.offer_drain_ns", inbox_offer_drain_ns());
    report.set("hist.record_ns", hist_record_ns());
}

/// The counters and model results of an untraced pass, into `report`.
pub fn pass_facts(report: &mut Report, pass: &Pass) {
    match &pass.facts {
        Facts::Paper { .. } => {}
        Facts::Tracker(r, cfg) => {
            let refused = r.shed.total_refused();
            // Joins that reached admission; each consults up to three
            // batch memos (auth, swarm, neighbors).
            let reached = (r.joins_ok + r.joins_denied).saturating_sub(r.shed.denied_joins);
            report.set("signaling.batch_hit_ratio", ratio(r.batch_hits, reached));
            report.set("inbox.served", r.served_frames as f64);
            report.set("inbox.shed_greeter", r.shed.shed_greeter as f64);
            report.set("inbox.shed_gossip", r.shed.shed_gossip as f64);
            report.set("inbox.shed_integrity", r.shed.shed_integrity as f64);
            report.set("inbox.denied", r.shed.denied_joins as f64);
            report.set("inbox.backpressured", r.shed.backpressured as f64);
            report.set("inbox.peak_depth", r.shed.peak_depth as f64);
            report.set("inbox.peak_kb", r.shed.peak_bytes as f64 / 1024.0);
            report.set(
                "inbox.useful_ratio",
                ratio(r.served_frames, r.served_frames + refused),
            );
            report.set(
                "capture.drop_ratio",
                ratio(r.capture_dropped, r.capture_kept + r.capture_dropped),
            );
            report.set("cdn.requests", r.cdn_requests as f64);
            report.set("cdn.egress_mb", r.cdn_egress_bytes as f64 / 1e6);
            report.set("events_per_s", r.net_events as f64 / pass.wall_s);
            report.set(
                "wall_ns_per_join",
                pass.wall_s * 1e9 / r.joins_ok.max(1) as f64,
            );
            let n = r.jtfs.count();
            report.set("vt_jtfs_samples", n as f64);
            report.set("vt_jtfs_p50_ms", r.jtfs.quantile(0.5) as f64 / 1e6);
            let tail = tail_quantile_ppm(n).unwrap_or(500_000) as f64 / 1e6;
            report.set("vt_jtfs_p999_ms", r.jtfs.quantile(tail) as f64 / 1e6);
            report.set("vt_goodput_per_s", r.measured_goodput_per_sec(cfg));
            report.set(
                "vt_refused_pct",
                100.0 * ratio(r.joins_denied + r.turned_away, r.arrivals),
            );
        }
        Facts::Swarm(s) => {
            report.set("shard.windows", s.windows as f64);
            report.set("shard.exchanged", s.exchanged as f64);
            report.set("shard.mode", if s.threaded { 2.0 } else { 1.0 });
            report.set("swarm.events", s.events as f64);
            report.set("swarm.mem_mb", s.mem_bytes as f64 / 1e6);
            report.set("events_per_s", s.events as f64 / pass.wall_s);
            report.set("bytes_per_peer", s.mem_bytes as f64 / s.peers.max(1) as f64);
            let fetched = s.totals.p2p_rx + s.totals.cdn_rx;
            report.set("vt_offload_pct", 100.0 * ratio(s.totals.p2p_rx, fetched));
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Metric name prefix of each profiler phase, in `profile::PHASES` order.
const PHASE_METRICS: [(&str, &str); PHASE_COUNT] = [
    ("sdk.tick_ms", "sdk.tick_entries"),
    ("signaling.signal_ms", "signaling.signal_entries"),
    ("channel.p2p_ms", "channel.p2p_entries"),
    ("cdn.http_ms", "cdn.http_entries"),
    ("crypto.ms", "crypto.entries"),
    ("capture.ms", "capture.entries"),
];

/// Reads the phase profiler after a pass. World-pool workers flush their
/// counts as their threads exit, which can trail the pool's return by a
/// moment, so this reads until two snapshots 20 ms apart agree.
pub fn profiler_phases(report: &mut Report) {
    let mut last = profile::snapshot();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let now = profile::snapshot();
        if now == last {
            break;
        }
        last = now;
    }
    for (t, (ms, entries)) in last.iter().zip(PHASE_METRICS) {
        report.set(ms, t.calibrated_nanos() as f64 / 1e6);
        report.set(entries, t.count as f64);
    }
}
