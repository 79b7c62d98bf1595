//! The three workloads: their inputs built from the seed, one timed pass
//! each, and the checks on each pass's output.
//!
//! Every pass drives public entry points only: the `pdn_bench` artifact
//! functions, `ServiceWorld::new`/`run` and `SwarmWorld::new`/`run`.

use std::time::{Duration, Instant};

use pdn_bench::ablations::{ablation_suite, AblationConfig};
use pdn_bench::{
    figure4, figure5, freeriding_study, ip_leak_wild_pooled, privacy_mitigation_pooled,
    table5_pooled, table6, token_defense,
};
use pdn_core::defense::privacy::evaluate_relay_world;
use pdn_core::WorldPool;
use pdn_detector::{corpus, run_pipeline, CorpusConfig, DetectionReport};
use pdn_provider::service::{
    CaptureScope, InboxConfig, ServiceConfig, ServiceReport, ServiceWorld,
};
use pdn_provider::swarm::{RegionStats, SwarmConfig, SwarmWorld};
use pdn_simnet::shard::ShardMode;
use pdn_simnet::{RatePlan, SimRng};

use crate::calib::sha256_hex;
use crate::trace::Tracer;

/// Seed used when `--seed` is not given; `digests.txt` holds the output
/// digests of every workload at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Peers in the swarm workload.
const SWARM_PEERS: u32 = 30_000;
/// Shards of the swarm workload (one per core of a 2-core host).
pub const SWARM_SHARDS: usize = 2;
/// Workers of the paper workload's world pool.
const POOL_WORKERS: usize = 2;

/// `workload seed sha256` lines: the digest of each workload's rendered
/// output at the seeds listed.
const DIGESTS: &str = include_str!("../digests.txt");

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every paper artifact plus the ablation sweep, closed loop.
    PaperRepro,
    /// One open-loop tracker under a diurnal load swing.
    TrackerDiurnal,
    /// A 30k-peer sharded swarm.
    SwarmSharded,
}

/// Counters and results one pass exposes beyond its rendered output.
pub enum Facts {
    /// Row counts of the detector's tables.
    Paper {
        /// Rows of Table II.
        table2_rows: usize,
        /// Rows of Table IV.
        table4_rows: usize,
    },
    /// The tracker's report and the config it ran.
    Tracker(Box<ServiceReport>, Box<ServiceConfig>),
    /// The swarm's counters.
    Swarm(SwarmFacts),
}

/// What a finished swarm world reports.
pub struct SwarmFacts {
    /// Events processed across shards.
    pub events: u64,
    /// Approximate world footprint.
    pub mem_bytes: usize,
    /// Peers simulated.
    pub peers: u32,
    /// World-wide totals.
    pub totals: RegionStats,
    /// Lookahead windows executed.
    pub windows: u64,
    /// Cross-shard messages exchanged.
    pub exchanged: u64,
    /// Whether the shard runner took the threaded path.
    pub threaded: bool,
}

/// One finished pass.
pub struct Pass {
    /// Input construction, s.
    pub setup_s: f64,
    /// The timed run, s.
    pub wall_s: f64,
    /// Deterministic output text: the digest subject.
    pub rendered: String,
    /// Structured results for invariants and per-layer metrics.
    pub facts: Facts,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperRepro,
        Workload::TrackerDiurnal,
        Workload::SwarmSharded,
    ];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRepro => "paper_repro",
            Workload::TrackerDiurnal => "tracker_diurnal",
            Workload::SwarmSharded => "swarm_sharded",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds this workload's input once; returns seconds (the drop that
    /// follows is not timed, as in a pass).
    pub fn setup_only(self, seed: u64) -> f64 {
        match self {
            Workload::PaperRepro => timed(|| paper_setup(seed)).1,
            Workload::TrackerDiurnal => timed(|| ServiceWorld::new(&tracker_config(seed))).1,
            Workload::SwarmSharded => {
                timed(|| SwarmWorld::new(&swarm_config(seed), SWARM_SHARDS)).1
            }
        }
    }

    /// One pass: set up, run, render. Spans go to `tr` when it records.
    pub fn pass(self, seed: u64, pool: &WorldPool, tr: &mut Tracer) -> Pass {
        tr.next_pass();
        tr.span("pass", |tr| match self {
            Workload::PaperRepro => paper_pass(seed, pool, tr),
            Workload::TrackerDiurnal => tracker_pass(seed, tr),
            Workload::SwarmSharded => swarm_pass(seed, SWARM_SHARDS, ShardMode::Auto, tr),
        })
    }

    /// Checks one pass's output: the invariants that hold at any seed,
    /// and the stored digest where this seed has one.
    pub fn check(self, seed: u64, pass: &Pass) -> Result<(), String> {
        match &pass.facts {
            Facts::Paper {
                table2_rows,
                table4_rows,
            } => {
                if *table2_rows != 17 || *table4_rows != 10 {
                    return Err(format!(
                        "Table II has {table2_rows} rows (want 17), Table IV {table4_rows} (want 10)"
                    ));
                }
            }
            Facts::Tracker(r, cfg) => check_tracker(r, cfg)?,
            Facts::Swarm(s) => {
                let share = s.totals.completed as f64 / s.peers.max(1) as f64;
                if share <= 0.95 {
                    return Err(format!("swarm completed share {share:.4} <= 0.95"));
                }
            }
        }
        check_digest(self, seed, &pass.rendered)
    }
}

/// The digest stored for `workload` at `seed`, if any.
pub fn stored_digest(workload: Workload, seed: u64) -> Option<&'static str> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload.name() && f.next()?.parse::<u64>().ok()? == seed).then_some(())?;
        f.next()
    })
}

/// Compares `rendered` with the stored digest; passes when none is stored.
pub fn check_digest(workload: Workload, seed: u64, rendered: &str) -> Result<(), String> {
    match stored_digest(workload, seed) {
        Some(want) => {
            let got = sha256_hex(rendered.as_bytes());
            if got == want {
                Ok(())
            } else {
                Err(format!("output digest {got} differs from stored {want}"))
            }
        }
        None => Ok(()),
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------
// paper_repro
// ---------------------------------------------------------------------

/// The fixed world pool the paper workload runs on.
pub fn paper_pool() -> WorldPool {
    WorldPool::new(POOL_WORKERS)
}

/// The detection corpus and the generator state the pipeline continues
/// from: exactly what `pdn_bench::detection_report` builds first.
fn paper_setup(seed: u64) -> (corpus::Ecosystem, SimRng) {
    let mut rng = SimRng::seed(seed);
    let eco = corpus::generate(CorpusConfig::default(), &mut rng);
    (eco, rng)
}

fn paper_pass(seed: u64, pool: &WorldPool, tr: &mut Tracer) -> Pass {
    let ((eco, mut rng), setup_s) = timed(|| tr.span("setup", |_| paper_setup(seed)));
    let ((rendered, table2_rows, table4_rows), wall_s) = timed(|| {
        tr.span("run", |tr| {
            let mut out = String::new();
            let report = tr.span("detection", |_| run_pipeline(&eco, &mut rng));
            render_detection(&mut out, &report);
            let s = tr.span("freeriding", |_| freeriding_study(seed));
            out += &format!(
                "freeriding tested={} valid={} expired={} cross_domain={} spoof={}\n",
                s.tested, s.valid, s.expired, s.cross_domain_vulnerable, s.spoof_vulnerable
            );
            out += &tr.span("table5", |_| table5_pooled(seed, pool)).render();
            out += &tr.span("table6", |_| table6(300, seed)).render();
            let fig = tr.span("figure4", |_| figure4(120, seed));
            for m in [&fig.no_peer, &fig.peer_a, &fig.peer_b] {
                out += &format!(
                    "figure4 {} cpu={:.6} mem={:.1} rx={} tx={}\n",
                    m.label,
                    m.summary.mean_cpu,
                    m.summary.mean_mem_bytes,
                    m.summary.total_rx,
                    m.summary.total_tx
                );
            }
            for p in tr.span("figure5", |_| figure5(5, 90, seed)) {
                out += &format!(
                    "figure5 n={} tx={} rx={} stalls={} offload={:.6}\n",
                    p.neighbors, p.seeder_tx, p.seeder_rx, p.leech_stalls, p.leech_offload
                );
            }
            let (a, b) = tr.span("ip_leak", |_| ip_leak_wild_pooled(7.0, seed, pool));
            render_wild(&mut out, "ip_leak", &a);
            render_wild(&mut out, "ip_leak", &b);
            let t = tr.span("token", |_| token_defense(seed));
            out += &format!(
                "token legit={} cross_video={} replay={} ttl={} bytes={}\n",
                t.legit_flow_works,
                t.cross_video_rejected,
                t.replay_rejected,
                t.expired_rejected,
                t.token_bytes
            );
            // As `tables mitigation`: the 2-day unmitigated baseline, the
            // same-country matching run, and the TURN relay world.
            let (base, matched, relay) = tr.span("mitigation", |_| {
                (
                    ip_leak_wild_pooled(2.0, seed, pool),
                    privacy_mitigation_pooled(2.0, seed, pool),
                    evaluate_relay_world(seed),
                )
            });
            for r in [&base.0, &base.1] {
                render_wild(&mut out, "mitigation_baseline", r);
            }
            for r in [&matched.0, &matched.1] {
                render_wild(&mut out, "mitigation", r);
            }
            let (p2p, relayed, leaked) = relay;
            out += &format!("mitigation relay p2p={p2p} relayed={relayed} leaked={leaked}\n");
            out += &tr
                .span("ablations", |_| {
                    ablation_suite(AblationConfig::full(), seed, pool)
                })
                .render();
            (out, report.table2.len(), report.table4.len())
        })
    });
    Pass {
        setup_s,
        wall_s,
        rendered,
        facts: Facts::Paper {
            table2_rows,
            table4_rows,
        },
    }
}

fn render_detection(out: &mut String, r: &DetectionReport) {
    *out += &r.render_table1();
    *out += &DetectionReport::render_confirmed(&r.table2, "TABLE II: Confirmed PDN websites");
    *out += &DetectionReport::render_confirmed(&r.table3, "TABLE III: Confirmed PDN apps");
    *out += &r.render_table4();
}

fn render_wild(out: &mut String, label: &str, r: &pdn_core::IpLeakWildResult) {
    *out += &format!(
        "{label} {} arrivals={} unique={} public={} bogons={} ({}/{}/{}) countries={} cities={}\n",
        r.name,
        r.arrivals,
        r.unique_ips,
        r.public_ips,
        r.bogons,
        r.bogon_private,
        r.bogon_cgnat,
        r.bogon_reserved,
        r.countries.len(),
        r.cities
    );
}

/// `table5_pooled` plus the ablation sweep on `pool`: the pooled share of
/// the paper workload, timed, with its rendered output.
pub fn paper_pooled_part(seed: u64, pool: &WorldPool) -> (f64, String) {
    let (out, wall) = timed(|| {
        table5_pooled(seed, pool).render()
            + &ablation_suite(AblationConfig::full(), seed, pool).render()
    });
    (wall, out)
}

// ---------------------------------------------------------------------
// tracker_diurnal
// ---------------------------------------------------------------------

/// The tracker workload's config: `service_bench`'s base serving config,
/// 120 s of virtual time under a diurnal swing from 0.3x to 1.5x of the
/// modelled capacity (30 s period), plus a 5000/s greeter flood.
pub fn tracker_config(seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(RatePlan::Steady { per_sec: 0.0 });
    cfg.seed = seed;
    cfg.run_for = Duration::from_secs(120);
    cfg.tick = Duration::from_millis(5);
    cfg.tick_budget = 60;
    cfg.inbox = InboxConfig::default();
    cfg.mean_session = Duration::from_secs(8);
    cfg.stats_every = Duration::from_secs(4);
    cfg.max_clients = 60_000;
    cfg.ramp = Duration::from_secs(1);
    cfg.capture = CaptureScope::ServerSignaling;
    let capacity = cfg.nominal_capacity_per_sec();
    cfg.plan = RatePlan::Diurnal {
        base_per_sec: 0.3 * capacity,
        peak_per_sec: 1.5 * capacity,
        period: Duration::from_secs(30),
    };
    cfg.greeter_per_sec = 5_000.0;
    cfg
}

fn tracker_pass(seed: u64, tr: &mut Tracer) -> Pass {
    let ((cfg, world), setup_s) = timed(|| {
        tr.span("setup", |_| {
            let cfg = tracker_config(seed);
            let world = ServiceWorld::new(&cfg);
            (cfg, world)
        })
    });
    let (report, wall_s) = timed(|| tr.span("run", |_| world.run()));
    Pass {
        setup_s,
        wall_s,
        rendered: render_row("tracker_diurnal", cfg.plan.peak(), &cfg, &report),
        facts: Facts::Tracker(Box::new(report), Box::new(cfg)),
    }
}

fn check_tracker(r: &ServiceReport, cfg: &ServiceConfig) -> Result<(), String> {
    if r.arrivals != r.joins_ok + r.joins_denied + r.turned_away {
        return Err(format!(
            "arrivals {} != joins_ok {} + joins_denied {} + turned_away {}",
            r.arrivals, r.joins_ok, r.joins_denied, r.turned_away
        ));
    }
    let caps = (cfg.inbox.join_cap
        + cfg.inbox.integrity_cap
        + cfg.inbox.gossip_cap
        + cfg.inbox.greeter_cap) as u64;
    if r.shed.peak_depth > caps {
        return Err(format!(
            "inbox peak depth {} > cap total {caps}",
            r.shed.peak_depth
        ));
    }
    if r.peak_clients > cfg.max_clients as u64 {
        return Err(format!(
            "peak clients {} > max_clients {}",
            r.peak_clients, cfg.max_clients
        ));
    }
    Ok(())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The deterministic result row, in the format `service_bench` renders.
pub fn render_row(name: &str, offered: f64, cfg: &ServiceConfig, r: &ServiceReport) -> String {
    format!(
        concat!(
            "{{\"name\": \"{}\", \"offered_per_sec\": {:.0}, \"arrivals\": {}, ",
            "\"joins_ok\": {}, \"joins_denied\": {}, \"turned_away\": {}, ",
            "\"first_segments\": {}, \"leaves\": {}, \"goodput_per_sec\": {:.1}, ",
            "\"measured_goodput_per_sec\": {:.1}, \"measured_joins_ok_per_sec\": {:.1}, ",
            "\"jtfs_p50_ms\": {:.3}, \"jtfs_p99_ms\": {:.3}, \"jtfs_p999_ms\": {:.3}, ",
            "\"rtt_p50_ms\": {:.3}, \"rtt_p99_ms\": {:.3}, \"rtt_p999_ms\": {:.3}, ",
            "\"shed_greeter\": {}, \"shed_gossip\": {}, \"shed_integrity\": {}, ",
            "\"denied_at_inbox\": {}, \"backpressured\": {}, ",
            "\"inbox_peak_depth\": {}, \"inbox_peak_bytes\": {}, ",
            "\"batch_hits\": {}, \"served_frames\": {}, \"peak_clients\": {}, ",
            "\"capture_kept\": {}, \"capture_dropped\": {}, \"capture_filtered\": {}, ",
            "\"capture_drop_pct\": {:.2}, ",
            "\"cdn_requests\": {}, \"cdn_egress_bytes\": {}}}"
        ),
        name,
        offered,
        r.arrivals,
        r.joins_ok,
        r.joins_denied,
        r.turned_away,
        r.first_segments,
        r.leaves,
        r.goodput_per_sec(cfg.run_for),
        r.measured_goodput_per_sec(cfg),
        r.measured_joins_ok_per_sec(cfg),
        ms(r.jtfs.quantile(0.50)),
        ms(r.jtfs.quantile(0.99)),
        ms(r.jtfs.quantile(0.999)),
        ms(r.rtt.quantile(0.50)),
        ms(r.rtt.quantile(0.99)),
        ms(r.rtt.quantile(0.999)),
        r.shed.shed_greeter,
        r.shed.shed_gossip,
        r.shed.shed_integrity,
        r.shed.denied_joins,
        r.shed.backpressured,
        r.shed.peak_depth,
        r.shed.peak_bytes,
        r.batch_hits,
        r.served_frames,
        r.peak_clients,
        r.capture_kept,
        r.capture_dropped,
        r.capture_filtered,
        r.capture_drop_pct(),
        r.cdn_requests,
        r.cdn_egress_bytes,
    )
}

// ---------------------------------------------------------------------
// swarm_sharded
// ---------------------------------------------------------------------

/// The swarm workload's config: the realistic VOD swarm at 30k peers.
pub fn swarm_config(seed: u64) -> SwarmConfig {
    let mut cfg = SwarmConfig::scale(SWARM_PEERS);
    cfg.seed = seed;
    cfg
}

/// One swarm pass at `shards` shards under `mode`.
pub fn swarm_pass(seed: u64, shards: usize, mode: ShardMode, tr: &mut Tracer) -> Pass {
    let (mut world, setup_s) =
        timed(|| tr.span("setup", |_| SwarmWorld::new(&swarm_config(seed), shards)));
    let (rep, wall_s) = timed(|| tr.span("run", |_| world.run(mode)));
    Pass {
        setup_s,
        wall_s,
        rendered: world.table(),
        facts: Facts::Swarm(SwarmFacts {
            events: world.total_events(),
            mem_bytes: world.mem_bytes(),
            peers: world.peers(),
            totals: world.totals(),
            windows: rep.windows,
            exchanged: rep.exchanged,
            threaded: rep.mode == "threaded",
        }),
    }
}
