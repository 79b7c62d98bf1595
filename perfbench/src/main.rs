//! Host cost of the Stealthy Peers simulator, end to end and per layer.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_repro|tracker_diurnal|swarm_sharded \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` repeats untraced passes of the workload for `--seconds`
//! (at least two, so every seed gets a double-run identity check) and
//! prints the end-to-end metrics. `--trace 1` runs one untraced and one
//! traced pass plus the per-layer microbenchmarks and prints the
//! per-layer metrics. The last stdout line is the JSON result; see
//! `perfbench/README.md`.

mod calib;
mod layers;
mod metrics;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pdn_core::WorldPool;
use pdn_simnet::profile;
use pdn_simnet::shard::ShardMode;

use metrics::{median, Report, Section};
use trace::Tracer;
use workloads::{Pass, Workload, DEFAULT_SEED};

/// Setup-only repetitions after each pass: they run for
/// [`SETUP_SECONDS_PER_PASS`], and at least [`SETUP_MIN_REPS`] times.
/// Spread over the whole run, they give a setup of microseconds a median
/// that a few slow moments of a shared host do not move.
const SETUP_SECONDS_PER_PASS: f64 = 0.25;
const SETUP_MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperRepro,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Passes attempted and failed, with the reason of each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_output: Option<String>,
}

impl Tally {
    /// Counts one pass: a panic, a failed check, or an output that differs
    /// from the first pass at the same seed is a failed operation.
    fn record(&mut self, workload: Workload, seed: u64, pass: Result<&Pass, String>) {
        self.attempted += 1;
        let verdict = pass.and_then(|p| {
            workload.check(seed, p)?;
            match &self.first_output {
                Some(first) if *first != p.rendered => {
                    Err("output differs from the first pass at this seed".into())
                }
                Some(_) => Ok(()),
                None => {
                    println!("output sha256 {}", calib::sha256_hex(p.rendered.as_bytes()));
                    self.first_output = Some(p.rendered.clone());
                    Ok(())
                }
            }
        });
        if let Err(reason) = verdict {
            self.failed += 1;
            println!("FAILED pass {}: {reason}", self.attempted);
        }
    }
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let cal = calib::calibrate();
    println!(
        "workload {} seed {} ({}), host parallelism {}",
        w.name(),
        args.seed,
        match workloads::stored_digest(w, args.seed) {
            Some(_) => "stored digest, invariants and double-run identity checked",
            None => "no stored digest: invariants and double-run identity checked",
        },
        pdn_simnet::shard::host_parallelism()
    );
    println!("{}", cal.line());
    let pool = workloads::paper_pool();
    let mut tally = Tally::default();
    let report = if args.trace {
        traced_run(&args, &pool, &mut tally, &cal)
    } else {
        untraced_run(&args, &pool, &mut tally)
    };
    let Some(report) = report else {
        eprintln!("perfbench: no pass of {} completed", w.name());
        return ExitCode::from(1);
    };
    print!("{}", report.lines());
    println!(
        "{}",
        report.result_json(tally.failed == 0, tally.attempted, tally.failed)
    );
    ExitCode::SUCCESS
}

/// Untraced passes for `--seconds`, at least two; end-to-end metrics.
fn untraced_run(args: &Args, pool: &WorldPool, tally: &mut Tally) -> Option<Report> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    while tally.attempted < 2 || start.elapsed() < budget {
        let pass = guarded(|| w.pass(args.seed, pool, &mut Tracer::off()));
        tally.record(w, args.seed, pass.as_ref().map_err(Clone::clone));
        if let Ok(p) = pass {
            println!(
                "pass {}: setup {:.4} s, run {:.4} s",
                tally.attempted, p.setup_s, p.wall_s
            );
            setups.push(p.setup_s);
            walls.push(p.wall_s);
            let reps_start = Instant::now();
            for rep in 0.. {
                if rep >= SETUP_MIN_REPS
                    && reps_start.elapsed().as_secs_f64() >= SETUP_SECONDS_PER_PASS
                {
                    break;
                }
                setups.push(w.setup_only(args.seed));
            }
        }
    }
    if walls.is_empty() {
        return None;
    }
    let mut r = Report::new(Section::EndToEnd);
    r.set("setup_s", median(&setups));
    r.set("wall_s", median(&walls));
    r.set("peak_rss_mb", metrics::peak_rss_mb());
    Some(r)
}

/// One untraced and one traced pass, the workload's extra comparison
/// runs, and the microbenchmarks; per-layer metrics.
fn traced_run(
    args: &Args,
    pool: &WorldPool,
    tally: &mut Tally,
    cal: &calib::Calibration,
) -> Option<Report> {
    let w = args.workload;
    let seed = args.seed;
    let mut r = Report::new(Section::PerLayer);

    let plain = guarded(|| w.pass(seed, pool, &mut Tracer::off()));
    tally.record(w, seed, plain.as_ref().map_err(Clone::clone));
    let plain = plain.ok()?;
    layers::pass_facts(&mut r, &plain);

    // Calibration runs the probe itself, so counters reset after it.
    profile::calibrate_probe_cost();
    profile::reset();
    profile::set_enabled(true);
    let mut tracer = Tracer::on();
    let traced = guarded(|| {
        let pass = w.pass(seed, pool, &mut tracer);
        tracer
            .span("verify", |_| w.check(seed, &pass))
            .map(|()| pass)
    })
    .and_then(|checked| checked);
    profile::set_enabled(false);
    tally.record(w, seed, traced.as_ref().map_err(Clone::clone));
    layers::profiler_phases(&mut r);
    let spans = tracer.spans();
    if let Ok(t) = &traced {
        r.set(
            "trace.overhead_pct",
            100.0 * (t.wall_s - plain.wall_s) / plain.wall_s,
        );
    }
    r.set("span.setup.ms", trace::self_ms_by_name(spans, "setup"));
    r.set("span.run.ms", trace::total_ms_by_name(spans, "run"));
    r.set("span.run.self_ms", trace::self_ms_by_name(spans, "run"));
    r.set("span.verify.ms", trace::total_ms_by_name(spans, "verify"));
    for artifact in [
        "detection",
        "freeriding",
        "table5",
        "table6",
        "figure4",
        "figure5",
        "ip_leak",
        "token",
        "mitigation",
        "ablations",
    ] {
        r.set(
            &format!("span.{artifact}.ms"),
            trace::self_ms_by_name(spans, artifact),
        );
    }

    // The workload's comparison run: the pooled share serial against the
    // fixed pool, or one shard inline against the sharded run. Outputs
    // must agree byte for byte.
    let comparison = match w {
        Workload::PaperRepro => Some((
            "worldpool.speedup_2v1",
            guarded(|| {
                let (serial_s, serial) = workloads::paper_pooled_part(seed, &WorldPool::serial());
                let (pooled_s, pooled) = workloads::paper_pooled_part(seed, pool);
                (serial == pooled)
                    .then_some(serial_s / pooled_s)
                    .ok_or("table5 and ablations differ between 1 and 2 workers")
            }),
        )),
        Workload::SwarmSharded => Some((
            "shard.speedup_2v1",
            guarded(|| {
                let k1 = workloads::swarm_pass(seed, 1, ShardMode::Inline, &mut Tracer::off());
                (k1.rendered == plain.rendered)
                    .then_some(k1.wall_s / plain.wall_s)
                    .ok_or("the K=1 table differs from K=2")
            }),
        )),
        Workload::TrackerDiurnal => None,
    };
    if let Some((metric, result)) = comparison {
        tally.attempted += 1;
        match result.and_then(|ratio| ratio.map_err(String::from)) {
            Ok(speedup) => r.set(metric, speedup),
            Err(e) => {
                tally.failed += 1;
                println!("FAILED {metric}: {e}");
            }
        }
    }

    layers::microbench(&mut r, &plain, seed);
    r.zero_unset();
    write_trace(args, cal, spans);
    Some(r)
}

/// Writes the spans of a traced run, one JSON line each, under the build
/// directory.
fn write_trace(args: &Args, cal: &calib::Calibration, spans: &[trace::Span]) {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench-trace");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    let header = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"sha256_mb_per_s\": {:.3}, \"heap_mops\": {:.4}, \
         \"profiler_phases\": \"self-inclusive, nested; never sum\"}}\n",
        args.workload.name(),
        args.seed,
        cal.sha256_mb_per_s,
        cal.heap_mops
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, header + &trace::to_json_lines(spans)));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_tracker_row_is_a_failed_operation() {
        let w = Workload::TrackerDiurnal;
        let mut pass = w.pass(DEFAULT_SEED, &workloads::paper_pool(), &mut Tracer::off());
        let mut tally = Tally::default();
        tally.record(w, DEFAULT_SEED, Ok(&pass));
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "stored digest matches"
        );

        // One byte of the row, flipped in its lowest bit (stays ASCII).
        let mut bytes = pass.rendered.into_bytes();
        let i = bytes.len() / 2;
        bytes[i] ^= 1;
        pass.rendered = String::from_utf8(bytes).expect("ASCII row");
        assert!(workloads::check_digest(w, DEFAULT_SEED, &pass.rendered).is_err());
        tally.record(w, DEFAULT_SEED, Ok(&pass));
        assert_eq!((tally.attempted, tally.failed), (2, 1));

        // At a seed with no stored digest the identity check still catches it.
        let mut held_out = Tally {
            first_output: Some("a different row".into()),
            ..Tally::default()
        };
        assert!(workloads::stored_digest(w, 2).is_none());
        held_out.record(w, 2, Ok(&pass));
        assert_eq!(held_out.failed, 1);
    }

    #[test]
    fn panicking_pass_is_a_failed_operation() {
        let mut tally = Tally::default();
        let pass: Result<Pass, String> = guarded(|| panic!("world exploded"));
        tally.record(
            Workload::SwarmSharded,
            1,
            pass.as_ref().map_err(Clone::clone),
        );
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert_eq!(pass.err().as_deref(), Some("world exploded"));
    }
}
