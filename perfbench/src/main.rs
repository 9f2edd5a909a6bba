//! The benchmark's measuring program. `run.py` builds it and drives it;
//! each invocation runs one workload and prints a report whose last line
//! is one JSON object.
//!
//! ```text
//! perfbench timed  <workload> <seed> <seconds>              # end-to-end metrics + correctness gate
//! perfbench traced <workload> <seed> <seconds> <spans.json> # per-layer ledger
//! ```
//!
//! A run repeats the workload on sub-seeds derived from `<seed>` until
//! `<seconds>` have passed and at least [`pooled_runs`] repetitions are
//! done. Host metrics are medians over every repetition; modeled metrics
//! pool the first `pooled_runs` sub-seeds, so they are deterministic for
//! a seed. Repetitions past that repeat a sub-seed and must reproduce its
//! modeled metrics and counts bit for bit.

mod layers;
mod report;
mod rig;
mod spans;

use std::time::{Duration, Instant};

use rocksteady_common::Histogram;

use report::{median, Report};
use rig::{mix, Outcome, Spec, Workload};
use spans::Spans;

/// Sub-seeds whose modeled metrics one run pools: enough completions in
/// migration windows for the 99.9th read percentile to have ten samples
/// beyond it, and enough migrations to average over start-time effects.
/// At least 2, so a run has a repetition beyond its warm-up.
fn pooled_runs(w: Workload) -> usize {
    match w {
        Workload::BulkMigrate => 4,
        Workload::YcsbScaleout => 3,
        Workload::YcsbObserved => 4,
    }
}

/// A migration moving less than this is in the slow mode of the
/// bimodal migration under load (about 0.8 GB/s against about 4.6 GB/s).
const SLOW_MODE_MBPS: f64 = 2_000.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: perfbench <timed|traced> <bulk_migrate|ycsb_scaleout|ycsb_observed> \
                 <seed> <seconds> [spans.json]";
    let parsed = (|| {
        let mode = args.get(1)?.clone();
        let workload = Workload::parse(args.get(2)?)?;
        let seed = args.get(3)?.parse::<u64>().ok()?;
        let seconds = args.get(4)?.parse::<u64>().ok()?;
        Some((mode, workload, seed, Duration::from_secs(seconds)))
    })();
    let Some((mode, workload, seed, seconds)) = parsed else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let ok = match (mode.as_str(), args.get(5)) {
        ("timed", None) => timed(workload, seed, seconds),
        ("traced", Some(path)) => traced(workload, seed, seconds, path),
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    if !ok {
        std::process::exit(1);
    }
}

fn sub_seed(seed: u64, k: usize) -> u64 {
    mix(seed, 0x5eed + k as u64)
}

/// One repetition: reset the peak-RSS mark, set up, run, gate.
fn once(spec: &Spec, spans: &Spans) -> (Outcome, f64) {
    reset_peak_rss();
    let (mut cluster, setup_s) = rig::setup(spec, spans);
    let mut out = rig::run(spec, &mut cluster, spans);
    out.setup_s = setup_s;
    let rss = peak_rss_mb();
    spans.time("gate", || rig::gate(spec, &mut cluster, &mut out, spans));
    spans.time("cluster.drop", || drop(cluster));
    (out, rss)
}

/// The modeled metrics and counts of one run, as text: two runs of the
/// same sub-seed must produce the same string.
fn fingerprint(o: &Outcome) -> String {
    let h = |x: &Histogram| {
        format!(
            "{}/{}/{}/{}",
            x.count(),
            x.percentile(0.5),
            x.percentile(0.99),
            x.percentile(0.999)
        )
    };
    let migs: Vec<String> = o
        .migrations
        .iter()
        .map(|m| {
            format!(
                "{}:{}:{:?}:{}:{}:{}:{}",
                m.id,
                m.started_at,
                m.finished_at,
                m.bytes,
                m.records_replayed,
                m.retry_hints,
                m.target_worker_busy_ns
            )
        })
        .collect();
    format!(
        "events={} migs=[{}] read={} write={} ops={}/{}/{}/{}/{}/{}/{} src={:?} tgt={:?}",
        o.events,
        migs.join(","),
        h(&o.read_win),
        h(&o.write_win),
        o.reads,
        o.writes,
        o.read_attempts,
        o.retries,
        o.timeouts,
        o.not_found,
        o.map_refreshes,
        o.source,
        o.target
    )
}

/// Operations that did not complete although offered, beyond what
/// Poisson arrival noise explains (four standard deviations of the
/// offered count): a growing backlog shows here.
fn never_completed(o: &Outcome) -> u64 {
    let completed = o.reads + o.writes;
    let noise = (4.0 * (o.offered as f64).sqrt()).ceil() as u64;
    o.offered.saturating_sub(completed + noise)
}

/// Operations that failed: `NotFound` on a key that exists (every key
/// of the table exists and nothing deletes), timed out, or never
/// completed.
fn lost_ops(o: &Outcome) -> u64 {
    o.not_found + o.timeouts + never_completed(o)
}

fn timed(workload: Workload, seed: u64, seconds: Duration) -> bool {
    let pooled = pooled_runs(workload);
    let spans = Spans::new(false);
    let start = Instant::now();
    let mut rep = Report::new(workload, seed);
    let mut prints: Vec<String> = Vec::new();
    let mut runs: Vec<Outcome> = Vec::new();
    let (mut setup, mut run, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut gate: Vec<String> = Vec::new();
    let mut k = 0;
    while k < pooled || start.elapsed() < seconds {
        let sub = k % pooled;
        let spec = workload.spec(sub_seed(seed, sub));
        let (out, peak) = once(&spec, &spans);
        if peak <= 0.0 {
            gate.push("cannot read the peak resident set (VmHWM)".to_string());
        }
        setup.push(out.setup_s);
        run.push(out.run_s);
        rss.push(peak);
        let fp = fingerprint(&out);
        gate.extend(out.gate.iter().map(|g| format!("sub-seed {sub}: {g}")));
        if k < pooled {
            prints.push(fp);
            runs.push(out);
        } else if prints[sub] != fp {
            gate.push(format!(
                "sub-seed {sub}: modeled metrics or counts differ between repeated runs"
            ));
        }
        k += 1;
    }
    // ycsb_observed must model exactly what the disarmed rig models.
    if workload == Workload::YcsbObserved {
        for (sub, fp) in prints.iter().enumerate() {
            let spec = workload.spec(sub_seed(seed, sub)).disarmed();
            let (out, _) = once(&spec, &spans);
            if fingerprint(&out) != *fp {
                gate.push(format!(
                    "sub-seed {sub}: armed observability changed modeled metrics or counts"
                ));
            }
        }
    }
    // The first repetition runs on memory fresh from the kernel and pays
    // its page faults; it warms the process and is left out of the host
    // medians.
    rep.host(&setup[1..], &run[1..], &rss[1..]);
    rep.modeled(&runs, SLOW_MODE_MBPS);
    let attempted: u64 = runs.iter().map(|o| o.offered).sum();
    let failed: u64 = runs.iter().map(lost_ops).sum::<u64>() + gate.len() as u64;
    rep.outcome(attempted, failed, &gate);
    rep.print();
    gate.is_empty()
}

fn traced(workload: Workload, seed: u64, seconds: Duration, path: &str) -> bool {
    let mut spec = workload.spec(sub_seed(seed, 0));
    // The per-core split of modeled time comes from the profiler ledger;
    // arming it is pure state mutation and never changes the schedule.
    spec.cluster.profiling = true;
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut disarmed_sim = Vec::new();
    let mut armed_sim = Vec::new();
    let mut prints = Vec::new();
    let mut last = None;
    let mut gate: Vec<String> = Vec::new();
    // A warm-up repetition first, for the reason `timed` drops its first;
    // then traced and untraced runs alternate which goes first, so
    // neither side always meets a warmer allocator.
    gate.extend(once(&spec, &Spans::new(false)).0.gate);
    let mut round = 0;
    while traced.is_empty() || start.elapsed() < seconds {
        for on in [round % 2 == 1, round % 2 == 0] {
            let spans = Spans::new(on);
            let (o, _) = once(&spec, &spans);
            gate.extend(o.gate.iter().cloned());
            if on {
                traced.push(o.setup_s + o.run_s);
                last = Some((o, spans));
            } else {
                untraced.push(o.setup_s + o.run_s);
                armed_sim.push(o.simulate_s);
                prints.push(fingerprint(&o));
            }
        }
        if workload == Workload::YcsbObserved {
            let (d, _) = once(&spec.disarmed(), &Spans::new(false));
            disarmed_sim.push(d.simulate_s);
        }
        round += 1;
    }
    let (out, spans) = last.expect("at least one traced run");
    if prints.iter().any(|p| *p != fingerprint(&out)) {
        gate.push("traced and untraced runs modeled different metrics or counts".to_string());
    }
    let costs = spans.time("layers", || {
        layers::measure(&spec, sub_seed(seed, 0), &spans)
    });
    if let Err(e) = std::fs::write(path, spans.to_json()) {
        gate.push(format!("cannot write spans to {path}: {e}"));
    }
    let ratio = if disarmed_sim.is_empty() {
        0.0
    } else {
        median(&armed_sim) / median(&disarmed_sim)
    };
    let mut rep = Report::new(workload, seed);
    rep.ledger(&spans, &out, median(&traced) - median(&untraced));
    rep.per_layer(
        &spec,
        &out,
        &costs,
        &spans,
        ratio,
        lost_ops(&out),
        SLOW_MODE_MBPS,
    );
    rep.outcome(out.offered, lost_ops(&out) + gate.len() as u64, &gate);
    rep.print();
    gate.is_empty()
}

/// Resets the kernel's peak-RSS mark so each repetition reports its own.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
