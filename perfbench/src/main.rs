//! End-to-end and per-layer benchmark of the Decima reproduction.
//!
//! ```text
//! perfbench --workload <sim_stream|decima_serve|train> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted` (scheduling decisions in the timed
//! rounds), `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones, measured with tracing off; with `--trace 1` they are
//! the per-layer ones from a traced run, plus the tracing overhead.
//! Progress goes to standard error. See `perfbench/README.md`.

mod alloc;
mod checks;
mod sched;
mod stats;
mod trace;
mod workloads;

use stats::median;
use std::time::Instant;
use workloads::{Metric, Round, Workload, LAYER_METRICS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where a traced run writes its spans, relative to the repository root.
const TRACE_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            workloads::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line.
struct Report {
    correct: bool,
    attempted: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            metrics.join(", ")
        )
    }
}

/// A `kB` figure from `/proc/self/status`, e.g. `VmHWM`.
fn proc_status(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// User plus system CPU seconds of the process, from `/proc/self/stat`
/// (in clock ticks of the fixed 100 Hz `USER_HZ`).
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

/// Timed rounds until `budget_s` has passed (at least one), each checked
/// against the warm-up round for the determinism contract.
fn timed_rounds(w: &mut dyn Workload, warm: &Round, budget_s: f64) -> Result<Vec<Round>, String> {
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        let r = w.round()?;
        checks::check_same_round(
            (warm.decisions, warm.avg_jct),
            (r.decisions, r.avg_jct),
            rounds.len() + 1,
        )?;
        rounds.push(r);
    }
    Ok(rounds)
}

fn round_median(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// The round's wall time, built part by part from each part's median
/// over the rounds.
fn median_round_wall(rounds: &[Round]) -> f64 {
    (0..rounds[0].parts_s.len())
        .map(|i| round_median(rounds, |r| r.parts_s[i]))
        .sum()
}

/// Runs the workload; `Err` before the warm-up means set-up failed (no
/// result line), `Ok` carries the report, `correct` false if a check
/// failed.
fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    let mut w = workloads::setup(&args.workload, args.seed)?;
    let mut attempted = 0u64;
    let outcome = (|| -> Result<Vec<Metric>, String> {
        let warm = w.round()?;
        if !warm.avg_jct.is_finite() || warm.decisions == 0 {
            return Err(format!(
                "warm-up round: {} decisions, avg JCT {}",
                warm.decisions, warm.avg_jct
            ));
        }
        let setup_s = process_start.elapsed().as_secs_f64();
        // Peak memory of set-up plus one episode or round. Read before the
        // timed rounds, whose repeated allocations would let the heap's
        // fragmentation, not the program, set the figure.
        let peak_rss_kb = proc_status("VmHWM").ok_or("VmHWM unavailable")?;
        let budget = if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        };
        let rounds = timed_rounds(w.as_mut(), &warm, budget)?;
        attempted = rounds.iter().map(|r| r.decisions).sum();
        let untraced_wall = median_round_wall(&rounds);
        eprintln!(
            "perfbench {}: seed {} set-up {setup_s:.3} s, {} rounds of {} decisions, median round {untraced_wall:.4} s",
            args.workload,
            args.seed,
            rounds.len(),
            warm.decisions,
        );
        if args.trace {
            return traced_metrics(w.as_mut(), args, process_start, untraced_wall);
        }
        let decide = (
            round_median(&rounds, |r| f64::from(r.decide_ns.0)),
            round_median(&rounds, |r| f64::from(r.decide_ns.1)),
        );
        w.final_checks()?;
        Ok(vec![
            Metric {
                name: "decisions_per_s",
                value: warm.decisions as f64 / untraced_wall,
                unit: "1/s",
            },
            Metric {
                name: "decide_p50_us",
                value: decide.0 * 1e-3,
                unit: "us",
            },
            Metric {
                name: "decide_p99_us",
                value: decide.1 * 1e-3,
                unit: "us",
            },
            Metric {
                name: "iter_s",
                value: untraced_wall / warm.parts_s.len() as f64,
                unit: "s",
            },
            Metric {
                name: "avg_jct_s",
                value: warm.avg_jct,
                unit: "s",
            },
            Metric {
                name: "peak_rss_kb",
                value: peak_rss_kb,
                unit: "kB",
            },
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
        ])
    })();
    match outcome {
        Ok(metrics) => {
            if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
                return Err(format!("{} is {}", m.name, m.value));
            }
            Ok(Report {
                correct: true,
                attempted,
                metrics,
            })
        }
        Err(e) => {
            eprintln!("perfbench {}: CHECK FAILED: {e}", args.workload);
            Ok(Report {
                correct: false,
                attempted: attempted.max(1),
                metrics: Vec::new(),
            })
        }
    }
}

/// The traced half of a traced run: per-layer metrics, the tracing
/// overhead against the untraced half, and host counters; the spans are
/// written under [`TRACE_DIR`].
fn traced_metrics(
    w: &mut dyn Workload,
    args: &Args,
    epoch: Instant,
    untraced_wall: f64,
) -> Result<Vec<Metric>, String> {
    alloc::set_counting(true);
    let out = w.traced(epoch, args.seconds / 2.0);
    alloc::set_counting(false);
    let mut out = out?;
    let traced_wall = median(&out.walls);
    out.layers.insert(
        "trace.overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    );
    out.layers.insert(
        "host.cpu_s",
        cpu_seconds().ok_or("/proc/self/stat unreadable")?,
    );
    out.layers.insert(
        "host.involuntary_switches",
        proc_status("nonvoluntary_ctxt_switches").ok_or("context switches unavailable")?,
    );
    let path = std::path::Path::new(TRACE_DIR)
        .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    let tracers: Vec<&trace::Tracer> = out.tracers.iter().collect();
    trace::write_tsv(&path, &tracers).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "perfbench {}: traced median round {traced_wall:.4} s, spans in {}",
        args.workload,
        path.display()
    );
    Ok(LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: out.layers.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect())
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args, process_start) {
        Ok(report) => {
            println!("{}", report.json());
            std::process::exit(if report.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
