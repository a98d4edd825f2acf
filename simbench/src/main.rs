//! `sim-bench` command line. See `README.md` in this package.

use simbench::alloc_stats;
use simbench::compare::{compare, render, Verdict};
use simbench::harness::{run_end_to_end, Budget, Options, Outcome, Workload};
use simbench::json::Json;
use simbench::spec::{MetricSpec, Spec};
use simbench::trace::run_traced;
use simbench::workloads::Scale;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;

/// The system allocator, counting bytes allocated, bytes live and the peak
/// of bytes live into `simbench::alloc_stats`.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never touch the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations for `alloc` are passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            alloc_stats::on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            alloc_stats::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        alloc_stats::on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations for `realloc` are passed through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            alloc_stats::on_dealloc(layout.size());
            alloc_stats::on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const USAGE: &str = "usage:
  sim-bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
            [--runs K] [--json OUT]
  sim-bench --compare A.json B.json

With --workload NAME, runs that workload once (untraced with --trace 0,
traced with --trace 1) and prints its result as one JSON object on the
last line. Without it, runs every workload both ways, K times with seeds
N, N+1, ..., and --json writes all of it to OUT for --compare.";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: spec.run_seconds,
        trace: false,
        runs: 1,
        json: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    args.workload =
                        Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? != "0",
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--json" => args.json = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Database files and traces go under the build directory, which is inside
/// the checkout and ignored by git.
fn scratch_dir() -> std::io::Result<PathBuf> {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")), Into::into);
    let dir = root.join("sim-bench");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One run, with what it reports held to the declaration: every reported
/// metric is declared and finite, and the untraced run reports them all (a
/// per-layer metric whose layer is off a workload's path is left out and
/// prints as 0).
fn run_once(
    spec: &Spec,
    workload: Workload,
    trace: bool,
    opts: &Options,
) -> Result<Outcome, String> {
    let (mut outcome, declared) = if trace {
        (run_traced(workload, opts)?, &spec.per_layer)
    } else {
        (run_end_to_end(workload, opts)?, &spec.end_to_end)
    };
    let undeclared = outcome.metrics.iter().filter(|(n, _)| declared.iter().all(|m| m.name != *n));
    let not_finite = outcome.metrics.iter().filter(|(_, v)| !v.is_finite());
    let missing = declared.iter().filter(|m| !trace && outcome.metric(&m.name).is_none());
    let bad: Vec<&str> = undeclared
        .chain(not_finite)
        .map(|(n, _)| *n)
        .chain(missing.map(|m| m.name.as_str()))
        .collect();
    if !bad.is_empty() {
        eprintln!("sim-bench: {}: undeclared, missing or not finite: {bad:?}", workload.name());
        outcome.failed += bad.len() as u64;
    }
    Ok(outcome)
}

fn print_outcome(workload: Workload, trace: bool, declared: &[MetricSpec], o: &Outcome) {
    println!(
        "{} ({}): attempted {} failed {} latency samples {} digest {:016x}",
        workload.name(),
        if trace { "traced" } else { "untraced" },
        o.attempted,
        o.failed,
        o.samples,
        o.digest
    );
    for m in declared {
        println!("  {:<32} {:>16.4} {}", m.name, o.metric(&m.name).unwrap_or(0.0), m.unit);
    }
}

/// Run one workload one way in a process of its own — exactly what the
/// benchmark driver does — pass its report through, and return its result
/// line. Not in this process: once a process has started a thread (and
/// `server_mixed` starts several), glibc's malloc locks on every call, and
/// every later workload in it would run ~30% slower than it does alone.
fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("run {}: {e}", workload.name()))?;
    let report = String::from_utf8_lossy(&out.stdout);
    let (human, line) = report.trim_end().rsplit_once('\n').unwrap_or(("", &report));
    println!("{human}");
    if !out.status.success() {
        return Err(format!("{} exited with {}", workload.name(), out.status));
    }
    Json::parse(line).map_err(|e| format!("{}: result line: {e}", workload.name()))
}

/// `{"name": value, ...}` from a result line's `metrics`.
fn metric_values(result: &Json) -> String {
    let metrics = result.get("metrics").and_then(Json::as_obj).into_iter().flatten();
    sim_obs::json::object(
        metrics
            .filter_map(|(name, m)| Some((name.as_str(), m.get("value")?.as_f64()?.to_string()))),
    )
}

/// The one-line result the benchmark contract asks for.
fn contract_line(declared: &[MetricSpec], o: &Outcome) -> String {
    let metrics = sim_obs::json::object(declared.iter().map(|m| {
        let value = o.metric(&m.name).filter(|v| v.is_finite()).unwrap_or(0.0);
        (
            m.name.as_str(),
            format!("{{\"value\": {value}, \"unit\": {}}}", sim_obs::json::string(&m.unit)),
        )
    }));
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed
    )
}

fn run_compare(spec: &Spec, a: &PathBuf, b: &PathBuf) -> Result<ExitCode, String> {
    let load = |p: &PathBuf| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = compare(spec, &load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".into());
    }
    print!("{}", render(&rows));
    let regressions = rows.iter().filter(|r| r.verdict == Verdict::Regression).count();
    let unresolved = rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count();
    println!("{regressions} regression(s), {unresolved} unresolved; A is the base of every ratio");
    Ok(if regressions == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn real_main() -> Result<ExitCode, String> {
    let spec = Spec::load();
    let args = parse_args(&spec).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &args.compare {
        return run_compare(&spec, a, b);
    }
    let options = |seed| -> Result<Options, String> {
        Ok(Options {
            scale: Scale::BENCH,
            seed,
            budget: Budget::Seconds(args.seconds),
            scratch: scratch_dir().map_err(|e| format!("scratch directory: {e}"))?,
        })
    };

    if let Some(workload) = args.workload {
        let declared = if args.trace { &spec.per_layer } else { &spec.end_to_end };
        let outcome = run_once(&spec, workload, args.trace, &options(args.seed)?)?;
        print_outcome(workload, args.trace, declared, &outcome);
        println!("{}", contract_line(declared, &outcome));
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(path) = &args.json {
        // Fail now, not after minutes of runs, if OUT cannot be written.
        std::fs::write(path, "").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut all_correct = true;
    let mut runs = Vec::new();
    for seed in args.seed..args.seed + args.runs {
        let mut workloads = Vec::new();
        for workload in Workload::ALL {
            let plain = run_child(workload, seed, args.seconds, false)?;
            let traced = run_child(workload, seed, args.seconds, true)?;
            let count = |key| {
                let of = |run: &Json| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                (of(&plain) + of(&traced)).to_string()
            };
            let correct =
                [&plain, &traced].iter().all(|r| r.get("correct") == Some(&Json::Bool(true)));
            all_correct &= correct;
            workloads.push((
                workload.name(),
                sim_obs::json::object([
                    ("correct", correct.to_string()),
                    ("attempted", count("attempted")),
                    ("failed", count("failed")),
                    ("end_to_end", metric_values(&plain)),
                    ("per_layer", metric_values(&traced)),
                ]),
            ));
        }
        runs.push(sim_obs::json::object([
            ("seed", seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("workloads", sim_obs::json::object(workloads)),
        ]));
    }
    if let Some(path) = &args.json {
        let doc = sim_obs::json::object([("runs", sim_obs::json::array(runs))]);
        std::fs::write(path, doc + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("sim-bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use simbench::alloc_stats;

    /// The only test in this binary, so no other test thread allocates
    /// while it runs; the slack covers the test harness itself.
    #[test]
    fn a_known_allocation_moves_all_three_counters() {
        const SIZE: i64 = 1 << 20;
        const SLACK: i64 = 16 * 1024;
        let within = |got: i64, want: i64| (want..want + SLACK).contains(&got);

        let idle = alloc_stats::allocated();
        drop(std::hint::black_box(Vec::<u8>::with_capacity(64)));
        assert_eq!(alloc_stats::allocated(), idle, "nothing is counted outside a window");

        let heap = alloc_stats::Window::open();
        let v: Vec<u8> = Vec::with_capacity(SIZE as usize);
        assert!(within(alloc_stats::allocated() as i64, SIZE));
        assert!(within(alloc_stats::live(), SIZE));
        assert!(within(alloc_stats::peak(), SIZE));
        drop(std::hint::black_box(v));
        assert!(within(alloc_stats::live(), 0), "freed bytes leave the live count");
        let (allocated, peak) = heap.close();
        assert!(within(allocated as i64, SIZE), "but stay allocated");
        assert!(within(peak as i64, SIZE), "and the peak remembers them");
    }
}
