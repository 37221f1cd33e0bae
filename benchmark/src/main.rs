//! The repo benchmark. One command runs a workload against the server
//! started exactly as `amber_serve_http` starts it, prints every metric as
//! `name value unit`, checks the answers, and ends with one JSON line.
//!
//! ```text
//! amber_benchmark [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//!                 [--smoke] [--out <dir>]
//! amber_benchmark compare <dir-a> <dir-b>
//! amber_benchmark manifest
//! ```
//!
//! Without `--workload`, every workload runs in turn, each in a process
//! of its own, end to end and then traced.

use amber_benchmark::run::{self, status_kib, Report, Settings};
use amber_benchmark::spec::{self, MetricSpec};
use amber_benchmark::{compare, workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Resident memory beyond which a run is aborted.
const RSS_LIMIT_KIB: u64 = 4 << 20;

/// How long an aborted run may take to unwind before the process exits.
const ABORT_GRACE: Duration = Duration::from_secs(15);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest_json());
            ExitCode::SUCCESS
        }
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        _ => match parse(&args) {
            Ok((Some(workload), settings)) => run_one(&workload, &settings),
            Ok((None, settings)) => run_all(&settings),
            Err(e) => {
                eprintln!(
                    "{e}\nusage: amber_benchmark [--workload <name>] [--seed <u64>] \
                           [--seconds <n>] [--trace <0|1>] [--smoke] [--out <dir>]\n       \
                           amber_benchmark compare <dir-a> <dir-b>"
                );
                ExitCode::from(2)
            }
        },
    }
}

fn parse(args: &[String]) -> Result<(Option<String>, Settings), String> {
    let mut workload = None;
    let mut settings = Settings {
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => settings.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                settings.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(settings.seconds > 0.0 && settings.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                settings.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--smoke" => settings.smoke = true,
            "--out" => settings.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((workload, settings))
}

/// Every workload in turn, each in its own process (so that `peak_rss_mib`
/// is the workload's own), end to end and then traced.
fn run_all(settings: &Settings) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for workload in &spec::WORKLOADS {
        for trace in ["0", "1"] {
            let mut command = std::process::Command::new(&exe);
            command
                .args(["--workload", workload.name, "--trace", trace])
                .args(["--seed", &settings.seed.to_string()])
                .args(["--seconds", &settings.seconds.to_string()])
                .arg("--out")
                .arg(&settings.out);
            if settings.smoke {
                command.arg("--smoke");
            }
            // `status` waits for the child; it shares this process's
            // standard streams.
            failed |= !command.status().is_ok_and(|status| status.success());
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_one(workload: &str, settings: &Settings) -> ExitCode {
    let Some(load) = workload::load_for(workload, settings.smoke) else {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {workload}; one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    if load.connections == 1 {
        pin_to_one_cpu();
    }
    // Set-up and passes around the timed seconds take about 20 s; three
    // times the plan is the point where something is stuck.
    let planned = Duration::from_secs_f64(20.0 + 2.0 * settings.seconds);
    let abort = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        scope.spawn(|| watchdog(planned * 3, &abort, &done));
        let result = run::run(&load, settings, &abort);
        done.store(true, Ordering::SeqCst);
        result
    });
    let report = match result {
        Ok(report) if !abort.load(Ordering::SeqCst) => report,
        Ok(_) => {
            eprintln!("{workload}: aborted by the watchdog");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match emit(workload, settings, &report) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Once a second: abort the run when it has taken `limit` or holds more
/// than [`RSS_LIMIT_KIB`]. An abort makes every client loop stop, after
/// which the run shuts its server down and fails; a run that cannot even
/// do that is ended here.
fn watchdog(limit: Duration, abort: &AtomicBool, done: &AtomicBool) {
    let started = Instant::now();
    let mut aborted_at: Option<Instant> = None;
    let mut ticks = 0u32;
    while !done.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
        ticks += 1;
        if let Some(at) = aborted_at {
            if at.elapsed() > ABORT_GRACE {
                eprintln!("watchdog: the run did not unwind; exiting");
                std::process::exit(3);
            }
            continue;
        }
        let why = if started.elapsed() > limit {
            format!("run exceeded {limit:?}")
        } else if ticks.is_multiple_of(10) && status_kib("VmRSS") > RSS_LIMIT_KIB {
            format!("resident memory exceeded {} MiB", RSS_LIMIT_KIB >> 10)
        } else {
            continue;
        };
        eprintln!("watchdog: {why}; aborting");
        abort.store(true, Ordering::SeqCst);
        aborted_at = Some(Instant::now());
    }
}

/// Restrict this thread, and every thread it starts from here on, to one
/// of the CPUs it may run on.
///
/// A closed loop on one connection is a chain in which exactly one thread
/// is runnable at any time (client, connection thread, worker and back),
/// so a second CPU adds no parallelism, only a cross-CPU wake-up per hop.
/// On the two-vCPU virtual machines this runs on, such a wake-up costs
/// about 30 µs of hypervisor time: unpinned, `repeat_hot` measured 6 k
/// requests/s against 37 k pinned, six sevenths of it wake-ups that no
/// change to this repository can move.
fn pin_to_one_cpu() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        // The kernel's `cpu_set_t`: 1024 bits.
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
        // and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            eprintln!("cannot read the CPU affinity; running unpinned");
            return;
        }
        // The highest allowed CPU: CPU 0 takes most interrupts.
        let Some(word) = mask.iter().rposition(|w| *w != 0) else {
            return;
        };
        let bit = 63 - mask[word].leading_zeros();
        let mut one = [0u64; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of exactly `size` bytes that the
        // call only reads.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            eprintln!("cannot set the CPU affinity; running unpinned");
        }
    }
}

/// Print the metrics, write the result file, and end with the JSON line.
fn emit(workload: &str, settings: &Settings, report: &Report) -> Result<(), String> {
    let listed: &[MetricSpec] = if settings.trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    // The metric set is the contract: nothing missing, nothing unlisted.
    for (name, _) in &report.metrics.0 {
        if !listed.iter().any(|m| m.name == *name) {
            return Err(format!(
                "measured {name}, which BENCHMARK.json does not list"
            ));
        }
    }
    let mut fields = Vec::new();
    for metric in listed {
        let mut values = report.metrics.0.iter().filter(|(n, _)| *n == metric.name);
        let (Some((_, value)), None) = (values.next(), values.next()) else {
            return Err(format!("{} was not measured exactly once", metric.name));
        };
        if !value.is_finite() {
            return Err(format!("{} is {value}", metric.name));
        }
        println!("{} {value} {}", metric.name, metric.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    println!("ops_attempted {} count", report.attempted);
    println!("ops_failed {} count", report.failed);
    if let Some(why) = &report.first_failure {
        eprintln!("{workload}: first failure: {why}");
    }
    for violation in &report.violations {
        eprintln!("{workload}: {violation}");
    }
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.violations.is_empty(),
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    std::fs::create_dir_all(&settings.out)
        .map_err(|e| format!("{}: {e}", settings.out.display()))?;
    let file = if settings.trace {
        format!("{workload}.layers.json")
    } else {
        format!("{workload}.json")
    };
    let path = settings.out.join(file);
    std::fs::write(&path, format!("{line}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{line}");
    Ok(())
}
