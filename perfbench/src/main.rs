//! The repo benchmark. One command runs one workload from a seed, checks
//! that the engine's answers are correct, and prints every metric by name
//! and unit; the last line of standard output is the JSON result:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload knn_static --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` times the end-to-end metrics with tracing off; `--trace 1`
//! records spans around every public call the benchmark makes and reports
//! the per-layer metrics derived from them. `METRICS.md` lists every
//! metric and the end-to-end metric each per-layer one should move.
//! Any wrong answer or `Err` makes the command exit with code 1.

mod batch;
mod data;
mod ingest;
mod kernels;
mod knn;
mod memdb;
mod persist_layer;
mod report;
mod stats;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["knn_static", "batch_mixed", "ingest_live"];

/// One run's settings, all from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Open-loop rate of the `ingest_live` writer, operations per second
    /// (0 for the other workloads, which have no writer).
    pub writer_rate: f64,
    /// Where databases, spans and result files go (inside the checkout).
    pub out_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> \
         [--writer-rate <ops/s>, required by ingest_live] [--out <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut writer_rate = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value()? == "1"),
            "--writer-rate" => {
                writer_rate = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?)
            }
            "--out" => out_dir = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    let writer_rate = match (workload.as_str(), writer_rate) {
        ("ingest_live", None) => return Err("ingest_live needs --writer-rate".into()),
        (_, rate) => rate.unwrap_or(0.0),
    };
    if !(seconds > 0.0 && writer_rate >= 0.0) || (workload == "ingest_live" && writer_rate == 0.0) {
        return Err("--seconds and --writer-rate must be positive".into());
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs_f64(seconds),
        trace: trace.ok_or("--trace is required")?,
        writer_rate,
        out_dir,
    })
}

/// The commit the benchmark was built from, when run inside a git
/// checkout.
fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Per-call kernel costs, traced-call latencies and the kernel share,
/// all derived from the recorded spans.
fn derive_from_spans(out: &mut Outcome, spans: &[trace::Span]) {
    let table = trace::summarise(spans);
    let get = |name: &str| {
        table
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.clone())
            .unwrap_or_default()
    };
    let edwp = get(kernels::EDWP).ns_per_item();
    let boxb = get(kernels::BOX_BOUND).ns_per_item();
    let subb = get(kernels::SUB_BOUND).ns_per_item();
    let trajb = get(kernels::TRAJ_BOUND).ns_per_item();
    let pre = get(kernels::PRESCREEN).ns_per_item();
    out.layer("dist.edwp.ns_per_call", edwp);
    out.layer("dist.boxes.box_bound_ns_per_call", boxb);
    out.layer("dist.boxes.sub_bound_ns_per_call", subb);
    out.layer("dist.boxes.traj_bound_ns_per_call", trajb);
    out.layer("dist.boxes.prescreen_ns_per_call", pre);
    // Estimated kernel time per query: DP calls at the cut-off DP cost,
    // bound evaluations at the mean of the summary and cut-off polyline
    // bound costs, and one prescreen sweep per visited node (leaves are
    // visited without a sweep, so this term is an upper estimate).
    let per_q = |name| out.layer.get(name).copied().unwrap_or(0.0);
    let summary_bound = if boxb > 0.0 && subb > 0.0 {
        (boxb + subb) / 2.0
    } else {
        boxb.max(subb)
    };
    let edwp_cut = get(kernels::EDWP_CUT).ns_per_item();
    let trajb_cut = get(kernels::TRAJ_BOUND_CUT).ns_per_item();
    let kernel_ns = per_q("dist.edwp.calls_per_query") * edwp_cut
        + per_q("dist.boxes.bound_evals_per_query") * (summary_bound + trajb_cut) / 2.0
        + per_q("index.engine.nodes_visited_per_query") * pre;
    if out.query_cpu_ms > 0.0 {
        out.layer(
            "index.engine.kernel_share",
            kernel_ns / 1e6 / out.query_cpu_ms,
        );
    }
    let snap = get("index.Session::snapshot");
    if snap.spans > 0 {
        out.layer("index.session.snapshot_ms.p50", snap.quantile_ms(0.5));
        out.layer("index.session.snapshot_ms.p99", snap.quantile_ms(0.99));
    }
}

fn print_span_table(spans: &[trace::Span]) {
    println!("# spans: name | count | items | total_ms | self_ms | p50_ms");
    for (name, s) in trace::summarise(spans) {
        println!(
            "# span {name} | {} | {} | {:.3} | {:.3} | {:.4}",
            s.spans,
            s.items,
            s.total_ms(),
            s.self_ns as f64 / 1e6,
            s.quantile_ms(0.5)
        );
    }
}

fn main() {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out_dir.display());
        std::process::exit(2);
    }
    trace::enable(ctx.trace);
    let mut out = match ctx.workload.as_str() {
        "knn_static" => knn::run(&ctx),
        "batch_mixed" => batch::run(&ctx),
        "ingest_live" => ingest::run(&ctx),
        _ => unreachable!("validated in parse_args"),
    };
    let peak = report::peak_rss_mb();
    out.e2e("peak_rss_mb", peak, "MB");
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.e2e("failed_frac", failed_frac, "ratio");
    let spans = trace::take();
    if ctx.trace {
        derive_from_spans(&mut out, &spans);
    }

    let isa = traj_index::Session::default().kernel_isa();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut meta = vec![
        ("workload", ctx.workload.clone()),
        ("seed", ctx.seed.to_string()),
        ("seconds", format!("{:?}", ctx.seconds.as_secs_f64())),
        ("trace", u8::from(ctx.trace).to_string()),
        ("git_sha", git_sha()),
        ("nproc", nproc.to_string()),
        ("kernel_isa", isa.to_string()),
        (
            "traj_force_scalar",
            std::env::var("TRAJ_FORCE_SCALAR").unwrap_or_else(|_| "unset".into()),
        ),
        ("writer_rate_per_s", format!("{:?}", ctx.writer_rate)),
    ];
    meta.extend(out.meta.iter().map(|(k, v)| (*k, v.clone())));
    let meta_json = meta
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect::<Vec<_>>()
        .join(", ");

    println!(
        "# perfbench {} seed {} trace {}",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    for (k, v) in &meta {
        println!("# meta {k} = {v}");
    }
    if !ctx.trace {
        for m in report::END_TO_END {
            if let Some((v, unit)) = out.e2e.get(m.name) {
                println!(
                    "# e2e {} = {} {unit} ({} is better)",
                    m.name,
                    report::num(*v),
                    m.better
                );
            }
        }
        for (name, (v, unit)) in &out.e2e {
            if !report::END_TO_END.iter().any(|m| m.name == *name) {
                println!("# e2e {name} = {} {unit}", report::num(*v));
            }
        }
    } else {
        print_span_table(&spans);
        for (name, v) in &out.layer {
            println!("# layer {name} = {}", report::num(*v));
        }
    }
    for f in &out.failures {
        println!("# FAILED {f}");
    }
    println!("# attempted {} failed {}", out.attempted, out.failed);

    let tag = format!(
        "{}-seed{}-trace{}",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    if ctx.trace {
        let path = ctx.out_dir.join(format!("spans-{tag}.jsonl"));
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let line = match report::result_line(&out, ctx.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let record = format!("{{\"meta\": {{{meta_json}}}, \"result\": {line}}}\n");
    let path = ctx.out_dir.join(format!("result-{tag}.json"));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{line}");
    if out.failed > 0 {
        std::process::exit(1);
    }
}
