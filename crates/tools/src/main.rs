//! `pressio` — the LibPressio-Tools analog: a compressor-agnostic command
//! line interface.
//!
//! Because it drives the *generic* interface, every registered compressor,
//! metric, and IO format works from this one binary — the capability the
//! paper contrasts with the per-compressor CLIs shipped by SZ, ZFP, and
//! MGARD (none of which can read the others' formats, and none of which can
//! read HDF5-style containers).
//!
//! ```text
//! pressio list [compressors|metrics|io]
//! pressio options <compressor>
//! pressio compress   -c <name> -i <in> -o <out> -t <dtype> -d <dims>
//!                    [-O key=value ...] [-m metric ...] [-f posix|numpy|h5lite|csv|datagen]
//! pressio decompress -c <name> -i <in> -o <out> -t <dtype> [-d <dims>] [-F posix|numpy]
//! pressio eval       -i <original> -j <decompressed> -t <dtype> -d <dims> [-m metric ...]
//! pressio gen        -n <dataset> -o <out> [-s seed] [-k scale] [-F posix|numpy]
//! pressio contract   [-v verbose]
//! ```

use std::process::ExitCode;

use libpressio::prelude::*;
use libpressio::{Error, Result};

struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(flag) = a.strip_prefix('-') {
                let flag = flag.trim_start_matches('-').to_string();
                // The next token is this flag's value unless it is itself a
                // flag (starts with '-' followed by a letter — negative
                // numeric values still parse as values).
                let next_is_value = argv.get(i + 1).is_some_and(|n| {
                    !(n.starts_with('-')
                        && n[1..]
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_ascii_alphabetic() || c == '-'))
                });
                if next_is_value {
                    options.push((flag, argv[i + 1].clone()));
                    i += 2;
                } else {
                    options.push((flag, String::new()));
                    i += 1;
                }
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Args {
            positional,
            options,
        }
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, flag: &str) -> Vec<&str> {
        self.options
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn require(&self, flag: &str, what: &str) -> Result<&str> {
        self.get(flag)
            .ok_or_else(|| Error::invalid_argument(format!("missing -{flag} <{what}>")))
    }
}

/// Parse `key=value` pairs into typed option values: integer, then float,
/// then string.
fn parse_option_pairs(pairs: &[&str]) -> Result<Options> {
    let mut o = Options::new();
    for p in pairs {
        let (k, v) = p
            .split_once('=')
            .ok_or_else(|| Error::invalid_argument(format!("expected key=value, got {p:?}")))?;
        if let Ok(i) = v.parse::<i64>() {
            o.set(k, i);
        } else if let Ok(f) = v.parse::<f64>() {
            o.set(k, f);
        } else {
            o.set(k, v);
        }
    }
    Ok(o)
}

fn parse_dims(s: &str) -> Result<Vec<usize>> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| Error::invalid_argument(format!("bad dimension {p:?}")))
        })
        .collect()
}

fn io_for(format: &str, path: &str, extra: &Options) -> Result<Box<dyn IoPlugin>> {
    let library = libpressio::instance();
    let mut io = library.get_io(format)?;
    let mut opts = Options::new().with("io:path", path);
    opts.merge(extra);
    io.set_options(&opts)?;
    Ok(io)
}

fn read_input(args: &Args, path_flag: &str) -> Result<Data> {
    let path = args.require(path_flag, "path")?;
    let format = args.get("f").unwrap_or("posix");
    let extra = parse_option_pairs(&args.get_all("O"))?;
    let mut io = io_for(format, path, &extra)?;
    let template = match (args.get("t"), args.get("d")) {
        (Some(t), Some(d)) => Some(Data::owned(DType::from_name(t)?, parse_dims(d)?)),
        _ => None,
    };
    io.read(template.as_ref())
}

fn cmd_list(args: &Args) -> Result<()> {
    let library = libpressio::instance();
    let what = args.positional.get(1).map(|s| s.as_str()).unwrap_or("all");
    if what == "compressors" || what == "all" {
        println!("compressors:");
        for c in library.supported_compressors() {
            println!("  {c}");
        }
    }
    if what == "metrics" || what == "all" {
        println!("metrics:");
        for m in library.supported_metrics() {
            println!("  {m}");
        }
    }
    if what == "io" || what == "all" {
        println!("io:");
        for i in library.supported_io() {
            println!("  {i}");
        }
    }
    Ok(())
}

fn cmd_options(args: &Args) -> Result<()> {
    let library = libpressio::instance();
    let name = args
        .positional
        .get(1)
        .ok_or_else(|| Error::invalid_argument("usage: pressio options <compressor>"))?;
    let c = library.get_compressor(name)?;
    println!("# options ({name})");
    print!("{}", c.get_options());
    println!("# configuration");
    print!("{}", c.get_configuration());
    let docs = c.get_documentation();
    if !docs.is_empty() {
        println!("# documentation");
        print!("{docs}");
    }
    Ok(())
}

fn cmd_compress(args: &Args) -> Result<()> {
    let library = libpressio::instance();
    let name = args.require("c", "compressor")?;
    let input = read_input(args, "i")?;
    let mut c = library.get_compressor(name)?;
    let opts = parse_option_pairs(&args.get_all("O"))?;
    c.check_options(&opts)?;
    c.set_options(&opts)?;
    let mut metric_names: Vec<&str> = args.get_all("m");
    if metric_names.is_empty() {
        metric_names = vec!["size", "time"];
    }
    c.set_metrics(library.new_metrics(&metric_names)?);
    let compressed = c.compress(&input)?;
    let out = args.require("o", "path")?;
    std::fs::write(out, compressed.as_bytes())?;
    print!("{}", c.metrics_results());
    Ok(())
}

fn cmd_decompress(args: &Args) -> Result<()> {
    let library = libpressio::instance();
    let name = args.require("c", "compressor")?;
    let input_path = args.require("i", "path")?;
    let bytes = std::fs::read(input_path)?;
    let compressed = Data::from_bytes(&bytes);
    let dtype = DType::from_name(args.require("t", "dtype")?)?;
    let dims = match args.get("d") {
        Some(d) => parse_dims(d)?,
        None => vec![0],
    };
    let mut c = library.get_compressor(name)?;
    c.set_options(&parse_option_pairs(&args.get_all("O"))?)?;
    let mut output = Data::owned(dtype, dims);
    c.decompress(&compressed, &mut output)?;
    let out_path = args.require("o", "path")?;
    let format = args.get("F").unwrap_or("posix");
    let mut io = io_for(format, out_path, &Options::new())?;
    io.write(&output)?;
    eprintln!(
        "decompressed {} elements of {} to {out_path}",
        output.num_elements(),
        output.dtype()
    );
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<()> {
    let library = libpressio::instance();
    let dtype = DType::from_name(args.require("t", "dtype")?)?;
    let dims = parse_dims(args.require("d", "dims")?)?;
    let template = Data::owned(dtype, dims);
    let read = |flag: &str| -> Result<Data> {
        let path = args.require(flag, "path")?;
        let mut io = io_for(args.get("f").unwrap_or("posix"), path, &Options::new())?;
        io.read(Some(&template))
    };
    let original = read("i")?;
    let decompressed = read("j")?;
    let mut metric_names: Vec<&str> = args.get_all("m");
    if metric_names.is_empty() {
        metric_names = vec!["error_stat", "pearson", "spatial_error", "ks_test"];
    }
    // Drive the metric hooks directly with a no-op "compression".
    let mut metrics = library.new_metrics(&metric_names)?;
    let fake = Data::from_bytes(&[0u8]);
    for m in metrics.iter_mut() {
        m.set_options(&parse_option_pairs(&args.get_all("O"))?)?;
        m.begin_compress(&original);
        m.end_compress(&original, &fake, std::time::Duration::ZERO);
        m.begin_decompress(&fake);
        m.end_decompress(&fake, &decompressed, std::time::Duration::ZERO);
    }
    for m in &metrics {
        print!("{}", m.results());
    }
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<()> {
    libpressio::init();
    let name = args.require("n", "dataset")?;
    let seed = args.get("s").and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    let scale = args
        .get("k")
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1);
    let data = libpressio::datagen::by_name(name, scale, seed)?;
    let out = args.require("o", "path")?;
    let format = args.get("F").unwrap_or("posix");
    let mut io = io_for(format, out, &Options::new())?;
    io.write(&data)?;
    eprintln!(
        "wrote {name} ({} {:?}) to {out}",
        data.dtype(),
        data.dims()
    );
    Ok(())
}

fn cmd_contract(args: &Args) -> Result<()> {
    let report = pressio_tools::contract::check_all();
    let verbose = args.get("v").is_some();
    if verbose || !report.is_clean() {
        print!("{report}");
    } else {
        println!(
            "checked {} plugins: all honor the plugin contract ({} documented skip(s))",
            report.checked,
            report.skipped.len()
        );
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(Error::invalid_argument(format!(
            "{} contract violation(s)",
            report.violations.len()
        )))
    }
}

fn cmd_fuzz_decode(args: &Args) -> Result<()> {
    let parse_num = |flag: &str, default: u64| -> Result<u64> {
        match args.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| Error::invalid_argument(format!("bad --{flag} value {v:?}"))),
        }
    };
    let cfg = pressio_tools::fuzz::FuzzConfig {
        iterations: parse_num("iterations", 64)? as u32,
        seed: parse_num("seed", 1)?,
        timeout_ms: parse_num("timeout-ms", 2_000)?,
        compressor: args.get("c").map(str::to_string),
    };
    let report = pressio_tools::fuzz::fuzz_all(&cfg);
    print!("{report}");
    if report.is_clean() {
        Ok(())
    } else {
        Err(Error::corrupt(format!(
            "{} robustness violation(s)",
            report.failures.len()
        )))
    }
}

fn cmd_chaos(args: &Args) -> Result<()> {
    let parse_num = |flag: &str, default: u64| -> Result<u64> {
        match args.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| Error::invalid_argument(format!("bad --{flag} value {v:?}"))),
        }
    };
    let mut cfg = if args.get("quick").is_some() {
        pressio_tools::chaos::ChaosSweepConfig::quick()
    } else {
        pressio_tools::chaos::ChaosSweepConfig::default()
    };
    cfg.seeds = parse_num("seeds", cfg.seeds as u64)? as u32;
    cfg.first_seed = parse_num("seed", cfg.first_seed)?;
    cfg.run_deadline_ms = parse_num("deadline-ms", cfg.run_deadline_ms)?;
    let report = if args.get("serve").is_some() {
        pressio_tools::chaos::chaos_serve(&cfg).map_err(Error::unsupported)?
    } else {
        pressio_tools::chaos::chaos_all(&cfg).map_err(Error::unsupported)?
    };
    print!("{report}");
    if report.is_clean() {
        Ok(())
    } else {
        Err(Error::corrupt(format!(
            "{} self-healing violation(s)",
            report.failures.len()
        )))
    }
}

/// Set by the SIGTERM/SIGINT handler; the serve loop polls it.
static SHUTDOWN_SIGNAL: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_terminate(_sig: i32) {
    // Only async-signal-safe work here: a relaxed store on a static.
    SHUTDOWN_SIGNAL.store(true, std::sync::atomic::Ordering::Relaxed);
}

fn install_terminate_handler() {
    // Raw libc signal(2) via our own extern declarations so the binary
    // stays dependency-free.
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: declares libc's signal(2) with its documented C signature;
    // the symbol exists in every libc this binary links against.
    unsafe extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `on_terminate` is async-signal-safe (a single atomic store)
    // and has the exact `extern "C" fn(i32)` ABI signal(2) expects; the
    // handler is installed once, before any serve threads start.
    unsafe {
        signal(SIGTERM, on_terminate);
        signal(SIGINT, on_terminate);
    }
}

fn cmd_serve(args: &Args) -> Result<()> {
    use pressio_tools::serve::{ProfileSpec, ServeConfig, Server};
    let parse_num = |flag: &str, default: u64| -> Result<u64> {
        match args.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| Error::invalid_argument(format!("bad --{flag} value {v:?}"))),
        }
    };
    let mut profiles = Vec::new();
    for spec in args.get_all("profile") {
        profiles.push(ProfileSpec::parse(spec)?);
    }
    let cfg = ServeConfig {
        profiles,
        workers: parse_num("workers", 0)? as usize,
        queue_capacity: parse_num("queue", 0)? as usize,
        unix_path: args.get("unix").map(std::path::PathBuf::from),
        tcp_addr: args.get("tcp").map(str::to_string),
        drain_deadline_ms: parse_num("drain-ms", 0)?,
        max_body: parse_num("max-body", 0)? as usize,
        default_deadline_ms: parse_num("deadline-ms", 0)?,
        max_connections: parse_num("max-conns", 0)? as usize,
        allow_remote_shutdown: args.get("allow-remote-shutdown").is_some(),
        ..ServeConfig::default()
    };
    install_terminate_handler();
    let server = Server::start(cfg)?;
    if let Some(addr) = server.tcp_addr() {
        eprintln!("pressio serve: listening on tcp {addr}");
    }
    if let Some(path) = server.unix_path() {
        eprintln!("pressio serve: listening on unix {}", path.display());
    }
    // Poll for SIGTERM/SIGINT or a client Shutdown frame; the daemon's
    // threads do all the work.
    while !SHUTDOWN_SIGNAL.load(std::sync::atomic::Ordering::Relaxed)
        && !server.shutdown_requested()
    {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("pressio serve: draining...");
    let report = server.shutdown();
    eprintln!(
        "pressio serve: drained (clean={}, cancelled={}, cleared={}, busy_total={}, watchdog={}/{})",
        report.drained_clean,
        report.cancelled_inflight,
        report.cleared_queued,
        report.busy_responses,
        report.watchdog.0,
        report.watchdog.1
    );
    if report.stuck_inflight != 0 || report.watchdog.0 != report.watchdog.1 {
        return Err(Error::internal(format!(
            "unclean drain: {} stuck in flight, watchdog {}/{}",
            report.stuck_inflight, report.watchdog.0, report.watchdog.1
        )));
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<()> {
    let parse_num = |flag: &str, default: u64| -> Result<u64> {
        match args.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| Error::invalid_argument(format!("bad --{flag} value {v:?}"))),
        }
    };
    let cfg = pressio_tools::trace_cmd::TraceConfig {
        compressor: args
            .positional
            .get(1)
            .cloned()
            .or_else(|| args.get("c").map(str::to_string))
            .unwrap_or_else(|| "sz".to_string()),
        dataset: args.get("n").unwrap_or("scale-letkf").to_string(),
        scale: parse_num("k", 1)? as usize,
        seed: parse_num("s", 77)?,
        options: parse_option_pairs(&args.get_all("O"))?,
    };
    let outcome = pressio_tools::trace_cmd::run(&cfg)?;
    if args.get("check").is_some() {
        pressio_tools::trace_cmd::check(&outcome.report)?;
        println!(
            "trace check ok: {} span(s), well-nested",
            outcome.report.spans.len()
        );
        return Ok(());
    }
    print!("{}", outcome.tree);
    println!("{}", pressio_tools::trace_cmd::summary(&cfg, &outcome));
    if let Some(path) = args.get("export") {
        std::fs::write(path, &outcome.chrome_json)?;
        eprintln!("wrote chrome-trace JSON to {path} (open in chrome://tracing or Perfetto)");
    }
    Ok(())
}

/// `pressio lint`: the static-analysis pass, embedded in the main CLI so
/// the rules are discoverable without knowing the separate `pressio-lint`
/// binary exists. Shares its engine ([`pressio_tools::lint`]) and its
/// allowlist (`<root>/lint-allow.txt`) with that binary and with ci.sh.
fn cmd_lint(args: &Args) -> Result<()> {
    use pressio_tools::lint;
    if args.get("list-rules").is_some() {
        for r in lint::ALL_RULES {
            println!("{r}");
        }
        return Ok(());
    }
    if let Some(rule) = args.get("explain") {
        let text = lint::explain(rule).ok_or_else(|| {
            Error::invalid_argument(format!(
                "unknown rule {rule:?}; known rules: {}",
                lint::ALL_RULES.join(", ")
            ))
        })?;
        println!("{text}");
        return Ok(());
    }
    let root = match args.get("root") {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let mut dir = std::env::current_dir()?;
            loop {
                if std::fs::read_to_string(dir.join("Cargo.toml"))
                    .map(|t| t.contains("[workspace]"))
                    .unwrap_or(false)
                {
                    break dir;
                }
                match dir.parent() {
                    Some(p) => dir = p.to_path_buf(),
                    None => {
                        return Err(Error::invalid_argument(
                            "no workspace root found; pass --root",
                        ))
                    }
                }
            }
        }
    };
    let allow_path = root.join("lint-allow.txt");
    let allowlist = match std::fs::read_to_string(&allow_path) {
        Ok(text) => lint::Allowlist::parse(&text),
        Err(_) => lint::Allowlist::default(),
    };
    let report = lint::run(&root, &allowlist)?;
    let mut clean = true;
    for f in &report.findings {
        if !f.allowed {
            println!("{f}");
            clean = false;
        }
    }
    for stale in &report.unused_allows {
        eprintln!("warning: unused allowlist entry: {stale}");
        clean = false;
    }
    if !report.unused_allows.is_empty() {
        eprintln!(
            "note: stale entries waive nothing — remove those lines from {}",
            allow_path.display()
        );
    }
    let allowed = report.findings.iter().filter(|f| f.allowed).count();
    eprintln!(
        "pressio lint: {} files scanned, {} violation(s), {} allowlisted",
        report.files_scanned,
        report.findings.len() - allowed,
        allowed
    );
    if clean {
        Ok(())
    } else {
        Err(Error::invalid_argument("lint violations found"))
    }
}

const USAGE: &str = "usage: pressio <list|options|compress|decompress|eval|gen|contract|fuzz-decode|chaos|serve|trace|lint> [args]
  list [compressors|metrics|io]
  options <compressor>
  compress   -c <name> -i <in> -o <out> [-t dtype -d dims] [-O k=v ...] [-m metric ...] [-f format]
  decompress -c <name> -i <in> -o <out> -t <dtype> [-d dims] [-F format]
  eval       -i <orig> -j <dec> -t <dtype> -d <dims> [-m metric ...]
  gen        -n <hurricane|nyx|hacc|scale-letkf> -o <out> [-s seed] [-k scale] [-F format]
  contract   [-v verbose]  # verify every registered plugin honors the plugin contract
  fuzz-decode [-c <name>] [--iterations N] [--seed S] [--timeout-ms T]
              # drive every decompressor with damaged streams; fail on panics/hangs
  chaos      [--quick] [--serve] [--seeds N] [--seed S] [--deadline-ms T]
              # inject seeded faults (worker/task panics, delays, spurious
              # cancels, budget failures) into the exec pool while sweeping
              # every pooled plugin and the guard stacks; fail on deadlocks,
              # leaked workers, or cross-run corruption. Needs --features chaos.
              # --serve sweeps the serve daemon instead: faulted request
              # bursts per seed, then a clean request bit-identical to a
              # pristine server's and a drain with nothing stuck or leaked
  serve      [--tcp host:port] [--unix path] [--profile name=compressor[,k=v...]]...
              [--workers N] [--queue N] [--drain-ms T] [--deadline-ms T] [--max-body B]
              [--max-conns N] [--allow-remote-shutdown]
              # run the admission-controlled compression daemon: bounded
              # queue with structured Busy shedding, per-request deadlines
              # and memory budgets, a connection cap (default 256), and
              # graceful drain on SIGTERM/SIGINT or a client Shutdown
              # frame (unix-socket only unless --allow-remote-shutdown).
              # Default profiles: raw, lossless, sz_abs_1e3, zfp_default
  trace      [<compressor>] [-n dataset] [-k scale] [-s seed] [-O k=v ...]
              [--export chrome.json] [--check]
              # round-trip a datagen field with span tracing enabled; print the
              # per-stage span tree, optionally exporting chrome-trace JSON.
              # --check asserts a non-empty, well-nested span tree
  lint       [--root dir] [--explain rule] [--list-rules]
              # run the workspace static-analysis pass (same engine as the
              # pressio-lint binary): wire-taint, plugin-surface, lock
              # discipline, and the v1 line rules. --explain documents a rule";

fn run() -> Result<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv);
    match args.positional.first().map(|s| s.as_str()) {
        Some("list") => cmd_list(&args),
        Some("options") => cmd_options(&args),
        Some("compress") => cmd_compress(&args),
        Some("decompress") => cmd_decompress(&args),
        Some("eval") => cmd_eval(&args),
        Some("gen") => cmd_gen(&args),
        Some("contract") => cmd_contract(&args),
        Some("fuzz-decode") => cmd_fuzz_decode(&args),
        Some("chaos") => cmd_chaos(&args),
        Some("serve") => cmd_serve(&args),
        Some("trace") => cmd_trace(&args),
        Some("lint") => cmd_lint(&args),
        _ => {
            eprintln!("{USAGE}");
            Err(Error::invalid_argument("unknown or missing command"))
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pressio: {e}");
            ExitCode::from(e.code().code() as u8)
        }
    }
}
