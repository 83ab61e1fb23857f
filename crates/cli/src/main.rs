//! `hics` — command-line interface for HiCS subspace search and
//! density-based outlier ranking.
//!
//! ```text
//! hics generate --n 1000 --d 10 --seed 0 --out data.csv
//! hics search   --input data.csv [--m 50] [--alpha 0.1] [--cutoff 400]
//!               [--top-k 100] [--test welch|ks|ksp|mwu] [--seed 0]
//! hics rank     --input data.csv [--labels] [--k 10] [--top 20] [--out scores.csv]
//!               (`.arff` inputs are detected automatically and carry labels)
//! hics evaluate --input data.csv --labels [--methods lof,hics,enclus,ris,randsub]
//! hics import   --input data.csv --out data.hicsstore [--labels]
//!               [--normalize none|minmax|zscore] [--chunk-rows 65536]
//! hics fit      --input data.csv|data.hicsstore --out model.hics
//!               [--scorer lof|knn|knnkth] [--normalize none|minmax|zscore]
//!               [--index brute|vptree] [--shards S]
//!               [--shard-partition contiguous|hash] [--shard-agg mean|max]
//!               [--shard-parallel P] [--no-precompute] [--progress]
//!               [search options]
//! hics score    --model model.hics --input queries.csv [--labels] [--top 20]
//!               [--out scores.csv] [--index brute|vptree]
//! hics serve    --model model.hics [--addr 127.0.0.1:7878] [--max-batch 512]
//!               [--workers 1] [--reactors 0] [--batch-wait-us 0]
//!               [--index brute|vptree]
//!               [--log-format text|json] [--slow-query-us N] [--no-instrument]
//! hics route    --model manifest.hics (--table routes.txt | --replicas a:1,b:2,...)
//!               [--addr 127.0.0.1:7880] [--degraded partial|fail]
//!               [--timeout-ms 2000] [--retries 1] [--hedge-ms 50]
//!               [--hedge-quantile 0.95] [--health-interval-ms 500]
//!               [--evict-after 3] [--readmit-after 2] [--pool-cap 8]
//!               [--log-format text|json] [--slow-query-us N] [--no-instrument]
//! hics trace    <url> [--id <hex>]
//! ```
//!
//! `import` streams CSV/ARFF rows into a columnar dataset store with
//! bounded memory; `fit` over a store reads its columns zero-copy from the
//! memory map (normalise at import time, not fit time). `fit` over a
//! CSV/ARFF file loads and normalises it once. Either way one writer
//! streams the artifact, so both inputs write the same bytes. `fit
//! --shards S` partitions the rows deterministically, fits every shard
//! independently through that writer, and writes a sharded manifest;
//! `score`/`serve` on a manifest score each query against every shard and
//! combine with the stored aggregation.
//!
//! `--index` selects the neighbour-search backend: `vptree` prebuilds (fit)
//! or uses (score/serve) per-subspace VP-trees for `O(log N)` queries at
//! bit-identical scores. When omitted, `score`/`serve` follow the artifact.
//!
//! `fit` stores every subspace's neighbourhood state (the "hoods":
//! k-distances, LOF densities, clamps) inside the artifact as its
//! version-4 hoods section, unless `--no-precompute` is given. `score` and
//! `serve` open models through `Engine::open_mmap`, the same opener
//! `/admin/reload` uses: artifacts are memory-mapped and adopt their stored
//! hoods; older artifacts compute them. The `# scored` / `# loaded` line
//! says whether the hoods were adopted or computed.
//!
//! # Exit codes (v2 CLI contract)
//!
//! Failure classes map to distinct exit codes so scripts can branch on
//! `$?`: `1` generic (unknown command), `2` bad input (options, data
//! files), `3` I/O, `4` unreadable artifact (magic/version/truncation/
//! checksum), `5` invalid artifact content, `6` malformed query, `7`
//! serving failure. See [`hics_data::HicsError::exit_code`].

mod args;

use args::{ArgError, Args};
use hics_baselines::{
    EnclusMethod, EnclusParams, FullSpaceLof, HicsMethod, OutlierMethod, PcaLofMethod,
    RandSubMethod, RandomSubspacesParams, RisMethod, RisParams,
};
use hics_core::{
    FitBuilder, FitObserver, Hics, HicsParams, ShardFitSpec, StatTest, SubspaceSearch,
};
use hics_data::arff::{read_arff_file, ArffReader};
use hics_data::csv::{read_csv_file, write_csv_file, CsvData, CsvReader};
use hics_data::manifest::{PartitionKind, ShardAggregation, ShardManifest};
use hics_data::model::{normalize_dataset, NormKind, ScorerKind, ScorerSpec};
use hics_data::{DatasetSource, HicsError, RouteTable, SyntheticConfig};
use hics_eval::report::{Stopwatch, TextTable};
use hics_eval::roc::roc_auc;
use hics_obs::ProcessSample;
use hics_outlier::{Engine, EngineHandle, IndexKind, RemoteEngine};
use hics_route::{Router, RouterConfig};
use hics_serve::{json, Json, LogFormat, Pool, ServeConfig, Server};
use hics_store::{DatasetStore, FileKind, StoreWriter, DEFAULT_CHUNK_ROWS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A CLI failure, carrying its exit code.
#[derive(Debug)]
enum CliError {
    /// Bad usage: unparsable options, missing arguments (exit 2).
    Usage(ArgError),
    /// A typed failure from the stack, mapped to its class code.
    Hics(HicsError),
    /// Anything else (exit 1).
    Other(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Hics(e) => e.exit_code(),
            CliError::Other(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "{e}"),
            CliError::Hics(e) => write!(f, "{e}"),
            CliError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e)
    }
}

impl From<HicsError> for CliError {
    fn from(e: HicsError) -> Self {
        CliError::Hics(e)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_) | CliError::Other(_)) {
                eprintln!("run `hics help` for usage");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    if let Some(target) = &args.target {
        if args.command.as_deref() != Some("trace") {
            return Err(ArgError(format!("unexpected positional argument {target:?}")).into());
        }
    }
    match args.command.as_deref() {
        Some("generate") => cmd_generate(&args),
        Some("search") => cmd_search(&args),
        Some("rank") => cmd_rank(&args),
        Some("evaluate") => cmd_evaluate(&args),
        Some("import") => cmd_import(&args),
        Some("fit") => cmd_fit(&args),
        Some("score") => cmd_score(&args),
        Some("serve") => cmd_serve(&args),
        Some("route") => cmd_route(&args),
        Some("trace") => cmd_trace(&args),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::Other(format!("unknown command {other:?}"))),
    }
}

fn print_usage() {
    println!("hics — high contrast subspaces for density-based outlier ranking");
    println!();
    println!("commands:");
    println!("  generate  --n <objects> --d <attrs> [--seed S] --out <file.csv>");
    println!("  search    --input <file.csv> [--labels] [--m 50] [--alpha 0.1]");
    println!("            [--cutoff 400] [--top-k 100] [--test welch|ks|ksp|mwu] [--seed 0]");
    println!("  rank      --input <file.csv> [--labels] [--k 10] [--top 20] [--out <scores.csv>]");
    println!("  evaluate  --input <file.csv> --labels [--methods lof,hics,...] [--k 10]");
    println!("  import    --input <file.csv|.arff> --out <data.hicsstore> [--labels]");
    println!("            [--normalize none|minmax|zscore] [--chunk-rows 65536]");
    println!("  fit       --input <file.csv|data.hicsstore> --out <model.hics>");
    println!("            [--scorer lof|knn|knnkth] [--normalize none|minmax|zscore]");
    println!("            [--index brute|vptree] [--k 10] [--shards S]");
    println!("            [--shard-partition contiguous|hash] [--shard-agg mean|max]");
    println!("            [--shard-parallel P] [--progress] [search options]");
    println!("  score     --model <model.hics> --input <queries.csv> [--labels] [--top 20]");
    println!("            [--out <scores.csv>] [--index brute|vptree]");
    println!("  serve     --model <model.hics> [--addr 127.0.0.1:7878] [--max-batch 512]");
    println!("            [--workers 1] [--reactors 0] [--batch-wait-us 0]");
    println!("            [--index brute|vptree]");
    println!("            [--log-format text|json] [--slow-query-us N] [--no-instrument]");
    println!("  route     --model <manifest.hics> (--table <routes.txt> | --replicas <spec>)");
    println!("            [--addr 127.0.0.1:7880] [--degraded partial|fail] [--timeout-ms 2000]");
    println!("            [--retries 1] [--hedge-ms 50] [--hedge-quantile 0.95]");
    println!("            [--health-interval-ms 500] [--evict-after 3] [--readmit-after 2]");
    println!("            [--log-format text|json] [--slow-query-us N] [--no-instrument]");
    println!("  trace     <url> [--id <hex>]");
    println!("  help      this message");
    println!();
    println!("  --threads N applies to search/rank/evaluate/fit/score/serve");
    println!("  (default: all hardware threads)");
    println!("  --index selects the kNN backend; score/serve default to the artifact's");
    println!("  fit stores each subspace's kNN state (hoods) in the artifact; score/serve");
    println!("  memory-map it and adopt them (fit --no-precompute leaves them out)");
    println!("  --reactors sets serve's event-loop thread count (0 = auto, Linux epoll);");
    println!("  --batch-wait-us lets batch workers linger that long for deeper batches");
    println!("  fit --progress narrates phases/levels/shards on stderr as they finish;");
    println!("  the artifact is written as it is computed, so save is the sum of its");
    println!("  lines and precompute's time excludes the hoods writes");
    println!("  serve exposes Prometheus text on GET /metrics; --slow-query-us N logs");
    println!("  requests slower than N microseconds (--log-format json for one JSON");
    println!("  object per line); --no-instrument drops per-stage request timelines");
    println!("  store-backed fits read columns zero-copy from the map (normalise at");
    println!("  import time); --shards fits partitions independently and serves their");
    println!("  mean|max score ensemble from a sharded manifest");
    println!("  route fans /score across one hics serve backend per manifest shard");
    println!("  (--replicas: `,` between shards, `|` between a shard's replicas) with");
    println!("  health-checked pools, hedged requests and the same score fold as serve");
    println!("  serve and route retain tail-sampled request traces on GET /trace;");
    println!("  trace <url> lists them, trace <url> --id <hex> renders a waterfall");
    println!();
    println!("exit codes: 1 generic, 2 bad input, 3 I/O, 4 unreadable artifact,");
    println!("            5 invalid artifact content, 6 malformed query, 7 serving failure");
}

fn load(args: &Args) -> Result<CsvData, CliError> {
    let path = args.require("input")?;
    let labels = args.flag("labels");
    if path.ends_with(".arff") {
        // ARFF files carry their own label attribute.
        let arff = read_arff_file(Path::new(path))
            .map_err(|e| HicsError::InvalidInput(format!("reading {path}: {e}")))?;
        return Ok(CsvData {
            dataset: arff.dataset,
            labels: arff.labels,
        });
    }
    read_csv_file(Path::new(path), true, labels)
        .map_err(|e| HicsError::InvalidInput(format!("reading {path}: {e}")).into())
}

/// The worker-thread budget: `--threads N`, defaulting to the machine's
/// available parallelism.
fn threads(args: &Args) -> Result<usize, ArgError> {
    let t = args.get_or("threads", hics_outlier::parallel::available_threads())?;
    if t == 0 {
        return Err(ArgError("--threads must be at least 1".into()));
    }
    Ok(t)
}

fn parse_test(name: &str) -> Result<StatTest, ArgError> {
    match name {
        "welch" | "wt" => Ok(StatTest::WelchT),
        "ks" => Ok(StatTest::KolmogorovSmirnov),
        "ksp" => Ok(StatTest::KsPValue),
        "mwu" | "mannwhitney" => Ok(StatTest::MannWhitney),
        other => Err(ArgError(format!(
            "unknown test {other:?} (expected welch|ks|ksp|mwu)"
        ))),
    }
}

fn cmd_generate(args: &Args) -> Result<(), CliError> {
    let n: usize = args.get_or("n", 1000)?;
    let d: usize = args.get_or("d", 10)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let out = args.require("out")?;
    let g = SyntheticConfig::checked(n, d)?.with_seed(seed).generate();
    write_csv_file(Path::new(out), &g.dataset, Some(&g.labels))
        .map_err(|e| HicsError::io(format!("writing {out}"), e))?;
    println!(
        "wrote {n} x {d} dataset with {} outliers (blocks {:?}) to {out}",
        g.outlier_count(),
        g.planted_subspaces
    );
    Ok(())
}

fn cmd_search(args: &Args) -> Result<(), CliError> {
    let data = load(args)?;
    let mut p = hics_core::SearchParams {
        m: args.get_or("m", 50)?,
        alpha: args.get_or("alpha", 0.1)?,
        candidate_cutoff: args.get_or("cutoff", 400)?,
        top_k: args.get_or("top-k", 100)?,
        seed: args.get_or("seed", 0)?,
        max_threads: threads(args)?,
        ..Default::default()
    };
    p.test = parse_test(args.get("test").unwrap_or("welch"))?;
    let watch = Stopwatch::start();
    let result = SubspaceSearch::new(p).run(&data.dataset);
    println!(
        "# {} subspaces ({} test, M={}, alpha={}), {:.2}s",
        result.len(),
        p.test.name(),
        p.m,
        p.alpha,
        watch.seconds()
    );
    let names = data.dataset.names();
    for s in &result {
        let dims: Vec<&str> = s.subspace.dims().map(|d| names[d].as_str()).collect();
        println!("{:.6}\t{{{}}}", s.contrast, dims.join(", "));
    }
    Ok(())
}

fn cmd_rank(args: &Args) -> Result<(), CliError> {
    let data = load(args)?;
    let mut params = HicsParams::paper_defaults();
    params.search.m = args.get_or("m", 50)?;
    params.search.alpha = args.get_or("alpha", 0.1)?;
    params.search.candidate_cutoff = args.get_or("cutoff", 400)?;
    params.search.top_k = args.get_or("top-k", 100)?;
    params.search.seed = args.get_or("seed", 0)?;
    params.search.test = parse_test(args.get("test").unwrap_or("welch"))?;
    params.search.max_threads = threads(args)?;
    params.lof_k = args.get_or("k", 10)?;
    let top: usize = args.get_or("top", 20)?;

    let watch = Stopwatch::start();
    let result = Hics::new(params).run(&data.dataset);
    println!("# ranking computed in {:.2}s", watch.seconds());
    report_scores(&result.scores, data.labels.as_deref(), top, args.get("out"))
}

/// The shared output tail of `rank` and `score`: top-ranked table, optional
/// AUC, optional score CSV. One implementation keeps the two commands'
/// outputs byte-compatible (the in-sample `score` vs `rank` invariant the
/// verify recipe checks).
fn report_scores(
    scores: &[f64],
    labels: Option<&[bool]>,
    top: usize,
    out: Option<&str>,
) -> Result<(), CliError> {
    let mut ranking: Vec<usize> = (0..scores.len()).collect();
    ranking.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    println!("rank\tobject\tscore");
    for (rank, &i) in ranking.iter().take(top).enumerate() {
        println!("{}\t{}\t{:.6}", rank + 1, i, scores[i]);
    }
    if let Some(labels) = labels {
        println!("# AUC = {:.2}%", 100.0 * roc_auc(scores, labels));
    }
    if let Some(out) = out {
        let table = hics_data::Dataset::from_columns_named(
            vec![scores.to_vec()],
            vec!["hics_score".into()],
        );
        write_csv_file(Path::new(out), &table, labels)
            .map_err(|e| HicsError::io(format!("writing {out}"), e))?;
        println!("# wrote per-object scores to {out}");
    }
    Ok(())
}

fn parse_scorer(name: &str, k: u32) -> Result<ScorerSpec, ArgError> {
    let kind = match name {
        "lof" => ScorerKind::Lof,
        "knn" | "knnmean" => ScorerKind::KnnMean,
        "knnkth" => ScorerKind::KnnKth,
        other => {
            return Err(ArgError(format!(
                "unknown scorer {other:?} (expected lof|knn|knnkth)"
            )))
        }
    };
    Ok(ScorerSpec { kind, k })
}

/// The `--index` option: `None` (absent) lets `score`/`serve` follow the
/// artifact; `fit` treats absent as brute.
fn parse_index(args: &Args) -> Result<Option<IndexKind>, ArgError> {
    args.get("index")
        .map(|name| name.parse().map_err(ArgError))
        .transpose()
}

fn parse_norm(name: &str) -> Result<NormKind, ArgError> {
    match name {
        "none" => Ok(NormKind::None),
        "minmax" => Ok(NormKind::MinMax),
        "zscore" => Ok(NormKind::ZScore),
        other => Err(ArgError(format!(
            "unknown normalization {other:?} (expected none|minmax|zscore)"
        ))),
    }
}

/// `import`: stream a CSV/ARFF file row-by-row into a columnar dataset
/// store with bounded memory — the entry point of the out-of-core
/// workflow. Labels (ARFF nominal attributes, or the last CSV column under
/// `--labels`) are dropped with a notice: stores hold the attributes the
/// fit consumes.
fn cmd_import(args: &Args) -> Result<(), CliError> {
    let input = args.require("input")?;
    let out = args.require("out")?;
    let norm = parse_norm(args.get("normalize").unwrap_or("none"))?;
    let chunk_rows: usize = args.get_or("chunk-rows", DEFAULT_CHUNK_ROWS)?;
    if chunk_rows == 0 {
        return Err(ArgError("--chunk-rows must be at least 1".into()).into());
    }
    let watch = Stopwatch::start();
    let mut writer = StoreWriter::create(Path::new(out), chunk_rows, norm);
    let mut dropped_labels = 0u64;
    let in_path = Path::new(input);
    let bad_input = |e: String| HicsError::InvalidInput(format!("reading {input}: {e}"));
    let names: Option<Vec<String>> = if input.ends_with(".arff") {
        let file =
            std::fs::File::open(in_path).map_err(|e| HicsError::io_path("opening", in_path, e))?;
        let mut rows =
            ArffReader::new(std::io::BufReader::new(file)).map_err(|e| bad_input(e.to_string()))?;
        let names = rows.names().to_vec();
        while let Some((row, label)) = rows.next_row().map_err(|e| bad_input(e.to_string()))? {
            dropped_labels += u64::from(label.is_some());
            writer.push_row(row)?;
        }
        Some(names)
    } else {
        let labels = args.flag("labels");
        let file =
            std::fs::File::open(in_path).map_err(|e| HicsError::io_path("opening", in_path, e))?;
        let mut rows = CsvReader::new(std::io::BufReader::new(file), true, labels);
        let mut d = 0usize;
        while let Some((row, label)) = rows.next_row().map_err(|e| bad_input(e.to_string()))? {
            dropped_labels += u64::from(label.is_some());
            d = row.len();
            writer.push_row(row)?;
        }
        rows.names().and_then(|names| {
            let mut names = names.to_vec();
            // The header may carry the label column's name; drop it like
            // `read_csv` does — and like `read_csv`, fall back to generated
            // names when the header does not match the data width.
            if labels && names.len() == d + 1 {
                names.pop();
            }
            (names.len() == d).then_some(names)
        })
    };
    let summary = writer.finish(names)?;
    println!(
        "# imported {} x {} rows into {out} ({:.1} MB, {} spilled chunks, {} normalization), {:.2}s",
        summary.n,
        summary.d,
        summary.bytes as f64 / 1e6,
        summary.spilled_chunks,
        norm.name(),
        watch.seconds()
    );
    if dropped_labels > 0 {
        println!(
            "# note: {dropped_labels} label values were dropped (stores hold attributes only)"
        );
    }
    Ok(())
}

/// Bytes per megabyte of `fit --progress`'s memory figures.
const MB: f64 = 1024.0 * 1024.0;

/// `fit --progress`: narrates the pipeline on stderr as it runs. Phase,
/// level and shard lines print as each completes; the contrast-evaluation
/// ticker is throttled to about one line per second (the hook fires from
/// every search worker thread, so the counters are atomic and the throttle
/// clock is taken with `try_lock` — a contended tick is simply skipped).
/// On Linux every phase's time line is followed by its resource line: the
/// process's CPU seconds from the phase's start to its end (every thread,
/// so concurrent shards' phases overlap), and `RssAnon` and `VmHWM` at its
/// end; after each start line comes `RssAnon` at the start. The artifact
/// is written as it is computed, so `save` prints up to
/// three times (after the search, after the index, at the end) and its
/// time is the sum of those lines; `precompute`'s time excludes the hoods
/// writes interleaved with it (the last `save` carries them), while its
/// CPU line, taken from the phase's start to its end, includes them.
struct ProgressObserver {
    evals: AtomicU64,
    draws: AtomicU64,
    last: Mutex<Instant>,
    /// The process CPU seconds at each running phase's start, oldest
    /// first (a sharded fit runs one phase in several shards at once).
    phase_cpu: Mutex<HashMap<String, Vec<f64>>>,
}

impl ProgressObserver {
    fn new() -> Self {
        ProgressObserver {
            evals: AtomicU64::new(0),
            draws: AtomicU64::new(0),
            last: Mutex::new(Instant::now()),
            phase_cpu: Mutex::new(HashMap::new()),
        }
    }
}

impl FitObserver for ProgressObserver {
    fn phase_started(&self, phase: &str) {
        eprintln!("# phase {phase}: started");
        if let Some(now) = ProcessSample::read() {
            eprintln!(
                "# phase {phase}: rss_anon {:.1} MB at start",
                now.rss_anon_bytes as f64 / MB
            );
            let mut starts = self.phase_cpu.lock().expect("progress lock");
            starts
                .entry(phase.to_string())
                .or_default()
                .push(now.cpu_seconds);
        }
    }

    fn phase_finished(&self, phase: &str, nanos: u64) {
        eprintln!("# phase {phase}: {:.2}s", nanos as f64 / 1e9);
        let start = self
            .phase_cpu
            .lock()
            .expect("progress lock")
            .get_mut(phase)
            .filter(|starts| !starts.is_empty())
            .map(|starts| starts.remove(0));
        if let (Some(now), Some(start)) = (ProcessSample::read(), start) {
            eprintln!(
                "# phase {phase}: cpu {:.2}s, rss_anon {:.1} MB, vm_hwm {:.1} MB",
                now.cpu_seconds - start,
                now.rss_anon_bytes as f64 / MB,
                now.vm_hwm_bytes as f64 / MB
            );
        }
    }

    fn contrast_evaluated(&self, slice_draws: u64) {
        let evals = self.evals.fetch_add(1, Ordering::Relaxed) + 1;
        let draws = self.draws.fetch_add(slice_draws, Ordering::Relaxed) + slice_draws;
        if let Ok(mut last) = self.last.try_lock() {
            if last.elapsed() >= Duration::from_secs(1) {
                *last = Instant::now();
                eprintln!("# progress: {evals} contrast evaluations, {draws} slice draws");
            }
        }
    }

    fn level_done(&self, level: usize, evaluated: usize, retained: usize, nanos: u64) {
        eprintln!(
            "# level {level}: {evaluated} evaluated, {retained} retained, {:.2}s",
            nanos as f64 / 1e9
        );
    }

    fn shard_phase(&self, shard: usize, phase: &str, nanos: u64) {
        eprintln!("# shard {shard} {phase}: {:.2}s", nanos as f64 / 1e9);
    }
}

/// `fit`: subspace search packaged into a binary model artifact for
/// `score` / `serve`, through one source and one builder. A dataset store
/// is read zero-copy from its memory map and arrives normalised at import
/// time; a CSV/ARFF input is loaded and normalised here, once, in place.
/// `--shards S` picks the sharded fit (rows partitioned deterministically,
/// every shard fitted independently, a manifest written at `--out`) over
/// the single artifact; both stream every artifact through the same writer,
/// so a text input, its imported store and a one-shard fit write the same
/// bytes.
fn cmd_fit(args: &Args) -> Result<(), CliError> {
    let input = args.require("input")?;
    let out = args.require("out")?;
    let mut params = HicsParams::paper_defaults();
    params.search.m = args.get_or("m", 50)?;
    params.search.alpha = args.get_or("alpha", 0.1)?;
    params.search.candidate_cutoff = args.get_or("cutoff", 400)?;
    params.search.top_k = args.get_or("top-k", 100)?;
    params.search.seed = args.get_or("seed", 0)?;
    params.search.test = parse_test(args.get("test").unwrap_or("welch"))?;
    params.search.max_threads = threads(args)?;
    let k: u32 = args.get_or("k", 10)?;
    if k == 0 {
        return Err(ArgError("--k must be at least 1".into()).into());
    }
    params.lof_k = k as usize;
    let scorer = parse_scorer(args.get("scorer").unwrap_or("lof"), k)?;
    let norm = parse_norm(args.get("normalize").unwrap_or("none"))?;
    let index = parse_index(args)?.unwrap_or(IndexKind::Brute);
    // Fits store the hoods section in the artifact by default, so opens
    // and reloads skip the all-points kNN pass.
    let precompute = !args.flag("no-precompute");
    let shards: Option<usize> = args
        .get("shards")
        .map(str::parse)
        .transpose()
        .map_err(|_| {
            ArgError(format!(
                "option --shards: cannot parse {:?}",
                args.get("shards").unwrap_or("")
            ))
        })?;

    let spec = match shards {
        Some(shards) => Some(ShardFitSpec {
            shards,
            partition: args
                .get("shard-partition")
                .unwrap_or("contiguous")
                .parse::<PartitionKind>()
                .map_err(ArgError)?,
            aggregation: args
                .get("shard-agg")
                .unwrap_or("mean")
                .parse::<ShardAggregation>()
                .map_err(ArgError)?,
            parallel: args.get_or("shard-parallel", 0)?,
        }),
        None => None,
    };

    let watch = Stopwatch::start();
    // A store input is detected by content, not extension. For a store the
    // user's --normalize reaches the builder, whose source-fit check
    // rejects it (stores are normalised at import time); a text input is
    // normalised here and reaches the builder pre-normalised.
    let (source, builder_norm): (Box<dyn DatasetSource>, NormKind) =
        if hics_store::sniff_file(Path::new(input))? == FileKind::Store {
            (Box::new(DatasetStore::open_mmap(Path::new(input))?), norm)
        } else {
            let (data, norm_params) = normalize_dataset(load(args)?.dataset, norm);
            let source = PrenormalizedSource {
                data,
                norm_kind: norm,
                norm_params,
            };
            (Box::new(source), NormKind::None)
        };
    let mut builder = FitBuilder::new(params)
        .normalize(builder_norm)
        .scorer(scorer)
        .index(index)
        .precompute(precompute);
    if args.flag("progress") {
        builder = builder.observe(Arc::new(ProgressObserver::new()));
    }

    let Some(spec) = spec else {
        let summary = builder.fit_source_to(&*source, Path::new(out))?;
        println!(
            "# fitted {} x {} model: {} subspaces, {} scorer (k={}), {} normalization, \
             {} index, v{} artifact, {:.2}s",
            summary.n,
            summary.d,
            summary.subspaces,
            scorer.kind.name(),
            scorer.k,
            source.norm_kind().name(),
            index.name(),
            summary.version,
            watch.seconds()
        );
        println!("# wrote model artifact to {out}");
        return Ok(());
    };
    let manifest = builder.fit_sharded_to(&*source, &spec, Path::new(out))?;
    println!(
        "# sharded fit: {} rows x {} attrs into {} shards ({} partition, {} aggregation, \
         {} scorer, {} index), {:.2}s",
        manifest.total_n,
        manifest.d,
        manifest.shards.len(),
        manifest.partition.name(),
        manifest.aggregation.name(),
        scorer.kind.name(),
        index.name(),
        watch.seconds()
    );
    for (entry, path) in manifest
        .shards
        .iter()
        .zip(manifest.shard_paths(Path::new(out)))
    {
        println!("#   shard {} ({} rows)", path.display(), entry.n);
    }
    println!("# wrote sharded manifest to {out}");
    Ok(())
}

/// A pre-normalised in-memory source: what a CSV/ARFF input becomes before
/// the fit, so the artifact (or every shard) carries the one transform
/// computed over all rows.
struct PrenormalizedSource {
    data: hics_data::Dataset,
    norm_kind: NormKind,
    norm_params: Vec<hics_data::NormParam>,
}

impl DatasetSource for PrenormalizedSource {
    fn n(&self) -> usize {
        self.data.n()
    }

    fn d(&self) -> usize {
        self.data.d()
    }

    fn names(&self) -> &[String] {
        self.data.names()
    }

    fn column(&self, j: usize) -> std::borrow::Cow<'_, [f64]> {
        std::borrow::Cow::Borrowed(self.data.col(j))
    }

    fn norm_kind(&self) -> NormKind {
        self.norm_kind
    }

    fn norm_params(&self) -> std::borrow::Cow<'_, [hics_data::NormParam]> {
        std::borrow::Cow::Borrowed(&self.norm_params)
    }
}

/// How `score`/`serve` opened the model, for their first stdout line:
/// `vptree index, mmap load, hoods adopted` — `hoods computed` when the
/// open paid the all-points kNN pass because the artifact carried no hoods
/// section.
fn load_summary(engine: &Engine) -> String {
    let idx = engine.index_stats();
    format!(
        "{} index, {} load, hoods {}",
        idx.kind.name(),
        if engine.is_mapped() { "mmap" } else { "heap" },
        if idx.precomputed {
            "adopted"
        } else {
            "computed"
        }
    )
}

/// `score`: memory-map a model artifact and score query rows from a CSV
/// against it — the batch half of the serving path.
fn cmd_score(args: &Args) -> Result<(), CliError> {
    let model_path = args.require("model")?;
    let data = load(args)?;
    let max_threads = threads(args)?;
    let top: usize = args.get_or("top", 20)?;
    let index = parse_index(args)?;

    let watch = Stopwatch::start();
    let engine = Engine::open_mmap(Path::new(model_path), index, max_threads)?;
    if data.dataset.d() != engine.d() {
        return Err(HicsError::InvalidInput(format!(
            "query data has {} attributes, model expects {}",
            data.dataset.d(),
            engine.d()
        ))
        .into());
    }
    let rows: Vec<Vec<f64>> = (0..data.dataset.n()).map(|i| data.dataset.row(i)).collect();
    let results = engine.score_batch(&rows, max_threads);
    let mut scores = Vec::with_capacity(results.len());
    for (i, r) in results.into_iter().enumerate() {
        scores.push(r.map_err(|e| HicsError::InvalidQuery(format!("row {i}: {e}")))?);
    }
    println!(
        "# scored {} query points in {} subspaces ({}), {:.2}s",
        scores.len(),
        engine.subspace_count(),
        load_summary(&engine),
        watch.seconds()
    );
    report_scores(&scores, data.labels.as_deref(), top, args.get("out"))
}

/// `serve`: memory-map a model artifact and answer HTTP scoring requests
/// until killed. `POST /admin/reload` re-loads the same artifact path (or
/// one named in the request) without a restart.
/// `--reactors` sets the epoll event-loop thread count (0 = auto) and
/// `--batch-wait-us` lets batch workers linger for deeper batches.
/// The `--log-format` / `--slow-query-us` pair `serve` and `route`
/// share (`--slow-query-us 0` or absent disables the slow log).
fn parse_logging(args: &Args) -> Result<(LogFormat, Option<Duration>), CliError> {
    let log_format = match args.get("log-format").unwrap_or("text") {
        "text" => LogFormat::Text,
        "json" => LogFormat::Json,
        other => {
            return Err(ArgError(format!(
                "unknown log format {other:?} (expected text or json)"
            ))
            .into())
        }
    };
    let slow_query = match args.get_or("slow-query-us", 0u64)? {
        0 => None,
        us => Some(Duration::from_micros(us)),
    };
    Ok((log_format, slow_query))
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let model_path = args.require("model")?;
    let max_threads = threads(args)?;
    let (log_format, slow_query) = parse_logging(args)?;
    let config = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        threads: max_threads,
        max_batch: args.get_or("max-batch", 512)?,
        workers: args.get_or("workers", 1)?,
        reactor_threads: args.get_or("reactors", 0)?,
        batch_max_wait: Duration::from_micros(args.get_or("batch-wait-us", 0)?),
        instrument: !args.flag("no-instrument"),
        log_format,
        slow_query,
        ..ServeConfig::default()
    };
    if config.max_batch == 0 || config.workers == 0 {
        return Err(ArgError("--max-batch and --workers must be at least 1".into()).into());
    }

    let index = parse_index(args)?;
    let watch = Stopwatch::start();
    let engine = Engine::open_mmap(Path::new(model_path), index, max_threads)?;
    println!(
        "# loaded {} x {} model ({} subspaces, {}) in {:.2}s",
        engine.n(),
        engine.d(),
        engine.subspace_count(),
        load_summary(&engine),
        watch.seconds()
    );
    let server = Server::bind(engine, config)
        .map_err(|e| HicsError::Serve(format!("binding listener: {e}")))?;
    server.set_reload_source(PathBuf::from(model_path), index);
    let addr = server
        .local_addr()
        .map_err(|e| HicsError::Serve(format!("resolving listen address: {e}")))?;
    println!(
        "# serving on http://{addr}  (POST /score /v2/score /admin/reload, \
         GET /healthz /model /stats /metrics /trace)"
    );
    server
        .run()
        .map_err(|e| HicsError::Serve(format!("serving: {e}")))?;
    Ok(())
}

/// `route`: scatter-gather routing tier over `hics serve` shard
/// backends. Loads a sharded manifest for the ensemble *shape* (shard
/// count, fold, dimensionality) and a route table for the *placement*
/// (which replicas hold which shard), then serves the same `/score`,
/// `/v2/score` and `/metrics` surface as `hics serve` — every query fans
/// out to one healthy replica per shard over persistent connection pools
/// and folds the answers with the manifest's aggregation, bit for bit
/// what in-process manifest serving produces. `GET /route` reports
/// per-shard health, replica state and hedge/retry counters.
fn cmd_route(args: &Args) -> Result<(), CliError> {
    let model_path = args.require("model")?;
    let manifest = ShardManifest::load(Path::new(model_path))?;
    let table = match (args.get("table"), args.get("replicas")) {
        (Some(_), Some(_)) => {
            return Err(ArgError("--table and --replicas are mutually exclusive".into()).into())
        }
        (Some(path), None) => {
            RouteTable::load(Path::new(path)).map_err(|e| CliError::Usage(ArgError(e)))?
        }
        (None, Some(spec)) => {
            RouteTable::parse_inline(spec).map_err(|e| CliError::Usage(ArgError(e)))?
        }
        (None, None) => {
            return Err(ArgError(
                "route needs backend placement: --table <file> or --replicas <spec>".into(),
            )
            .into())
        }
    };

    let degraded = args
        .get("degraded")
        .unwrap_or("partial")
        .parse()
        .map_err(|e: String| ArgError(e))?;
    let hedge_quantile: f64 = args.get_or("hedge-quantile", 0.95)?;
    if !(0.5..1.0).contains(&hedge_quantile) {
        return Err(ArgError("--hedge-quantile must be in [0.5, 1.0)".into()).into());
    }
    let defaults = RouterConfig::default();
    let cfg = RouterConfig {
        degraded,
        request_timeout: Duration::from_millis(
            args.get_or("timeout-ms", defaults.request_timeout.as_millis() as u64)?,
        ),
        retries: args.get_or("retries", defaults.retries)?,
        hedge_after: Duration::from_millis(
            args.get_or("hedge-ms", defaults.hedge_after.as_millis() as u64)?,
        ),
        hedge_quantile,
        health_interval: Duration::from_millis(args.get_or(
            "health-interval-ms",
            defaults.health_interval.as_millis() as u64,
        )?),
        evict_after: args.get_or("evict-after", defaults.evict_after)?,
        readmit_after: args.get_or("readmit-after", defaults.readmit_after)?,
        pool_cap: args.get_or("pool-cap", defaults.pool_cap)?,
    };

    let (log_format, slow_query) = parse_logging(args)?;
    let instrument = !args.flag("no-instrument");
    let registry = Arc::new(hics_obs::Registry::new());
    let tracer = Arc::new(hics_obs::Tracer::default());
    let mut router =
        Router::new(&manifest, &table, cfg, &registry).map_err(|e| CliError::Usage(ArgError(e)))?;
    // The router records into the *server's* tracer, so one
    // `GET /trace/<id>` shows the request root span, the fan-out and
    // every per-shard attempt together.
    if instrument {
        router.set_tracer(Arc::clone(&tracer));
    }
    router.set_slow_fanout(slow_query, log_format);
    let router = Arc::new(router);
    // One synchronous sweep so /route and the subspace count are
    // populated before the first query; the checker keeps them fresh.
    router.probe_all();
    let _checker = router.spawn_health_checker();

    let config = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7880").to_string(),
        threads: threads(args)?,
        max_batch: args.get_or("max-batch", 512)?,
        workers: args.get_or("workers", 1)?,
        reactor_threads: args.get_or("reactors", 0)?,
        batch_max_wait: Duration::from_micros(args.get_or("batch-wait-us", 0)?),
        instrument,
        log_format,
        slow_query,
        ..ServeConfig::default()
    };
    if config.max_batch == 0 || config.workers == 0 {
        return Err(ArgError("--max-batch and --workers must be at least 1".into()).into());
    }
    let engine = Engine::Remote(Arc::clone(&router) as Arc<dyn RemoteEngine>);
    let server = Server::bind_handle_with_obs(
        Arc::new(EngineHandle::new(engine)),
        config,
        Arc::clone(&registry),
        tracer,
    )
    .map_err(|e| HicsError::Serve(format!("binding listener: {e}")))?;
    let admin_router = Arc::clone(&router);
    server.register_admin("/route", move || (200, admin_router.route_body()));
    let addr = server
        .local_addr()
        .map_err(|e| HicsError::Serve(format!("resolving listen address: {e}")))?;
    println!(
        "# routing {} shards ({} aggregation, degraded={}) on http://{addr}",
        manifest.shards.len(),
        manifest.aggregation.name(),
        router.degraded_mode().name(),
    );
    println!("#   (POST /score /v2/score, GET /healthz /model /stats /metrics /route /trace)");
    server
        .run()
        .map_err(|e| HicsError::Serve(format!("serving: {e}")))?;
    router.shutdown();
    Ok(())
}

/// `trace`: fetch and render retained traces from a running `hics serve`
/// or `hics route` instance. Without `--id`, prints the `GET /trace`
/// index (newest first); with `--id <hex>`, renders `GET /trace/<id>` as
/// an aligned text waterfall — indentation is span depth, the bar is the
/// span's extent within the whole trace.
fn cmd_trace(args: &Args) -> Result<(), CliError> {
    let target = args
        .target
        .as_deref()
        .ok_or_else(|| ArgError("usage: hics trace <url> [--id <hex>]".into()))?;
    let addr = target
        .strip_prefix("http://")
        .unwrap_or(target)
        .split('/')
        .next()
        .unwrap_or("")
        .to_string();
    if addr.is_empty() {
        return Err(ArgError(format!("cannot parse host:port from {target:?}")).into());
    }
    let pool = Pool::new(addr.clone(), 1);
    let fetch = |path: &str| -> Result<Json, CliError> {
        let resp = pool
            .request("GET", path, None, Duration::from_secs(5))
            .map_err(|e| HicsError::Serve(format!("{addr}: {e}")))?;
        let status = resp.status;
        let text = resp
            .text()
            .map_err(|_| HicsError::Serve(format!("{addr}: response body is not UTF-8")))?
            .to_string();
        if status != 200 {
            return Err(HicsError::Serve(format!("{addr}{path}: status {status} ({text})")).into());
        }
        json::parse(&text).map_err(|e| HicsError::Serve(format!("{addr}{path}: {e}")).into())
    };
    match args.get("id") {
        None => print_trace_index(&fetch("/trace")?),
        Some(id) => print_trace_waterfall(&fetch(&format!("/trace/{id}"))?),
    }
}

fn print_trace_index(doc: &Json) -> Result<(), CliError> {
    let traces = doc
        .get("traces")
        .and_then(Json::as_array)
        .ok_or_else(|| CliError::Other("trace index has no \"traces\"".into()))?;
    if traces.is_empty() {
        println!("no retained traces");
        return Ok(());
    }
    println!(
        "{:<16}  {:>12}  {:>5}  {:<6}  kept",
        "trace", "duration", "spans", "status"
    );
    for t in traces {
        let id = t.get("id").and_then(Json::as_str).unwrap_or("?");
        let us = t.get("duration_us").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let spans = t.get("spans").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let status = t.get("status").and_then(Json::as_str).unwrap_or("?");
        let kept = t.get("kept").and_then(Json::as_str).unwrap_or("?");
        println!("{id:<16}  {us:>10}us  {spans:>5}  {status:<6}  {kept}");
    }
    Ok(())
}

/// One span row of the waterfall, pulled out of the `/trace/<id>` body.
struct WfSpan {
    span_id: String,
    parent: Option<String>,
    name: String,
    start_ns: u64,
    end_ns: u64,
    status: String,
    tags: String,
}

fn print_trace_waterfall(doc: &Json) -> Result<(), CliError> {
    let bad = |msg: &str| CliError::Other(format!("malformed trace body: {msg}"));
    let trace_id = doc
        .get("trace_id")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("no trace_id"))?;
    let duration_ns = doc.get("duration_ns").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let status = doc.get("status").and_then(Json::as_str).unwrap_or("?");
    let kept = doc.get("kept").and_then(Json::as_str).unwrap_or("?");
    let spans: Vec<WfSpan> = doc
        .get("spans")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("no spans"))?
        .iter()
        .map(|s| {
            let tags = match s.get("tags") {
                Some(Json::Object(m)) => m
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                    .collect::<Vec<_>>()
                    .join(" "),
                _ => String::new(),
            };
            let str_of = |key: &str| s.get(key).and_then(Json::as_str).unwrap_or("").to_string();
            let ns_of = |key: &str| s.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            WfSpan {
                span_id: str_of("span_id"),
                parent: s.get("parent").and_then(Json::as_str).map(str::to_string),
                name: str_of("name"),
                start_ns: ns_of("start_ns"),
                end_ns: ns_of("end_ns"),
                status: str_of("status"),
                tags,
            }
        })
        .collect();
    println!(
        "trace {trace_id}  duration={}us  status={status}  kept={kept}  spans={}",
        duration_ns / 1_000,
        spans.len()
    );
    if spans.is_empty() {
        return Ok(());
    }
    let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let t1 = spans.iter().map(|s| s.end_ns).max().unwrap_or(t0);
    let total = (t1 - t0).max(1);
    // Parents print above their children (indented one step less),
    // children in start order; a span whose parent was dropped (e.g. a
    // straggler attempt outliving its trace) renders as a root.
    let ids: Vec<&str> = spans.iter().map(|s| s.span_id.as_str()).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s
            .parent
            .as_deref()
            .and_then(|p| ids.iter().position(|&id| id == p))
        {
            Some(pi) if pi != i => children[pi].push(i),
            _ => roots.push(i),
        }
    }
    roots.sort_by_key(|&i| (spans[i].start_ns, spans[i].end_ns));
    for c in &mut children {
        c.sort_by_key(|&i| (spans[i].start_ns, spans[i].end_ns));
    }
    let mut order: Vec<(usize, usize)> = Vec::with_capacity(spans.len());
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        order.push((i, depth));
        for &c in children[i].iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    const BAR: usize = 32;
    let name_w = order
        .iter()
        .map(|&(i, d)| 2 * d + spans[i].name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    for (i, depth) in order {
        let s = &spans[i];
        let start_us = s.start_ns.saturating_sub(t0) / 1_000;
        let dur_us = s.end_ns.saturating_sub(s.start_ns) / 1_000;
        let b0 = ((s.start_ns - t0) as u128 * BAR as u128 / total as u128) as usize;
        let b0 = b0.min(BAR - 1);
        let b1 = (s.end_ns - t0)
            .saturating_mul(BAR as u64)
            .div_ceil(total)
            .clamp((b0 + 1) as u64, BAR as u64) as usize;
        let bar: String = (0..BAR)
            .map(|p| if p >= b0 && p < b1 { '#' } else { '.' })
            .collect();
        let label = format!("{}{}", "  ".repeat(depth), s.name);
        let tags = if s.tags.is_empty() {
            String::new()
        } else {
            format!("  {}", s.tags)
        };
        println!(
            "{label:<name_w$}  [{bar}]  {start_us:>8}us +{dur_us:>8}us  {}{tags}",
            s.status
        );
    }
    Ok(())
}

fn cmd_evaluate(args: &Args) -> Result<(), CliError> {
    let data = load(args)?;
    let labels = data
        .labels
        .as_ref()
        .ok_or_else(|| ArgError("evaluate requires --labels".into()))?;
    let k: usize = args.get_or("k", 10)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let max_threads = threads(args)?;
    let which = args.get("methods").unwrap_or("lof,hics,enclus,ris,randsub");

    let mut methods: Vec<Box<dyn OutlierMethod>> = Vec::new();
    for name in which.split(',') {
        match name.trim() {
            "lof" => methods.push(Box::new(FullSpaceLof { k })),
            "hics" => {
                let mut p = HicsParams::paper_defaults().with_seed(seed);
                p.search.max_threads = max_threads;
                p.lof_k = k;
                methods.push(Box::new(HicsMethod { params: p }));
            }
            "enclus" => methods.push(Box::new(EnclusMethod {
                params: EnclusParams {
                    max_threads,
                    ..EnclusParams::default()
                },
                lof_k: k,
            })),
            "ris" => methods.push(Box::new(RisMethod {
                params: RisParams {
                    max_threads,
                    ..RisParams::default()
                },
                lof_k: k,
            })),
            "randsub" => methods.push(Box::new(RandSubMethod {
                params: RandomSubspacesParams {
                    num_subspaces: 100,
                    seed,
                },
                lof_k: k,
                max_threads,
            })),
            "pcalof1" => methods.push(Box::new(PcaLofMethod::half(k))),
            "pcalof2" => methods.push(Box::new(PcaLofMethod::fixed10(k))),
            other => {
                return Err(ArgError(format!("unknown method {other:?}")).into());
            }
        }
    }

    let mut table = TextTable::with_header(["method", "AUC [%]", "runtime [s]"]);
    for m in &methods {
        let watch = Stopwatch::start();
        let scores = m.rank(&data.dataset);
        let secs = watch.seconds();
        table.row([
            m.name().to_string(),
            format!("{:.2}", 100.0 * roc_auc(&scores, labels)),
            format!("{secs:.2}"),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}
