//! In-process half of the repository benchmark (see `perfbench/README.md`).
//!
//! `run.py` runs the `mpgtool` verbs as child processes, the way users run
//! them. This binary covers what has no verb of its own or has to be timed
//! from inside one process:
//!
//! * `sweep`: repeated `mpg_analysis::sweep_replays` calls over 16 seeded
//!   configs in `SweepMode::Lanes`;
//! * `serve`: a closed loop of client threads on `mpg_serve::JobRuntime`,
//!   then a check of every job's bytes against the in-process render;
//! * `trace`: the traced run, one span around each call into a layer's
//!   public function (`pipeline`, `lint` and `hbprobe` groups).
//!
//! Every subcommand writes JSON on stdout for `run.py` to parse.
//!
//! ```text
//! perfbench sweep [--seed S] [--seconds T] <trace-dir>...
//! perfbench serve [--seed S] [--jobs N] [--first-job I] [--mix replay|mixed]
//!                 [--replay-dir D] [--explore-dir D] [--trace] [--verify-threads N]
//!                 --cache-dir DIR <lint-trace-dir>...
//! perfbench trace <pipeline|lint|hbprobe> [--seed S] [--cache-dir DIR] <trace-dir>
//! ```

mod span;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mpg_analysis::{sweep_replays, SweepMode};
use mpg_core::{
    decode_arena, encode_arena, ArtifactKind, CacheStore, HbIndex, PerturbationModel, ReplayConfig,
    Replayer, SlackSweep,
};
use mpg_lint::{
    analyze_graph, explore, find_races, lint_graph, lint_perf, lint_sync, rank_chains,
    run_progress, ExploreOptions, LintContext, MatchPolicy, PerfThresholds, SyncOptions,
};
use mpg_serve::{
    render_explore_report, render_lint_report, render_replay_report, replay_config, JobKind,
    JobRuntime, JobSpec, JobState, RuntimeConfig, ServeError,
};
use mpg_trace::{FileTraceSet, MemTrace};
use span::Recorder;

/// The perturbation every benchmark replay uses (`mpgtool replay --os 400
/// --latency 150 --per-byte 0.5`).
const OS_MEAN: f64 = 400.0;
const LATENCY: f64 = 150.0;
const PER_BYTE: f64 = 0.5;
/// Configs per sweep call.
const SWEEP_CONFIGS: u64 = 16;
/// Forced-replay budget of the traced explore walk (`mpgtool explore
/// --budget 64`) and of explore jobs in the service mix.
const EXPLORE_BUDGET: u64 = 64;
const SERVE_EXPLORE_BUDGET: u64 = 16;
/// The service loop: client threads, runtime workers and queue depth.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 16;
/// Status polling interval for the traced run's queue-wait measurement.
const POLL: Duration = Duration::from_micros(250);

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "sweep" => cmd_sweep(args),
        "serve" => cmd_serve(args),
        "trace" => cmd_trace(args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: perfbench <sweep|serve|trace> ... (see perfbench/README.md)");
    ExitCode::from(2)
}

// ---- argument and output helpers ---------------------------------------

fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    args.remove(i);
    (i < args.len()).then(|| args.remove(i))
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

fn take_num<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str, default: T) -> T {
    take_flag(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    mpg_trace::json_escape_into(s, &mut out);
    out.push('"');
    out
}

fn json_list<T: std::fmt::Display>(xs: &[T]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn load(dir: &Path) -> Result<MemTrace, String> {
    FileTraceSet::open(dir)
        .and_then(|set| set.load())
        .map_err(|e| format!("{}: {e}", dir.display()))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The 16 seeded configs of one sweep: four OS-noise means × four seeds.
fn sweep_configs(seed: u64) -> Vec<ReplayConfig> {
    (0..SWEEP_CONFIGS)
        .map(|k| {
            let os = [100.0, 200.0, 400.0, 800.0][(k % 4) as usize];
            replay_config(os, LATENCY, PER_BYTE, seed.wrapping_mul(31).wrapping_add(k))
        })
        .collect()
}

/// `mpgtool analyze`'s recording replay configuration.
fn analyze_config() -> ReplayConfig {
    ReplayConfig::new(PerturbationModel::quiet("analyze"))
        .seed(0)
        .record_graph(true)
}

/// The lint context's recording replay configuration (quiet, eager
/// standard sends), as `mpg_lint::LintContext::build` uses it.
fn lint_config() -> ReplayConfig {
    ReplayConfig::new(PerturbationModel::quiet("lint"))
        .seed(0)
        .ack_arm(false)
        .record_graph(true)
}

// ---- sweep -------------------------------------------------------------

/// Repeats one sweep over every trace until `--seconds` have passed (at
/// least once) and prints each repetition's wall time and the digest of
/// its rendered reports.
fn cmd_sweep(mut args: Vec<String>) -> Result<(), String> {
    let seed: u64 = take_num(&mut args, "--seed", 1);
    let seconds: f64 = take_num(&mut args, "--seconds", 1.0);
    if args.is_empty() {
        return Err("sweep needs trace directories".into());
    }
    let traces: Vec<MemTrace> = args
        .iter()
        .map(|d| load(Path::new(d)))
        .collect::<Result<_, _>>()?;
    let configs = sweep_configs(seed);
    let mut secs = Vec::new();
    let mut digests = Vec::new();
    let mut failed = 0usize;
    let start = Instant::now();
    while secs.len() + failed == 0 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let results: Vec<_> = traces
            .iter()
            .map(|tr| sweep_replays(tr, &configs, SweepMode::Lanes))
            .collect();
        let dt = t.elapsed().as_secs_f64();
        let mut hash = mpg_trace::fnv1a64(b"sweep");
        let mut ok = true;
        for r in results.iter().flatten() {
            match r {
                Ok(rep) => {
                    hash = mpg_trace::fnv1a64_append(hash, render_replay_report(rep).as_bytes())
                }
                Err(_) => ok = false,
            }
        }
        if ok {
            secs.push(dt);
            digests.push(json_str(&format!("{hash:016x}")));
        } else {
            failed += 1;
        }
    }
    println!(
        "{{\"configs_per_rep\":{},\"secs\":{},\"digests\":{},\"failed\":{failed}}}",
        SWEEP_CONFIGS * traces.len() as u64,
        json_list(&secs),
        json_list(&digests),
    );
    Ok(())
}

// ---- serve -------------------------------------------------------------

/// Job mixes, one letter per job, cycled: `F` replay with a fresh seed
/// (always a cache miss), `R` replay with one of three pool seeds (a warm
/// report-cache hit once the first copy finished), `L` lint, `E` explore
/// with budget 16.
const MIX_REPLAY: &[u8] = b"FFRFFRFFRF";
const MIX_MIXED: &[u8] = b"FLFRFLFEFRLFFRLFLFRE";

/// Which trace each job kind reads: replays and explores one trace each,
/// lint jobs cycle over a list.
struct Targets {
    replay: PathBuf,
    explore: PathBuf,
    lint: Vec<PathBuf>,
}

fn job_kind(mix: &[u8], i: usize, seed: u64, targets: &Targets) -> JobKind {
    let base = seed.wrapping_mul(1_000_003);
    let replay = |seed| JobKind::Replay {
        dir: targets.replay.clone(),
        os_mean: OS_MEAN,
        latency: LATENCY,
        per_byte: PER_BYTE,
        seed,
    };
    match mix[i % mix.len()] {
        b'F' => replay(base.wrapping_add(1000 + i as u64)),
        b'R' => replay(base.wrapping_add((i / mix.len()) as u64 % 3)),
        b'L' => JobKind::Lint {
            dir: targets.lint[i % targets.lint.len()].clone(),
        },
        _ => JobKind::Explore {
            dir: targets.explore.clone(),
            budget: SERVE_EXPLORE_BUDGET,
            seed: 0,
        },
    }
}

struct JobResult {
    latency: Duration,
    queue_wait: Option<Duration>,
    state: JobState,
    output: Option<String>,
    attempts: u32,
    overloaded: u32,
}

/// The rendered bytes, the whole run's time and the render call's time of
/// one solo run.
type Solo = Result<(String, Duration, Duration), String>;

/// The solo CLI-equivalent run of one job kind in this process: load,
/// run, render.
fn solo(kind: &JobKind) -> Solo {
    let t = Instant::now();
    let trace = load(kind.dir())?;
    let (out, render) = match kind {
        JobKind::Replay {
            os_mean,
            latency,
            per_byte,
            seed,
            ..
        } => {
            let rep = Replayer::new(replay_config(*os_mean, *latency, *per_byte, *seed))
                .run(&trace)
                .map_err(|e| e.to_string())?;
            let r = Instant::now();
            (render_replay_report(&rep), r.elapsed())
        }
        JobKind::Lint { .. } => {
            let diags = mpg_lint::lint_full(&trace);
            let r = Instant::now();
            let out = render_lint_report(&diags, false, trace.total_events(), trace.num_ranks());
            (out, r.elapsed())
        }
        JobKind::Explore { budget, seed, .. } => {
            let opts = ExploreOptions {
                seed: *seed,
                ..ExploreOptions::cli_default().budget(*budget)
            };
            let o = mpg_lint::lint_explore(&trace, &opts);
            let r = Instant::now();
            let out = render_explore_report(
                &o.diags,
                &o.stats,
                false,
                trace.total_events(),
                trace.num_ranks(),
            );
            (out, r.elapsed())
        }
    };
    Ok((out, t.elapsed(), render))
}

/// [`solo`] for every job kind, on `threads` threads; results in input
/// order.
fn solo_all(kinds: &[&JobKind], threads: usize) -> Vec<Solo> {
    let threads = threads.clamp(1, kinds.len().max(1));
    let mut out: Vec<Option<Solo>> = kinds.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..kinds.len())
                        .step_by(threads)
                        .map(|i| (i, solo(kinds[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, res) in h.join().expect("solo render panicked") {
                out[i] = Some(res);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every kind rendered"))
        .collect()
}

/// A closed loop: `CLIENTS` threads each submit one job, wait for its
/// terminal state, and submit the next, until `--jobs` jobs ran. Jobs are
/// numbered from `--first-job`, so consecutive rounds over one cache
/// directory continue a single job sequence. Then every job's result
/// bytes are compared with the solo render of the same job kind.
fn cmd_serve(mut args: Vec<String>) -> Result<(), String> {
    let seed: u64 = take_num(&mut args, "--seed", 1);
    let jobs: usize = take_num(&mut args, "--jobs", 200);
    let first: usize = take_num(&mut args, "--first-job", 0);
    let traced = take_switch(&mut args, "--trace");
    // Solo runs in parallel are faster to check but slower each, so the
    // traced run, which reports their times, keeps one thread.
    let verify_threads: usize = take_num(&mut args, "--verify-threads", 1);
    let mix = match take_flag(&mut args, "--mix").as_deref() {
        Some("mixed") => MIX_MIXED,
        Some("replay") | None => MIX_REPLAY,
        Some(other) => return Err(format!("unknown mix '{other}'")),
    };
    let cache_dir = take_flag(&mut args, "--cache-dir").ok_or("serve needs --cache-dir")?;
    let replay_dir = take_flag(&mut args, "--replay-dir");
    let explore_dir = take_flag(&mut args, "--explore-dir");
    let dirs: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
    let Some(first_dir) = dirs.first() else {
        return Err("serve needs trace directories".into());
    };
    let targets = Targets {
        replay: replay_dir.map_or_else(|| first_dir.clone(), PathBuf::from),
        explore: explore_dir.map_or_else(|| first_dir.clone(), PathBuf::from),
        lint: dirs.clone(),
    };
    let store = CacheStore::open(Path::new(&cache_dir)).map_err(|e| e.to_string())?;
    let rt = JobRuntime::start(RuntimeConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        default_deadline: Some(Duration::from_secs(120)),
        cache: Some(store),
        ..RuntimeConfig::default()
    });
    let kinds: Vec<JobKind> = (first..first + jobs)
        .map(|i| job_kind(mix, i, seed, &targets))
        .collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<JobResult>>> = Mutex::new((0..jobs).map(|_| None).collect());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let start = Instant::now();
                let mut overloaded = 0;
                let id = loop {
                    match rt.submit(JobSpec::new(kinds[i].clone())) {
                        Ok(id) => break Some(id),
                        Err(ServeError::Overloaded { .. }) => {
                            overloaded += 1;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => break None,
                    }
                };
                let Some(id) = id else { continue };
                let mut queue_wait = None;
                if traced {
                    while let Ok(st) = rt.status(id) {
                        if st.state != JobState::Queued {
                            queue_wait = Some(start.elapsed());
                            break;
                        }
                        std::thread::sleep(POLL);
                    }
                }
                let Ok(st) = rt.wait(id, Duration::from_secs(150)) else {
                    continue;
                };
                results.lock().unwrap()[i] = Some(JobResult {
                    latency: start.elapsed(),
                    queue_wait,
                    state: st.state,
                    output: st.output,
                    attempts: st.attempts,
                    overloaded,
                });
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let cache_hits = rt.stats().cache_hits;
    rt.shutdown(Duration::from_secs(30));
    let results = results.into_inner().unwrap();

    // Verification: every job's bytes against the solo render of its
    // kind, each distinct kind rendered once.
    let mut distinct: Vec<&JobKind> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for kind in &kinds {
        index.entry(format!("{kind:?}")).or_insert_with(|| {
            distinct.push(kind);
            distinct.len() - 1
        });
    }
    let solos = solo_all(&distinct, verify_threads);
    let render_s: f64 = solos
        .iter()
        .flatten()
        .map(|(_, _, render)| render.as_secs_f64())
        .sum();
    let mut digest = mpg_trace::fnv1a64(b"serve");
    let mut rows = Vec::with_capacity(jobs);
    for (i, r) in results.iter().enumerate() {
        let kind = &kinds[i];
        let solo_res = &solos[index[&format!("{kind:?}")]];
        let mut row = format!("{{\"kind\":{}", json_str(kind.verb()));
        let cold = !matches!(mix[(first + i) % mix.len()], b'R');
        let _ = write!(row, ",\"cold\":{cold}");
        match r {
            None => row.push_str(",\"state\":\"unsubmitted\",\"ok\":false"),
            Some(r) => {
                let ok = r.state == JobState::Done
                    && matches!((&r.output, solo_res), (Some(a), Ok((b, _, _))) if a == b);
                if let Some(out) = &r.output {
                    digest = mpg_trace::fnv1a64_append(digest, out.as_bytes());
                }
                let _ = write!(
                    row,
                    ",\"state\":{},\"ok\":{ok},\"ms\":{},\"attempts\":{},\"overloaded\":{}",
                    json_str(r.state.name()),
                    r.latency.as_secs_f64() * 1e3,
                    r.attempts,
                    r.overloaded
                );
                if let Some(q) = r.queue_wait {
                    let _ = write!(row, ",\"queue_ms\":{}", q.as_secs_f64() * 1e3);
                }
                if let Ok((_, t, _)) = solo_res {
                    let _ = write!(row, ",\"solo_ms\":{}", t.as_secs_f64() * 1e3);
                }
            }
        }
        row.push('}');
        rows.push(row);
    }
    println!(
        "{{\"wall_s\":{wall},\"cache_hits\":{cache_hits},\"render_s\":{render_s},\
         \"poll_ms\":{},\"digest\":\"{digest:016x}\",\"jobs\":[{}]}}",
        POLL.as_secs_f64() * 1e3,
        rows.join(",")
    );
    Ok(())
}

// ---- traced run ----------------------------------------------------------

type Rec = Recorder<std::io::Stdout>;

fn cmd_trace(mut args: Vec<String>) -> Result<(), String> {
    let seed: u64 = take_num(&mut args, "--seed", 1);
    let cache_dir = take_flag(&mut args, "--cache-dir");
    let [group, dir] = args.as_slice() else {
        return Err("trace needs a group and a trace directory".into());
    };
    let dir = Path::new(dir);
    match group.as_str() {
        "pipeline" => {
            let cache_dir = PathBuf::from(cache_dir.ok_or("pipeline needs --cache-dir")?);
            // Untraced, traced, untraced: `run.py` reports the recorder's
            // overhead as the traced pass against the mean of the two
            // untraced ones.
            let mut walls = Vec::new();
            for (pass, enabled) in [false, true, false].into_iter().enumerate() {
                let mut rec = Recorder::new(std::io::stdout(), enabled);
                let t = Instant::now();
                let done = pipeline(&mut rec, dir, seed, &cache_dir.join(format!("pass{pass}")));
                walls.push(t.elapsed().as_secs_f64());
                rec.flush();
                done?;
            }
            let mut rec = Recorder::new(std::io::stdout(), true);
            rec.count("trace.untraced_wall_s", (walls[0] + walls[2]) / 2.0);
            rec.count("trace.traced_wall_s", walls[1]);
            rec.flush();
            Ok(())
        }
        "lint" | "hbprobe" => {
            let mut rec = Recorder::new(std::io::stdout(), true);
            let done = if group == "lint" {
                lint_group(&mut rec, dir)
            } else {
                hb_probe(&mut rec, dir)
            };
            rec.flush();
            done
        }
        other => Err(format!("unknown trace group '{other}'")),
    }
}

/// Load, perturbed replay, sweep, recording replay, the analyze layers,
/// and one arena round trip through the artifact cache.
fn pipeline(rec: &mut Rec, dir: &Path, seed: u64, cache_dir: &Path) -> Result<(), String> {
    let fp = rec
        .time("trace.fingerprint", || mpg_trace::trace_fingerprint(dir))
        .map_err(|e| e.to_string())?;
    let trace = rec.time("trace.load", || load(dir))?;
    rec.count("trace.bytes", dir_bytes(dir) as f64);

    let run = rec
        .time("replay.run", || {
            Replayer::new(replay_config(OS_MEAN, LATENCY, PER_BYTE, seed)).run(&trace)
        })
        .map_err(|e| e.to_string())?;
    rec.count("replay.events", run.stats.events as f64);
    rec.count(
        "replay.scheduler_wakeups",
        run.stats.scheduler_wakeups as f64,
    );

    let configs = sweep_configs(seed);
    let swept = rec.time("sweep.run", || {
        sweep_replays(&trace, &configs, SweepMode::Lanes)
    });
    // Every member of a k-lane batch reports `lanes == k`, so a batch
    // contributes 1/k per member: the sum counts traversals.
    let mut traversals = 0.0;
    for r in &swept {
        let rep = r.as_ref().map_err(|e| e.to_string())?;
        traversals += 1.0 / f64::from(rep.stats.lanes.max(1));
    }
    rec.count("sweep.traversals", traversals.round());
    rec.count(
        "sweep.traversals_saved",
        configs.len() as f64 - traversals.round(),
    );

    let graph = rec
        .time("replay.record", || {
            Replayer::new(analyze_config()).run(&trace)
        })
        .map_err(|e| e.to_string())?
        .graph
        .ok_or("recording replay returned no graph")?;
    rec.count("graph.nodes", graph.arena().num_nodes() as f64);
    rec.count("graph.edges", graph.edge_count() as f64);

    let sweep = rec.time("feasible.sweep", || SlackSweep::sweep(&graph));
    let chains = rec.time("slack.rank_chains", || rank_chains(&graph, &sweep));
    rec.count(
        "slack.chain_steps",
        chains.iter().map(|c| c.steps as f64).sum(),
    );
    drop(sweep);
    let report = rec.time("waitstate.analyze_graph", || analyze_graph(&trace, &graph));
    if !report.identity_holds() {
        return Err("analyze accounting identity violated".into());
    }

    let bytes = rec.time("mpga.encode", || encode_arena(graph.arena()));
    let store = CacheStore::open(cache_dir).map_err(|e| e.to_string())?;
    let key = CacheStore::artifact_key(
        &fp.key(),
        ArtifactKind::Arena,
        &analyze_config().fingerprint(),
    );
    let cold = rec.time("cache.get", || store.get(&key, ArtifactKind::Arena));
    if cold.is_some() {
        return Err("fresh cache directory already holds the arena".into());
    }
    rec.count("cache.misses", 1.0);
    rec.time("cache.put", || store.put(&key, ArtifactKind::Arena, &bytes))
        .map_err(|e| e.to_string())?;
    rec.count("cache.put_bytes", bytes.len() as f64);
    let warm = rec
        .time("cache.get", || store.get(&key, ArtifactKind::Arena))
        .ok_or("arena artifact missing right after put")?;
    rec.count("cache.hits", 1.0);
    let arena = rec
        .time("mpga.decode", || decode_arena(&warm))
        .map_err(|e| e.to_string())?;
    if encode_arena(&arena) != bytes {
        return Err("MPGA decode/encode round trip is not bit-identical".into());
    }
    Ok(())
}

/// The lint context's layers one after another (`lint_full` overlaps the
/// progress simulation with the recording replay on two threads), then
/// each graph-backed pass and the explore walk over the built context.
fn lint_group(rec: &mut Rec, dir: &Path) -> Result<(), String> {
    let trace = rec.time("trace.load", || load(dir))?;
    let invalid = rec.time("lint.validate", || {
        mpg_trace::validate_trace_diagnostics(&trace)
            .iter()
            .any(|d| d.severity == mpg_trace::Severity::Error)
    });
    if invalid {
        return Err("trace fails validation".into());
    }
    let ctx_span = rec.begin("lint.context");
    let progress = rec.time("progress.run", || {
        run_progress(&trace, &MatchPolicy::Recorded)
    });
    let graph = rec
        .time("lint.record", || Replayer::new(lint_config()).run(&trace))
        .map_err(|e| e.to_string())?
        .graph
        .ok_or("recording replay returned no graph")?;
    let clock_bytes = graph.arena().num_nodes() as f64 * 2.0 * trace.num_ranks() as f64 * 8.0;
    rec.count("hb.clock_bytes", clock_bytes);
    let hb = rec.time("hb.build", || HbIndex::build(&graph));
    rec.end(ctx_span);
    let ctx = LintContext {
        trace: &trace,
        progress,
        graph: Some(graph),
        graph_error: None,
        hb: Some(hb),
    };
    let (graph, hb) = (ctx.graph.as_ref().unwrap(), ctx.hb.as_ref().unwrap());
    let matching = &ctx.progress.matching;
    rec.time("lint.causality", || lint_graph(graph));
    // `lint_races` is `find_races` plus message formatting; timing
    // `find_races` keeps the findings for the counters below.
    let races = rec.time("lint.race", || find_races(&trace, matching, hb));
    rec.count("race.findings", races.len() as f64);
    rec.count(
        "race.witnesses",
        races.iter().map(|r| r.witnesses.len() as f64).sum(),
    );
    rec.time("lint.perf", || {
        lint_perf(&trace, graph, &PerfThresholds::default())
    });
    rec.time("lint.sync", || {
        lint_sync(&trace, graph, hb, matching, &SyncOptions::default())
    });
    let walk = rec.time("explore.walk", || {
        explore(&ctx, &ExploreOptions::cli_default().budget(EXPLORE_BUDGET))
    });
    rec.count("explore.explored", walk.stats.explored as f64);
    rec.count("explore.pruned", walk.stats.pruned as f64);
    rec.count("explore.infeasible", walk.stats.infeasible as f64);
    rec.count(
        "explore.frontier_unexplored",
        walk.stats.frontier_unexplored as f64,
    );
    Ok(())
}

/// Builds the happens-before index of a trace that `lint` cannot handle
/// today. The computed clock size is written before the build, so a build
/// that aborts under the address-space cap is still measured.
fn hb_probe(rec: &mut Rec, dir: &Path) -> Result<(), String> {
    let trace = rec.time("trace.load", || load(dir))?;
    let graph = rec
        .time("lint.record", || Replayer::new(lint_config()).run(&trace))
        .map_err(|e| e.to_string())?
        .graph
        .ok_or("recording replay returned no graph")?;
    let clock_bytes = graph.arena().num_nodes() as f64 * 2.0 * trace.num_ranks() as f64 * 8.0;
    rec.count("hb.probe_clock_bytes", clock_bytes);
    let hb = rec.time("hb.probe", || HbIndex::build(&graph));
    rec.count("hb.probe_ranks", hb.num_ranks() as f64);
    Ok(())
}
