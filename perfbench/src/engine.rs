//! The engine workloads (`steady-ffgcr`, `churn-ftgcr`) and the
//! per-layer measurements every workload's traced run shares: routing,
//! engine, shard, observe and checkpoint.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gcube_routing::FaultSet;
use gcube_sim::{
    effective_shards, Checkpoint, MemorySink, Metrics, ProfileCollector, RoutingAlgorithm,
    SimConfig, Simulator, TelemetryCollector,
};
use gcube_topology::search::bfs_distances;
use gcube_topology::{GaussianCube, NoFaults, NodeId, Topology};
use perfbench::stats::{median, tail};
use perfbench::workload::mix;
use perfbench::{TimedRouting, Workload};

use crate::{peak_rss_mib, serve, Args, Outcome};

/// Fewest rounds an end-to-end measurement makes.
const MIN_ROUNDS: usize = 3;
/// Interleaved 1- and 2-thread runs per configuration in the traced run.
const LAYER_REPS: usize = 2;
/// Checkpoint captures and restores timed per traced run.
const CHECKPOINT_REPS: usize = 10;
/// Injection cycles of the shortened configuration the observer on/off
/// runs use, kept short so that each on/off comparison repeats many
/// times within its share of the run.
const OBSERVE_INJECT_CYCLES: u64 = 150;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let w = args.workload;
    let configs = w.configs(args.seed);
    let algo = w.strategy(args.seed);
    if w == Workload::SteadyFfgcr {
        let gc = GaussianCube::new(configs[0].n, configs[0].modulus).map_err(|e| e.to_string())?;
        check_ffgcr_optimal(&gc, algo.as_ref(), args.seed, out);
    }
    if args.trace {
        layers(&configs, w.threads(), algo.as_ref(), args.seconds, out);
        serve::server_layer(args, out)
    } else {
        let sims = configs
            .into_iter()
            .map(|cfg| Simulator::try_new(cfg, algo.as_ref()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        end_to_end(args, &sims, out);
        Ok(())
    }
}

/// The paper's optimality claim on a sample of pairs: the workload's
/// FFGCR strategy plans routes exactly as long as the BFS distance.
fn check_ffgcr_optimal(
    gc: &GaussianCube,
    algo: &dyn RoutingAlgorithm,
    seed: u64,
    out: &mut Outcome,
) {
    let mask = gc.num_nodes() - 1;
    let none = FaultSet::new();
    for i in 0..8 {
        let s = NodeId(mix(seed, 1_000 + i) & mask);
        let dist = bfs_distances(gc, s, &NoFaults);
        for j in 0..64 {
            let d = NodeId(mix(seed, 10_000 + 64 * i + j) & mask);
            let hops = algo.compute_route(gc, &none, s, d).map(|r| r.hops() as u32);
            out.check("ffgcr_equals_bfs", hops == Ok(dist[d.0 as usize]), || {
                format!("{s:?}->{d:?}: route {hops:?}, BFS {}", dist[d.0 as usize])
            });
        }
    }
}

/// Checks every engine run must pass: packet conservation, and no drops
/// on a fault-free workload.
fn check_run(out: &mut Outcome, cfg: &SimConfig, m: &Metrics) {
    out.check(
        "conservation",
        m.injected_total == m.delivered_total + m.dropped_total + m.in_flight_at_end,
        || {
            format!(
                "injected {} != delivered {} + dropped {} + in flight {}",
                m.injected_total, m.delivered_total, m.dropped_total, m.in_flight_at_end
            )
        },
    );
    if cfg.faulty_nodes == 0 && cfg.schedule == gcube_sim::FaultSchedule::None {
        out.check("fault_free_drops_nothing", m.dropped_total == 0, || {
            format!("{} packets dropped", m.dropped_total)
        });
    }
}

/// Wall time from nothing to a simulator paused before its first cycle:
/// building the strategy, the `Simulator` and the engine state.
fn setup_once(w: Workload, cfg: &SimConfig, seed: u64) -> f64 {
    let start = Instant::now();
    let algo = w.strategy(seed);
    let sim = Simulator::new(cfg.clone(), algo.as_ref());
    let stepper = sim.session().stepper();
    black_box(stepper.cycle());
    secs(start.elapsed())
}

/// Keep in `fastest` the element-wise minimum of itself and `times`.
fn keep_fastest(fastest: &mut Vec<f64>, times: &[f64]) {
    if fastest.is_empty() {
        fastest.extend_from_slice(times);
    }
    for (f, t) in fastest.iter_mut().zip(times) {
        *f = f.min(*t);
    }
}

/// Run `sim` to completion one `Stepper::step` at a time, timing each
/// step in microseconds. `at_cycle` runs (untimed) when the stepper is
/// paused before cycle `pause`.
fn stepped(
    sim: &Simulator,
    pause: u64,
    mut at_cycle: impl FnMut(&gcube_sim::Stepper),
) -> (Metrics, Vec<f64>) {
    let mut st = sim.session().stepper();
    let mut step_us = Vec::new();
    while !st.is_done() {
        if st.cycle() == pause {
            at_cycle(&st);
        }
        let t = Instant::now();
        st.step();
        step_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (st.finish().metrics, step_us)
}

/// Step every configuration round after round until the time is up. A
/// repetition does exactly the work of the first, so each step's host
/// time is the fastest seen: other tenants of the host only ever add
/// time. The first round also runs each configuration at the workload's
/// thread count and checks it against the stepper. That run is not
/// timed here: a 2-thread run needs both cores free of co-tenant load at
/// once, and its wall time swings too widely between runs to carry a
/// bound; `shard.speedup_2t` in the traced run follows it instead.
fn end_to_end(args: &Args, sims: &[Simulator], out: &mut Outcome) {
    let w = args.workload;
    let threads = w.threads();
    let mut setup = Vec::new();
    let mut references: Vec<Metrics> = Vec::new();
    let mut step_us: Vec<Vec<f64>> = vec![Vec::new(); sims.len()];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < args.seconds {
        setup.push(setup_once(w, sims[0].config(), args.seed));
        for (k, sim) in sims.iter().enumerate() {
            // Sequential, one step per call: the engine workloads'
            // requests.
            let (m, us) = stepped(sim, u64::MAX, |_| {});
            out.attempted += 1;
            keep_fastest(&mut step_us[k], &us);
            if rounds > 0 {
                out.check("repeat_identical", m == references[k], || {
                    format!("configuration {k}: a repeated run simulated something else")
                });
                continue;
            }
            check_run(out, sim.config(), &m);
            let report = sim.session().threads(threads).try_run();
            out.attempted += 1;
            match report {
                Ok(report) => {
                    let check = if threads > 1 {
                        "threads_bitwise_equal"
                    } else {
                        "run_equals_stepper"
                    };
                    out.check(check, report.metrics == m, || {
                        format!("configuration {k}: {threads}-thread run differs from the sequential stepper")
                    });
                }
                Err(_) => out.failed += 1,
            }
            references.push(m);
        }
        rounds += 1;
    }
    println!("# {rounds} rounds over {} configurations", sims.len());

    let steps: Vec<f64> = step_us.concat();
    let host_s = steps.iter().sum::<f64>() / 1e6;
    let total = |f: fn(&Metrics) -> u64| references.iter().map(f).sum::<u64>() as f64;
    out.metric("setup_s", median(&setup), "s", setup.len());
    out.metric("cycles_per_s", steps.len() as f64 / host_s, "1/s", rounds);
    out.metric(
        "hops_per_s",
        total(|m| m.forwarded_hops_total) / host_s,
        "1/s",
        rounds,
    );
    out.metric(
        "mean_latency_cycles",
        total(|m| m.total_latency) / total(|m| m.delivered),
        "cycles",
        total(|m| m.delivered) as usize,
    );
    out.metric(
        "success_ratio",
        total(|m| m.delivered_total) / total(|m| m.injected_total),
        "ratio",
        total(|m| m.injected_total) as usize,
    );
    out.metric(
        "peak_rss_mib",
        peak_rss_mib("self").unwrap_or(f64::NAN),
        "MiB",
        1,
    );
    out.metric("req_per_s", steps.len() as f64 / host_s, "1/s", steps.len());
    out.metric("rtt_p50_us", median(&steps), "us", steps.len());
    let (p, v) = tail(&steps);
    println!("# rtt tail percentile p{p} over {} steps", steps.len());
    out.metric("rtt_p99_us", v, "us", steps.len());
}

/// The shortened copy of `cfg` the observer on/off runs use.
fn observe_config(cfg: &SimConfig) -> SimConfig {
    let mut short = cfg.clone();
    short.inject_cycles = short.inject_cycles.min(OBSERVE_INJECT_CYCLES);
    short.warmup_cycles = short.warmup_cycles.min(short.inject_cycles / 2);
    short
}

/// Per-layer measurements over `configs` (one simulator configuration
/// per engine workload, the session pool for `serve-sessions`), all
/// planning through `algo`.
pub fn layers(
    configs: &[SimConfig],
    threads: usize,
    algo: &dyn RoutingAlgorithm,
    seconds: Duration,
    out: &mut Outcome,
) {
    let sim_of = |cfg: &SimConfig, a| Simulator::new(cfg.clone(), a);
    let shards = effective_shards(sim_of(&configs[0], algo).cube(), threads);

    // Untraced references: every timed or observed run below must
    // simulate exactly these. Wall times are the fastest of
    // `LAYER_REPS` interleaved 1- and 2-thread runs.
    let mut references = Vec::new();
    let (mut wall_1t, mut wall_2t) = (0.0, 0.0);
    for cfg in configs {
        let sim = sim_of(cfg, algo);
        let (mut fastest_1t, mut fastest_2t) = (f64::INFINITY, f64::INFINITY);
        for rep in 0..LAYER_REPS {
            let t = Instant::now();
            let one = sim.session().threads(1).run().metrics;
            fastest_1t = fastest_1t.min(secs(t.elapsed()));
            let t = Instant::now();
            let two = sim.session().threads(2).run().metrics;
            fastest_2t = fastest_2t.min(secs(t.elapsed()));
            out.attempted += 2;
            check_run(out, cfg, &one);
            out.check("threads_bitwise_equal", one == two, || {
                "2-thread run differs from the 1-thread run".into()
            });
            if rep == 0 {
                references.push(one);
            }
        }
        wall_1t += fastest_1t;
        wall_2t += fastest_2t;
    }

    // routing.*: the workload's thread count, plan_route timed.
    let cache_before = algo.cache_stats().unwrap_or_default();
    let timed = TimedRouting::new(algo);
    let mut wall = 0.0;
    for (cfg, reference) in configs.iter().zip(&references) {
        let t = Instant::now();
        let m = sim_of(cfg, &timed).session().threads(threads).run().metrics;
        wall += secs(t.elapsed());
        out.attempted += 1;
        out.check("timed_run_equals_untimed", m == *reference, || {
            "a run through the timing wrapper differs from the untimed run".into()
        });
    }
    let plan = timed.stats();
    let cache = algo.cache_stats().unwrap_or_default();
    let (hits, misses) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    out.metric("routing.plan_calls", plan.calls as f64, "count", 1);
    out.metric(
        "routing.plan_ns_mean",
        plan.mean_ns(),
        "ns",
        plan.calls as usize,
    );
    out.metric(
        "routing.plan_ns_p50",
        plan.p50_ns,
        "ns",
        plan.calls as usize,
    );
    out.metric(
        "routing.plan_ns_p99",
        plan.p99_ns,
        "ns",
        plan.calls as usize,
    );
    out.metric(
        "routing.busy_share",
        plan.nanos as f64 / 1e9 / (wall * shards as f64),
        "ratio",
        1,
    );
    out.metric(
        "routing.plan_fail_ratio",
        plan.fail_ratio(),
        "ratio",
        plan.calls as usize,
    );
    out.metric(
        "routing.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
    );

    // engine.* and checkpoint.*: sequential steps, plan time subtracted.
    let timed = TimedRouting::new(algo);
    let (mut step_us, mut nodes_cycles, mut hops) = (Vec::new(), 0.0, 0.0);
    let (mut capture_us, mut restore_us, mut bytes) = (Vec::new(), Vec::new(), 0);
    for (i, (cfg, reference)) in configs.iter().zip(&references).enumerate() {
        let sim = sim_of(cfg, &timed);
        let plain = sim_of(cfg, algo);
        let pause = if i == 0 {
            cfg.inject_cycles / 2
        } else {
            u64::MAX
        };
        let mut restored = None;
        let (m, us) = stepped(&sim, pause, |st| {
            for _ in 0..CHECKPOINT_REPS {
                let t = Instant::now();
                let text = st.checkpoint(0).map(|ck| ck.to_text());
                capture_us.push(secs(t.elapsed()) * 1e6);
                let Ok(text) = text else { continue };
                bytes = text.len();
                let t = Instant::now();
                let resumed =
                    Checkpoint::from_text(&text).and_then(|ck| plain.session().stepper_from(&ck));
                restore_us.push(secs(t.elapsed()) * 1e6);
                restored = resumed.ok();
            }
        });
        out.attempted += 1;
        out.check("timed_run_equals_untimed", m == *reference, || {
            "a stepped run through the timing wrapper differs from the untimed run".into()
        });
        if i == 0 {
            let resumed = restored.map(|mut st| {
                st.step_many(u64::MAX);
                st.finish().metrics
            });
            out.check(
                "checkpoint_restore_exact",
                resumed.as_ref() == Some(reference),
                || "a run resumed from a mid-run checkpoint ends differently".into(),
            );
        }
        nodes_cycles += sim.cube().num_nodes() as f64 * us.len() as f64;
        hops += m.forwarded_hops_total as f64;
        step_us.extend(us);
    }
    let step_total = step_us.iter().sum::<f64>() / 1e6;
    let self_s = step_total - timed.stats().nanos as f64 / 1e9;
    out.metric("engine.step_us_p50", median(&step_us), "us", step_us.len());
    out.metric("engine.step_us_p99", tail(&step_us).1, "us", step_us.len());
    out.metric("engine.self_s", self_s, "s", 1);
    out.metric(
        "engine.ns_per_node_cycle",
        self_s * 1e9 / nodes_cycles,
        "ns",
        1,
    );
    out.metric("engine.ns_per_hop", self_s * 1e9 / hops, "ns", 1);
    out.metric("trace.overhead_ratio", step_total / wall_1t, "ratio", 1);
    out.metric("checkpoint.bytes", bytes as f64, "bytes", 1);
    out.metric(
        "checkpoint.capture_us_p50",
        median(&capture_us),
        "us",
        capture_us.len(),
    );
    out.metric(
        "checkpoint.restore_us_p50",
        median(&restore_us),
        "us",
        restore_us.len(),
    );

    // shard.*: 2 threads against 1, barrier share from the profiler.
    let mut barrier = (0u64, 0u64);
    for cfg in configs {
        let sim = sim_of(cfg, algo);
        let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), cfg.telemetry_interval);
        sim.session().threads(2).profile(&mut prof).run();
        out.attempted += 1;
        for (_, p) in prof.shard_profiles() {
            barrier.0 += p.barrier_nanos;
            barrier.1 += p.run_nanos;
        }
    }
    out.metric(
        "shard.speedup_2t",
        wall_1t / wall_2t,
        "ratio",
        configs.len(),
    );
    out.metric(
        "shard.barrier_wait_share",
        barrier.0 as f64 / barrier.1.max(1) as f64,
        "ratio",
        1,
    );

    observe_layer(&configs[0], threads, algo, seconds / 4, out);
}

/// observe.*: wall time with each observer family attached over wall
/// time without, on a shortened `cfg`, runs interleaved round by round.
fn observe_layer(
    cfg: &SimConfig,
    threads: usize,
    algo: &dyn RoutingAlgorithm,
    budget: Duration,
    out: &mut Outcome,
) {
    let sim = Simulator::new(observe_config(cfg), algo);
    let session = || sim.session().threads(threads);
    let interval = sim.config().telemetry_interval;
    let mut walls: [Vec<f64>; 4] = Default::default();
    let start = Instant::now();
    while walls[0].len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        let off = session().run().metrics;
        walls[0].push(secs(t.elapsed()));

        let mut sink = MemorySink::new();
        let t = Instant::now();
        let traced = session().trace(&mut sink).run().metrics;
        walls[1].push(secs(t.elapsed()));
        drop(sink);

        let mut telem = TelemetryCollector::new(sim.cube(), interval);
        let t = Instant::now();
        let telemetered = session().telemetry(&mut telem).run().metrics;
        walls[2].push(secs(t.elapsed()));

        let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), interval);
        let t = Instant::now();
        let profiled = session().profile(&mut prof).run().metrics;
        walls[3].push(secs(t.elapsed()));

        out.attempted += 4;
        out.check(
            "observers_do_not_steer",
            traced == off && telemetered == off && profiled == off,
            || "attaching an observer changed the simulated metrics".into(),
        );
    }
    // Fastest against fastest: other tenants of the host only add time.
    let fastest = |w: &[f64]| w.iter().copied().fold(f64::INFINITY, f64::min);
    let off = fastest(&walls[0]);
    for (name, w) in ["trace", "telemetry", "profile"].iter().zip(&walls[1..]) {
        out.metric(
            &format!("observe.{name}_ratio"),
            fastest(w) / off,
            "ratio",
            w.len(),
        );
    }
}
