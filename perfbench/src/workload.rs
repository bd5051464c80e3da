//! The three workloads: their names, simulator configurations and
//! routing strategies. Everything a run feeds the program comes from the
//! `--seed` argument through these functions.

use gcube_sim::{
    build_strategy, resolve_strategy_name, CategoryMix, FaultKind, FaultSchedule, KnowledgeModel,
    RoutingAlgorithm, SimConfig,
};

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// GC(14,4), fault-free, uniform traffic at rate 0.01, cached FFGCR,
    /// 1 thread.
    SteadyFfgcr,
    /// GC(10,4), 2 static faults plus Bernoulli transient churn, cached
    /// FTGCR at rate 0.05 under the paper's knowledge delay, 2 threads.
    ChurnFtgcr,
    /// `gcube serve` on a Unix socket: 2 closed-loop clients cycling
    /// GC(10,4) sessions with 1 static fault.
    ServeSessions,
}

/// Distinct session configurations a `serve-sessions` run cycles through.
pub const SESSION_POOL: u64 = 40;

/// Cycles one `step` request advances a session.
pub const STEP_CYCLES: u64 = 5;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SteadyFfgcr,
        Workload::ChurnFtgcr,
        Workload::ServeSessions,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyFfgcr => "steady-ffgcr",
            Workload::ChurnFtgcr => "churn-ftgcr",
            Workload::ServeSessions => "serve-sessions",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine threads the workload runs with.
    pub fn threads(self) -> usize {
        match self {
            Workload::ChurnFtgcr => 2,
            Workload::SteadyFfgcr | Workload::ServeSessions => 1,
        }
    }

    /// The simulator configurations a run cycles through for `seed`:
    /// short runs with independent sub-seeds for the engine workloads,
    /// [`SESSION_POOL`] sessions for `serve-sessions`. Averaging over
    /// several fault placements and traffic draws keeps one unlucky draw
    /// from setting a run's figures. An engine workload's runs together
    /// make just over 1,000 steps, so that p99 has ten beyond it, and a
    /// round through all of them takes under half a second, so that a
    /// run repeats each step sixty times or more (see `README.md`, "How
    /// host time is measured").
    pub fn configs(self, seed: u64) -> Vec<SimConfig> {
        let count = match self {
            Workload::SteadyFfgcr | Workload::ChurnFtgcr => 4,
            Workload::ServeSessions => SESSION_POOL,
        };
        (0..count).map(|k| self.config(seed, k)).collect()
    }

    fn config(self, seed: u64, k: u64) -> SimConfig {
        match self {
            Workload::SteadyFfgcr => SimConfig::new(14, 4)
                .with_rate(0.01)
                .with_cycles(250, 2_000, 50)
                .with_seed(mix(seed, 10 + k)),
            Workload::ChurnFtgcr => SimConfig::new(10, 4)
                .with_rate(0.05)
                .with_faults(2)
                .with_cycles(240, 2_000, 20)
                .with_seed(mix(seed, 20 + k))
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_schedule(FaultSchedule::Bernoulli {
                    rate: 0.2,
                    kind: FaultKind::Transient { repair_after: 15 },
                    mix: CategoryMix::default(),
                    node_fraction: 0.5,
                }),
            Workload::ServeSessions => session_config(seed, k),
        }
    }

    /// The routing strategy the workload plans with, resolved the way
    /// the daemon resolves `strategy:auto`.
    pub fn strategy(self, seed: u64) -> Box<dyn RoutingAlgorithm + Send + Sync> {
        let name = resolve_strategy_name("auto", &self.config(seed, 0));
        build_strategy(&name, 2).expect("auto resolves to a built-in strategy")
    }
}

/// The `index`-th session configuration of a `serve-sessions` run
/// (indices wrap at [`SESSION_POOL`]).
pub fn session_config(seed: u64, index: u64) -> SimConfig {
    SimConfig::new(10, 4)
        .with_rate(0.01)
        .with_faults(1)
        .with_cycles(100, 400, 10)
        .with_seed(mix(seed, 100 + index % SESSION_POOL))
}

/// SplitMix64 of `seed` and a stream id: independent, reproducible
/// simulator seeds from one command-line seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
