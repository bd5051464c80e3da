//! The traced run measures the same program: a run planning through the
//! delegating timing wrapper simulates exactly what a run without it
//! does, sequentially and on 2 threads.

use gcube_sim::{
    CachedFfgcr, CachedFtgcr, CategoryMix, FaultKind, FaultSchedule, KnowledgeModel,
    RoutingAlgorithm, SimConfig, Simulator,
};
use perfbench::TimedRouting;

fn assert_wrapper_is_transparent(cfg: SimConfig, algo: &dyn RoutingAlgorithm) {
    let plain = Simulator::new(cfg.clone(), algo);
    let timed = TimedRouting::new(algo);
    let wrapped = Simulator::new(cfg, &timed);
    for threads in [1, 2] {
        let want = plain.session().threads(threads).run();
        let got = wrapped.session().threads(threads).run();
        assert_eq!(got.metrics, want.metrics, "{threads} thread(s)");
        assert_eq!(got, want, "{threads} thread(s): full report");
    }
    let stats = timed.stats();
    assert!(stats.calls > 0, "the wrapper saw no plan_route call");
    assert!(stats.p50_ns <= stats.p99_ns);
}

#[test]
fn fault_free_ffgcr_is_unchanged_by_timing() {
    let cfg = SimConfig::new(10, 4)
        .with_rate(0.02)
        .with_cycles(200, 400, 20)
        .with_seed(7);
    assert_wrapper_is_transparent(cfg, &CachedFfgcr::new());
}

#[test]
fn ftgcr_under_churn_is_unchanged_by_timing() {
    let cfg = SimConfig::new(9, 4)
        .with_rate(0.05)
        .with_faults(2)
        .with_cycles(300, 600, 20)
        .with_seed(11)
        .with_knowledge(KnowledgeModel::PaperDelay)
        .with_schedule(FaultSchedule::Bernoulli {
            rate: 0.05,
            kind: FaultKind::Transient { repair_after: 50 },
            mix: CategoryMix::default(),
            node_fraction: 0.5,
        });
    let algo = CachedFtgcr::new();
    assert_wrapper_is_transparent(cfg, &algo);
}
