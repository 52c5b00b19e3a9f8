//! Integration: the tokio runtime end-to-end.
//!
//! The same protocol code that runs in the simulator runs here over real
//! TCP sockets with genuine concurrency. A small cluster must converge to a
//! mostly-correct slice assignment within a few hundred gossip periods —
//! and keep gossiping through dead peers, crashes, and refused connections.

use dslice::prelude::*;
use std::time::Duration;

/// The gossip period every cluster in this file runs at. All deadlines are
/// derived from it (`periods(k)`), so retuning the period retunes the whole
/// file coherently instead of silently invalidating hard-coded sleeps.
const PERIOD: Duration = Duration::from_millis(10);

/// `k` gossip periods of wall-clock time.
fn periods(k: u32) -> Duration {
    PERIOD * k
}

/// Runs the clusters of this file one at a time. Every bound here (ticks
/// per period, accuracy, retries) assumes the CPU time a lone cluster gets
/// on a small host. Run together, the nine clusters keep a 2-core host
/// about 95% busy for the whole run (debug build), and tickers run late
/// enough to reach their bounds (48 ticks in 70 periods, against > 50,
/// has been seen), though each test passes alone.
async fn solo() -> tokio::sync::MutexGuard<'static, ()> {
    static CLUSTERS: std::sync::LazyLock<tokio::sync::Mutex<()>> =
        std::sync::LazyLock::new(|| tokio::sync::Mutex::new(()));
    CLUSTERS.lock().await
}

fn attrs(n: usize) -> Vec<Attribute> {
    (0..n)
        .map(|i| Attribute::new(((i * 37) % n) as f64).unwrap())
        .collect()
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn ranking_cluster_converges_over_tcp() {
    let _solo = solo().await;
    let cfg = ClusterConfig {
        view_size: 8,
        period: PERIOD,
        bootstrap_degree: 5,
        seed: 404,
        ..ClusterConfig::new(
            attrs(20),
            Partition::equal(2).unwrap(),
            ProtocolKind::Ranking,
        )
    };
    let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
    cluster.run_for(periods(120)).await;
    let report = cluster.shutdown().await;
    let accuracy = report.accuracy();
    assert!(
        accuracy >= 0.7,
        "cluster accuracy {accuracy} too low (sdm = {})",
        report.sdm()
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn sliding_ranking_cluster_runs_over_tcp() {
    let _solo = solo().await;
    let cfg = ClusterConfig {
        view_size: 6,
        period: PERIOD,
        bootstrap_degree: 4,
        seed: 405,
        ..ClusterConfig::new(
            attrs(12),
            Partition::equal(3).unwrap(),
            ProtocolKind::SlidingRanking { window: 256 },
        )
    };
    let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
    cluster.run_for(periods(90)).await;
    let report = cluster.shutdown().await;
    // Everyone made progress and estimates are sane probabilities.
    for node in &report.nodes {
        assert!(node.ticks > 20, "node {} barely ticked", node.id);
        assert!((0.0..=1.0).contains(&node.estimate));
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn cluster_survives_join_and_leave() {
    let _solo = solo().await;
    // Dynamic membership over real sockets: kill two nodes mid-run, join
    // two newcomers with extreme attributes, and verify the survivors and
    // newcomers still converge to sane estimates.
    let cfg = ClusterConfig {
        view_size: 6,
        period: PERIOD,
        bootstrap_degree: 4,
        seed: 410,
        ..ClusterConfig::new(
            attrs(14),
            Partition::equal(2).unwrap(),
            ProtocolKind::Ranking,
        )
    };
    let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
    cluster.run_for(periods(30)).await;

    // Abrupt departures.
    let victims: Vec<NodeId> = cluster.node_ids().into_iter().take(2).collect();
    for v in victims {
        assert!(cluster.kill_node(v).await.is_some());
    }
    assert!(cluster.kill_node(NodeId::new(9999)).await.is_none());

    // Two joiners: one at the very bottom, one at the very top.
    let low = cluster
        .join_node(Attribute::new(-100.0).unwrap())
        .await
        .unwrap();
    let high = cluster
        .join_node(Attribute::new(1e6).unwrap())
        .await
        .unwrap();
    assert_eq!(cluster.len(), 14);

    cluster.run_for(periods(90)).await;
    let report = cluster.shutdown().await;
    let part = Partition::equal(2).unwrap();
    let low_snap = report.nodes.iter().find(|s| s.id == low).unwrap();
    let high_snap = report.nodes.iter().find(|s| s.id == high).unwrap();
    assert!(
        low_snap.ticks > 10,
        "joiner {low} integrated into the overlay"
    );
    assert_eq!(
        part.slice_of(low_snap.estimate).as_usize(),
        0,
        "bottom joiner must learn it is in the low slice (estimate {})",
        low_snap.estimate
    );
    assert_eq!(
        part.slice_of(high_snap.estimate).as_usize(),
        1,
        "top joiner must learn it is in the high slice (estimate {})",
        high_snap.estimate
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn every_sampler_substrate_works_over_tcp() {
    let _solo = solo().await;
    // The §4.3.1 substrates are interchangeable over real sockets too:
    // the same ranking cluster converges on Cyclon, Newscast and Lpbcast.
    for (i, sampler) in [
        SamplerKind::Cyclon,
        SamplerKind::Newscast,
        SamplerKind::Lpbcast,
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = ClusterConfig {
            view_size: 8,
            period: PERIOD,
            bootstrap_degree: 5,
            seed: 420 + i as u64,
            sampler,
            ..ClusterConfig::new(
                attrs(16),
                Partition::equal(2).unwrap(),
                ProtocolKind::Ranking,
            )
        };
        let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
        cluster.run_for(periods(100)).await;
        let report = cluster.shutdown().await;
        for node in &report.nodes {
            assert!(
                node.ticks > 20,
                "{sampler}: node {} barely ticked — overlay failed to form",
                node.id
            );
        }
        let accuracy = report.accuracy();
        assert!(
            accuracy >= 0.6,
            "{sampler}: accuracy {accuracy} too low over TCP"
        );
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn ranking_tolerates_wire_loss_and_delay() {
    let _solo = solo().await;
    // The simulator's loss/latency findings, checked over real sockets:
    // ranking converges through 20% message loss plus 0–30 ms extra delay
    // (3× the gossip period), because one-way attribute samples cannot go
    // stale and need no reliability.
    let cfg = ClusterConfig {
        view_size: 8,
        period: PERIOD,
        bootstrap_degree: 5,
        seed: 430,
        faults: FaultPlan {
            loss: 0.2,
            delay: Some((Duration::ZERO, periods(3))),
        },
        ..ClusterConfig::new(
            attrs(16),
            Partition::equal(2).unwrap(),
            ProtocolKind::Ranking,
        )
    };
    let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
    cluster.run_for(periods(150)).await;
    let report = cluster.shutdown().await;
    let dropped: u64 = report.nodes.iter().map(|s| s.dropped).sum();
    assert!(dropped > 0, "the fault plan must actually drop messages");
    let accuracy = report.accuracy();
    assert!(
        accuracy >= 0.6,
        "accuracy {accuracy} under 20% loss + 3-period delays (dropped {dropped})"
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn mod_jk_cluster_improves_sdm_over_tcp() {
    let _solo = solo().await;
    // The ordering algorithm faces real concurrency here (the paper's
    // §4.5.2 staleness for free). It must still substantially reduce
    // disorder.
    let cfg = ClusterConfig {
        view_size: 8,
        period: PERIOD,
        bootstrap_degree: 5,
        seed: 406,
        ..ClusterConfig::new(attrs(16), Partition::equal(4).unwrap(), ProtocolKind::ModJk)
    };
    let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
    // Let the overlay form before measuring the baseline.
    cluster.run_for(periods(10)).await;
    let before = cluster.live_sdm();
    cluster.run_for(periods(120)).await;
    let report = cluster.shutdown().await;
    let after = report.sdm();
    assert!(
        after <= before,
        "ordering over TCP should not increase disorder: {before} -> {after}"
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn dead_peer_is_evicted_without_stalling_gossip() {
    let _solo = solo().await;
    // An abrupt departure must surface as strikes on the outbound path and
    // end in eviction — and the survivors' tickers must never stall while
    // the link layer works through its retries.
    let cfg = ClusterConfig {
        view_size: 6,
        period: PERIOD,
        bootstrap_degree: 5,
        seed: 440,
        ..ClusterConfig::new(
            attrs(8),
            Partition::equal(2).unwrap(),
            ProtocolKind::Ranking,
        )
    };
    let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
    cluster.run_for(periods(30)).await;

    let victim = cluster.node_ids()[0];
    cluster.kill_node(victim).await.unwrap();
    let ticks_at_kill: u64 = cluster.snapshots().iter().map(|s| s.ticks).sum();

    cluster.run_for(periods(60)).await;
    let report = cluster.shutdown().await;

    // Gossip went on: the survivors kept ticking at roughly one tick per
    // period each (allow half rate for scheduling noise on a loaded box).
    let ticks_at_end: u64 = report.nodes.iter().map(|s| s.ticks).sum();
    let survivors = report.nodes.len() as u64;
    assert_eq!(survivors, 7);
    assert!(
        ticks_at_end - ticks_at_kill >= survivors * 30,
        "tickers stalled while peers retried the dead node: \
         {ticks_at_kill} -> {ticks_at_end} over 60 periods"
    );

    // The failure was observed and punished: someone exhausted their
    // attempts against the dead address and evicted it.
    assert!(
        report.totals.send_failures > 0,
        "no send failures recorded against a killed node"
    );
    assert!(
        report.totals.evictions > 0,
        "dead peer was never evicted (failures: {})",
        report.totals.send_failures
    );
    // A departure is not a crash: nothing panicked, nothing restarted.
    assert_eq!(report.totals.crashes, 0);
    assert_eq!(report.totals.restarts, 0);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn crashed_node_is_reaped_and_restarted_by_policy() {
    let _solo = solo().await;
    // Fault injection: node 0 panics after 5 ticks. The supervisor must
    // classify the exit as a crash (with the panic message), restart the
    // node after backoff, and the harness must end with a full population.
    let cfg = ClusterConfig {
        view_size: 6,
        period: PERIOD,
        bootstrap_degree: 4,
        seed: 450,
        die_after_ticks: Some((0, 5)),
        restart: RestartPolicy {
            backoff_base: PERIOD,
            backoff_cap: PERIOD * 4,
            ..RestartPolicy::default()
        },
        ..ClusterConfig::new(
            attrs(8),
            Partition::equal(2).unwrap(),
            ProtocolKind::Ranking,
        )
    };
    let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
    cluster.run_for(periods(60)).await;
    let report = cluster.shutdown().await;

    let crash = report
        .exits
        .iter()
        .find(|e| matches!(e.kind, NodeExitKind::Crashed { .. }))
        .expect("the injected panic must be reaped as a crash");
    assert_eq!(crash.id, NodeId::new(0));
    let NodeExitKind::Crashed { reason } = &crash.kind else {
        unreachable!("matched above");
    };
    assert!(
        reason.contains("fault injection"),
        "panic message lost in classification: {reason:?}"
    );
    assert!(crash.restarted, "policy must restart the crashed node");
    assert!(report.totals.crashes >= 1);
    assert!(report.totals.restarts >= 1);
    // The restarted node (die_after_ticks cleared) survived to shutdown.
    assert_eq!(report.nodes.len(), 8, "exits: {:?}", report.exits);
    let revived = report
        .nodes
        .iter()
        .find(|s| s.id == NodeId::new(0))
        .expect("node 0 alive at shutdown");
    assert!(
        revived.ticks >= 5,
        "restarted node barely ran: {} ticks",
        revived.ticks
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn refusal_window_is_survived_and_reopened() {
    let _solo = solo().await;
    // A scripted listener-refusal window: peers see connection errors and
    // retry; the cluster neither stalls nor loses the node permanently —
    // after the window the listener rebinds the same address.
    let chaos = ChaosPlan::new()
        .at_ms(200)
        .refuse_for_ms(NodeId::new(5), 100);
    let cfg = ClusterConfig {
        view_size: 6,
        period: PERIOD,
        bootstrap_degree: 4,
        seed: 460,
        chaos,
        ..ClusterConfig::new(
            attrs(8),
            Partition::equal(2).unwrap(),
            ProtocolKind::Ranking,
        )
    };
    let mut cluster = LocalCluster::spawn(cfg).await.unwrap();
    cluster.run_for(periods(70)).await;
    let report = cluster.shutdown().await;

    // The refused node itself never exited — gates fence the listener,
    // not the task.
    assert!(report.exits.is_empty(), "exits: {:?}", report.exits);
    assert_eq!(report.nodes.len(), 8);
    // Its ticker ran straight through the refusal window.
    let refused = report
        .nodes
        .iter()
        .find(|s| s.id == NodeId::new(5))
        .unwrap();
    assert!(
        refused.ticks > 50,
        "refused node stalled: {} ticks in 70 periods",
        refused.ticks
    );
    // Senders hit the closed listener and recorded the failures.
    assert!(
        report.totals.retries > 0,
        "refusal window produced no retries"
    );
}
