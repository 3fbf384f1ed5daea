//! Derivation goldens: every seed must keep denoting the scenario it
//! always has. `fixtures/derivations.txt` was rendered by the
//! per-driver derivations this crate had *before* the five sweep
//! drivers became `sim::scenario` implementations (blessed once against
//! that code, in this same canonical text form); the `derive`s must
//! reproduce it byte for byte. Never re-bless it to make a change pass
//! — a diff here means replay recipes printed by older runs now denote
//! different scenarios.

use sim::scenario::Weather;
use sim::{
    FaultKind, FaultScenario, MixedScenario, OnlineScenario, Scale, Scenario, ShardScale,
    ShardScenario, StoreScenario,
};

fn weather(w: &Weather) -> String {
    let plan = &w.plan;
    let faults: Vec<String> = w
        .timeline
        .iter()
        .map(|f| {
            let kind = match f.kind {
                FaultKind::Crash => "crash",
                FaultKind::Restart => "restart",
                FaultKind::Partition => "partition",
                FaultKind::Heal => "heal",
            };
            format!("{kind}@{}:w{}", f.at_ms, f.worker)
        })
        .collect();
    format!(
        "plan={:016x}/{:016x}/{:016x}/{} timeline=[{}]",
        plan.drop_p.to_bits(),
        plan.dup_p.to_bits(),
        plan.delay_p.to_bits(),
        plan.delay_max_micros,
        faults.join(",")
    )
}

fn fault_line(seed: u64, s: &FaultScenario) -> String {
    format!(
        "fault {seed}: {} ga={} workers={}\n",
        weather(&s.weather),
        s.ga_seed,
        s.weather.workers
    )
}

#[test]
fn every_seed_denotes_the_scenario_it_always_has() {
    let scale = Scale::default();
    let mut out = String::new();
    for seed in 1..=20u64 {
        let f = FaultScenario::derive(seed, &scale);
        out += &fault_line(seed, &f);
        // `mixed` is the same derivation over a longer backlog.
        let m = MixedScenario::derive(seed, &scale);
        assert_eq!(fault_line(seed, &m.0), fault_line(seed, &f));

        let o = OnlineScenario::derive(seed, &scale);
        out += &format!(
            "online {seed}: {} kind={} ga={} drift={} workers={}\n",
            weather(&o.weather),
            o.kind.name(),
            o.ga_seed,
            o.drift_seed,
            o.weather.workers
        );

        let t = StoreScenario::derive(seed, &scale);
        out += &format!(
            "store {seed}: records={} kill_after={} cells={} compact_threshold={} \
             compact_before_kill={} compact_after_restart={} torn={}\n",
            t.records,
            t.kill_after,
            t.cells,
            t.compact_threshold,
            t.compact_before_kill,
            t.compact_after_restart,
            t.torn_frac
                .map_or("none".to_string(), |f| format!("{:016x}", f.to_bits()))
        );

        let mut clients = String::new();
        for workers in [8, 100] {
            let shard = ShardScale {
                clients: 16,
                workers,
                ..ShardScale::default()
            };
            let broken = false;
            let s = ShardScenario::derive(seed, &Scale { shard, broken });
            out += &format!("shard/{workers} {seed}: {}\n", weather(&s.weather));
            let drawn: Vec<String> = s.clients.iter().map(|(t, g)| format!("{t}:{g}")).collect();
            clients = format!("clients {seed}: {}\n", drawn.join(" "));
        }
        out += &clients;
    }
    let golden = include_str!("fixtures/derivations.txt");
    for (got, want) in out.lines().zip(golden.lines()) {
        assert_eq!(got, want, "a seed's derivation moved");
    }
    assert_eq!(out.lines().count(), golden.lines().count());
}
