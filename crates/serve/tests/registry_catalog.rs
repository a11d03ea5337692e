//! The warm request path constructs nothing: the registry's environment
//! catalog builds each key at most once per process, and a server whose
//! snapshots are cached answers any number of requests without building
//! another.
//!
//! `registry::env_builds` is process-wide, so the exact counts below hold
//! because this is the only test in its binary that touches the catalog —
//! keep it one `#[test]`.

use smp_geom::Point;
use smp_runtime::{Backend, LiveTuning};
use smp_serve::registry::{env_builds, shared_env};
use smp_serve::{PlanRequest, ServeConfig, ServeError, ServeOutcome, Server, SnapshotParams};
use std::sync::Arc;

fn mk(env: &str, robot: &str, s: f64, g: f64) -> PlanRequest {
    PlanRequest::new(env, robot, Point::splat(s), Point::splat(g))
}

#[test]
fn the_catalog_builds_each_environment_once_and_warm_serving_builds_none() {
    assert_eq!(env_builds(), 0, "nothing is constructed before first use");
    let first = shared_env("small_cube").expect("registered key");
    let again = shared_env("small_cube").expect("registered key");
    assert!(Arc::ptr_eq(&first, &again));
    assert!(shared_env("no-such-env").is_none());
    assert_eq!(env_builds(), 1);

    let mut server = Server::new(ServeConfig {
        backend: Backend::Live(LiveTuning::default()),
        cache_capacity: 8,
        snapshot: SnapshotParams {
            regions_target: 8,
            attempts_per_region: 2,
            ..SnapshotParams::default()
        },
        ..ServeConfig::default()
    });

    // Cold, mixed: four snapshot keys over three environments, and two
    // requests the gate rejects — for those not even a known environment
    // (`walls`) is constructed.
    for req in [
        mk("small_cube", "point", 0.1, 0.9),
        mk("small_cube", "ball", 0.1, 0.9),
        mk("free", "point", 0.2, 0.8),
        mk("mixed_30", "probe", 0.05, 0.95),
        mk("no-such-env", "point", 0.1, 0.9),
        mk("walls", "no-such-robot", 0.1, 0.9),
    ] {
        server.submit(req);
    }
    let cold = server.run().expect("cold run");
    assert_eq!(cold.cache_misses, 4);
    assert_eq!(
        cold.records[4].outcome,
        ServeOutcome::Rejected(ServeError::UnknownEnv("no-such-env".into()))
    );
    assert_eq!(
        cold.records[5].outcome,
        ServeOutcome::Rejected(ServeError::UnknownRobot("no-such-robot".into()))
    );
    assert_eq!(env_builds(), 3, "one build per distinct environment key");
    assert_eq!(cold.metrics.get("serve.registry.env_builds"), Some(3));

    // Warm: a thousand requests on the expensive environment.
    for i in 0..1000 {
        let s = 0.02 + 0.0009 * f64::from(i);
        server.submit(mk("mixed_30", "probe", s, 1.0 - s));
    }
    let warm = server.run().expect("warm run");
    assert_eq!(warm.ledger.admitted, 1000);
    assert!(warm.conservation_violations().is_empty());
    assert_eq!((warm.cache_hits, warm.cache_misses), (warm.batches, 0));
    assert_eq!(warm.metrics.get("serve.registry.env_builds"), Some(3));
    assert_eq!(env_builds(), 3);
}
