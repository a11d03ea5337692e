//! The tenant-facing key registry: string keys → concrete environments
//! and robot radii.
//!
//! Keys are the untrusted boundary of the front door — everything behind
//! them ([`crate::snapshot::SnapshotKey`]) is resolved, validated data.
//! Unknown keys reject the request with a structured
//! [`crate::ServeError`]; they never panic and never build a snapshot.
//!
//! The registry is a pure, process-wide function of the key, so it also
//! holds the **environment catalog**: [`shared_env`] constructs each
//! registered environment at most once per process and hands out the
//! same [`Arc`] ever after. Nothing can change what a key means, so
//! there is no invalidation and nothing to size. The request path never
//! constructs an environment: the server's gate asks [`has_env`], and
//! snapshot builds take the catalog's `Arc`.

use smp_geom::{envs, Environment};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One registered environment: its key, its deterministic constructor,
/// and the catalog slot the constructor fills at most once.
struct EnvEntry {
    key: &'static str,
    build: fn() -> Environment<3>,
    shared: OnceLock<Arc<Environment<3>>>,
}

impl EnvEntry {
    const fn new(key: &'static str, build: fn() -> Environment<3>) -> Self {
        EnvEntry {
            key,
            build,
            shared: OnceLock::new(),
        }
    }
}

/// Every registered environment, in registry order.
static ENVS: [EnvEntry; 6] = [
    EnvEntry::new("free", envs::free_env),
    EnvEntry::new("small_cube", envs::small_cube),
    EnvEntry::new("med_cube", envs::med_cube),
    EnvEntry::new("mixed", envs::mixed),
    EnvEntry::new("mixed_30", envs::mixed_30),
    EnvEntry::new("walls", || envs::walls(1, 0.10, 0.05)),
];

/// Environments constructed for the catalog so far (process-wide).
static ENV_BUILDS: AtomicU64 = AtomicU64::new(0);

fn env_entry(key: &str) -> Option<&'static EnvEntry> {
    ENVS.iter().find(|e| e.key == key)
}

/// Resolve an environment key to a freshly constructed environment, or
/// `None` if unknown.
///
/// Every key maps to a deterministic constructor, so two tenants naming
/// the same key provably plan in the same world — the premise behind
/// sharing one roadmap snapshot between them. This builds on every call;
/// the serving path uses [`shared_env`] instead.
pub fn resolve_env(key: &str) -> Option<Environment<3>> {
    env_entry(key).map(|e| (e.build)())
}

/// Is `key` a registered environment? Constructs nothing.
pub fn has_env(key: &str) -> bool {
    env_entry(key).is_some()
}

/// The catalog's shared environment for `key`, or `None` if unknown:
/// constructed on the first call for that key, the same `Arc` on every
/// later one (and with it one lazily built SoA batch layout for every
/// snapshot of that environment).
pub fn shared_env(key: &str) -> Option<Arc<Environment<3>>> {
    let entry = env_entry(key)?;
    Some(Arc::clone(entry.shared.get_or_init(|| {
        // Relaxed: a statistic, publishes nothing.
        ENV_BUILDS.fetch_add(1, Ordering::Relaxed);
        Arc::new((entry.build)())
    })))
}

/// How many environments the catalog has constructed in this process —
/// exported as `serve.registry.env_builds`. Flat across warm traffic; at
/// most one per registered key over the life of the process.
pub fn env_builds() -> u64 {
    ENV_BUILDS.load(Ordering::Relaxed)
}

/// Resolve a robot key to its ball-robot radius, or `None` if unknown.
pub fn resolve_robot(key: &str) -> Option<f64> {
    match key {
        "point" => Some(0.0),
        "probe" => Some(0.02),
        "ball" => Some(0.05),
        _ => None,
    }
}

/// Every registered environment key, in registry order.
pub fn env_keys() -> impl Iterator<Item = &'static str> {
    ENVS.iter().map(|e| e.key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_key_resolves_and_unknowns_do_not() {
        for k in env_keys() {
            assert!(has_env(k), "env key {k}");
            assert!(resolve_env(k).is_some(), "env key {k}");
        }
        assert_eq!(
            ["point", "probe", "ball"].map(resolve_robot),
            [Some(0.0), Some(0.02), Some(0.05)]
        );
        assert!(!has_env("no-such-env"));
        assert!(resolve_env("no-such-env").is_none());
        assert!(shared_env("no-such-env").is_none());
        assert!(resolve_robot("no-such-robot").is_none());
    }

    #[test]
    fn resolution_is_deterministic() {
        let a = resolve_env("med_cube").unwrap();
        let b = resolve_env("med_cube").unwrap();
        assert_eq!(
            a.blocked_fraction().to_bits(),
            b.blocked_fraction().to_bits()
        );
        assert_eq!(a.obstacles().len(), b.obstacles().len());
    }
}
