//! `envs::clutter_env` keeps the 12³ midpoint occupancy incrementally
//! instead of rebuilding the environment and re-estimating after every
//! box. It must place exactly the same boxes: the obstacle lists of
//! `mixed`, `mixed-30` and two other seeds equal, bit for bit, those of the
//! verbatim quadratic body in `reference/clutter_env_v1.rs`.

#[path = "reference/clutter_env_v1.rs"]
mod clutter_env_v1;

use smp_geom::{envs, Environment, Obstacle};

fn bits(env: &Environment<3>) -> Vec<u64> {
    env.obstacles()
        .iter()
        .flat_map(|o| match o {
            Obstacle::Box(bb) => {
                let (lo, hi) = (bb.lo(), bb.hi());
                [lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]].map(f64::to_bits)
            }
            other => panic!("clutter places boxes only, got {other:?}"),
        })
        .collect()
}

/// `new` must hold exactly the boxes the quadratic body places for the
/// same parameters.
fn assert_same(new: Environment<3>, (name, frac, scale, core, seed): (&str, f64, f64, f64, u64)) {
    let old = clutter_env_v1::clutter_env(name, frac, scale, core, seed);
    assert_eq!(
        new.obstacles().len(),
        old.obstacles().len(),
        "{name}: count"
    );
    assert_eq!(bits(&new), bits(&old), "{name}: obstacle bits");
    assert_eq!(new.name(), old.name());
    assert_eq!(new.has_disjoint_obstacles(), old.has_disjoint_obstacles());
}

#[test]
fn mixed_equals_the_quadratic_reference() {
    assert_same(envs::mixed(), ("mixed", 0.60, 0.14, 0.08, 0x6d69_7865));
}

#[test]
fn mixed_30_equals_the_quadratic_reference() {
    assert_same(
        envs::mixed_30(),
        ("mixed-30", 0.30, 0.14, 0.08, 0x6d78_3330),
    );
}

#[test]
fn other_seeds_equal_the_quadratic_reference() {
    for params in [
        ("dense-small", 0.45, 0.09, 0.05, 7),
        ("sparse-big", 0.20, 0.25, 0.12, 0xfeed),
    ] {
        let (name, frac, scale, core, seed) = params;
        assert_same(envs::clutter_env(name, frac, scale, core, seed), params);
    }
}
